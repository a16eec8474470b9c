package harness

import (
	"sync/atomic"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// countInits wraps each workload's InitMem in a counter and returns the
// counters, index-aligned with ws.
func countInits(ws []*workloads.Workload) []*atomic.Int64 {
	counts := make([]*atomic.Int64, len(ws))
	for i, w := range ws {
		n, init := new(atomic.Int64), w.InitMem
		w.InitMem = func(m *mem.Memory) {
			n.Add(1)
			if init != nil {
				init(m)
			}
		}
		counts[i] = n
	}
	return counts
}

// TestEngineBuildsEachWorkloadOnce: one pass of the paper's four
// experiments through the engine builds each program's initial memory
// exactly once — every warm build, restore and profile shares the value
// the experiments were handed. Two programs, one that stores and one that
// never does, keep the pass short under -race; the experiments treat
// every workload alike.
func TestEngineBuildsEachWorkloadOnce(t *testing.T) {
	ws := []*workloads.Workload{workloads.VPR(), workloads.Mcf()}
	counts := countInits(ws)
	e := NewEngine(Params{Scale: 0.001}, 0)
	e.Table2(ws)
	e.Figure1(ws)
	e.Figure11(ws)
	e.Table4(ws)
	if st := e.Stats(); st.Checkpoints.WarmMisses < uint64(len(ws)) {
		t.Fatalf("only %d warm builds for %d workloads", st.Checkpoints.WarmMisses, len(ws))
	}
	for i, w := range ws {
		if n := counts[i].Load(); n != 1 {
			t.Errorf("%s: InitMem ran %d times, want 1", w.Name, n)
		}
	}
}

// TestEngineResolvesNamesOncePerEngine: a name no experiment handed over
// resolves through workloads.ByName once per engine, so the engine's runs
// share one value; another engine resolves its own.
func TestEngineResolvesNamesOncePerEngine(t *testing.T) {
	e := NewEngine(small, 1)
	spec := RunSpec{Workload: "mcf", Cfg: cpu.Config4Wide(), Warm: minWarmRegion, Run: minRunRegion}
	if _, err := e.Run(spec); err != nil {
		t.Fatal(err)
	}
	first, err := e.workload("mcf")
	if err != nil {
		t.Fatal(err)
	}
	spec.WithSlices = true
	if _, err := e.Run(spec); err != nil {
		t.Fatal(err)
	}
	if again, _ := e.workload("mcf"); again != first {
		t.Error("a second spec re-resolved the name: two values for one workload in one engine")
	}
	if other, _ := NewEngine(small, 1).workload("mcf"); other == first {
		t.Error("two engines share one resolved value")
	}
}

// TestEngineFirstValueWinsPerName: when two different values arrive under
// one name, every run of that name uses the first; the second still sets
// the region lengths of the specs built from it.
func TestEngineFirstValueWinsPerName(t *testing.T) {
	a, b := workloads.VPR(), workloads.VPR()
	counts := countInits([]*workloads.Workload{a, b})
	b.SuggestedWarmup = a.SuggestedWarmup * 2

	e := NewEngine(small, 1)
	e.Table2([]*workloads.Workload{a})
	e.Table2([]*workloads.Workload{b})
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("%d simulations, want 2: the second value's longer warm-up is a new spec", st.Misses)
	}
	if got, _ := e.workload("vpr"); got != a {
		t.Error("the engine's value for vpr is not the first one handed over")
	}
	if na, nb := counts[0].Load(), counts[1].Load(); na != 1 || nb != 0 {
		t.Errorf("InitMem ran %d times on the first value, %d on the second; want 1 and 0", na, nb)
	}
}
