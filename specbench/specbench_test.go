package main

import (
	"testing"
	"time"

	"repro/internal/cpu"
)

func TestPercentileSampleRule(t *testing.T) {
	for _, c := range []struct {
		n, q int
		ok   bool
	}{
		{100, p90, true}, // rank 90, ten beyond
		{99, p90, false}, // rank 90, nine beyond
		{104, p90, true},
		{1000, p99, true},
		{999, p99, false},
		{10_000, p999, true},
		{9_999, p999, false},
	} {
		if got := supports(c.n, c.q); got != c.ok {
			t.Errorf("supports(%d, %d) = %v, want %v", c.n, c.q, got, c.ok)
		}
	}
	for n, want := range map[int]int{10: 0, 100: p90, 999: p90, 1000: p99, 12_000: p999} {
		if got := tailPermille(n); got != want {
			t.Errorf("tailPermille(%d) = %d, want %d", n, got, want)
		}
	}
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100-i) * time.Millisecond // 100ms..1ms, unsorted
	}
	if got := percentileMs(ds, p50); got != 50 {
		t.Errorf("p50 = %v ms, want 50", got)
	}
	if got := percentileMs(ds, p90); got != 90 {
		t.Errorf("p90 = %v ms, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "driver", ID: 0, Parent: -1, Start: 0, End: 100},
		// Two parallel simulations overlapping on [30, 50), and one that
		// runs past the parent's end.
		{Name: "sim", ID: 1, Parent: 0, Start: 10, End: 50},
		{Name: "sim", ID: 2, Parent: 0, Start: 30, End: 60},
		{Name: "sim", ID: 3, Parent: 0, Start: 90, End: 120},
		{Name: "warm", ID: 4, Parent: 1, Start: 10, End: 20},
	}
	self := selfTimes(spans)
	// driver: 100 − |[10,60) ∪ [90,100)| = 100 − 60.
	if got := self["driver"]; got != 40 {
		t.Errorf("driver self = %d, want 40", got)
	}
	// sims: (40 − 10) + 30 + 30.
	if got := self["sim"]; got != 90 {
		t.Errorf("sim self = %d, want 90", got)
	}
	if got := self["warm"]; got != 10 {
		t.Errorf("warm self = %d, want 10", got)
	}
}

func TestRecorderOffIsNoop(t *testing.T) {
	var r *recorder
	if id := r.begin("x", -1, r.newSim()); id != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", id)
	}
	r.end(-1)
	r.add("x", -1, -1, time.Now(), time.Now())
}

func TestWarmOffsetDeterministic(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := int64(0); seed < 50; seed++ {
		for prog := 0; prog < 12; prog++ {
			a, b := warmOffset(seed, prog), warmOffset(seed, prog)
			if a != b {
				t.Fatalf("warmOffset(%d, %d) not deterministic: %d vs %d", seed, prog, a, b)
			}
			if a%1000 != 0 || a >= maxOffsetK*1000 {
				t.Fatalf("warmOffset(%d, %d) = %d, want whole thousands below %d", seed, prog, a, maxOffsetK*1000)
			}
			if seed == 0 && a != 0 {
				t.Fatalf("default seed moved program %d by %d", prog, a)
			}
			seen[a] = true
		}
	}
	if len(seen) != maxOffsetK {
		t.Errorf("offsets used %d of %d values", len(seen), maxOffsetK)
	}
	// Set-up applies the same mapping to every region it derives.
	e := setup(7)
	for i, p := range e.progs {
		off := warmOffset(7, i)
		if p.offset != off || p.ff != ffInsts+off {
			t.Errorf("%s: offset %d, ff %d; want %d, %d", p.w.Name, p.offset, p.ff, off, ffInsts+off)
		}
	}
}

func TestChunkedRunMatchesOneRun(t *testing.T) {
	e := setup(3)
	for _, name := range []string{"vpr", "gcc"} {
		p, err := e.byName(name)
		if err != nil {
			t.Fatal(err)
		}
		var snaps [2]string
		for i, chunk := range []uint64{0, 777} {
			core, err := cpu.New(cpu.Config4Wide(), p.w.Image, p.newMemory(), p.w.Entry, p.table)
			if err != nil {
				t.Fatal(err)
			}
			core.Run(5_000)
			core.ResetStats()
			const n = 20_000
			if chunk == 0 {
				core.Run(n)
			} else {
				var ds []time.Duration
				runChunks(core, n, chunk, nil, -1, -1, &ds)
				if want := (n + chunk - 1) / chunk; len(ds) != int(want) {
					t.Fatalf("%s: %d chunks, want %d", name, len(ds), want)
				}
			}
			s := core.Snapshot()
			if s.Sim.Forks == 0 {
				t.Fatalf("%s: no slices forked; the test would not cover helper threads", name)
			}
			snaps[i] = digest(&s)
		}
		if snaps[0] != snaps[1] {
			t.Errorf("%s: chunked run snapshot %s differs from one Run's %s", name, snaps[1], snaps[0])
		}
	}
}

func TestReplayCountMismatchFails(t *testing.T) {
	if _, err := timeReps(10, func(int) (int, error) { return 9, nil }); err == nil {
		t.Fatal("a replay that skipped an operation was accepted")
	}
	if _, err := timeReps(10, func(int) (int, error) { return 10, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestReplaysDoWhatTheyCaptured(t *testing.T) {
	e := setup(0)
	p, err := e.byName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	s, err := captureStream(p)
	if err != nil {
		t.Fatal(err)
	}
	ss := []*stream{s}
	if n, err := replayCache(ss); err != nil || n != s.loads+s.stores {
		t.Errorf("cache replay: %d accesses (%v), captured %d", n, err, s.loads+s.stores)
	}
	if n := replayBpred(ss); n != s.conds+s.indirec {
		t.Errorf("bpred replay: %d lookups, captured %d", n, s.conds+s.indirec)
	}
	if n, err := replayExec(ss, execStates(ss)); err != nil || n != len(s.steps) {
		t.Errorf("isa replay: %d instructions (%v), captured %d", n, err, len(s.steps))
	}
	if s.loads == 0 || s.conds == 0 {
		t.Errorf("mcf window has %d loads and %d branches", s.loads, s.conds)
	}
	c, err := captureCorr(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ops) == 0 || c.insts == 0 || c.allocs == 0 {
		t.Fatalf("captured %d correlator ops, %d instances, %d allocations", len(c.ops), c.insts, c.allocs)
	}
	if n := replayCorr([]*corrStream{c}); n != len(c.ops) {
		t.Errorf("correlator replay: %d ops, captured %d", n, len(c.ops))
	}
}

// TestPaperAllTracedPass runs paper-all's engine pass with spans recorded
// and its serial re-drive on one program; under -race it covers the
// recorder and the Progress callback the engine's workers call.
func TestPaperAllTracedPass(t *testing.T) {
	e := setup(1)
	p, err := e.byName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	e.progs = []*program{p}
	rec := newRecorder()
	ps := paperAllPass(e, rec)
	redrive(e, ps, rec)
	if ps.failed != 0 {
		t.Fatalf("%d failed: %v", ps.failed, ps.problems)
	}
	// Nine unique simulations per program, each simulated again by the
	// re-drive.
	if len(ps.sims) != 9 || ps.attempted != 18 {
		t.Fatalf("%d simulations, %d attempted; want 9 and 18", len(ps.sims), ps.attempted)
	}
	self := selfTimes(rec.spans)
	for _, name := range []string{"Engine.Table2", "sim", "Checkpointer.Warm", "cpu.Restore", "Core.Run/chunk"} {
		if self[name] <= 0 {
			t.Errorf("no self time for %s", name)
		}
	}
}
