package workloads_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// TestConcurrentCoresShareImageAndSlices runs several cores concurrently
// over one Workload — same Image, same slice table — under the race
// detector, and requires every replica to produce identical statistics.
// This is the safety contract the parallel experiment engine depends on:
// the shared structures are read-only, and all mutable state (core,
// memory, correlator) is per-run.
func TestConcurrentCoresShareImageAndSlices(t *testing.T) {
	w, err := workloads.ByName("vpr")
	if err != nil {
		t.Fatal(err)
	}
	// Touch the slice table from the main goroutine too, so the lazy
	// build races with the workers unless it is properly synchronized.
	if w.SliceTable() == nil {
		t.Fatal("nil slice table")
	}

	const replicas = 4
	const warm, run = 10_000, 20_000
	results := make([]*stats.Sim, replicas)
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := cpu.Config4Wide()
			var table = w.SliceTable()
			if i%2 == 0 {
				table = nil // mix plain and slice-assisted cores
			}
			core := cpu.MustNew(cfg, w.Image, w.NewMemory(), w.Entry, table)
			core.Run(warm)
			core.ResetStats()
			results[i] = core.Run(run)
		}(i)
	}
	wg.Wait()

	// Replicas with the same mode must agree exactly: concurrency may not
	// perturb a simulation.
	for i := 2; i < replicas; i += 2 {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("plain replica %d diverged from replica 0", i)
		}
	}
	for i := 3; i < replicas; i += 2 {
		if !reflect.DeepEqual(results[1], results[i]) {
			t.Errorf("slice replica %d diverged from replica 1", i)
		}
	}
}

// TestInitialMemoryViewsAreIsolated guards the shared initial-memory
// snapshot: for every workload, two cores run concurrently over two
// NewMemory views of one Workload value, storing into them, and a third
// view taken afterwards must still equal InitMem applied to an empty
// memory — the same pages, byte for byte, and the same footprint. A store
// that reached a snapshot page instead of the view's private copy shows
// up here, and under -race as a data race between the two cores.
func TestInitialMemoryViewsAreIsolated(t *testing.T) {
	const run = 30_000
	stored := 0
	for _, w := range workloads.All() {
		want := mem.New()
		w.InitMem(want)
		wantSnap := want.Snapshot()

		views := [2]*mem.Memory{w.NewMemory(), w.NewMemory()}
		var wg sync.WaitGroup
		for i, m := range views {
			wg.Add(1)
			go func(withSlices bool, m *mem.Memory) {
				defer wg.Done()
				var table *slicehw.Table
				if withSlices {
					table = w.SliceTable()
				}
				cpu.MustNew(cpu.Config4Wide(), w.Image, m, w.Entry, table).Run(run)
			}(i == 1, m)
		}
		wg.Wait()

		// Only some kernels store at all; those must have written their
		// views, or the test would not exercise copy-on-write.
		if hasStores(w) {
			stored++
			for i, m := range views {
				if m.Snapshot().Equal(wantSnap) {
					t.Errorf("%s: core %d stored nothing in %d instructions", w.Name, i, run)
				}
			}
		}
		third := w.NewMemory()
		if !third.Snapshot().Equal(wantSnap) {
			t.Errorf("%s: a fresh view differs from InitMem's memory after two cores ran on views", w.Name)
		}
		if got, want := third.Footprint(), want.Footprint(); got != want {
			t.Errorf("%s: fresh view footprint %d, InitMem's memory %d", w.Name, got, want)
		}
	}
	if stored == 0 {
		t.Fatal("no workload stores to memory; copy-on-write went unexercised")
	}
}

// hasStores reports whether w's main program contains a store.
func hasStores(w *workloads.Workload) bool {
	main := w.Image.Programs()[0]
	for i := range main.Insts {
		if main.Insts[i].IsStore() {
			return true
		}
	}
	return false
}
