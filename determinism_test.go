package repro

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// These tests are the guard for the zero-alloc cycle loop: DynInst
// pooling, ring queues, and the incremental scheduler must not change a
// single simulated outcome. Every simulation is a pure function of its
// spec, so two runs of the same region — whatever the pool reuse pattern,
// and whatever Run() call boundaries slice the region — must produce
// deeply equal stats.Snapshots. A stale field on a recycled DynInst, a
// dangling pool reference, or a ready-list ordering bug shows up here as a
// counter divergence.

const (
	detWarm   = 30_000
	detRegion = 60_000
)

func detCore(t testing.TB, w *workloads.Workload, slices bool) *cpu.Core {
	t.Helper()
	if slices {
		return cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, w.SliceTable())
	}
	return cpu.MustNew(cpu.Config4Wide(), w.Image, w.NewMemory(), w.Entry, nil)
}

// TestPoolDeterminism runs each workload's region, with and without
// slices, twice on independent cores — concurrently, so `go test -race`
// also exercises parallel pooled engines — and requires identical
// snapshots.
func TestPoolDeterminism(t *testing.T) {
	for _, w := range workloads.All() {
		for _, slices := range []bool{false, true} {
			w, slices := w, slices
			t.Run(fmt.Sprintf("%s/slices=%v", w.Name, slices), func(t *testing.T) {
				t.Parallel()
				run := func(ch chan<- stats.Snapshot) {
					core := detCore(t, w, slices)
					core.Run(detWarm)
					core.ResetStats()
					core.Run(detRegion)
					ch <- core.Snapshot()
				}
				a, b := make(chan stats.Snapshot, 1), make(chan stats.Snapshot, 1)
				go run(a)
				go run(b)
				sa, sb := <-a, <-b
				if !reflect.DeepEqual(sa, sb) {
					t.Errorf("two identical runs diverged:\n%s", snapshotDiff(sa, sb))
				}
			})
		}
	}
}

// TestPoolReuseAcrossRuns re-simulates each workload's region, with and
// without slices, through different Run() boundaries: the chunked core re-enters the cycle loop repeatedly
// over a pool warmed by all earlier chunks, and must track the straight
// run exactly.
func TestPoolReuseAcrossRuns(t *testing.T) {
	for _, w := range workloads.All() {
		for _, slices := range []bool{false, true} {
			w, slices := w, slices
			t.Run(fmt.Sprintf("%s/slices=%v", w.Name, slices), func(t *testing.T) {
				t.Parallel()

				straight := detCore(t, w, slices)
				straight.Run(detWarm)
				straight.ResetStats()
				straight.Run(detRegion)

				chunked := detCore(t, w, slices)
				// Run targets are cumulative retired-instruction counts
				// since the last reset, so these chunks cover exactly the
				// same region.
				chunked.Run(detWarm / 3)
				chunked.Run(detWarm * 2 / 3)
				chunked.Run(detWarm)
				chunked.ResetStats()
				for i := 1; i <= 6; i++ {
					chunked.Run(uint64(detRegion * i / 6))
				}

				sa, sb := straight.Snapshot(), chunked.Snapshot()
				if !reflect.DeepEqual(sa, sb) {
					t.Errorf("chunked run diverged from straight run:\n%s", snapshotDiff(sa, sb))
				}
			})
		}
	}
}

// snapshotDiff renders the first differing top-level components, so a
// failure names the counter that went nondeterministic instead of dumping
// two full snapshots.
func snapshotDiff(a, b stats.Snapshot) string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	out := ""
	for i := 0; i < va.NumField(); i++ {
		f := va.Type().Field(i)
		if reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			continue
		}
		out += fmt.Sprintf("component %s differs:\n  a: %+v\n  b: %+v\n",
			f.Name, va.Field(i).Interface(), vb.Field(i).Interface())
	}
	if out == "" {
		out = "(snapshots differ only in unexported state)"
	}
	return out
}
