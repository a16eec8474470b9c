package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// snapshotPages decodes a memory snapshot into its pages, keyed by page
// number, from AppendTo's format (page count, then page-number/contents
// pairs).
func snapshotPages(s *mem.Snapshot) map[uint64][]byte {
	b := s.AppendTo(nil)
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	pages := make(map[uint64][]byte, n)
	for i := uint64(0); i < n; i++ {
		pn := binary.LittleEndian.Uint64(b)
		pages[pn] = b[8 : 8+mem.PageSize]
		b = b[8+mem.PageSize:]
	}
	return pages
}

// TestMemoryEndStateMatchesFunctional compares the detailed core's memory
// with the functional model's after the same retired count, on every
// workload with and without slices. Every page both map must match byte
// for byte, and the core may lack none of the model's pages. The core may
// map extra pages only if they are all zero: a wrong-path store to an
// unmapped page materializes it, and the squash restores its bytes but
// leaves it mapped.
func TestMemoryEndStateMatchesFunctional(t *testing.T) {
	const run = 150_000
	for _, w := range sharedWorkloads() {
		for _, withSlices := range []bool{false, true} {
			w, withSlices := w, withSlices
			t.Run(fmt.Sprintf("%s/slices=%t", w.Name, withSlices), func(t *testing.T) {
				t.Parallel()
				table := w.SliceTable()
				if !withSlices {
					table = nil
				}
				c := MustNew(Config4Wide(), w.Image, w.NewMemory(), w.Entry, table)
				c.Run(run)
				ck, err := c.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				m := w.NewMemory()
				st, err := RunFunctional(w.Image, m, w.Entry, ck.WarmRetired)
				if err != nil {
					t.Fatal(err)
				}
				if st.Retired != ck.WarmRetired {
					t.Fatalf("functional model retired %d, core %d", st.Retired, ck.WarmRetired)
				}
				if st.Regs != ck.Regs {
					t.Errorf("register files differ after %d instructions", st.Retired)
				}

				core, model := snapshotPages(ck.Mem), snapshotPages(m.Snapshot())
				for pn, want := range model {
					got, ok := core[pn]
					if !ok {
						t.Errorf("core lacks page %#x", pn)
					} else if !bytes.Equal(got, want) {
						t.Errorf("page %#x differs", pn)
					}
				}
				extra := 0
				for pn, got := range core {
					if _, ok := model[pn]; ok {
						continue
					}
					extra++
					if !bytes.Equal(got, make([]byte, mem.PageSize)) {
						t.Errorf("core maps page %#x the model lacks, and it is not all zero", pn)
					}
				}
				if extra > 0 {
					t.Logf("core maps %d pages, the model %d: %d extra all-zero pages", len(core), len(model), extra)
				}
			})
		}
	}
}

// TestCheckpointCopyOnWrite guards the core's Pager against writing into
// pages a checkpoint shares. A checkpoint taken mid-run must keep its
// bytes while the same core runs on, and two cores restored from it and
// run at once (under -race, a write to a shared page is also a data race)
// must end in the same state as each other and as the original core.
func TestCheckpointCopyOnWrite(t *testing.T) {
	const warm, run = 30_000, 20_000
	w := sharedWorkload(t, "gcc")
	table := w.SliceTable()
	c := MustNew(Config4Wide(), w.Image, w.NewMemory(), w.Entry, table)
	c.Run(warm)
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	before := ck.Mem.AppendTo(nil)

	c.Run(c.S.MainRetired + run)
	if !bytes.Equal(ck.Mem.AppendTo(nil), before) {
		t.Error("running on after Checkpoint changed the checkpoint's memory")
	}
	want, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if want.Mem.Equal(ck.Mem) {
		t.Fatal("the region stored nothing; copy-on-write went untested")
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	snaps := make([]stats.Snapshot, 2)
	ends := make([]*Checkpoint, 2)
	errs := make([]error, 2)
	for i := range ends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			r, err := Restore(Config4Wide(), w.Image, ck, table)
			if err != nil {
				errs[i] = err
				return
			}
			r.Run(run)
			snaps[i] = r.Snapshot()
			ends[i], errs[i] = r.Checkpoint()
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(ck.Mem.AppendTo(nil), before) {
		t.Error("the restored cores changed the checkpoint's memory")
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Error("two cores restored from one checkpoint simulated differently")
	}
	for i, end := range ends {
		if !end.Mem.Equal(want.Mem) || end.Regs != want.Regs {
			t.Errorf("restored core %d ended in a different state than the core that ran on", i)
		}
	}
}
