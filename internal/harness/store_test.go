package harness

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/stats"
)

// TestConcurrentStoreWriters runs N independent Checkpointers (standing in
// for N processes: they share no in-memory state, only the directory) that
// warm the same key at once, under -race. Several of them may build and
// publish the entry; each publish is a rename of its own temp file, so
// every caller measures from a whole checkpoint, and the directory ends
// with one valid entry and no temp files.
func TestConcurrentStoreWriters(t *testing.T) {
	dir := t.TempDir()
	w := pick(t, "vpr")[0]
	cfg := cpu.Config4Wide()
	const warm, run = 22_500, 60_000
	const n = 4

	cold := measureVia(t, NewCheckpointer("", WarmDetailed), w.Name, cfg, true, warm, run)

	cps := make([]*Checkpointer, n)
	snaps := make([]stats.Snapshot, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cps {
		cps[i] = NewCheckpointer(dir, WarmDetailed)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			core, _, err := runOnce(cps[i], w, cfg, true, warm, run, OracleOptions{}, nil)
			if err != nil {
				t.Errorf("writer %d: %v", i, err)
				return
			}
			snaps[i] = core.Snapshot()
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, cp := range cps {
		if !reflect.DeepEqual(cold, snaps[i]) {
			t.Errorf("writer %d measured a different snapshot than the cold run", i)
		}
		st := cp.Stats()
		if st.DiskLoads+st.WarmMisses != 1 {
			t.Errorf("writer %d: %d disk loads + %d warm builds, want 1 in total", i, st.DiskLoads, st.WarmMisses)
		}
		if st.DiskStores != st.WarmMisses {
			t.Errorf("writer %d built %d warm regions but stored %d", i, st.WarmMisses, st.DiskStores)
		}
	}

	entries, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(entries) != 1 {
		t.Errorf("store holds %v, want exactly one entry", entries)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	fresh := NewCheckpointer(dir, WarmDetailed)
	if _, _, err := fresh.Warm(w, cfg, true, warm); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats(); st.DiskLoads != 1 || st.WarmMisses != 0 {
		t.Errorf("fresh reader: %d disk loads, %d warm builds; want 1 and 0", st.DiskLoads, st.WarmMisses)
	}
}
