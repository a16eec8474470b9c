package slicehw

import (
	"slices"
	"testing"
)

// blankTails reports whether rec's slices hold no pointer past their
// length, up to capacity.
func blankTails(rec *KillRecord) bool {
	return allNil(rec.Preds[len(rec.Preds):cap(rec.Preds)]) &&
		allNil(rec.skipSliceInsts[len(rec.skipSliceInsts):cap(rec.skipSliceInsts)]) &&
		allNil(rec.finishedInsts[len(rec.finishedInsts):cap(rec.finishedInsts)])
}

// TestRecycledKillRecordIsBlank: a kill record handed back by UndoKill is
// reused by the next kill, and the new owner sees none of the old
// record's skipped instance, finished instances or killed entries.
func TestRecycledKillRecordIsBlank(t *testing.T) {
	s := testSlice()
	s.LoopKillSkipFirst = true
	s.SliceKillSkipFirst = true
	c := NewCorrelator(8)
	inst := c.NewInstance(s)
	p := c.Allocate(inst, 0x2000)
	check := func(step string) {
		t.Helper()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	// An exempt loop kill records only the instance it skipped.
	rec := c.KillLoop(s)
	if rec == nil || rec.skipInst != inst || len(rec.Preds) != 0 {
		t.Fatalf("exempt loop kill = %+v", rec)
	}
	c.UndoKill(rec)
	check("undo exempt loop kill")

	// The next kill reuses the record without the skipped instance.
	if got := c.KillSlice(s); got != rec {
		t.Fatal("slice kill did not reuse the released record")
	}
	if rec.skipInst != nil || len(rec.Preds) != 0 || len(rec.finishedInsts) != 0 ||
		len(rec.skipSliceInsts) != 1 || rec.skipSliceInsts[0] != inst {
		t.Fatalf("recycled record carries stale state: %+v", rec)
	}
	c.UndoKill(rec)
	check("undo exempt slice kill")

	// Without exemptions the slice kill finishes the instance and kills
	// its entry.
	inst.skipLoopKill, inst.skipSliceKill = 0, 0
	if got := c.KillSlice(s); got != rec || len(rec.finishedInsts) != 1 || len(rec.Preds) != 1 || rec.Preds[0] != p {
		t.Fatalf("slice kill = %+v", got)
	}
	c.UndoKill(rec)
	if p.Killed || inst.finished {
		t.Fatal("undo did not restore the entry and the instance")
	}
	check("undo slice kill")

	// A loop kill reuses the record with none of the slice kill left over.
	if got := c.KillLoop(s); got != rec {
		t.Fatal("loop kill did not reuse the released record")
	}
	if rec.skipInst != nil || len(rec.finishedInsts) != 0 || len(rec.skipSliceInsts) != 0 ||
		len(rec.Preds) != 1 || rec.Preds[0] != p || !blankTails(rec) {
		t.Fatalf("recycled record carries stale state: %+v", rec)
	}
	c.CommitKill(rec)
	if c.QueueLen(0x2000) != 0 {
		t.Fatal("committed loop kill left its entry queued")
	}
	check("commit loop kill")
}

// TestKillRecordReleasedTwicePanics: a record with two owners would
// corrupt both kills, so a double release is caught at once.
func TestKillRecordReleasedTwicePanics(t *testing.T) {
	s := testSlice()
	c := NewCorrelator(8)
	c.Allocate(c.NewInstance(s), 0x2000)
	rec := c.KillLoop(s)
	c.UndoKill(rec)
	defer func() {
		if recover() == nil {
			t.Error("second release of one kill record did not panic")
		}
	}()
	c.CommitKill(rec)
}

// TestRemovedPredIsNeverReused: predictions come from a slab and are not
// recycled, so Fill and UndoUse on an entry removed earlier — a squashed
// PGI or branch acting late — reach no live entry, however many entries
// were allocated since.
func TestRemovedPredIsNeverReused(t *testing.T) {
	s := testSlice()
	s.PGIs = append(s.PGIs, PGI{SlicePC: 0x100014, BranchPC: 0x2020})
	c := NewCorrelator(8)
	old := c.NewInstance(s)
	gone := c.Allocate(old, 0x2000)
	c.Fill(gone, true)
	if got, _, _ := c.Lookup(0x2000, false, "old-branch"); got != gone {
		t.Fatal("setup lookup missed")
	}
	c.RemoveInstance(old) // fork squashed: its entry leaves the queue

	// Cycle far more entries than one slab chunk through the queues.
	var live []*Pred
	for i := 0; i < 40; i++ {
		inst := c.NewInstance(s)
		a := c.Allocate(inst, 0x2000)
		b := c.Allocate(inst, 0x2020)
		c.Fill(a, i%2 == 0)
		if i%3 == 0 {
			c.Lookup(0x2000, true, i)
		}
		if i < 36 {
			c.CommitKill(c.KillSlice(s))
			continue
		}
		live = append(live, a, b)
	}
	type view struct {
		Filled, Dir, Used, UsedDir, Killed bool
		Consumer                           any
	}
	snap := func() []view {
		var out []view
		for _, p := range live {
			out = append(out, view{p.Filled, p.Dir, p.Used, p.UsedDir, p.Killed, p.Consumer})
		}
		return out
	}
	n := 0
	c.ForEachLivePred(func(p *Pred) {
		if p == gone {
			t.Fatal("a removed prediction is live again")
		}
		n++
	})
	if n != len(live) {
		t.Fatalf("%d live entries, want %d", n, len(live))
	}
	before, stats := snap(), c.Stats

	if res := c.Fill(gone, false); res.Applied || res.LateMismatch {
		t.Errorf("Fill on a removed entry = %+v", res)
	}
	c.UndoUse(gone)
	if after := snap(); !slices.Equal(after, before) {
		t.Errorf("live entries changed:\n before %+v\n after  %+v", before, after)
	}
	if c.Stats != stats {
		t.Errorf("counters moved: %+v -> %+v", stats, c.Stats)
	}
	if !gone.Used || gone.Consumer != "old-branch" {
		t.Error("UndoUse rewrote a removed entry")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
