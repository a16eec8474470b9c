package slicehw

import (
	"math/rand"
	"testing"
)

// TestFuzzCorrelatorInvariants drives the correlator with random but
// legally-shaped operation sequences — allocations, fills, lookups, kills,
// undo of any of them in reverse order, and commit in program order — and
// checks the structural invariants the CPU relies on. Undo and commit both
// recycle kill records, so later kills run on reused records.
func TestFuzzCorrelatorInvariants(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		runCorrelatorInvariants(t, seed)
	}
}

// FuzzCorrelatorInvariants is the native-fuzzing entry for the same
// driver: the corpus is the PRNG seed, so `go test -fuzz` explores
// operation sequences beyond the fixed test seeds.
func FuzzCorrelatorInvariants(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { runCorrelatorInvariants(t, seed) })
}

func runCorrelatorInvariants(t testing.TB, seed int64) {
	const branchA, branchB = 0x2000, 0x2020
	rng := rand.New(rand.NewSource(seed))
	s := &Slice{
		Name:    "fuzz",
		ForkPC:  0x1000,
		SlicePC: 0x100000,
		PGIs: []PGI{
			{SlicePC: 0x100010, BranchPC: branchA},
			{SlicePC: 0x100014, BranchPC: branchB},
		},
		LoopKillPC:  0x3000,
		SliceKillPC: 0x3004,
		// The seed's low bits pick the kill exemptions, so exempt kills
		// (records that hold only a skipped instance) get recycled too.
		LoopKillSkipFirst:  seed&1 != 0,
		SliceKillSkipFirst: seed&2 != 0,
	}
	c := NewCorrelator(8)

	// stack is the in-flight action log in program order: a squash undoes
	// a suffix, a retirement commits a prefix.
	type undoable struct {
		kind     string
		pred     *Pred
		consumer int
		rec      *KillRecord
		inst     *Instance
	}
	var stack []undoable
	var live []*Instance

	for op := 0; op < 400; op++ {
		switch rng.Intn(11) {
		case 0, 1: // fork
			inst := c.NewInstance(s)
			live = append(live, inst)
			stack = append(stack, undoable{kind: "fork", inst: inst})
		case 2, 3: // allocate
			if len(live) == 0 {
				continue
			}
			inst := live[rng.Intn(len(live))]
			bpc := uint64(branchA)
			if rng.Intn(2) == 0 {
				bpc = branchB
			}
			if p := c.Allocate(inst, bpc); p != nil {
				stack = append(stack, undoable{kind: "alloc", pred: p})
			}
		case 4: // fill a random entry
			if len(live) == 0 {
				continue
			}
			inst := live[rng.Intn(len(live))]
			if es := inst.Entries(); len(es) > 0 {
				c.Fill(es[rng.Intn(len(es))], rng.Intn(2) == 0)
			}
		case 5, 6: // lookup
			bpc := uint64(branchA)
			if rng.Intn(2) == 0 {
				bpc = branchB
			}
			p, _, override := c.Lookup(bpc, rng.Intn(2) == 0, op)
			if p != nil {
				if p.Killed {
					t.Fatalf("seed %d: matched a killed entry", seed)
				}
				if override && !p.Filled {
					t.Fatalf("seed %d: override from an unfilled entry", seed)
				}
				stack = append(stack, undoable{kind: "use", pred: p, consumer: op})
			}
		case 7: // loop kill
			if rec := c.KillLoop(s); rec != nil {
				stack = append(stack, undoable{kind: "kill", rec: rec})
			}
		case 8: // slice kill
			if rec := c.KillSlice(s); rec != nil {
				stack = append(stack, undoable{kind: "kill", rec: rec})
			}
		case 9: // squash: undo a random suffix of the action stack
			if len(stack) == 0 {
				continue
			}
			n := 1 + rng.Intn(len(stack))
			for i := 0; i < n; i++ {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				switch u.kind {
				case "fork":
					c.RemoveInstance(u.inst)
					for k, li := range live {
						if li == u.inst {
							live = append(live[:k], live[k+1:]...)
							break
						}
					}
				case "alloc":
					c.UndoAllocate(u.pred)
				case "use":
					c.UndoUse(u.pred)
				case "kill":
					c.UndoKill(u.rec)
				}
			}
		case 10: // retire: commit a random prefix of the action stack
			if len(stack) == 0 {
				continue
			}
			n := 1 + rng.Intn(len(stack))
			for _, u := range stack[:n] {
				switch u.kind {
				case "use":
					c.DropConsumer(u.pred, u.consumer)
				case "kill":
					c.CommitKill(u.rec)
				}
			}
			stack = append(stack[:0], stack[n:]...)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, op, err)
		}

		// Invariants after every operation.
		for _, bpc := range []uint64{branchA, branchB} {
			if n := c.QueueLen(bpc); n > 8 {
				t.Fatalf("seed %d: queue %#x overflows: %d", seed, bpc, n)
			}
			if c.PendingFor(bpc) > c.QueueLen(bpc) {
				t.Fatal("pending exceeds queue length")
			}
		}
	}

	// Drain: kill everything, commit, and the queues must empty.
	for c.KillSlice(s) != nil {
	}
	// Commit by removing all live instances (the CPU would CommitKill;
	// RemoveInstance is the stronger cleanup used on squash).
	for _, inst := range live {
		c.RemoveInstance(inst)
	}
	if c.PendingFor(branchA) != 0 || c.PendingFor(branchB) != 0 {
		t.Fatalf("seed %d: pending entries after teardown", seed)
	}
}
