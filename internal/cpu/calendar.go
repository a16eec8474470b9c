package cpu

// Completion calendar. Instructions are filed under their completion cycle
// at issue, so completeStage visits only the entries due now instead of
// re-scanning every ROB entry of every thread each cycle (the scan was
// ~O(window) per cycle and the single largest flat cost of the loop after
// PR 3).
//
// The ring has calBuckets slots indexed by CompleteCycle&calMask. A
// completion farther than calBuckets cycles out wraps onto an earlier
// visit; the pop re-files it (same bucket index) until its cycle actually
// arrives. Latencies are almost always far below the ring size, so
// re-files are rare.
//
// Entries are never removed at squash; instead each entry snapshots the
// instruction's Seq at filing time and the pop validates it. Seqs are
// globally unique and never reused, so a mismatch means the pooled DynInst
// was recycled into a different dynamic instruction; a match with Squashed
// set means it was squashed and still sits in the pool. Either way the
// entry is dead and dropped.

const (
	calBuckets = 2048 // power of two
	calMask    = calBuckets - 1
	// calBucketCap is each bucket's capacity, carved once per core from
	// one slab. Over all 12 workloads with slices on, ~96% of buckets
	// never hold more than 8 entries at once; a fuller bucket grows by
	// append and keeps its capacity.
	calBucketCap = 8
)

// newCalendar returns the bucket ring, every bucket a calBucketCap window
// of one shared backing array, so a new core does not regrow its buckets
// one append at a time.
func newCalendar() [][]calEntry {
	backing := make([]calEntry, calBuckets*calBucketCap)
	cal := make([][]calEntry, calBuckets)
	for i := range cal {
		cal[i] = backing[i*calBucketCap : i*calBucketCap : (i+1)*calBucketCap]
	}
	return cal
}

type calEntry struct {
	di  *DynInst
	seq uint64
}

// calFile files an instruction for completion; call after CompleteCycle is
// set at issue. Completion times are always in the future (every latency
// is >= 1), so the bucket cannot be the one completeStage is draining.
func (c *Core) calFile(di *DynInst) {
	b := di.CompleteCycle & calMask
	c.cal[b] = append(c.cal[b], calEntry{di, di.Seq})
}

// calDrain pops the bucket due this cycle into the seq-ordered done list,
// keeping wrapped far-future entries in place.
func (c *Core) calDrain(done []*DynInst) []*DynInst {
	b := c.now & calMask
	entries := c.cal[b]
	if len(entries) == 0 {
		return done
	}
	kept := 0
	for _, e := range entries {
		di := e.di
		if di.Seq != e.seq || di.Squashed || di.Completed {
			continue // recycled or squashed since filing
		}
		if di.CompleteCycle > c.now {
			entries[kept] = e // ring wrap: not due for another k*calBuckets
			kept++
			continue
		}
		done = insertBySeq(done, di)
	}
	for i := kept; i < len(entries); i++ {
		entries[i] = calEntry{}
	}
	c.cal[b] = entries[:kept]
	return done
}
