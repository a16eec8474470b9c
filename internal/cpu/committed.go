package cpu

// committedRead reconstructs the architecturally committed bytes at
// [addr, addr+size) of one program by peeling its in-flight (unretired)
// main-thread stores off the speculative memory image, using their undo
// records. The records are applied youngest-first so the final value is
// the one from before the *oldest* in-flight store — i.e., the retired
// state.
func (p *progState) committedRead(addr uint64, size int) (uint64, bool) {
	v, ok := p.pg.Load(addr, size)
	for i := p.mainStores.len() - 1; i >= 0; i-- {
		s := p.mainStores.at(i)
		if s.Retired || s.Squashed || !s.undoMemValid {
			continue
		}
		sa, sn := s.undoMemAddr, s.undoMemSize
		if sa == addr && sn == size {
			v = s.undoMemVal
			continue
		}
		if !overlaps(sa, sn, addr, size) {
			continue
		}
		// Partial overlap: splice the undo bytes in.
		for b := 0; b < size; b++ {
			ba := addr + uint64(b)
			if ba >= sa && ba < sa+uint64(sn) {
				old := byte(s.undoMemVal >> (8 * (ba - sa)))
				v = v&^(uint64(0xFF)<<(8*b)) | uint64(old)<<(8*b)
			}
		}
	}
	return v, ok
}

// noteMainStore registers a fetched main-thread store for committedRead.
// The queue holds exactly the live noted stores: main-thread retirement is
// in order, so a retiring store is always the front; squashes tear down
// youngest-first, so a squashed store is always the back. The identity
// checks below keep a broken invariant from silently corrupting
// committedRead with a recycled instruction — the snapshot-determinism
// test would surface it.
func (p *progState) noteMainStore(di *DynInst) {
	p.mainStores.pushBack(di)
}

// dropRetiredStore pops the oldest noted store at its retirement.
func (p *progState) dropRetiredStore(di *DynInst) {
	if p.mainStores.len() > 0 && p.mainStores.front() == di {
		p.mainStores.popFront()
	}
}

// dropSquashedStore pops the youngest noted store at its squash.
func (p *progState) dropSquashedStore(di *DynInst) {
	if p.mainStores.len() > 0 && p.mainStores.back() == di {
		p.mainStores.popBack()
	}
}
