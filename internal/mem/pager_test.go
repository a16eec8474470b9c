package mem

import (
	"math/rand"
	"testing"
)

// TestPagerMatchesMemory drives a Pager and a bare Memory with an
// identical random access stream and holds every result (value, fault
// flag, final contents) equal. The stream mixes sizes, hot-page reuse (so
// cached pointers actually serve hits), cross-page straddles, the null
// page, and unmapped addresses.
func TestPagerMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mm := New()
	pm := New()
	var pg Pager
	pg.Init(pm)

	addrs := []uint64{
		0x10, 0xFF8, // null page (faults)
		0x1000, 0x1004, 0x1FFF, // first mapped page, incl. page-end byte
		0x1FFC, 0x1FFD, // cross-page straddles
		0x40000, 0x40008, 0x40800, // arena-style hot page
		0x41000 - 4, 0x41000 - 1, // straddles into the next page
		0x90000, // distinct cache index
	}
	sizes := []int{1, 4, 8}
	for i := 0; i < 20_000; i++ {
		addr := addrs[rng.Intn(len(addrs))] + uint64(rng.Intn(8))
		size := sizes[rng.Intn(len(sizes))]
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			okM := mm.Write(addr, size, v)
			okP := pg.Store(addr, size, v)
			if okM != okP {
				t.Fatalf("op %d: Store(%#x, %d) ok: pager %v, memory %v", i, addr, size, okP, okM)
			}
		} else {
			vM, okM := mm.Read(addr, size)
			vP, okP := pg.Load(addr, size)
			if vM != vP || okM != okP {
				t.Fatalf("op %d: Load(%#x, %d): pager (%#x, %v), memory (%#x, %v)",
					i, addr, size, vP, okP, vM, okM)
			}
		}
	}
	if !mm.Snapshot().Equal(pm.Snapshot()) {
		t.Fatal("final memories diverge")
	}
}

// TestPagerSnapshotCOW: a Snapshot taken mid-run must stay frozen while
// the Pager keeps writing — the generation bump invalidates the cached
// writable pointers, so the next store privatizes the page instead of
// scribbling on the shared one.
func TestPagerSnapshotCOW(t *testing.T) {
	m := New()
	var pg Pager
	pg.Init(m)

	const addr = uint64(0x40000)
	if !pg.Store64(addr, 111) {
		t.Fatal("store faulted")
	}
	// The page pointer is now cached writable. Snapshot shares the page.
	snap := m.Snapshot()

	if !pg.Store64(addr, 222) {
		t.Fatal("post-snapshot store faulted")
	}
	if v, _ := pg.Load64(addr); v != 222 {
		t.Errorf("live memory reads %d, want 222", v)
	}
	restored := NewFromSnapshot(snap)
	if v, _ := restored.Read(addr, 8); v != 111 {
		t.Errorf("snapshot reads %d, want 111 (pager wrote through a stale COW pointer)", v)
	}

	// And the restored copy is itself independent.
	restored.WriteU64(addr, 333)
	if v, _ := pg.Load64(addr); v != 222 {
		t.Errorf("live memory reads %d after writing the restored copy, want 222", v)
	}
}

// TestPagerInvalidate: direct Memory writes behind the Pager's back are
// visible after Invalidate. (Loads may serve stale cached data before the
// flush only when the direct write did not change the page mapping — the
// documented contract is that direct writes require Invalidate.)
func TestPagerInvalidate(t *testing.T) {
	m := New()
	var pg Pager
	pg.Init(m)

	const addr = uint64(0x40000)
	m.WriteU64(addr, 1) // map the page directly
	if v, ok := pg.Load64(addr); !ok || v != 1 {
		t.Fatalf("Load64 = (%d, %v), want (1, true)", v, ok)
	}
	// The read-only pointer is cached; a direct write stays visible through
	// it (same backing array)…
	m.WriteU64(addr, 2)
	pg.Invalidate()
	if v, ok := pg.Load64(addr); !ok || v != 2 {
		t.Errorf("after Invalidate: Load64 = (%d, %v), want (2, true)", v, ok)
	}
}

// TestPagerNoNegativeCaching: a faulting load of an unmapped page must not
// cache the miss — the page can materialize later via a store.
func TestPagerNoNegativeCaching(t *testing.T) {
	m := New()
	var pg Pager
	pg.Init(m)

	const addr = uint64(0x50000)
	if _, ok := pg.Load64(addr); ok {
		t.Fatal("load of an unmapped page did not fault")
	}
	if !pg.Store64(addr, 9) {
		t.Fatal("store faulted")
	}
	if v, ok := pg.Load64(addr); !ok || v != 9 {
		t.Errorf("Load64 after materializing store = (%d, %v), want (9, true)", v, ok)
	}
}

// TestPagerNullPage: the null page faults through every width, loads and
// stores, cached or not.
func TestPagerNullPage(t *testing.T) {
	m := New()
	var pg Pager
	pg.Init(m)
	for _, addr := range []uint64{0, 1, 0x10, PageSize - 8, PageSize - 1} {
		if _, ok := pg.Load64(addr); ok {
			t.Errorf("Load64(%#x) did not fault", addr)
		}
		if _, ok := pg.Load32(addr); ok {
			t.Errorf("Load32(%#x) did not fault", addr)
		}
		if _, ok := pg.Load8(addr); ok {
			t.Errorf("Load8(%#x) did not fault", addr)
		}
		if pg.Store64(addr, 1) || pg.Store32(addr, 1) || pg.Store8(addr, 1) {
			t.Errorf("store to %#x did not fault", addr)
		}
	}
	if m.Mapped(0) {
		t.Error("faulting stores materialized the null page")
	}
}

// TestPagerCrossPage: accesses straddling a page boundary take the Memory
// slow path and still behave exactly like Memory.Read/Write, assembling
// the value from both pages.
func TestPagerCrossPage(t *testing.T) {
	m := New()
	var pg Pager
	pg.Init(m)

	straddle := uint64(2*PageSize - 4) // 8-byte access: 4 bytes in each page
	if !pg.Store64(straddle, 0x1122334455667788) {
		t.Fatal("cross-page store faulted")
	}
	if v, ok := pg.Load64(straddle); !ok || v != 0x1122334455667788 {
		t.Errorf("cross-page Load64 = (%#x, %v)", v, ok)
	}
	// Both pages must have their halves.
	lo, _ := m.Read(2*PageSize-4, 4)
	hi, _ := m.Read(2*PageSize, 4)
	if lo != 0x55667788 || hi != 0x11223344 {
		t.Errorf("halves = %#x, %#x", lo, hi)
	}
}

// TestPagerCrossPageStoreOnSharedPage: a straddling store takes the
// Memory slow path, which privatizes a copy-on-write page behind the
// cache. A read-only entry cached for that page before the store must not
// keep serving the shared page's old bytes afterwards.
func TestPagerCrossPageStoreOnSharedPage(t *testing.T) {
	src := New()
	src.WriteU64(2*PageSize-8, 1)
	src.WriteU64(2*PageSize, 2)
	snap := src.Snapshot()

	m := NewFromSnapshot(snap)
	var pg Pager
	pg.Init(m)
	// Cache both shared pages read-only.
	if v, _ := pg.Load64(2*PageSize - 8); v != 1 {
		t.Fatalf("low page reads %d, want 1", v)
	}
	if v, _ := pg.Load64(2 * PageSize); v != 2 {
		t.Fatalf("high page reads %d, want 2", v)
	}
	straddle := uint64(2*PageSize - 4)
	if !pg.Store64(straddle, 0x1122334455667788) {
		t.Fatal("cross-page store faulted")
	}
	if v, _ := pg.Load32(2*PageSize - 4); v != 0x55667788 {
		t.Errorf("low half through the pager = %#x, want 0x55667788", v)
	}
	if v, _ := pg.Load32(2 * PageSize); v != 0x11223344 {
		t.Errorf("high half through the pager = %#x, want 0x11223344", v)
	}
	if v, _ := NewFromSnapshot(snap).Read(2*PageSize-8, 8); v != 1 {
		t.Errorf("snapshot reads %d after the store, want 1", v)
	}
}

// TestUnwrittenViewSnapshot: a view that has not written since
// NewFromSnapshot snapshots to its base for free, and that snapshot stays
// frozen when the view then stores through a Pager — to an existing page
// and to a new one.
func TestUnwrittenViewSnapshot(t *testing.T) {
	ref := New()
	ref.WriteU64(0x40000, 1)
	base := ref.Snapshot()

	m := NewFromSnapshot(base)
	if m.Snapshot() != base {
		t.Fatal("an unwritten view copied its page table")
	}
	var pg Pager
	pg.Init(m)
	pg.Store64(0x40000, 2)
	if m.Snapshot() == base {
		t.Fatal("a view that stored still snapshots to its base")
	}
	pg.Store64(0x80000, 3)
	if v, _ := NewFromSnapshot(base).Read(0x40000, 8); v != 1 {
		t.Errorf("base reads %d after the view stored, want 1", v)
	}
	if NewFromSnapshot(base).Mapped(0x80000) {
		t.Error("the view's new page leaked into its base")
	}

	// Materializing a page without touching a shared one also ends the
	// shortcut.
	m = NewFromSnapshot(base)
	m.WriteU64(0x80000, 4)
	ref.WriteU64(0x80000, 4)
	if s := m.Snapshot(); s == base || !s.Equal(ref.Snapshot()) {
		t.Error("a view with a new page snapshots wrongly")
	}
}
