package slab

import (
	"testing"
	"unsafe"
)

// TestNewHandsOutDistinctZeroValues crosses several chunk boundaries and
// checks every value is zero on arrival and never handed out twice.
func TestNewHandsOutDistinctZeroValues(t *testing.T) {
	type rec struct {
		a, b uint64
		p    *int
	}
	var s Slab[rec]
	n := 5 * chunkBytes / int(unsafe.Sizeof(rec{}))
	seen := make(map[*rec]bool, n)
	for i := 0; i < n; i++ {
		r := s.New()
		if *r != (rec{}) {
			t.Fatalf("value %d not zero: %+v", i, *r)
		}
		if seen[r] {
			t.Fatalf("value %d handed out twice", i)
		}
		seen[r] = true
		r.a, r.b = uint64(i), ^uint64(i)
	}
	for r := range seen {
		if r.b != ^r.a {
			t.Fatalf("value %+v was overwritten by a later one", *r)
		}
	}
}

// TestCarveSlicesDoNotOverlap: appending within a carved slice's capacity
// never reaches its neighbour, and a request larger than a chunk is met.
func TestCarveSlicesDoNotOverlap(t *testing.T) {
	var s Slab[*int]
	one, two := 1, 2
	a := s.Carve(4)
	b := s.Carve(4)
	if len(a) != 0 || cap(a) != 4 || cap(b) != 4 {
		t.Fatalf("carve gave len %d cap %d / cap %d", len(a), cap(a), cap(b))
	}
	for i := 0; i < 4; i++ {
		a = append(a, &one)
		b = append(b, &two)
	}
	for i := range a {
		if a[i] != &one || b[i] != &two {
			t.Fatalf("carved slices overlap at %d", i)
		}
	}
	big := s.Carve(2 * chunkBytes)
	if cap(big) != 2*chunkBytes {
		t.Fatalf("oversized carve has cap %d", cap(big))
	}
}
