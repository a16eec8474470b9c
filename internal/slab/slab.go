// Package slab hands out values carved from chunked backing arrays, so a
// steady stream of small allocations costs one heap object per chunk
// instead of one per value.
//
// A slab never takes values back. A chunk is freed by the garbage
// collector once nothing references any value carved from it, so a slab
// suits objects that may be referenced after their logical death (a
// squashed instruction can still hold a removed prediction entry) and
// therefore must never be reused. Objects with a single owner and a
// well-defined release point belong on a free list instead.
package slab

import "unsafe"

// Slab is a chunked allocator of T values. The zero value is ready to use.
// A Slab is not safe for concurrent use.
type Slab[T any] struct {
	free []T
}

// chunkBytes is the target size of one backing array. Chunks of a few
// kilobytes make allocation a rare event without pinning much memory
// when a few long-lived values keep a chunk alive.
const chunkBytes = 8 << 10

// New returns a pointer to a fresh zero T.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.refill(1)
	}
	p := &s.free[0]
	s.free = s.free[1:]
	return p
}

// Carve returns an empty slice of capacity n backed by the slab. Appending
// beyond n reallocates on the heap as usual, so n is the capacity the
// caller expects to need, not a hard limit.
func (s *Slab[T]) Carve(n int) []T {
	if len(s.free) < n {
		s.refill(n)
	}
	out := s.free[:0:n]
	s.free = s.free[n:]
	return out
}

// refill replaces the current chunk with a fresh one holding at least n
// values. The tail of the old chunk is abandoned.
func (s *Slab[T]) refill(n int) {
	var zero T
	per := chunkBytes / max(int(unsafe.Sizeof(zero)), 1)
	s.free = make([]T, max(per, n))
}
