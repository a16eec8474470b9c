package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Percentiles are written in per-mille so the sample-count rule is exact
// integer arithmetic: p90 is 900, p99 is 990.
const (
	p50  = 500
	p90  = 900
	p99  = 990
	p999 = 999
)

// rank returns the 1-based nearest-rank position of the q-per-mille
// percentile among n samples.
func rank(n, q int) int {
	r := (q*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// supports reports whether n samples support the q-per-mille percentile:
// at least ten samples must lie beyond it, so the figure is not set by one
// or two stragglers.
func supports(n, q int) bool { return n-rank(n, q) >= 10 }

// tailPermille returns the highest of p99.9, p99 and p90 that n samples
// support, or 0 when they support none of them.
func tailPermille(n int) int {
	for _, q := range []int{p999, p99, p90} {
		if supports(n, q) {
			return q
		}
	}
	return 0
}

// percentileMs returns the q-per-mille nearest-rank percentile of ds in
// milliseconds. ds is sorted in place.
func percentileMs(ds []time.Duration, q int) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return float64(ds[rank(len(ds), q)-1]) / float64(time.Millisecond)
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one timed call recorded by the traced pass. Spans of one
// simulation share Sim; Parent is -1 for a root span.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Sim    int    `json:"sim"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a pass's spans in memory. A nil recorder is tracing off:
// every method is a no-op, so traced and untraced passes run the same code.
// It is safe for concurrent use; the engine reports simulations from its
// worker goroutines.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	sims  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newSim returns a fresh simulation id (-1 when tracing is off).
func (r *recorder) newSim() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sims++
	return r.sims - 1
}

// begin opens a span and returns its id (-1 when tracing is off).
func (r *recorder) begin(name string, parent, sim int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Sim: sim, Start: now, End: -1})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval is already known, such as a
// simulation the engine reports after it finished.
func (r *recorder) add(name string, parent, sim int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans), Parent: parent, Sim: sim,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. Children may overlap
// each other (the engine runs simulations in parallel under one driver
// call), so the covered part is the union of their intervals, clipped to
// the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
