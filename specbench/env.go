package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa/compiled"
	"repro/internal/mem"
	"repro/internal/slicehw"
	"repro/internal/workloads"
)

// Region sizes. Both paper-all and slices-serial run the programs'
// suggested regions scaled by regionScale, so that one run repeats
// paper-all's pass several times and holds the hundred slices-serial
// simulations its p90 needs. The scale is a power of two so that a seed
// offset of k thousand instructions stays exactly k thousand after scaling.
const (
	regionScale = 0.125
	// maxOffsetK bounds the seed's warm-up offset: 0..maxOffsetK-1
	// thousand instructions per program.
	maxOffsetK = 5

	// chunkInsts is the measured-region chunk of slices-serial and of
	// paper-all's traced re-drive.
	chunkInsts = 500

	// ffInsts is fastforward-oracle's functional fast-forward, ffRegion its
	// validated detailed region and ffChunk that region's chunk.
	ffInsts  = 1_000_000
	ffRegion = 20_000
	ffChunk  = 200
)

// warmOffset maps a seed to program prog's warm-up offset in instructions:
// a whole number of thousands, at most (maxOffsetK-1) thousand, the same
// for the same seed. Seed 0 is the default and uses offset 0 everywhere,
// which is the window the stored reference digests describe.
func warmOffset(seed int64, prog int) uint64 {
	if seed == 0 {
		return 0
	}
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(prog+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return (x % maxOffsetK) * 1000
}

// program is one of the twelve workloads, ready to simulate: its image and
// slice table are built, its initial memory is a copy-on-write snapshot,
// and its warm-up length carries the seed's offset.
type program struct {
	w      *workloads.Workload
	table  *slicehw.Table
	init   *mem.Snapshot
	offset uint64
	warm   uint64 // detailed warm-up, including offset
	run    uint64 // measured region
	ff     uint64 // functional fast-forward, including offset
}

// newMemory returns a fresh copy-on-write memory at the program's
// initial state.
func (p *program) newMemory() *mem.Memory { return mem.NewFromSnapshot(p.init) }

// env is everything set-up builds.
type env struct {
	seed  int64
	progs []*program
}

// setup builds the workload images, slice tables, initial memories and
// compiled programs. Its cost is the benchmark's setup_s.
func setup(seed int64) *env {
	ws := workloads.All()
	e := &env{seed: seed, progs: make([]*program, len(ws))}
	for i, w := range ws {
		off := warmOffset(seed, i)
		p := &program{
			w:      w,
			table:  w.SliceTable(),
			init:   w.NewMemory().Snapshot(),
			offset: off,
			warm:   uint64(float64(w.SuggestedWarmup)*regionScale) + off,
			run:    uint64(float64(w.SuggestedRun) * regionScale),
			ff:     ffInsts + off,
		}
		// paper-all's engine derives its regions from SuggestedWarmup
		// through the same scale, so this shifts its warm-ups by exactly off.
		w.SuggestedWarmup += uint64(float64(off) / regionScale)
		compiled.Cached(w.Image)
		e.progs[i] = p
	}
	return e
}

func (e *env) byName(name string) (*program, error) {
	for _, p := range e.progs {
		if p.w.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("no program %q", name)
}

func (e *env) workloads() []*workloads.Workload {
	ws := make([]*workloads.Workload, len(e.progs))
	for i, p := range e.progs {
		ws[i] = p.w
	}
	return ws
}

// digest fingerprints a value through its JSON form (map keys sorted).
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("specbench: digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// combine folds per-simulation digests into one, independent of the order
// the simulations finished in.
func combine(ds map[string]string) string {
	keys := make([]string, 0, len(ds))
	for k := range ds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, ds[k])
	}
	return digest(b.String())
}
