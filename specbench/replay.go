package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/isa/compiled"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// The layers that run inside Core.Run are timed by replay: each layer's
// input stream is captured in-process from the programs' own windows (the
// instructions right after each program's seeded warm-up) and replayed
// through that layer's public API alone. Every replay checks that it
// performed exactly the operations it captured, so a replay that skipped
// work fails instead of reporting a fast time.
const (
	streamInsts   = 20_000    // per program: cache, bpred, isa and mem streams
	corrInsts     = 20_000    // per program: detailed slice run whose correlator ops are captured
	compiledInsts = 1_000_000 // per program: compiled.Machine.Run
	probeInsts    = 10_000    // per program: oracle probe region
	replayReps    = 5         // repetitions of each replay; the median is reported
)

const (
	fMem = 1 << iota
	fStore
	fCond
	fTaken
	fIndirect
)

// step is one captured instruction.
type step struct {
	pc, addr, val, target uint64
	size                  uint8
	flags                 uint8
}

// stream is one program's captured window: the architectural state at its
// start and every instruction in it.
type stream struct {
	p              *program
	regs           [isa.NumRegs]uint64
	pc, endPC      uint64
	mem            *mem.Snapshot
	steps          []step
	loads, stores  int
	conds, indirec int
}

// captureStream steps the compiled functional model through the window.
func captureStream(p *program) (*stream, error) {
	ma := compiled.NewMachine(compiled.Cached(p.w.Image), p.newMemory(), p.w.Entry)
	if n, err := ma.Run(p.warm); err != nil || n != p.warm {
		return nil, fmt.Errorf("%s: fast-forward to the window ran %d of %d instructions (%v)", p.w.Name, n, p.warm, err)
	}
	s := &stream{p: p, pc: ma.PC(), mem: ma.Mem().Snapshot(), steps: make([]step, 0, streamInsts)}
	// The snapshot made the memory copy-on-write; drop the machine's
	// cached page pointers so its stores copy instead of writing through.
	ma.InvalidatePages()
	ma.CopyRegs(&s.regs)
	var out isa.Outcome
	for i := 0; i < streamInsts && !ma.Halted(); i++ {
		pc := ma.PC()
		op, err := ma.Step(&out)
		if err != nil {
			return nil, fmt.Errorf("%s: capture: %w", p.w.Name, err)
		}
		st := step{pc: pc}
		if out.IsMem && !out.Fault {
			st.flags |= fMem
			st.addr, st.size = out.Addr, uint8(out.Size)
			if out.IsStore {
				st.flags |= fStore
				st.val = out.StoreVal
				s.stores++
			} else {
				s.loads++
			}
		}
		switch {
		case op.IsCondBranch():
			st.flags |= fCond
			if out.Taken {
				st.flags |= fTaken
			}
			s.conds++
		case op == isa.JMP || op == isa.CALLR:
			st.flags |= fIndirect
			st.target = out.Target
			s.indirec++
		}
		s.steps = append(s.steps, st)
	}
	s.endPC = ma.PC()
	return s, nil
}

// timeReps runs f(rep) for replayReps repetitions and returns the median
// time per operation in nanoseconds; f returns how many operations it
// performed, which must be want.
func timeReps(want int, f func(rep int) (int, error)) (float64, error) {
	per := make([]float64, 0, replayReps)
	for rep := 0; rep < replayReps; rep++ {
		start := time.Now()
		n, err := f(rep)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if n != want {
			return 0, fmt.Errorf("replayed %d operations, captured %d", n, want)
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// perRep builds each repetition's fresh inputs before any is timed.
func perRep[T any](build func() T) []T {
	out := make([]T, replayReps)
	for i := range out {
		out[i] = build()
	}
	return out
}

// replayCache drives the streams through Hierarchy.FetchAccess (once per
// new fetch line), Access (loads), StoreRetire (stores) and Tick (every
// instruction, one per cycle).
func replayCache(ss []*stream) (int, error) {
	n := 0
	for _, s := range ss {
		h := cache.NewHierarchy(cache.DefaultParams())
		var now uint64
		line := ^uint64(0)
		for i := range s.steps {
			st := &s.steps[i]
			now++
			if l := st.pc >> 6; l != line {
				h.FetchAccess(st.pc, now)
				line = l
			}
			if st.flags&fMem != 0 {
				if st.flags&fStore != 0 {
					for guard := 0; !h.StoreRetire(st.addr, now); guard++ {
						if guard > 1_000_000 {
							return n, fmt.Errorf("%s: write buffer never drained", s.p.w.Name)
						}
						now++
						h.Tick(now)
					}
				} else {
					h.Access(st.addr, false, cache.KindDemand, now)
				}
				n++
			}
			h.Tick(now)
		}
	}
	return n, nil
}

// replayBpred drives conditional branches through YAGS and indirect jumps
// through the cascaded predictor, each Predict followed by its Update.
func replayBpred(ss []*stream) int {
	n := 0
	for _, s := range ss {
		y := bpred.DefaultYAGS()
		c := bpred.DefaultCascaded()
		var hist, path uint64
		for i := range s.steps {
			st := &s.steps[i]
			switch {
			case st.flags&fCond != 0:
				taken := st.flags&fTaken != 0
				y.Predict(st.pc, hist)
				y.Update(st.pc, hist, taken)
				hist <<= 1
				if taken {
					hist |= 1
				}
				n++
			case st.flags&fIndirect != 0:
				c.Predict(st.pc, path)
				c.Update(st.pc, path, st.target)
				path = bpred.PushPath(path, st.target)
				n++
			}
		}
	}
	return n
}

// execState is the benchmark's own isa.State: a register file over a
// plain memory.
type execState struct {
	regs [isa.NumRegs]uint64
	m    *mem.Memory
}

func (s *execState) Reg(r isa.Reg) uint64 { return s.regs[r] }
func (s *execState) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		s.regs[r] = v
	}
}
func (s *execState) Load(addr uint64, size int) (uint64, bool) { return s.m.Read(addr, size) }
func (s *execState) Store(addr uint64, size int, v uint64) bool {
	return s.m.Write(addr, size, v)
}

// replayExec re-executes each window through isa.Execute; states holds a
// fresh state per stream, built outside the timed part. The executed PCs
// must follow the captured ones.
func replayExec(ss []*stream, states []*execState) (int, error) {
	n := 0
	for k, s := range ss {
		st := states[k]
		pc := s.pc
		for i := range s.steps {
			if pc != s.steps[i].pc {
				return n, fmt.Errorf("%s: isa.Execute left the captured path at step %d", s.p.w.Name, i)
			}
			in, ok := s.p.w.Image.At(pc)
			if !ok {
				return n, fmt.Errorf("%s: pc %#x is off the image", s.p.w.Name, pc)
			}
			out := isa.Execute(in, pc, st)
			n++
			if out.Halt {
				break
			}
			pc = out.NextPC(pc)
		}
		if pc != s.endPC {
			return n, fmt.Errorf("%s: isa.Execute ended at %#x, capture at %#x", s.p.w.Name, pc, s.endPC)
		}
	}
	return n, nil
}

func execStates(ss []*stream) []*execState {
	out := make([]*execState, len(ss))
	for i, s := range ss {
		out[i] = &execState{regs: s.regs, m: mem.NewFromSnapshot(s.mem)}
	}
	return out
}

// replayMem drives every load and store through Memory.Read and Write.
func replayMem(ss []*stream, ms []*mem.Memory) int {
	n := 0
	for k, s := range ss {
		m := ms[k]
		for i := range s.steps {
			st := &s.steps[i]
			if st.flags&fMem == 0 {
				continue
			}
			if st.flags&fStore != 0 {
				m.Write(st.addr, int(st.size), st.val)
			} else {
				m.Read(st.addr, int(st.size))
			}
			n++
		}
	}
	return n
}

// replayPager drives the same accesses through Pager.Load and Store.
func replayPager(ss []*stream, pgs []*mem.Pager) int {
	n := 0
	for k, s := range ss {
		pg := pgs[k]
		for i := range s.steps {
			st := &s.steps[i]
			if st.flags&fMem == 0 {
				continue
			}
			if st.flags&fStore != 0 {
				pg.Store(st.addr, int(st.size), st.val)
			} else {
				pg.Load(st.addr, int(st.size))
			}
			n++
		}
	}
	return n
}

func memories(ss []*stream) []*mem.Memory {
	out := make([]*mem.Memory, len(ss))
	for i, s := range ss {
		out[i] = mem.NewFromSnapshot(s.mem)
	}
	return out
}

func pagers(ss []*stream) []*mem.Pager {
	out := make([]*mem.Pager, len(ss))
	for i, s := range ss {
		out[i] = new(mem.Pager)
		out[i].Init(mem.NewFromSnapshot(s.mem))
	}
	return out
}

// --- correlator ---

const (
	opNew = iota
	opAlloc
	opFill
	opLookup
	opKillLoop
	opKillSlice
	opRemove
)

// corrOp is one captured correlator call. inst and pred index the
// replay's dense instance and prediction tables.
type corrOp struct {
	kind  uint8
	dir   bool
	slice int32
	inst  int32
	pred  int32
	pc    uint64
}

// corrStream is one program's captured correlator calls.
type corrStream struct {
	p      *program
	ops    []corrOp
	insts  int
	allocs int
}

// captureCorr runs the program with its slices on the detailed core
// after its warm-up and records the correlator's calls through
// Core.SetTracer. A kill call emits one event per prediction (loop kill)
// or per instance (slice kill) it retires, so consecutive events of one
// kind, cycle and slice form one call until a branch PC or instance
// repeats. Events of instances created before the window are dropped.
func captureCorr(p *program) (*corrStream, error) {
	core, err := cpu.New(cpu.Config4Wide(), p.w.Image, p.newMemory(), p.w.Entry, p.table)
	if err != nil {
		return nil, err
	}
	core.Run(p.warm)
	core.ResetStats()
	var evs []stats.Event
	core.SetTracer(stats.FuncTracer(func(e stats.Event) {
		switch e.Kind {
		case stats.EvInstance, stats.EvInstanceDrop, stats.EvPredAlloc,
			stats.EvPredGenerate, stats.EvPredBind, stats.EvPredKill:
			evs = append(evs, e)
		}
	}))
	core.Run(corrInsts)
	core.SetTracer(nil)

	cs := &corrStream{p: p}
	instOf := map[int]int32{}
	pending := map[[2]uint64][]int32{} // (instance, branch PC) → unfilled allocations
	var group map[uint64]bool          // branch PCs or instances of the open kill call
	for i, e := range evs {
		inst, known := instOf[e.Inst]
		if e.Kind != stats.EvInstance && e.Kind != stats.EvPredKill && !known {
			continue
		}
		switch e.Kind {
		case stats.EvInstance:
			instOf[e.Inst] = int32(cs.insts)
			cs.ops = append(cs.ops, corrOp{kind: opNew, slice: int32(e.Slice), inst: int32(cs.insts)})
			cs.insts++
		case stats.EvInstanceDrop:
			cs.ops = append(cs.ops, corrOp{kind: opRemove, inst: inst})
		case stats.EvPredAlloc:
			k := [2]uint64{uint64(inst), e.PC}
			pending[k] = append(pending[k], int32(cs.allocs))
			cs.ops = append(cs.ops, corrOp{kind: opAlloc, inst: inst, pc: e.PC, pred: int32(cs.allocs)})
			cs.allocs++
		case stats.EvPredGenerate:
			k := [2]uint64{uint64(inst), e.PC}
			op := corrOp{kind: opFill, pred: -1, dir: e.Dir == "taken"}
			if q := pending[k]; len(q) > 0 {
				op.pred, pending[k] = q[0], q[1:]
			}
			cs.ops = append(cs.ops, op)
		case stats.EvPredBind:
			cs.ops = append(cs.ops, corrOp{kind: opLookup, pc: e.PC, dir: e.Dir == "taken"})
		case stats.EvPredKill:
			kind, member := uint8(opKillLoop), e.PC
			if e.Level == "slice" {
				kind, member = opKillSlice, uint64(e.Inst)
			}
			if i > 0 && len(cs.ops) > 0 {
				prev, last := evs[i-1], cs.ops[len(cs.ops)-1]
				if last.kind == kind && prev.Kind == e.Kind && prev.Cycle == e.Cycle &&
					prev.Slice == e.Slice && !group[member] {
					group[member] = true
					continue
				}
			}
			group = map[uint64]bool{member: true}
			cs.ops = append(cs.ops, corrOp{kind: kind, slice: int32(e.Slice)})
		}
	}
	return cs, nil
}

// replayCorr drives the captured calls through a fresh correlator: each
// kill is committed at once, as if its killer retired immediately.
func replayCorr(cs []*corrStream) int {
	n := 0
	for _, c := range cs {
		corr := slicehw.NewCorrelator(cpu.Config4Wide().PredQueueDepth)
		slices := c.p.table.Slices()
		insts := make([]*slicehw.Instance, c.insts)
		preds := make([]*slicehw.Pred, c.allocs)
		for i := range c.ops {
			op := &c.ops[i]
			switch op.kind {
			case opNew:
				insts[op.inst] = corr.NewInstance(slices[op.slice])
			case opRemove:
				corr.RemoveInstance(insts[op.inst])
			case opAlloc:
				preds[op.pred] = corr.Allocate(insts[op.inst], op.pc)
			case opFill:
				var p *slicehw.Pred
				if op.pred >= 0 {
					p = preds[op.pred]
				}
				corr.Fill(p, op.dir)
			case opLookup:
				corr.Lookup(op.pc, op.dir, nil)
			case opKillLoop:
				corr.CommitKill(corr.KillLoop(slices[op.slice]))
			case opKillSlice:
				corr.CommitKill(corr.KillSlice(slices[op.slice]))
			}
			n++
		}
	}
	return n
}

// --- suite ---

// layerTimes is what the replay suite measured.
type layerTimes struct {
	cacheNs, bpredNs, execNs, memNs, pagerNs float64
	corrNs, corrAllocs                       float64
	compiledMinst                            float64
	accesses, lookups, corrOps               int
}

// replaySuite captures every program's streams and replays them.
func replaySuite(e *env) (*layerTimes, error) {
	var ss []*stream
	var cs []*corrStream
	for _, p := range e.progs {
		s, err := captureStream(p)
		if err != nil {
			return nil, err
		}
		c, err := captureCorr(p)
		if err != nil {
			return nil, err
		}
		ss, cs = append(ss, s), append(cs, c)
	}
	lt := &layerTimes{}
	insts := 0
	for _, s := range ss {
		lt.accesses += s.loads + s.stores
		lt.lookups += s.conds + s.indirec
		insts += len(s.steps)
	}
	for _, c := range cs {
		lt.corrOps += len(c.ops)
	}
	states := perRep(func() []*execState { return execStates(ss) })
	mems := perRep(func() []*mem.Memory { return memories(ss) })
	pgs := perRep(func() []*mem.Pager { return pagers(ss) })
	var err error
	if lt.cacheNs, err = timeReps(lt.accesses, func(int) (int, error) { return replayCache(ss) }); err != nil {
		return nil, fmt.Errorf("cache replay: %w", err)
	}
	if lt.bpredNs, err = timeReps(lt.lookups, func(int) (int, error) { return replayBpred(ss), nil }); err != nil {
		return nil, fmt.Errorf("bpred replay: %w", err)
	}
	if lt.execNs, err = timeReps(insts, func(r int) (int, error) { return replayExec(ss, states[r]) }); err != nil {
		return nil, fmt.Errorf("isa replay: %w", err)
	}
	if lt.memNs, err = timeReps(lt.accesses, func(r int) (int, error) { return replayMem(ss, mems[r]), nil }); err != nil {
		return nil, fmt.Errorf("mem replay: %w", err)
	}
	if lt.pagerNs, err = timeReps(lt.accesses, func(r int) (int, error) { return replayPager(ss, pgs[r]), nil }); err != nil {
		return nil, fmt.Errorf("pager replay: %w", err)
	}
	if lt.corrNs, err = timeReps(lt.corrOps, func(int) (int, error) { return replayCorr(cs), nil }); err != nil {
		return nil, fmt.Errorf("slicehw replay: %w", err)
	}
	m0 := mallocs()
	replayCorr(cs)
	lt.corrAllocs = ratio(float64(mallocs()-m0), float64(lt.corrOps))
	if lt.compiledMinst, err = compiledRate(ss); err != nil {
		return nil, err
	}
	return lt, nil
}

// compiledRate runs compiled.Machine.Run from each window's start and
// returns millions of instructions per host second (median of replayReps).
func compiledRate(ss []*stream) (float64, error) {
	var rates []float64
	for i := 0; i < replayReps; i++ {
		ms := make([]*compiled.Machine, len(ss))
		for k, s := range ss {
			ms[k] = compiled.NewMachine(compiled.Cached(s.p.w.Image), mem.NewFromSnapshot(s.mem), s.pc)
			regs := s.regs
			ms[k].SetRegs(&regs)
		}
		var total uint64
		start := time.Now()
		for k, ma := range ms {
			n, err := ma.Run(compiledInsts)
			if err != nil {
				return 0, fmt.Errorf("compiled run of %s: %w", ss[k].p.w.Name, err)
			}
			if n != compiledInsts && !ma.Halted() {
				return 0, fmt.Errorf("compiled run of %s ran %d of %d instructions", ss[k].p.w.Name, n, compiledInsts)
			}
			total += n
		}
		rates = append(rates, float64(total)/time.Since(start).Seconds()/1e6)
	}
	return median(rates), nil
}

// oracleProbe measures the oracle on workloads that validate nothing
// themselves: each program's first probeInsts instructions on the detailed
// core, under oracle.New and without it, alternating replayReps times. It
// returns the instructions one validated pass checks and the difference of
// the two sides' fastest passes.
func oracleProbe(e *env) (uint64, time.Duration, error) {
	var checked uint64
	with, without := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < replayReps; rep++ {
		var w, wo time.Duration
		var n uint64
		for _, p := range e.progs {
			d, c, err := probeRun(p, true)
			if err != nil {
				return 0, 0, err
			}
			w, n = w+d, n+c
			if d, _, err = probeRun(p, false); err != nil {
				return 0, 0, err
			}
			wo += d
		}
		with, without, checked = min(with, w), min(without, wo), n
	}
	return checked, with - without, nil
}

// probeRun times one probe region, with or without the oracle attached,
// and returns the instructions the oracle checked.
func probeRun(p *program, validate bool) (time.Duration, uint64, error) {
	core, err := cpu.New(cpu.Config4Wide(), p.w.Image, p.newMemory(), p.w.Entry, nil)
	if err != nil {
		return 0, 0, err
	}
	var orc *oracle.Oracle
	if validate {
		orc = oracle.New(p.w.Image, p.newMemory(), p.w.Entry, oracle.Options{Workload: p.w.Name})
		orc.Attach(core)
	}
	start := time.Now()
	core.Run(probeInsts)
	d := time.Since(start)
	if orc == nil {
		return d, 0, nil
	}
	return d, orc.Retired(), orc.Err()
}
