package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/isa/compiled"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/slicehw"
	"repro/internal/stats"
)

// pass is what one pass of a workload measured and checked. A pass is the
// workload's unit of work: all four paper experiments for paper-all, one
// simulation of each of the twelve programs for the other two.
type pass struct {
	wall    time.Duration   // host time of the timed part
	insts   uint64          // simulated instructions, each counted once
	mallocs uint64          // heap allocations during the timed part
	sims    []time.Duration // host time per simulation, request to result
	chunks  []time.Duration // host time per measured-region chunk

	attempted, failed int
	problems          []string

	digests map[string]string // simulation key → snapshot digest
	tables  string            // paper-all's formatted tables
	snaps   []stats.Snapshot  // measured-region counters

	// Layer figures.
	jobs       int
	simWall    time.Duration // Σ simulation host time
	engine     harness.EngineStats
	ckpt       harness.CheckpointStats
	ckptBytes  uint64
	runInsts   uint64        // measured-region instructions run in chunks
	runTime    time.Duration // host time inside those chunks
	runMallocs uint64
	footprint  map[string]uint64 // program → largest memory footprint
	checked    uint64            // instructions the oracle validated
	unchecked  time.Duration     // the validated regions run again without it
	validated  time.Duration     // the validated regions' chunk time

	// redriveSpecs are paper-all's unique simulations, in key order.
	redriveSpecs []harness.RunSpec
}

func newPass() *pass {
	return &pass{digests: map[string]string{}, footprint: map[string]uint64{}, jobs: 1}
}

// fail records one failed simulation.
func (ps *pass) fail(format string, args ...any) {
	ps.failed++
	ps.problems = append(ps.problems, fmt.Sprintf(format, args...))
}

// attempt runs one simulation, counting it as failed if it errors or
// panics.
func (ps *pass) attempt(name string, sim func() error) {
	ps.attempted++
	err := catch(sim)
	if err != nil {
		ps.fail("%s: %v", name, err)
	}
}

// catch converts a panic in f into an error.
func catch(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// checkSnap applies the checks every measured region must pass.
func checkSnap(s *stats.Snapshot, want uint64) error {
	if s.Sim.CycleGuardHits > 0 {
		return fmt.Errorf("hit the MaxCycles guard %d times", s.Sim.CycleGuardHits)
	}
	if s.Sim.MainRetired < want {
		return fmt.Errorf("retired %d of %d instructions", s.Sim.MainRetired, want)
	}
	if s.Sim.Cycles == 0 {
		return fmt.Errorf("ran no cycles")
	}
	return nil
}

func (ps *pass) keep(key string, s stats.Snapshot, want uint64) {
	ps.snaps = append(ps.snaps, s)
	ps.digests[key] = digest(&s)
	if err := checkSnap(&s, want); err != nil {
		ps.fail("%s: %v", key, err)
	}
}

func (ps *pass) noteFootprint(name string, m *mem.Memory) {
	if f := m.Footprint(); f > ps.footprint[name] {
		ps.footprint[name] = f
	}
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runChunks runs a measured region of n instructions as successive
// Core.Run calls to cumulative targets chunk apart, timing each call. The
// calls stop where one Run(n) would pass through, so the result is the
// same as one call.
func runChunks(core *cpu.Core, n, chunk uint64, rec *recorder, parent, sim int, out *[]time.Duration) time.Duration {
	start := time.Now()
	for target := uint64(0); target < n; {
		target = min(target+chunk, n)
		id := rec.begin("Core.Run/chunk", parent, sim)
		t := time.Now()
		core.Run(target)
		*out = append(*out, time.Since(t))
		rec.end(id)
	}
	return time.Since(start)
}

// measure runs a chunked region and books it as measured-region work.
func (ps *pass) measure(core *cpu.Core, n, chunk uint64, rec *recorder, parent, sim int) time.Duration {
	m0 := mallocs()
	d := runChunks(core, n, chunk, rec, parent, sim, &ps.chunks)
	ps.runMallocs += mallocs() - m0
	ps.runTime += d
	ps.runInsts += core.S.MainRetired
	return d
}

// finalRegs checks a drained core's main-thread registers against the
// compiled functional model run n instructions from the same start.
func finalRegs(core *cpu.Core, ma *compiled.Machine, n uint64) error {
	got, err := ma.Run(n)
	if err != nil {
		return fmt.Errorf("functional model: %w", err)
	}
	if got != n && !ma.Halted() {
		return fmt.Errorf("functional model ran %d of %d instructions", got, n)
	}
	regs := core.Main().Regs
	for r := 1; r < isa.NumRegs; r++ {
		if v := ma.Reg(isa.Reg(r)); regs[r] != v {
			return fmt.Errorf("r%d differs after %d instructions: core %#x, functional model %#x", r, n, regs[r], v)
		}
	}
	return nil
}

// --- paper-all ---

// paperAllPass runs Table 2, Figure 1, Figure 11 and Table 4 over all
// twelve programs through one engine, as `experiments -exp all` does.
func paperAllPass(e *env, rec *recorder) *pass {
	ps := newPass()
	ps.jobs = runtime.NumCPU()
	eng := harness.NewEngine(harness.Params{Scale: regionScale}, ps.jobs)
	var (
		mu    sync.Mutex
		specs []harness.RunSpec
		cur   atomic.Int64 // the driver span simulations belong to
	)
	cur.Store(-1)
	eng.Progress = func(ev harness.Event) {
		if ev.Memoized {
			return
		}
		end := time.Now()
		rec.add("sim", int(cur.Load()), rec.newSim(), end.Add(-ev.Wall), end)
		mu.Lock()
		ps.sims = append(ps.sims, ev.Wall)
		specs = append(specs, ev.Spec)
		mu.Unlock()
	}
	ws := e.workloads()
	var (
		t2  []harness.Table2Row
		f1  []harness.Figure1Row
		f11 []harness.Figure11Row
		t4  []harness.Table4Col
	)
	root := rec.begin("paper-all", -1, -1)
	m0 := mallocs()
	start := time.Now()
	err := catch(func() error {
		for _, d := range []struct {
			name string
			run  func()
		}{
			{"Engine.Table2", func() { t2 = eng.Table2(ws) }},
			{"Engine.Figure1", func() { f1 = eng.Figure1(ws) }},
			{"Engine.Figure11", func() { f11 = eng.Figure11(ws) }},
			{"Engine.Table4", func() { t4 = eng.Table4(ws) }},
		} {
			id := rec.begin(d.name, root, -1)
			cur.Store(int64(id))
			d.run()
			rec.end(id)
		}
		return nil
	})
	ps.wall = time.Since(start)
	ps.mallocs = mallocs() - m0
	rec.end(root)

	ps.engine = eng.Stats()
	ps.ckpt = ps.engine.Checkpoints
	ps.insts = ps.engine.SimInsts
	ps.simWall = ps.engine.SimWall
	mu.Lock()
	defer mu.Unlock()
	ps.attempted = len(specs)
	if err != nil {
		ps.fail("paper-all: %v", err)
		return ps
	}
	ps.tables = harness.FormatTable2(t2) + harness.FormatFigure1(f1) +
		harness.FormatFigure11(f11) + harness.FormatTable4(t4)
	sort.Slice(specs, func(i, j int) bool { return specs[i].Key() < specs[j].Key() })
	for _, s := range specs {
		res, err := eng.Run(s) // recalled from the memo: the pass's own result
		if err != nil {
			ps.fail("%s: %v", s.Key(), err)
			continue
		}
		ps.keep(s.Key(), res.Snap, s.Run)
	}
	ps.redriveSpecs = specs
	return ps
}

// redrive re-runs paper-all's unique simulations serially through the
// public calls the engine makes — Checkpointer.Warm, cpu.Restore and a
// chunked Core.Run — so the traced pass can time each phase. Each result
// must equal the engine's.
func redrive(e *env, ps *pass, rec *recorder) {
	cp := harness.NewCheckpointer("", harness.WarmDetailed)
	root := rec.begin("redrive", -1, -1)
	warmKeys := map[string]bool{}
	for _, s := range ps.redriveSpecs {
		ps.attempt(s.Key(), func() error {
			p, err := e.byName(s.Workload)
			if err != nil {
				return err
			}
			sim := rec.newSim()
			sp := rec.begin("sim", root, sim)
			defer rec.end(sp)
			id := rec.begin("Checkpointer.Warm", sp, sim)
			ck, _, err := cp.Warm(p.w, s.Cfg, s.WithSlices, s.Warm)
			rec.end(id)
			if err != nil {
				return err
			}
			if k := harness.WarmKeyFor(p.w.Name, s.WithSlices, s.Warm, cp.Mode, s.Cfg); !warmKeys[k] {
				warmKeys[k] = true
				ps.ckptBytes += uint64(len(ck.EncodeBinary()))
			}
			var table *slicehw.Table
			if s.WithSlices {
				table = p.table
			}
			id = rec.begin("cpu.Restore", sp, sim)
			core, err := cpu.Restore(s.Cfg, p.w.Image, ck, table)
			rec.end(id)
			if err != nil {
				return err
			}
			ps.measure(core, s.Run, chunkInsts, rec, sp, sim)
			snap := core.Snapshot()
			ps.noteFootprint(p.w.Name, core.Memory())
			if d := digest(&snap); d != ps.digests[s.Key()] {
				return fmt.Errorf("serial re-drive differs from the engine's run")
			}
			return nil
		})
	}
	rec.end(root)
}

// --- slices-serial ---

// slicesSerialPass simulates each program with its hand slices on the
// 4-wide machine, one at a time: cpu.New, a detailed warm-up, then the
// measured region in chunks. No engine, memo or checkpoint.
func slicesSerialPass(e *env, rec *recorder) *pass {
	ps := newPass()
	root := rec.begin("slices-serial", -1, -1)
	for _, p := range e.progs {
		ps.attempt(p.w.Name, func() error { return slicesSim(ps, p, rec, root) })
	}
	rec.end(root)
	return ps
}

func slicesSim(ps *pass, p *program, rec *recorder, parent int) error {
	cfg := cpu.Config4Wide()
	sim := rec.newSim()
	sp := rec.begin("sim", parent, sim)
	m0 := mallocs()
	start := time.Now()
	id := rec.begin("cpu.New", sp, sim)
	core, err := cpu.New(cfg, p.w.Image, p.newMemory(), p.w.Entry, p.table)
	rec.end(id)
	if err != nil {
		rec.end(sp)
		return err
	}
	id = rec.begin("Core.Run/warm", sp, sim)
	core.Run(p.warm)
	rec.end(id)
	warmRetired := core.S.MainRetired
	core.ResetStats()
	ps.measure(core, p.run, chunkInsts, rec, sp, sim)
	snap := core.Snapshot()
	d := time.Since(start)
	rec.end(sp)
	ps.mallocs += mallocs() - m0
	ps.sims = append(ps.sims, d)
	ps.wall += d
	ps.simWall += d
	ps.insts += p.warm + p.run
	ps.keep(p.w.Name, snap, p.run)
	ps.noteFootprint(p.w.Name, core.Memory())

	// Slices never change architectural results: drain the machine and
	// compare its registers with the functional model's.
	if err := core.Quiesce(); err != nil {
		return err
	}
	if err := core.CheckInvariants(); err != nil {
		return err
	}
	ma := compiled.NewMachine(compiled.Cached(p.w.Image), p.newMemory(), p.w.Entry)
	return finalRegs(core, ma, warmRetired+core.S.MainRetired)
}

// --- fastforward-oracle ---

// fastforwardPass fast-forwards each program functionally through a
// Checkpointer in WarmFunctional mode, then runs a short detailed region
// under the differential oracle, one program at a time, without slices.
func fastforwardPass(e *env, rec *recorder) *pass {
	ps := newPass()
	root := rec.begin("fastforward-oracle", -1, -1)
	for _, p := range e.progs {
		ps.attempt(p.w.Name, func() error { return fastforwardSim(ps, p, rec, root) })
	}
	rec.end(root)
	return ps
}

func fastforwardSim(ps *pass, p *program, rec *recorder, parent int) error {
	cfg := cpu.Config4Wide()
	sim := rec.newSim()
	sp := rec.begin("sim", parent, sim)
	m0 := mallocs()
	start := time.Now()
	cp := harness.NewCheckpointer("", harness.WarmFunctional)
	id := rec.begin("Checkpointer.Warm", sp, sim)
	ck, _, err := cp.Warm(p.w, cfg, false, p.ff)
	rec.end(id)
	if err != nil {
		rec.end(sp)
		return err
	}
	id = rec.begin("cpu.Restore", sp, sim)
	core, err := cpu.Restore(cfg, p.w.Image, ck, nil)
	rec.end(id)
	if err != nil {
		rec.end(sp)
		return err
	}
	id = rec.begin("oracle.FromCheckpoint", sp, sim)
	orc := oracle.FromCheckpoint(p.w.Image, ck, oracle.Options{
		Workload: p.w.Name,
		WarmKey:  harness.WarmKeyFor(p.w.Name, false, p.ff, cp.Mode, cfg),
	})
	orc.Attach(core)
	rec.end(id)
	ps.validated += ps.measure(core, ffRegion, ffChunk, rec, sp, sim)
	snap := core.Snapshot()
	// oracle.VerifyFinal needs a halted program and these never halt
	// within the region, so the final check drains the core and compares
	// its registers with a functional model seeded from the same
	// checkpoint.
	id = rec.begin("oracle.VerifyFinal", sp, sim)
	verr := verifyOracle(core, orc, p, ck)
	rec.end(id)
	d := time.Since(start)
	rec.end(sp)
	ps.mallocs += mallocs() - m0
	ps.sims = append(ps.sims, d)
	ps.wall += d
	ps.simWall += d
	ps.insts += p.ff + ffRegion
	st := cp.Stats()
	ps.ckpt.WarmMisses += st.WarmMisses
	ps.ckpt.WarmHits += st.WarmHits
	ps.checked += orc.Retired()
	ps.keep(p.w.Name, snap, ffRegion)
	ps.noteFootprint(p.w.Name, core.Memory())
	if verr != nil {
		return verr
	}
	if rec != nil {
		// The traced pass also runs the region without the oracle, so
		// the oracle's cost is measured rather than estimated.
		ps.ckptBytes += uint64(len(ck.EncodeBinary()))
		plain, err := cpu.Restore(cfg, p.w.Image, ck, nil)
		if err != nil {
			return err
		}
		var discard []time.Duration
		ps.unchecked += runChunks(plain, ffRegion, ffChunk, nil, -1, -1, &discard)
		if s := plain.Snapshot(); digest(&s) != ps.digests[p.w.Name] {
			return fmt.Errorf("region without the oracle differs from the validated one")
		}
	}
	return nil
}

func verifyOracle(core *cpu.Core, orc *oracle.Oracle, p *program, ck *cpu.Checkpoint) error {
	if err := core.Quiesce(); err != nil {
		return err
	}
	if err := core.CheckInvariants(); err != nil {
		return err
	}
	if err := orc.Err(); err != nil {
		return err
	}
	ma := compiled.NewMachine(compiled.Cached(p.w.Image), mem.NewFromSnapshot(ck.Mem), ck.PC)
	regs := ck.Regs
	ma.SetRegs(&regs)
	return finalRegs(core, ma, orc.Retired())
}
