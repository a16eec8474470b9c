package compiled_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/compiled"
	"repro/internal/mem"
	"repro/internal/progen"
)

// runCompiledVsInterp executes one random progen program on both engines
// and diffs them two ways:
//
//   - lockstep: Machine.Step (the Exec kernel over a Pager) against
//     isa.Execute on a plain Memory, Outcome-for-Outcome, with the
//     register files compared at every divergence candidate;
//   - chunked: Machine.Run in uneven maxInsts chunks against the
//     interpreter's final state.
//
// Every memory starts from one shared snapshot of the initial image, so
// the first store to each initial page is a copy-on-write, and further
// snapshots land between random steps and chunks. Each bumps the memory's
// generation, so the Pager must flush its cached pages and copy before
// writing again; every snapshot must stay frozen to the end.
func runCompiledVsInterp(t *testing.T, seed int64, chunk uint64) {
	rng := rand.New(rand.NewSource(seed))
	im, entry, init := progen.Program(rng)
	prog := compiled.Compile(im)
	const maxSteps = 2_000_000
	const maxSnaps = 64 // per pass

	initMem := mem.New()
	init(initMem)
	initSnap := initMem.Snapshot()
	initBytes := initSnap.AppendTo(nil)
	// frozen pairs each snapshot taken mid-run with the reference's
	// snapshot of the same instant.
	type frozen struct{ got, want *mem.Snapshot }
	var snaps []frozen
	nextSnap := func() int { return 1 + rng.Intn(256) }

	// Lockstep pass.
	refMem := mem.NewFromSnapshot(initSnap)
	ref := &refState{m: refMem}
	maMem := mem.NewFromSnapshot(initSnap)
	ma := compiled.NewMachine(prog, maMem, entry)

	pc := entry
	steps := 0
	snapAt := nextSnap()
	for ; steps < maxSteps; steps++ {
		in, ok := im.At(pc)
		if !ok {
			t.Fatalf("seed %d: reference fell off the image at %#x", seed, pc)
		}
		want := isa.Execute(in, pc, ref)
		var got isa.Outcome
		op, err := ma.Step(&got)
		if err != nil {
			t.Fatalf("seed %d: Step at %#x: %v", seed, pc, err)
		}
		if op != in.Op {
			t.Fatalf("seed %d at %#x: op %v, want %v", seed, pc, op, in.Op)
		}
		if got != want {
			t.Fatalf("seed %d at %#x (%v): outcome mismatch\n got  %+v\n want %+v",
				seed, pc, in.Op, got, want)
		}
		if want.Halt {
			break
		}
		pc = want.NextPC(pc)
		if ma.PC() != pc {
			t.Fatalf("seed %d: pc diverged after %#x: got %#x, want %#x", seed, pc, ma.PC(), pc)
		}
		if snapAt--; snapAt == 0 && len(snaps) < maxSnaps {
			snaps = append(snaps, frozen{maMem.Snapshot(), refMem.Snapshot()})
			snapAt = nextSnap()
		}
	}
	if steps == maxSteps {
		t.Fatalf("seed %d: program did not halt within %d steps", seed, maxSteps)
	}
	var gotRegs [isa.NumRegs]uint64
	ma.CopyRegs(&gotRegs)
	if gotRegs != ref.regs {
		t.Fatalf("seed %d: lockstep register files diverge\n got  %v\n want %v",
			seed, gotRegs, ref.regs)
	}
	if !maMem.Snapshot().Equal(refMem.Snapshot()) {
		t.Fatalf("seed %d: lockstep memories diverge", seed)
	}

	// Chunked-Run pass against the lockstep-validated final state.
	runMem := mem.NewFromSnapshot(initSnap)
	mb := compiled.NewMachine(prog, runMem, entry)
	chunk = chunk%37 + 1
	var retired uint64
	// runSnaps pairs each snapshot with its serialized bytes at the time.
	type taken struct {
		s     *mem.Snapshot
		bytes []byte
	}
	var runSnaps []taken
	for !mb.Halted() {
		n, err := mb.Run(chunk)
		if err != nil {
			t.Fatalf("seed %d chunk %d: Run: %v", seed, chunk, err)
		}
		retired += n
		if retired > maxSteps {
			t.Fatalf("seed %d chunk %d: did not halt within %d insts", seed, chunk, maxSteps)
		}
		if rng.Intn(8) == 0 && len(runSnaps) < maxSnaps {
			rs := runMem.Snapshot()
			runSnaps = append(runSnaps, taken{rs, rs.AppendTo(nil)})
		}
	}
	if retired != uint64(steps)+1 {
		t.Fatalf("seed %d chunk %d: retired %d, lockstep retired %d", seed, chunk, retired, steps+1)
	}
	if mb.PC() != pc {
		t.Fatalf("seed %d chunk %d: final pc %#x, want %#x", seed, chunk, mb.PC(), pc)
	}
	var runRegs [isa.NumRegs]uint64
	mb.CopyRegs(&runRegs)
	if runRegs != ref.regs {
		t.Fatalf("seed %d chunk %d: Run register files diverge\n got  %v\n want %v",
			seed, chunk, runRegs, ref.regs)
	}
	if !runMem.Snapshot().Equal(refMem.Snapshot()) {
		t.Fatalf("seed %d chunk %d: Run memories diverge", seed, chunk)
	}

	// Later stores must not have reached any snapshot.
	for i, s := range snaps {
		if !s.got.Equal(s.want) {
			t.Fatalf("seed %d: lockstep snapshot %d of %d changed after it was taken", seed, i, len(snaps))
		}
	}
	for i, s := range runSnaps {
		if !bytes.Equal(s.s.AppendTo(nil), s.bytes) {
			t.Fatalf("seed %d chunk %d: Run snapshot %d of %d changed after it was taken", seed, chunk, i, len(runSnaps))
		}
	}
	if !bytes.Equal(initSnap.AppendTo(nil), initBytes) {
		t.Fatalf("seed %d: the initial snapshot changed", seed)
	}
}

// TestCompiledVsInterpSeeds is the always-on slice of the fuzzer, so plain
// `go test` differentially covers the generator's whole instruction mix.
func TestCompiledVsInterpSeeds(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			runCompiledVsInterp(t, seed, uint64(seed)*7)
		})
	}
}

// FuzzCompiledVsInterp drives random progen programs through the compiled
// engine in lockstep and in uneven Run chunks, against the isa.Execute
// interpreter as the semantic reference.
func FuzzCompiledVsInterp(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint64(seed)*13)
	}
	f.Fuzz(func(t *testing.T, seed int64, chunk uint64) {
		runCompiledVsInterp(t, seed, chunk)
	})
}
