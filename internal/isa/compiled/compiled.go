// Package compiled implements the predecoded execution engine: it compiles
// the code regions of an asm.Image into dense Op structs once, then
// executes them one at a time through Exec, with no per-instruction image
// lookup, no isa.State interface crossing, and memory through a
// page-pointer cache (mem.Pager).
//
// Exec is the simulator's one per-instruction semantics. The detailed
// core executes every fetched instruction through it, and Machine.Step
// and Machine.Run are built on it for the functional model:
// `-warm=functional` fast-forwards, checkpoint builds, the differential
// oracle shadowing every retirement, and trace collection for automatic
// slice construction. The original decode-dispatch interpreter
// (isa.Execute) stays as the semantic reference — the golden tests and
// FuzzCompiledVsInterp in this package hold the two outcome-for-outcome
// equal — and isa.Outcome stays the contract with the timing model.
//
// Predecode flattens decode once per instruction: immediates are
// pre-sign-extended (and pre-masked for immediate shifts, pre-shifted for
// LDIH), direct branch targets are precomputed, and Zero-register writes
// are remapped to a dump slot so the kernel has no "rd == Zero" branch.
// The slot also records the instruction's source and destination
// registers, which the detailed core's fetch reads.
package compiled

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
)

// dump is the register-file slot that absorbs writes to the architectural
// Zero register: Machine.Regs has NumRegs+1 entries, writes compiled for
// rd == Zero target slot dump, and nothing ever reads it (reads of Zero go
// to slot 0, which no write path touches).
const dump = isa.NumRegs

// Op is one predecoded instruction. Its exported methods carry the
// per-fetch decode the detailed core needs (the instruction, source and
// destination registers, effective address), computed once at compile
// time.
type Op struct {
	op isa.Op // the architectural opcode; Exec dispatches on it
	wr uint8  // write slot: rd, or dump when rd == Zero
	rd uint8  // architectural Rd (outcome reporting, store data)
	ra uint8
	rb uint8
	sz uint8 // memory access bytes
	// srcs[:nsrc] are the registers the instruction reads
	// (isa.Inst.SourcesInto).
	srcs [3]isa.Reg
	nsrc uint8

	in  *isa.Inst // the instruction, in the image
	imm int64     // pre-extended immediate (shift-masked, LDIH pre-shifted)
	pc  uint64    // this op's address
	tpc uint64    // direct branch target address
}

// region is one compiled code region.
type region struct {
	base uint64
	end  uint64
	ops  []Op
}

// Program is a compiled image: every code region predecoded, in address
// order. Programs are immutable and safe for concurrent Machines.
type Program struct {
	regions []region
}

// Compile predecodes every region of the image.
func Compile(im *asm.Image) *Program {
	progs := im.Programs()
	p := &Program{regions: make([]region, 0, len(progs))}
	for _, pr := range progs {
		p.regions = append(p.regions, compileRegion(pr))
	}
	return p
}

// wrOf maps an architectural destination to its write slot.
func wrOf(r isa.Reg) uint8 {
	if r == isa.Zero {
		return dump
	}
	return uint8(r)
}

func compileRegion(pr *asm.Program) region {
	insts := pr.Insts
	r := region{base: pr.Base, end: pr.End(), ops: make([]Op, len(insts))}
	for i := range insts {
		r.ops[i] = decodeOne(&insts[i], pr.Base+uint64(i)*isa.InstBytes)
	}
	return r
}

// decodeOne predecodes a single instruction.
func decodeOne(in *isa.Inst, pc uint64) Op {
	o := Op{op: in.Op, rd: uint8(in.Rd), ra: uint8(in.Ra), rb: uint8(in.Rb),
		imm: int64(in.Imm), pc: pc, in: in}
	o.nsrc = uint8(in.SourcesInto(&o.srcs))
	switch {
	case in.Op >= isa.ADD && in.Op <= isa.CMOVLE:
		o.wr = wrOf(in.Rd)
	case in.IsLoad() || in.IsCall():
		o.wr = wrOf(in.Rd)
	default:
		o.wr = dump
	}
	switch in.Op {
	case isa.SLLI, isa.SRLI, isa.SRAI:
		// isa.Execute shifts by uint64(imm) & 63.
		o.imm = int64(uint64(int64(in.Imm)) & 63)
	case isa.LDIH:
		// rd = ra + imm<<16, pre-shifted.
		o.imm = int64(uint64(int64(in.Imm)) << 16)
	}
	if in.IsMem() {
		o.sz = uint8(in.MemBytes())
	}
	if in.IsDirectCtrl() {
		o.tpc = in.BranchTarget(pc)
	}
	return o
}

// regionFor returns the region containing pc (aligned), or nil.
func (p *Program) regionFor(pc uint64) *region {
	for i := range p.regions {
		r := &p.regions[i]
		if pc >= r.base && pc < r.end {
			if (pc-r.base)%isa.InstBytes != 0 {
				return nil
			}
			return r
		}
	}
	return nil
}

// Cursor remembers the region of a Program's previous lookup, so that a
// thread fetching along one region skips the region search. The zero
// Cursor is ready to use. A Cursor must only ever be used with one
// Program; reset it to the zero value before using it with another.
type Cursor struct {
	r *region
}

// At returns the op at pc, or nil when pc is outside the image or not
// instruction-aligned (asm.Image.At's false).
func (p *Program) At(pc uint64, cur *Cursor) *Op {
	r := cur.r
	if r == nil || pc < r.base || pc >= r.end || (pc-r.base)%isa.InstBytes != 0 {
		if r = p.regionFor(pc); r == nil {
			return nil
		}
		cur.r = r
	}
	return &r.ops[(pc-r.base)/isa.InstBytes]
}

// Inst returns the instruction this op was decoded from.
func (o *Op) Inst() *isa.Inst { return o.in }

// Sources returns the registers the instruction reads, as
// isa.Inst.SourcesInto reports them.
func (o *Op) Sources() []isa.Reg { return o.srcs[:o.nsrc] }

// Dest returns the instruction's destination register, as isa.Inst.Dest
// reports it: false when it writes none or writes Zero.
func (o *Op) Dest() (isa.Reg, bool) { return isa.Reg(o.wr), o.wr != dump }

// Addr returns the effective address of a memory instruction under regs.
func (o *Op) Addr(regs *Regs) uint64 { return regs[o.ra] + uint64(o.imm) }

// IsLoad reports whether the instruction reads memory.
func (o *Op) IsLoad() bool { return o.op >= isa.LD && o.op <= isa.LDBU }

// IsStore reports whether the instruction writes memory.
func (o *Op) IsStore() bool { return o.op >= isa.ST && o.op <= isa.STB }

// IsCtrl reports whether the instruction changes control flow.
func (o *Op) IsCtrl() bool { return o.op >= isa.BEQ && o.op <= isa.RET }

// MemBytes returns the access width of a memory instruction, or 0.
func (o *Op) MemBytes() int {
	if o.op >= isa.LD && o.op <= isa.STB {
		return int(o.sz)
	}
	return 0
}

// OffImageError reports execution leaving the compiled image (or landing
// on an unaligned address), mirroring asm.Image.At returning false.
type OffImageError struct {
	PC uint64
}

func (e *OffImageError) Error() string {
	return fmt.Sprintf("compiled: pc %#x is outside the image", e.PC)
}

// The cache is keyed by image identity, so it amortizes compilation across
// every checkpoint build, oracle and functional run that shares one image
// value. Images are not process-wide singletons: every workloads.All or
// ByName call builds twelve new ones. A harness.Engine resolves all its
// runs to the workload values it was handed, so an engine compiles each
// image once; a process that keeps building fresh images (tests that call
// All per test, fuzzers) fills the cache with images no one uses again.
// Entries are never evicted; past the cap, Cached compiles without
// caching.
const cacheCap = 128

var (
	cacheMu    sync.Mutex
	progsCache = make(map[*asm.Image]*Program)
)

// Cached returns the compiled form of im, compiling at most once per
// image for cached entries.
func Cached(im *asm.Image) *Program {
	cacheMu.Lock()
	p := progsCache[im]
	cacheMu.Unlock()
	if p != nil {
		return p
	}
	p = Compile(im)
	cacheMu.Lock()
	if q, ok := progsCache[im]; ok {
		p = q // lost a benign race; converge on one instance
	} else if len(progsCache) < cacheCap {
		progsCache[im] = p
	}
	cacheMu.Unlock()
	return p
}
