// Package compiled implements the predecoded execution engine: it compiles
// the code regions of an asm.Image into dense Op structs once, then
// executes them with a direct jump-table dispatch, no per-instruction
// image lookup, no isa.State interface crossing, and an inlined
// paged-memory fast path (mem.Pager).
//
// Execution runs on every hot path the simulator has. The functional
// model — `-warm=functional` fast-forwards, checkpoint builds, and the
// differential oracle shadowing every retirement — runs Machine.Run and
// Machine.Step; the detailed core executes every fetched instruction
// through Exec, the single-instruction kernel Step is built on, so both
// share one per-instruction semantics. The original decode-dispatch
// interpreter (isa.Execute) stays as the semantic reference — the golden
// tests and FuzzCompiledVsInterp in this package hold the two engines
// outcome-for-outcome equal — and isa.Outcome stays the contract with the
// timing model.
//
// Predecode does three things per instruction:
//
//   - flattens decode: immediates are pre-sign-extended (and pre-masked
//     for immediate shifts, pre-shifted for LDIH), branch targets become
//     op indices within the region, and Zero-register writes are remapped
//     to a dump slot so the hot path has no "rd == Zero" branch;
//   - fuses the dominant dynamic pairs — compare+branch, scaled-add+load
//     (s4add/s8add feeding a load), and ldi+addi constant setup — into
//     single superops. Fusion is overlap-tolerant: ops[i] may be a fused
//     pair (i, i+1) while ops[i+1] still holds instruction i+1's own
//     (possibly itself fused) decode, so every instruction address stays
//     a valid branch-entry point;
//   - keeps the unfused opcode alongside (Op.plain), so single-stepping —
//     the detailed core's execute-at-fetch, the oracle's lockstep diff,
//     the warm loop's per-instruction cache touching, and the
//     run-boundary case where a fused pair would overshoot maxInsts —
//     executes exactly one architectural instruction with a full
//     isa.Outcome. The slot also records the instruction's source and
//     destination registers, which the detailed core's fetch reads.
package compiled

import (
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Plain ops dispatch on their isa.Op value; fused superops extend the
// opcode space past isa.HALT.
const (
	kFCmpBr  = isa.HALT + 1 + iota // cmpXX rd,ra,rb ; beq/bne rd
	kFCmpiBr                       // cmpXXi rd,ra,imm ; beq/bne rd
	kFSAddLd                       // s4add/s8add rd,ra,rb ; ld* rx, imm(rd)
	kFLdiAdd                       // ldi rd, imm ; addi rx, rd, imm2
)

// dump is the register-file slot that absorbs writes to the architectural
// Zero register: Machine.Regs has NumRegs+1 entries, writes compiled for
// rd == Zero target slot dump, and nothing ever reads it (reads of Zero go
// to slot 0, which no write path touches).
const dump = isa.NumRegs

// Op is one predecoded, possibly fused, operation. Its exported methods
// carry the per-fetch decode the detailed core needs (the instruction,
// source and destination registers, effective address), computed once
// at compile time.
type Op struct {
	kind isa.Op // dispatch code: the isa.Op for plain ops, kF* for fused
	// plain is this slot's own architectural opcode (the first constituent
	// when kind is fused); Exec dispatches on it.
	plain isa.Op
	wr    uint8 // write slot: rd, or dump when rd == Zero
	rd    uint8 // architectural Rd (outcome reporting, store data, cmov old value)
	ra    uint8
	rb    uint8
	n     uint8 // architectural instructions covered: 1, or 2 when fused
	sz    uint8 // memory access bytes (fused: the load constituent's)
	// Fused second-constituent fields.
	wr2 uint8  // second write slot
	k2  isa.Op // second constituent's opcode (load width / sign extension)
	neg bool   // fused cmp+branch: branch is BEQ (taken when the compare is false)
	// srcs[:nsrc] are the registers this slot's own instruction reads
	// (isa.Inst.SourcesInto).
	srcs [3]isa.Reg
	nsrc uint8

	in   *isa.Inst // this slot's own instruction, in the image
	imm  int64     // pre-extended immediate (shift-masked, LDIH pre-shifted)
	imm2 int64     // fused: second immediate (kFLdiAdd: the precomputed sum)
	tgt  int32     // direct branch target as an op index in this region; -1 otherwise
	pc   uint64    // this op's address
	tpc  uint64    // direct branch target address
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
		r.ops[i] = decodeOne(&insts[i], pr.Base+uint64(i)*isa.InstBytes, r.base, r.end)
	}
	// Fusion pass, on the original instructions so overlapping pairs stay
	// independent: ops[i] may fuse (i, i+1) while ops[i+1] fuses (i+1, i+2).
	for i := 0; i+1 < len(insts); i++ {
		fuse(&r.ops[i], &insts[i], &insts[i+1], &r.ops[i+1])
	}
	return r
}

// decodeOne predecodes a single instruction into a plain op.
func decodeOne(in *isa.Inst, pc, base, end uint64) Op {
	o := Op{kind: in.Op, plain: in.Op, rd: uint8(in.Rd), ra: uint8(in.Ra), rb: uint8(in.Rb),
		n: 1, imm: int64(in.Imm), pc: pc, tgt: -1, in: in}
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
		if o.tpc >= base && o.tpc < end && (o.tpc-base)%isa.InstBytes == 0 {
			o.tgt = int32((o.tpc - base) / isa.InstBytes)
		}
	}
	return o
}

func isCmpRR(op isa.Op) bool  { return op >= isa.CMPEQ && op <= isa.CMPULE }
func isCmpRI(op isa.Op) bool  { return op >= isa.CMPEQI && op <= isa.CMPULTI }
func isSAdd(op isa.Op) bool   { return op == isa.S4ADD || op == isa.S8ADD }
func isLoadOp(op isa.Op) bool { return op >= isa.LD && op <= isa.LDBU }

// fuse rewrites a into a fused superop when (a, b) matches one of the
// dominant dynamic pairs. b's own op slot (bop) supplies predecoded fields
// of the second constituent (branch targets).
func fuse(ao *Op, a, b *isa.Inst, bop *Op) {
	switch {
	case (isCmpRR(a.Op) || isCmpRI(a.Op)) &&
		(b.Op == isa.BEQ || b.Op == isa.BNE) &&
		b.Ra == a.Rd && a.Rd != isa.Zero:
		// The compare's 0/1 result steers the branch; the register write
		// still happens (the flag may be live past the branch).
		if isCmpRR(a.Op) {
			ao.kind = kFCmpBr
		} else {
			ao.kind = kFCmpiBr
		}
		ao.n = 2
		ao.neg = b.Op == isa.BEQ
		ao.tgt = bop.tgt
		ao.tpc = bop.tpc

	case isSAdd(a.Op) && isLoadOp(b.Op) && b.Ra == a.Rd && a.Rd != isa.Zero:
		// Address generation feeding a load: rd = ra<<s + rb, then
		// rx = load(rd + imm).
		ao.kind = kFSAddLd
		ao.n = 2
		ao.k2 = b.Op
		ao.sz = uint8(b.MemBytes())
		ao.wr2 = wrOf(b.Rd)
		ao.imm2 = int64(b.Imm)

	case a.Op == isa.LDI && b.Op == isa.ADDI && b.Ra == a.Rd && a.Rd != isa.Zero:
		// Constant setup: both results are compile-time known.
		ao.kind = kFLdiAdd
		ao.n = 2
		ao.wr2 = wrOf(b.Rd)
		ao.imm2 = int64(uint64(int64(a.Imm)) + uint64(int64(b.Imm)))
	}
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

// Inst returns the instruction this op slot was decoded from (its own,
// the first constituent when the slot is fused).
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
func (o *Op) IsLoad() bool { return o.plain >= isa.LD && o.plain <= isa.LDBU }

// IsStore reports whether the instruction writes memory.
func (o *Op) IsStore() bool { return o.plain >= isa.ST && o.plain <= isa.STB }

// IsCtrl reports whether the instruction changes control flow.
func (o *Op) IsCtrl() bool { return o.plain >= isa.BEQ && o.plain <= isa.RET }

// MemBytes returns the access width of a memory instruction, or 0.
func (o *Op) MemBytes() int {
	if o.plain >= isa.LD && o.plain <= isa.STB {
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

// Images are process-lifetime singletons (the 12 workloads), so a small
// identity-keyed cache amortizes compilation across every checkpoint
// build, oracle, and functional run that shares an image. The cap only
// matters for churny transient images (fuzzers); past it, Cached compiles
// without caching.
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
