package compiled

import (
	"repro/internal/isa"
	"repro/internal/mem"
)

// Machine executes a compiled Program against a Memory. It holds the
// register file (with the extra dump slot for Zero writes), a page-pointer
// cache over the memory, and the current PC.
//
// Step executes exactly one architectural instruction through the Exec
// kernel and fills a complete isa.Outcome, bit-identical to isa.Execute
// against the same state; Run is a loop over Step. Both follow
// cpu.RunFunctional's main-thread semantics: faulting loads read zero,
// faulting stores are dropped, and execution continues.
//
// A Machine is single-threaded; create one per concurrent run.
type Machine struct {
	// Regs is the register file. Slot 0 is the architectural Zero register
	// and is never written (compiled writes to Zero land in slot dump);
	// slot dump (NumRegs) is write-only garbage.
	Regs Regs

	prog   *Program
	pg     mem.Pager
	pc     uint64
	halted bool
	cur    Cursor // region containing pc, lazily looked up
}

// Regs is a register file with the dump slot: slot 0 is the architectural
// Zero register and is never written, and slot dump (NumRegs) absorbs the
// writes compiled for rd == Zero and is never read.
type Regs [isa.NumRegs + 1]uint64

// NewMachine returns a Machine executing p against m, starting at pc.
func NewMachine(p *Program, m *mem.Memory, pc uint64) *Machine {
	ma := &Machine{prog: p, pc: pc}
	ma.pg.Init(m)
	return ma
}

// PC returns the current program counter. After a Halt it remains at the
// HALT instruction (matching RunFunctional and FunctionalWarm).
func (ma *Machine) PC() uint64 { return ma.pc }

// SetPC redirects execution and clears the halted flag.
func (ma *Machine) SetPC(pc uint64) {
	ma.pc = pc
	ma.halted = false
}

// Halted reports whether a HALT has retired.
func (ma *Machine) Halted() bool { return ma.halted }

// Mem returns the underlying memory.
func (ma *Machine) Mem() *mem.Memory { return ma.pg.Mem() }

// InvalidatePages drops cached page pointers. Call after writing the
// Memory directly (not through this Machine's execution).
func (ma *Machine) InvalidatePages() { ma.pg.Invalidate() }

// Reg reads an architectural register; Zero reads 0.
func (ma *Machine) Reg(r isa.Reg) uint64 { return ma.Regs[r] }

// SetReg writes an architectural register; writing Zero is a no-op.
func (ma *Machine) SetReg(r isa.Reg, v uint64) {
	if r != isa.Zero {
		ma.Regs[r] = v
	}
}

// SetRegs loads the architectural register file.
func (ma *Machine) SetRegs(regs *[isa.NumRegs]uint64) {
	copy(ma.Regs[:isa.NumRegs], regs[:])
	ma.Regs[isa.Zero] = 0 // preserve the never-written invariant
}

// CopyRegs copies the architectural register file out.
func (ma *Machine) CopyRegs(regs *[isa.NumRegs]uint64) {
	copy(regs[:], ma.Regs[:isa.NumRegs])
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// cmpRR evaluates a register-register compare.
func cmpRR(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.CMPEQ:
		return b2u(a == b)
	case isa.CMPLT:
		return b2u(int64(a) < int64(b))
	case isa.CMPLE:
		return b2u(int64(a) <= int64(b))
	case isa.CMPULT:
		return b2u(a < b)
	default: // CMPULE
		return b2u(a <= b)
	}
}

// cmpRI evaluates a register-immediate compare.
func cmpRI(op isa.Op, a uint64, imm int64) uint64 {
	switch op {
	case isa.CMPEQI:
		return b2u(a == uint64(imm))
	case isa.CMPLTI:
		return b2u(int64(a) < imm)
	case isa.CMPLEI:
		return b2u(int64(a) <= imm)
	default: // CMPULTI
		return b2u(a < uint64(imm))
	}
}

// Run executes up to maxInsts architectural instructions starting at the
// current PC and returns how many retired. It stops early on HALT (the
// machine stays halted, PC at the HALT) and returns an *OffImageError if
// control leaves the compiled image.
func (ma *Machine) Run(maxInsts uint64) (uint64, error) {
	var out isa.Outcome
	var n uint64
	for ; n < maxInsts && !ma.halted; n++ {
		if _, err := ma.Step(&out); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Step executes exactly one architectural instruction through Exec and
// returns its opcode (for caller-side classification). On HALT the PC
// stays at the HALT instruction; otherwise it advances to the outcome's
// next PC.
func (ma *Machine) Step(out *isa.Outcome) (isa.Op, error) {
	o := ma.prog.At(ma.pc, &ma.cur)
	if o == nil {
		*out = isa.Outcome{}
		return isa.NOP, &OffImageError{PC: ma.pc}
	}
	Exec(o, &ma.Regs, &ma.pg, out)
	if out.Halt {
		ma.halted = true
	} else {
		ma.pc = out.NextPC(ma.pc)
	}
	return o.op, nil
}

// Exec is the single-instruction kernel. It executes o against regs and
// pg, and fills out with the Outcome
// isa.Execute would produce against the same state. It moves no PC.
// Machine.Step and the detailed core's execute-at-fetch both run on it,
// so the two share one per-instruction semantics.
func Exec(o *Op, regs *Regs, pg *mem.Pager, out *isa.Outcome) {
	op := o.op
	if op >= isa.LD && op <= isa.LDBU {
		addr := regs[o.ra] + uint64(o.imm)
		var v uint64
		var ok bool
		switch op {
		case isa.LD:
			v, ok = pg.Load64(addr)
		case isa.LDW:
			v, ok = pg.Load32(addr)
		default:
			v, ok = pg.Load8(addr)
		}
		ExecLoad(o, regs, v, ok, out)
		return
	}

	*out = isa.Outcome{}
	var v uint64 // the register result, written below by ops that break
	switch op {
	case isa.ADD:
		v = regs[o.ra] + regs[o.rb]
	case isa.SUB:
		v = regs[o.ra] - regs[o.rb]
	case isa.MUL:
		v = regs[o.ra] * regs[o.rb]
	case isa.DIV:
		if b := regs[o.rb]; b != 0 {
			v = uint64(int64(regs[o.ra]) / int64(b))
		}
	case isa.AND:
		v = regs[o.ra] & regs[o.rb]
	case isa.OR:
		v = regs[o.ra] | regs[o.rb]
	case isa.XOR:
		v = regs[o.ra] ^ regs[o.rb]
	case isa.SLL:
		v = regs[o.ra] << (regs[o.rb] & 63)
	case isa.SRL:
		v = regs[o.ra] >> (regs[o.rb] & 63)
	case isa.SRA:
		v = uint64(int64(regs[o.ra]) >> (regs[o.rb] & 63))
	case isa.CMPEQ, isa.CMPLT, isa.CMPLE, isa.CMPULT, isa.CMPULE:
		v = cmpRR(op, regs[o.ra], regs[o.rb])
	case isa.S4ADD:
		v = regs[o.ra]*4 + regs[o.rb]
	case isa.S8ADD:
		v = regs[o.ra]*8 + regs[o.rb]

	case isa.ADDI:
		v = regs[o.ra] + uint64(o.imm)
	case isa.ANDI:
		v = regs[o.ra] & uint64(o.imm)
	case isa.ORI:
		v = regs[o.ra] | uint64(o.imm)
	case isa.XORI:
		v = regs[o.ra] ^ uint64(o.imm)
	case isa.SLLI:
		v = regs[o.ra] << uint64(o.imm)
	case isa.SRLI:
		v = regs[o.ra] >> uint64(o.imm)
	case isa.SRAI:
		v = uint64(int64(regs[o.ra]) >> uint64(o.imm))
	case isa.CMPEQI, isa.CMPLTI, isa.CMPLEI, isa.CMPULTI:
		v = cmpRI(op, regs[o.ra], o.imm)
	case isa.LDI:
		v = uint64(o.imm)
	case isa.LDIH:
		v = regs[o.ra] + uint64(o.imm)

	// A conditional move that does not fire writes nothing and reports no
	// register write.
	case isa.CMOVEQ:
		if regs[o.ra] != 0 {
			return
		}
		v = regs[o.rb]
	case isa.CMOVNE:
		if regs[o.ra] == 0 {
			return
		}
		v = regs[o.rb]
	case isa.CMOVLT:
		if int64(regs[o.ra]) >= 0 {
			return
		}
		v = regs[o.rb]
	case isa.CMOVGE:
		if int64(regs[o.ra]) < 0 {
			return
		}
		v = regs[o.rb]
	case isa.CMOVGT:
		if int64(regs[o.ra]) <= 0 {
			return
		}
		v = regs[o.rb]
	case isa.CMOVLE:
		if int64(regs[o.ra]) > 0 {
			return
		}
		v = regs[o.rb]

	case isa.ST, isa.STW, isa.STB:
		out.IsMem, out.IsStore = true, true
		out.Addr = regs[o.ra] + uint64(o.imm)
		out.Size = int(o.sz)
		out.StoreVal = regs[o.rd]
		var ok bool
		switch op {
		case isa.ST:
			ok = pg.Store64(out.Addr, out.StoreVal)
		case isa.STW:
			ok = pg.Store32(out.Addr, uint32(out.StoreVal))
		default:
			ok = pg.Store8(out.Addr, byte(out.StoreVal))
		}
		out.Fault = !ok
		return

	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
		out.IsCtrl = true
		out.Target = o.tpc
		a := regs[o.ra]
		switch op {
		case isa.BEQ:
			out.Taken = a == 0
		case isa.BNE:
			out.Taken = a != 0
		case isa.BLT:
			out.Taken = int64(a) < 0
		case isa.BLE:
			out.Taken = int64(a) <= 0
		case isa.BGT:
			out.Taken = int64(a) > 0
		case isa.BGE:
			out.Taken = int64(a) >= 0
		}
		return
	case isa.BR:
		out.IsCtrl, out.Taken = true, true
		out.Target = o.tpc
		return
	case isa.JMP, isa.RET:
		out.IsCtrl, out.Taken = true, true
		out.Target = regs[o.ra]
		return
	case isa.CALL:
		out.IsCtrl, out.Taken = true, true
		out.Target = o.tpc
		v = o.pc + isa.InstBytes
	case isa.CALLR:
		out.IsCtrl, out.Taken = true, true
		out.Target = regs[o.ra] // read before the link write: ra may alias rd
		v = o.pc + isa.InstBytes

	case isa.FORK:
		out.Fork = true
		out.SliceIndex = int(int32(o.imm))
		return
	case isa.HALT:
		out.Halt = true
		return
	default: // NOP
		return
	}
	regs[o.wr] = v
	if o.wr != dump {
		out.WroteReg, out.Rd, out.Value = true, isa.Reg(o.rd), v
	}
}

// ExecLoad completes the load o given v, the zero-extended value memory
// holds at o.Addr(regs), and ok, false when the access faulted: it
// applies LDW's sign extension, writes the destination and fills out.
// Exec runs every load through it; the detailed core calls it directly
// for helper-thread loads, whose value comes from the committed memory
// image instead of a Pager.
func ExecLoad(o *Op, regs *Regs, v uint64, ok bool, out *isa.Outcome) {
	if o.op == isa.LDW {
		v = uint64(int64(int32(uint32(v))))
	}
	*out = isa.Outcome{IsMem: true, Addr: regs[o.ra] + uint64(o.imm), Size: int(o.sz), Fault: !ok}
	regs[o.wr] = v
	if o.wr != dump {
		out.WroteReg, out.Rd, out.Value = true, isa.Reg(o.rd), v
	}
}
