package isa

import "fmt"

// Conventional layout of the simulated virtual address space.
const (
	// TextBase is where program text begins.
	TextBase uint64 = 0x0040_0000
	// DataBase is where static data segments begin.
	DataBase uint64 = 0x1000_0000
	// StackTop is the initial stack pointer.
	StackTop uint64 = 0x7fff_f000
)

// DataSegment is a named region of the program's address space. It is one
// of two kinds: initialised (Bytes holds its content) or zero-fill (Bytes
// is nil and ZeroLen declares its length). A zero-fill segment costs the
// image and the loader nothing per byte; it is indistinguishable to the
// simulated machine from a segment initialised with ZeroLen zeroes.
type DataSegment struct {
	Name    string
	Base    uint64
	Bytes   []byte
	ZeroLen uint64
	// Shared marks the segment as mapped into every process that loads the
	// program (attack scenarios use this for attacker/victim shared arrays).
	Shared bool
}

// Len is the segment's length in bytes, whichever kind it is.
func (d DataSegment) Len() uint64 {
	if d.Bytes != nil {
		return uint64(len(d.Bytes))
	}
	return d.ZeroLen
}

// Program is a complete executable image: text plus data segments.
//
// A Program is immutable once Builder.Build returns it: nothing that runs
// it — a core, the loader, the warm-up executor — writes its text, its
// data segments or its static table, so one Program may be shared by any
// number of machines on different goroutines.
type Program struct {
	Name  string
	Text  []Inst
	Data  []DataSegment
	Entry uint64

	// static is the predecoded per-instruction metadata table, built once
	// by Build and indexed in lockstep with Text.
	static []StaticInst
}

// predecode builds the static-instruction table.
func (p *Program) predecode() {
	tab := make([]StaticInst, len(p.Text))
	for i, in := range p.Text {
		tab[i] = NewStaticInst(in)
	}
	p.static = tab
}

// InstAt returns the instruction at virtual address pc, or (Inst{}, false)
// when pc is outside the text segment.
func (p *Program) InstAt(pc uint64) (Inst, bool) {
	if pc < TextBase || (pc-TextBase)%InstBytes != 0 {
		return Inst{}, false
	}
	idx := (pc - TextBase) / InstBytes
	if idx >= uint64(len(p.Text)) {
		return Inst{}, false
	}
	return p.Text[idx], true
}

// StaticAt returns the predecoded instruction at virtual address pc, or
// (nil, false) when pc is outside the text segment. The returned pointer is
// into the program's static table and stays valid for the program's
// lifetime.
func (p *Program) StaticAt(pc uint64) (*StaticInst, bool) {
	if pc < TextBase || (pc-TextBase)%InstBytes != 0 {
		return nil, false
	}
	idx := (pc - TextBase) / InstBytes
	if idx >= uint64(len(p.static)) {
		return nil, false
	}
	return &p.static[idx], true
}

// TextEnd returns the first address past the text segment.
func (p *Program) TextEnd() uint64 {
	return TextBase + uint64(len(p.Text))*InstBytes
}

// Builder assembles a Program with label-based control flow. Forward
// references are resolved at Build time.
type Builder struct {
	name    string
	text    []Inst
	data    []DataSegment
	labels  map[string]uint64
	fixups  []fixup
	nextVar uint64
}

type fixupKind uint8

const (
	fixFull fixupKind = iota // whole Imm = label address
	fixHi16                  // Imm = label address >> 16
	fixLo16                  // Imm = label address & 0xffff
)

type fixup struct {
	idx   int
	label string
	kind  fixupKind
}

// NewBuilder returns an empty program builder.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]uint64),
		nextVar: DataBase,
	}
}

// PC returns the address of the next instruction to be emitted.
func (b *Builder) PC() uint64 { return TextBase + uint64(len(b.text))*InstBytes }

// AlignText pads with NOPs until the current PC is aligned to the given
// power-of-two byte boundary (used to place attack-target code blocks at
// known cache-line/set offsets).
func (b *Builder) AlignText(align uint64) *Builder {
	for b.PC()%align != 0 {
		b.Nop()
	}
	return b
}

// Label binds name to the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("isa: duplicate label %q", name))
	}
	b.labels[name] = b.PC()
}

// LabelAddr reports the address a label was bound to.
func (b *Builder) LabelAddr(name string) (uint64, bool) {
	a, ok := b.labels[name]
	return a, ok
}

// I emits a raw instruction.
func (b *Builder) I(in Inst) *Builder {
	b.text = append(b.text, in)
	return b
}

// Emit helpers. Branch/jump/call targets are labels resolved at Build.

func (b *Builder) Nop() *Builder { return b.I(Inst{Op: OpNop}) }

func (b *Builder) Add(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Sub(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpSub, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Mul(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Div(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Rem(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpRem, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) And(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpAnd, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Or(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpOr, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Xor(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpXor, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Shl(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpShl, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) Shr(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpShr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

func (b *Builder) Addi(rd, rs1 Reg, imm int64) *Builder {
	return b.I(Inst{Op: OpAddi, Rd: rd, Rs1: rs1, Imm: imm})
}
func (b *Builder) Andi(rd, rs1 Reg, imm int64) *Builder {
	return b.I(Inst{Op: OpAndi, Rd: rd, Rs1: rs1, Imm: imm})
}
func (b *Builder) Shli(rd, rs1 Reg, imm int64) *Builder {
	return b.I(Inst{Op: OpShli, Rd: rd, Rs1: rs1, Imm: imm})
}
func (b *Builder) Shri(rd, rs1 Reg, imm int64) *Builder {
	return b.I(Inst{Op: OpShri, Rd: rd, Rs1: rs1, Imm: imm})
}

// Li loads a 64-bit constant into rd (expands to lui/ori sequences as
// needed; small constants become a single addi from x0).
func (b *Builder) Li(rd Reg, v uint64) *Builder {
	if v < 1<<15 {
		return b.Addi(rd, Zero, int64(v))
	}
	// Build in 16-bit chunks, most significant first.
	b.Addi(rd, Zero, int64(v>>48&0xffff))
	for shift := 32; shift >= 0; shift -= 16 {
		b.Shli(rd, rd, 16)
		b.I(Inst{Op: OpOri, Rd: rd, Rs1: rd, Imm: int64(v >> uint(shift) & 0xffff)})
	}
	return b
}

func (b *Builder) FAdd(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpFAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) FMul(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpFMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) FDiv(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpFDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) FSub(rd, rs1, rs2 Reg) *Builder {
	return b.I(Inst{Op: OpFSub, Rd: rd, Rs1: rs1, Rs2: rs2})
}
func (b *Builder) FCvt(rd, rs1 Reg) *Builder {
	return b.I(Inst{Op: OpFCvt, Rd: rd, Rs1: rs1})
}

// Load emits rd = mem[rs1+imm].
func (b *Builder) Load(rd, rs1 Reg, imm int64) *Builder {
	return b.I(Inst{Op: OpLoad, Rd: rd, Rs1: rs1, Imm: imm})
}

// Store emits mem[rs1+imm] = rs2.
func (b *Builder) Store(rs2, rs1 Reg, imm int64) *Builder {
	return b.I(Inst{Op: OpStore, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// AmoCas emits rd = CAS(mem[rs1], cmp=rs2, swap=imm).
func (b *Builder) AmoCas(rd, rs1, rs2 Reg, swap int64) *Builder {
	return b.I(Inst{Op: OpAmoCas, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: swap})
}

func (b *Builder) branch(op Op, rs1, rs2 Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{idx: len(b.text), label: label})
	return b.I(Inst{Op: op, Rs1: rs1, Rs2: rs2})
}

func (b *Builder) Beq(rs1, rs2 Reg, label string) *Builder { return b.branch(OpBeq, rs1, rs2, label) }
func (b *Builder) Bne(rs1, rs2 Reg, label string) *Builder { return b.branch(OpBne, rs1, rs2, label) }
func (b *Builder) Blt(rs1, rs2 Reg, label string) *Builder { return b.branch(OpBlt, rs1, rs2, label) }
func (b *Builder) Bge(rs1, rs2 Reg, label string) *Builder { return b.branch(OpBge, rs1, rs2, label) }

func (b *Builder) Jmp(label string) *Builder {
	b.fixups = append(b.fixups, fixup{idx: len(b.text), label: label})
	return b.I(Inst{Op: OpJmp})
}

// Call emits a direct call that saves the return address in RA.
func (b *Builder) Call(label string) *Builder {
	b.fixups = append(b.fixups, fixup{idx: len(b.text), label: label})
	return b.I(Inst{Op: OpCall, Rd: RA})
}

// Ret returns through RA.
func (b *Builder) Ret() *Builder { return b.I(Inst{Op: OpRet, Rs1: RA}) }

// Jalr emits an indirect jump through rs1+imm, saving pc+4 in rd.
func (b *Builder) Jalr(rd, rs1 Reg, imm int64) *Builder {
	return b.I(Inst{Op: OpJalr, Rd: rd, Rs1: rs1, Imm: imm})
}

func (b *Builder) Syscall() *Builder { return b.I(Inst{Op: OpSyscall}) }
func (b *Builder) Barrier() *Builder { return b.I(Inst{Op: OpBarrier}) }
func (b *Builder) FlushSF() *Builder { return b.I(Inst{Op: OpFlushSF}) }
func (b *Builder) Halt() *Builder    { return b.I(Inst{Op: OpHalt}) }

// Segment adds a named initialised data segment at an explicit base address.
func (b *Builder) Segment(name string, base uint64, bytes []byte, shared bool) uint64 {
	b.data = append(b.data, DataSegment{Name: name, Base: base, Bytes: bytes, Shared: shared})
	return base
}

// ZeroSegment adds a named zero-fill data segment of size bytes at an
// explicit base address.
func (b *Builder) ZeroSegment(name string, base, size uint64, shared bool) uint64 {
	b.data = append(b.data, DataSegment{Name: name, Base: base, ZeroLen: size, Shared: shared})
	return base
}

// reserve advances the allocation cursor past size bytes aligned to align
// (0 means 8) and returns their base address.
func (b *Builder) reserve(size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	base := (b.nextVar + align - 1) &^ (align - 1)
	b.nextVar = base + size
	return base
}

// Alloc reserves a zero-fill segment of size bytes aligned to align and
// returns its base address. Only the length is recorded.
func (b *Builder) Alloc(name string, size, align uint64) uint64 {
	return b.ZeroSegment(name, b.reserve(size, align), size, false)
}

// AllocInit reserves an initialised data segment and returns its base.
func (b *Builder) AllocInit(name string, bytes []byte, align uint64) uint64 {
	return b.Segment(name, b.reserve(uint64(len(bytes)), align), bytes, false)
}

// LiLabel materialises a label's address into rd (two instructions; label
// resolved at Build time). Text addresses fit in 32 bits by construction.
func (b *Builder) LiLabel(rd Reg, label string) *Builder {
	b.fixups = append(b.fixups, fixup{idx: len(b.text), label: label, kind: fixHi16})
	b.I(Inst{Op: OpLui, Rd: rd})
	b.fixups = append(b.fixups, fixup{idx: len(b.text), label: label, kind: fixLo16})
	b.I(Inst{Op: OpOri, Rd: rd, Rs1: rd})
	return b
}

// Build resolves labels and returns the finished program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		addr, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("isa: undefined label %q", f.label)
		}
		switch f.kind {
		case fixFull:
			b.text[f.idx].Imm = int64(addr)
		case fixHi16:
			b.text[f.idx].Imm = int64(addr >> 16)
		case fixLo16:
			b.text[f.idx].Imm = int64(addr & 0xffff)
		}
	}
	p := &Program{Name: b.name, Text: b.text, Data: b.data, Entry: TextBase}
	p.predecode()
	return p, nil
}

// MustBuild is Build that panics on error; used by workload generators
// whose labels are constructed programmatically.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
