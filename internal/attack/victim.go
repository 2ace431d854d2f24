package attack

import (
	"math/bits"

	"repro/internal/isa"
)

// Victim gadget memory layout (addresses returned by buildScenarioVictim).
type victimLayout struct {
	mailbox uint64 // harness writes the "untrusted index" here
	ack     uint64 // victim increments per processed input
	size    uint64 // bounds-check limit (evicted to widen the window)
	array1  uint64 // the bounds-checked array
	secret  uint64 // victim-private secret, SecretDist lines past array1
	probe   uint64 // shared transmission array
	vbuf    uint64 // inclusion channel: victim's large private buffer
	abuf    uint64 // inclusion channel: attacker's large private buffer
	targets uint64 // jump gadgets: first of the 1KiB-aligned code targets
}

const (
	probeLines  = 16
	probeStride = 512       // same DRAM bank+row for all probe lines
	oobScale    = 9         // probe index shift: value * 512
	wayStride   = 4096 * 64 // L2 set-conflict stride (sets * line size)
	// benignValue is what training inputs transmit: probe index 15, away
	// from every scored candidate.
	benignValue = 15
)

// trainValue is what the in-bounds training cell (array1[1]) holds: for
// bounds-branch training it is the benign transmit index; for indirect-
// target training it is the benign jump-target block (the block past the
// scored candidates).
func (s Scenario) trainValue() int {
	if s.Gadget.indirect() {
		return s.Candidates
	}
	return s.benignIndex()
}

// maxProbeIndex is the highest probe index the victim can transmit through
// (scored candidates plus the benign training index), which is what the
// receiver must evict before firing a probe-reload channel.
func (s Scenario) maxProbeIndex() int {
	if s.Gadget == GadgetJumpLoad {
		return s.Candidates
	}
	return s.benignIndex()
}

// buildScenarioVictim assembles the scenario's victim: the classic Spectre
// input-loop shell (mailbox in, ack out, bounds-checked section) with the
// spec's gadget as the speculative body. The victim loads the mailbox,
// touches its secret line architecturally (real victims constantly touch
// their own keys), loads the bounds (slow once evicted, widening the
// speculation window), and runs the gadget under the bounds check; then it
// increments ack and repeats forever.
//
// Registers on entry to the gadget body:
//
//	x14 = untrusted index, x15 = bounds, x22 = &array1, x23 = &probe,
//	x27 = &vbuf (set-fill only)
func buildScenarioVictim(sc Scenario) (*isa.Program, *victimLayout) {
	b := isa.NewBuilder(sc.Name + "-victim")
	l := &victimLayout{}
	l.mailbox = b.Alloc("mailbox", 64, 64)
	l.ack = b.Alloc("ack", 64, 64)
	l.size = b.Alloc("size", 64, 64)
	l.array1 = b.Alloc("array1", 64*8, 64)
	if sc.SecretDist > 0 {
		// Index-sweep scenarios: pad so the secret cell sits further out.
		b.Alloc("pad", uint64(sc.SecretDist)*64, 64)
	}
	l.secret = b.Alloc("secret", 64, 64)
	l.probe = b.ZeroSegment("probe", 0x3000_0000, probeSegBytes, true)
	setFill := sc.Gadget == GadgetSetFill
	if setFill {
		// Per-process (non-shared) megabuffers for the set-fill gadget and
		// its inclusion receiver: the victim uses vbuf, the attacker uses
		// abuf of its own copy.
		l.vbuf = b.Alloc("vbuf", 2*1024*1024, 4096)
		l.abuf = b.Alloc("abuf", 4*1024*1024, 4096)
	}
	// The probe base register (and the TLB-warming touches below) are wired
	// for every data-transmitting victim; the pure-ifetch jump-table victim
	// never touches the probe segment.
	usesProbe := sc.Gadget != GadgetJumpTable

	b.Li(isa.X(20), l.mailbox)
	b.Li(isa.X(21), l.size)
	b.Li(isa.X(22), l.array1)
	if usesProbe {
		b.Li(isa.X(23), l.probe)
	}
	b.Li(isa.X(24), l.ack)
	b.Li(isa.X(25), l.secret)
	if setFill {
		b.Li(isa.X(27), l.vbuf)
	}
	b.Li(isa.X(26), 0) // ack counter

	b.Label("loop")
	b.Load(isa.X(14), isa.X(20), 0) // untrusted index
	b.Load(isa.X(19), isa.X(25), 0) // victim touches its secret (warm line)
	if usesProbe {
		// Committed touches of two non-candidate probe lines keep the probe
		// pages' translations warm in the victim's TLB (real PoCs do exactly
		// this: a cold translation would stall the transmit load past the
		// speculation window). Offsets 448 and 4544 are 448 bytes into a
		// stride for every power-of-two stride >= 512, so they never hit a
		// probed line.
		b.Load(isa.X(13), isa.X(23), 448)
		b.Load(isa.X(13), isa.X(23), 4544)
	}
	b.Load(isa.X(15), isa.X(21), 0) // bounds (slow when evicted)
	b.Bge(isa.X(14), isa.X(15), "skip")
	emitGadget(b, sc)
	b.Label("skip")
	b.Addi(isa.X(26), isa.X(26), 1)
	b.Store(isa.X(26), isa.X(24), 0)
	b.Jmp("loop")

	if sc.Gadget.indirect() {
		emitTargets(b, l, sc)
	}
	return b.MustBuild(), l
}

// loadSecretInto emits the bounds-checked secret load: rd = array1[x14],
// which reads the victim's secret when x14 is out of bounds.
func loadSecretInto(b *isa.Builder, rd isa.Reg) {
	b.Shli(rd, isa.X(14), 3)
	b.Add(rd, rd, isa.X(22))
	b.Load(rd, rd, 0)
}

// emitGadget emits the scenario's speculative body.
func emitGadget(b *isa.Builder, sc Scenario) {
	switch sc.Gadget {
	case GadgetIndexLoad:
		loadSecretInto(b, isa.X(16))
		b.Shli(isa.X(17), isa.X(16), int64(bits.TrailingZeros64(sc.Stride)))
		b.Add(isa.X(17), isa.X(17), isa.X(23))
		b.Load(isa.X(18), isa.X(17), 0) // transmit
	case GadgetSetFill:
		loadSecretInto(b, isa.X(16))
		b.Shli(isa.X(17), isa.X(16), 6) // value*64 selects the L2 set
		b.Add(isa.X(17), isa.X(17), isa.X(27))
		for k := 0; k < 4; k++ {
			b.Load(isa.X(11), isa.X(17), int64(k*wayStride))
		}
	case GadgetStream:
		loadSecretInto(b, isa.X(16))
		b.Li(isa.X(13), sc.Stride)
		b.Mul(isa.X(17), isa.X(16), isa.X(13))
		b.Add(isa.X(17), isa.X(17), isa.X(23))
		// A speculative streaming loop from one load PC trains the stride
		// prefetcher; the bounds check resolves long after.
		b.Li(isa.X(11), 0)
		b.Label("pfloop")
		b.Shli(isa.X(12), isa.X(11), 6)
		b.Add(isa.X(12), isa.X(12), isa.X(17))
		b.Load(isa.X(18), isa.X(12), 0)
		b.Addi(isa.X(11), isa.X(11), 1)
		b.Li(isa.X(12), 4)
		b.Blt(isa.X(11), isa.X(12), "pfloop")
	case GadgetJumpTable, GadgetJumpLoad:
		b.Shli(isa.X(16), isa.X(14), 3)
		b.Add(isa.X(16), isa.X(16), isa.X(22))
		b.Load(isa.X(16), isa.X(16), 0) // secret under speculation
		b.Shli(isa.X(17), isa.X(16), 10)
		b.LiLabel(isa.X(18), "targets")
		b.Add(isa.X(17), isa.X(17), isa.X(18))
		b.Jalr(isa.X(11), isa.X(17), 0) // speculative secret-dependent jump
	}
}

// emitTargets lays out the indirect-jump target blocks: Candidates scored
// blocks plus the benign block training inputs jump through, 1KiB apart.
func emitTargets(b *isa.Builder, l *victimLayout, sc Scenario) {
	b.AlignText(codeBlockStride)
	b.Label("targets")
	for s := 0; s <= sc.Candidates; s++ {
		b.AlignText(codeBlockStride)
		if sc.Gadget == GadgetJumpLoad {
			// Transmit through the data cache: each target loads its own
			// probe line.
			b.Load(isa.X(13), isa.X(23), int64(uint64(s)*sc.Stride))
		} else {
			for k := 0; k < 4; k++ {
				b.Addi(isa.X(12), isa.X(12), int64(s)) // filler work
			}
		}
		b.Jalr(isa.Zero, isa.X(11), 0) // return through the gadget's link
	}
	addr, ok := b.LabelAddr("targets")
	if !ok {
		panic("attack: targets label missing")
	}
	l.targets = addr
}
