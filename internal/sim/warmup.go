package sim

import (
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// Warmup architecturally fast-forwards the machine by up to maxInsts
// instructions, round-robin across the active cores, without advancing the
// simulated clock: each instruction executes functionally (registers and
// physical memory update exactly as the pipeline would commit them) while
// its footprint warms the non-speculative microarchitectural state — main
// TLBs, L1 caches, the inclusive L2, and the branch predictor.
//
// Because architectural execution involves no speculation, the warmed
// state is identical under every protection scheme: MuonTrap, InvisiSpec
// and STT differ only in what *speculative* accesses may do, and filter
// caches (which hold only speculative state) stay empty. A checkpoint
// taken after Warmup therefore seeds per-scheme runs of a figure row
// interchangeably — that is the whole point of the snapshot fast-forward.
//
// Warmup returns the number of instructions executed; it stops early when
// every active core has halted. A core that faults architecturally during
// warm-up halts abnormally, exactly as the detailed pipeline would at
// commit.
func (s *System) Warmup(maxInsts int) int {
	executed := 0
	for executed < maxInsts {
		progress := false
		for ci := range s.Cores {
			if executed >= maxInsts {
				break
			}
			if s.running[ci] == nil || s.Cores[ci].Halted() {
				continue
			}
			s.warmStep(ci)
			executed++
			progress = true
		}
		if !progress {
			break
		}
	}
	s.WarmedInsts += uint64(executed)
	return executed
}

// warmStep architecturally executes one instruction on core ci.
func (s *System) warmStep(ci int) {
	c := s.Cores[ci]
	p := s.running[ci]
	port := s.Hier.Port(ci)
	pc := c.PC()

	// Instruction-side warm: translation (plus page-walk lines on a TLB
	// miss) and the instruction line itself.
	ivpn := mem.PageNum(mem.VAddr(pc))
	ipfn, ok := p.PT.Translate(ivpn)
	if !ok {
		c.WarmHalt(true) // fetch fault on the committed path
		return
	}
	if port.WarmTranslate(ivpn, ipfn, true) {
		s.warmWalk(ci, p.PT, ivpn)
	}
	port.WarmInst(mem.Addr(ipfn<<mem.PageShift | pc%mem.PageBytes))

	si, ok := p.Prog.StaticAt(pc)
	if !ok {
		c.WarmHalt(true) // ran off the text segment
		return
	}

	var v1, v2 uint64
	if si.Use1 && si.Src1 != isa.Zero {
		v1 = c.Reg(si.Src1)
	}
	if si.Use2 && si.Src2 != isa.Zero {
		v2 = c.Reg(si.Src2)
	}
	r := isa.Exec(si.Inst, pc, v1, v2)
	next := pc + isa.InstBytes

	switch si.Class {
	case isa.ClassNop, isa.ClassIntALU, isa.ClassIntMulDiv, isa.ClassFPALU:
		if si.Writes {
			c.SetReg(si.Dest, r.Value)
		}
	case isa.ClassLoad:
		pa, ok := s.warmDataAddr(ci, p.PT, r.EffAddr)
		if !ok {
			c.WarmHalt(true)
			return
		}
		port.WarmData(pa, false)
		if si.Writes {
			c.SetReg(si.Dest, s.Phys.Read64(pa))
		}
	case isa.ClassStore:
		pa, ok := s.warmDataAddr(ci, p.PT, r.EffAddr)
		if !ok {
			c.WarmHalt(true)
			return
		}
		port.WarmData(pa, true)
		s.Phys.Write64(pa, r.Value)
	case isa.ClassAmo:
		pa, ok := s.warmDataAddr(ci, p.PT, r.EffAddr)
		if !ok {
			c.WarmHalt(true)
			return
		}
		port.WarmData(pa, true)
		old := s.Phys.Read64(pa)
		if old == v2 {
			s.Phys.Write64(pa, uint64(si.Inst.Imm))
		}
		if si.Writes {
			c.SetReg(si.Dest, old)
		}
	case isa.ClassBranch:
		c.Predictor().WarmBranch(pc, r.Taken, r.Target)
		next = r.Target // Exec supplies the fall-through target when not taken
	case isa.ClassJump:
		if si.Inst.Op == isa.OpCall {
			if si.Writes {
				c.SetReg(si.Dest, r.Value)
			}
			c.Predictor().WarmCall(pc, pc+isa.InstBytes, r.Target)
		}
		next = r.Target
	case isa.ClassJumpInd:
		if si.Inst.Op == isa.OpRet {
			c.Predictor().WarmRet(pc, r.Target)
		} else {
			c.Predictor().WarmJump(pc, r.Target)
			if si.Writes {
				c.SetReg(si.Dest, r.Value)
			}
		}
		next = r.Target
	case isa.ClassSyscall:
		// Kernel entry is a protection-domain switch (§4.3), but during
		// warm-up the switch is architecturally a no-op: filter state is
		// empty, and there is no speculation to contain. Crucially it must
		// ALSO be a no-op on statistics and the BTB — domainSwitch is gated
		// on the machine's protection mode, and anything mode-dependent
		// here would make warm-up state scheme-dependent, breaking the
		// forked == cold every-counter guarantee the snapshot tests pin.
	case isa.ClassBarrier:
		// Speculation barrier: no architectural effect.
	case isa.ClassFlush:
		port.FlushDomain()
	case isa.ClassHalt:
		c.WarmHalt(false)
		return
	}
	c.SetPC(next)
}

// warmDataAddr translates a data virtual address through the page table,
// warming the D-TLB and — on a miss — the page-walk lines. It reports
// (paddr, false) on a fault.
func (s *System) warmDataAddr(ci int, pt *tlb.PageTable, ea uint64) (mem.Addr, bool) {
	vpn := mem.PageNum(mem.VAddr(ea))
	pfn, ok := pt.Translate(vpn)
	if !ok {
		return 0, false
	}
	if s.Hier.Port(ci).WarmTranslate(vpn, pfn, false) {
		s.warmWalk(ci, pt, vpn)
	}
	return mem.Addr(pfn<<mem.PageShift | ea%mem.PageBytes), true
}

// warmWalk deposits the page-table walker's line reads for vpn in the
// data-cache path, as a detailed walk would.
func (s *System) warmWalk(ci int, pt *tlb.PageTable, vpn uint64) {
	port := s.Hier.Port(ci)
	for _, wa := range pt.WalkAddrs(vpn) {
		port.WarmData(wa, false)
	}
}
