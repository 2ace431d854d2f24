package attack

import (
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/sim"
)

// The scenario interpreter: RunSecret builds the victim a Scenario
// describes, places it from the channel's row, and runs the row's receiver
// against it under a defense scheme.

// trial is one scenario run in progress: the machine, the victim and the
// attacker (the same binary, so text is shared), the victim's layout and
// core, and the out-of-bounds index whose speculative use transmits the
// secret.
type trial struct {
	sys              *sim.System
	sc               Scenario
	victim, attacker *sim.Process
	l                *victimLayout
	core             int
	oob              uint64
}

// attackerCore is the core the receiver's timed accesses issue from.
const attackerCore = 0

// newTrial builds the machine and the victim with secret planted, and
// places the victim from its channel's row: on the receiver's core for a
// same-core channel, else on a core of its own.
func newTrial(sc Scenario, sch defense.Scheme, secret int) *trial {
	cores, t := 2, &trial{sc: sc, core: 1}
	if channels[sc.Channel].sameCore {
		cores, t.core = 1, attackerCore
	}
	t.sys = newSystem(cores, sch)
	prog, l := buildScenarioVictim(sc)
	t.l = l
	t.victim = t.sys.NewProcess(prog)
	t.attacker = t.sys.NewProcess(prog)

	t.writeWord(t.victim, l.size, 8)
	t.writeWord(t.victim, l.secret, uint64(secret))
	// Training inputs (index 1) transmit through the benign candidate,
	// away from the scored ones, so the architecturally executed gadget
	// does not pollute the channel.
	t.writeWord(t.victim, l.array1+8, uint64(sc.trainValue()))
	t.oob = (l.secret - l.array1) / 8

	t.sys.RunOn(t.core, t.victim, 0)
	t.step(200)
	return t
}

// train drives the victim through n in-bounds iterations, training the
// bounds-check branch — or, for indirect gadgets, the BTB through the
// benign jump target — and warming the victim's TLB and caches so later
// phases see a steady-state victim (priming before the victim's warm-up
// would let its page-table-walk traffic pollute the primed sets).
func (t *trial) train(n int) {
	ack := t.readWord(t.victim, t.l.ack)
	for i := 0; i < n; i++ {
		t.writeWord(t.victim, t.l.mailbox, 1) // in bounds (size = 8)
		ack = t.waitAck(ack)
	}
}

// fire evicts the bounds line (and optionally evictLines probe lines at
// evictStride), then sends one out-of-bounds input whose speculative path
// transmits the secret while the bounds check resolves. The victim's
// pipeline holds several loop iterations, so the first acknowledgement
// after the write may belong to an older in-flight iteration: fire waits
// for further acks to guarantee the out-of-bounds iteration really ran,
// then returns the victim to a benign input and lets it settle, so the
// receiver's later timing is not polluted by concurrent victim memory
// traffic (a contention channel the paper scopes out, §4.10).
func (t *trial) fire(evictLines int, evictStride uint64) {
	ack := t.readWord(t.victim, t.l.ack)
	t.evict(t.l.size)
	// The victim's filter cache would otherwise retain the bounds line
	// (it is private and non-inclusive, so the attacker cannot evict it).
	// In reality OS timer interrupts and the victim's own syscalls flush
	// filter state constantly — MuonTrap flushes on every such domain
	// switch by design — so the attacker simply fires after one. Model
	// that tick here (a no-op for configurations without filter caches).
	t.sys.Hier.Port(t.core).FlushDomain()
	for s := 0; s < evictLines; s++ {
		t.evict(t.l.probe + uint64(s)*evictStride)
	}
	t.writeWord(t.victim, t.l.mailbox, t.oob)
	for i := 0; i < 3; i++ {
		ack = t.waitAck(ack)
	}
	t.writeWord(t.victim, t.l.mailbox, 1) // quiesce on a benign input
	t.waitAck(ack)
	t.step(500)
}

// trainAndFire is the common single-shot sequence.
func (t *trial) trainAndFire(evictLines int, evictStride uint64) {
	t.train(24)
	t.fire(evictLines, evictStride)
}

// permStep picks the first probe-permutation step coprime with n from a
// fixed preference list, so receivers never walk the candidates in stride
// order (which would itself train the prefetcher). The preferences
// reproduce the hand-built attacks' orders: 7 for the 15-candidate Spectre
// probe, 3 (second choice) for the 4-region prefetch probe.
func permStep(n int, prefs ...int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	for _, s := range prefs {
		if gcd(s, n) == 1 {
			return s
		}
	}
	return 1
}

// timeCandidates visits candidate (i*step + off) mod Candidates for each i
// and returns the latencies time measured, indexed by candidate.
func (t *trial) timeCandidates(step, off int, time func(s int) event.Cycle) []event.Cycle {
	n := t.sc.Candidates
	lats := make([]event.Cycle, n)
	for i := 0; i < n; i++ {
		s := (i*step + off) % n
		lats[s] = time(s)
	}
	return lats
}

// RunSecret executes a scenario under a defense scheme with a chosen
// secret (normalised into [0, Candidates)). The verdict is deterministic:
// the simulator has no noise sources, so a defended configuration yields
// the same Result on every run.
func RunSecret(sc Scenario, sch defense.Scheme, secret int) Result {
	n := sc.Candidates
	secret = ((secret % n) + n) % n
	t := newTrial(sc, sch, secret)
	defer t.sys.Release()

	ch := &channels[sc.Channel]
	probe := ch.recv(t)
	if ch.sameCore {
		t.sys.RunOn(attackerCore, t.attacker, 0) // protection-domain switch
		t.step(50)
	}
	res := Result{Name: sc.Name}
	if ch.slowestDelta {
		res.scoreDelta(probe(), secret, sc.MinDelta)
	} else {
		res.score(probe(), secret)
	}
	return res
}

// recvProbeReload is the flush+reload receiver: evict every probe line the
// victim could transmit through, fire, and (after the domain switch) time
// each scored candidate in permuted order (fastest = transmitted).
func recvProbeReload(t *trial) func() []event.Cycle {
	// Park the attacker's own copy of the gadget: a huge mailbox index
	// and zero bounds keep its (speculative) gadget away from the probe.
	t.writeWord(t.attacker, t.l.mailbox, 1<<20)
	evict := t.sc.maxProbeIndex() + 1
	t.trainAndFire(evict, t.sc.Stride)
	if t.sc.Gadget == GadgetJumpLoad {
		// The first window spends itself fetching the secret target's cold
		// code line; fire again with the code warm so the target's probe
		// load issues inside the window.
		t.fire(evict, t.sc.Stride)
	}
	return func() []event.Cycle {
		return t.timeCandidates(permStep(t.sc.Candidates, 7, 5, 3, 1), 5%t.sc.Candidates, func(s int) event.Cycle {
			return t.timedLoad(t.attacker, 0x400040+uint64(s)*4096, t.l.probe+uint64(s)*t.sc.Stride)
		})
	}
}

// recvInclusion is the cross-core prime+probe receiver over L2 sets: prime
// each candidate set with 8 same-set lines, fire repeatedly, and re-time
// the primed lines (the secret set's lines were evicted by the inclusive
// L2's back-invalidations, so its worst reload is slow).
func recvInclusion(t *trial) func() []event.Cycle {
	// Let the victim reach steady state first: its cold-start page-table
	// walks and fills would otherwise pollute the primed sets.
	t.train(24)

	// Prime the candidate L2 sets with 8 same-set lines each, selected
	// from the attacker's physically contiguous buffer by actual set
	// index.
	primeVAs := make([][]uint64, t.sc.Candidates)
	for s := range primeVAs {
		target := t.sys.Hier.L2SetIndex(translate(t.victim, t.l.vbuf+uint64(s)*t.sc.Stride))
		for o := uint64(0); o < 4*1024*1024 && len(primeVAs[s]) < 8; o += 64 {
			va := t.l.abuf + o
			if t.sys.Hier.L2SetIndex(translate(t.attacker, va)) == target {
				primeVAs[s] = append(primeVAs[s], va)
			}
		}
	}
	for s, vas := range primeVAs {
		for i, va := range vas {
			t.timedLoad(t.attacker, 0x400040+uint64(s*16+i)*4096, va)
		}
	}

	// Fire the speculation a few times; each window fills up to 4 lines
	// of the secret set.
	for range 3 {
		t.fire(0, 0)
		t.train(4) // re-establish the branch bias
	}

	// Re-time the primed lines: the secret set shows evictions (slow
	// reloads).
	return func() []event.Cycle {
		return t.timeCandidates(1, 0, func(s int) event.Cycle {
			worst := event.Cycle(0)
			for i, va := range primeVAs[s] {
				worst = max(worst, t.timedLoad(t.attacker, 0x600040+uint64(s*16+i)*4096, va))
			}
			return worst
		})
	}
}

// recvCoherenceStore is the MeltdownPrime-style store receiver: take every
// candidate line exclusive, fire, and re-time the stores (the line the
// victim's speculative load downgraded pays an upgrade penalty).
func recvCoherenceStore(t *trial) func() []event.Cycle {
	t.train(24)
	// Attacker takes the candidate lines exclusive (a store drain leaves
	// them Modified in its L1).
	store := func(s int) event.Cycle { return t.timedStore(t.attacker, t.l.probe+uint64(s)*t.sc.Stride) }
	t.timeCandidates(1, 0, store)
	t.fire(0, 0)
	// The line the victim speculatively touched lost its exclusivity.
	return func() []event.Cycle { return t.timeCandidates(1, 0, store) }
}

// recvCoherenceLoad is the filter-exclusivity receiver: fire, then load
// each candidate cold (the line held exclusively in the victim's filter
// cache pays the downgrade penalty; DRAM row state is equalised by
// construction).
func recvCoherenceLoad(t *trial) func() []event.Cycle {
	t.trainAndFire(0, 0)
	return func() []event.Cycle {
		return t.timeCandidates(1, 0, func(s int) event.Cycle {
			return t.timedLoad(t.attacker, 0x400040+uint64(s)*4096, t.l.probe+uint64(s)*t.sc.Stride)
		})
	}
}

// recvPrefetchNext is the prefetcher receiver: after firing, probe the
// line *beyond* the speculatively streamed window in each candidate
// region — only the prefetcher could have fetched it.
func recvPrefetchNext(t *trial) func() []event.Cycle {
	t.trainAndFire(0, 0)
	t.step(500) // let prefetches land
	return func() []event.Cycle {
		return t.timeCandidates(permStep(t.sc.Candidates, 3, 7, 1), 1%t.sc.Candidates, func(s int) event.Cycle {
			return t.timedLoad(t.attacker, 0x400040+uint64(s)*4096, t.l.probe+uint64(s)*t.sc.Stride+4*64)
		})
	}
}

// recvIfetch is the instruction-cache receiver: after firing and the
// domain switch, time an instruction fetch of each candidate target block
// (the secret block's code line was speculatively fetched).
func recvIfetch(t *trial) func() []event.Cycle {
	t.trainAndFire(0, 0)
	return func() []event.Cycle {
		return t.timeCandidates(1, 0, func(s int) event.Cycle {
			return t.timedIfetch(t.attacker, t.l.targets+uint64(s)*t.sc.Stride)
		})
	}
}
