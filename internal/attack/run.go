package attack

import (
	"repro/internal/defense"
	"repro/internal/event"
	"repro/internal/sim"
)

// The scenario interpreter: RunSecret builds the victim a Scenario
// describes, applies the spec's mistraining strategy, and runs the
// channel's receiver procedure against it under a defense scheme.

// train drives the victim through n in-bounds iterations, training the
// bounds-check branch — or, for indirect gadgets, the BTB through the
// benign jump target — and warming the victim's TLB and caches so later
// phases see a steady-state victim (priming before the victim's warm-up
// would let its page-table-walk traffic pollute the primed sets).
func (r *rig) train(p *sim.Process, l *victimLayout, n int) {
	ack := r.readWord(p, l.ack)
	for i := 0; i < n; i++ {
		r.writeWord(p, l.mailbox, 1) // in bounds (size = 8)
		ack = r.waitAck(p, l.ack, ack)
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
func (r *rig) fire(core int, p *sim.Process, l *victimLayout, oobIndex uint64, evictLines int, evictStride uint64) {
	ack := r.readWord(p, l.ack)
	r.evict(p, l.size)
	// The victim's filter cache would otherwise retain the bounds line
	// (it is private and non-inclusive, so the attacker cannot evict it).
	// In reality OS timer interrupts and the victim's own syscalls flush
	// filter state constantly — MuonTrap flushes on every such domain
	// switch by design — so the attacker simply fires after one. Model
	// that tick here (a no-op for configurations without filter caches).
	r.sys.Hier.Port(core).FlushDomain()
	for s := 0; s < evictLines; s++ {
		r.evict(p, l.probe+uint64(s)*evictStride)
	}
	r.writeWord(p, l.mailbox, oobIndex)
	for i := 0; i < 3; i++ {
		ack = r.waitAck(p, l.ack, ack)
	}
	r.writeWord(p, l.mailbox, 1) // quiesce on a benign input
	r.waitAck(p, l.ack, ack)
	r.step(500)
}

// trainAndFire is the common single-shot sequence for a victim on core.
func (r *rig) trainAndFire(core int, p *sim.Process, l *victimLayout, oobIndex uint64, evictLines int, evictStride uint64) {
	r.train(p, l, 24)
	r.fire(core, p, l, oobIndex, evictLines, evictStride)
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

// RunSecret executes a scenario under a defense scheme with a chosen
// secret (normalised into [0, Candidates)). The verdict is deterministic:
// the simulator has no noise sources, so a defended configuration yields
// the same Result on every run.
func RunSecret(sc Scenario, sch defense.Scheme, secret int) Result {
	n := sc.Candidates
	secret = ((secret % n) + n) % n

	// Same-core channels (flush+reload across a context switch) use one
	// core; cross-core channels give the victim its own core and let the
	// attacker observe from core 0.
	cores, victimCore := 2, 1
	if sc.Channel == ChannelProbeReload || sc.Channel == ChannelIfetch {
		cores, victimCore = 1, 0
	}
	r := newRig(cores, sch)
	defer r.sys.Release()
	prog, l := buildScenarioVictim(sc)
	victim := r.sys.NewProcess(prog)
	attacker := r.sys.NewProcess(prog) // same binary: text is shared

	r.writeWord(victim, l.size, 8)
	r.writeWord(victim, l.secret, uint64(secret))
	// Training inputs (index 1) transmit through the benign candidate,
	// away from the scored ones, so the architecturally executed gadget
	// does not pollute the channel.
	r.writeWord(victim, l.array1+8, uint64(sc.trainValue()))
	oob := (l.secret - l.array1) / 8

	res := Result{Name: sc.Name}
	switch sc.Channel {
	case ChannelProbeReload:
		res.score(r.recvProbeReload(sc, victim, attacker, l, oob), secret)
	case ChannelInclusion:
		res.scoreDelta(r.recvInclusion(sc, victim, attacker, l, oob), secret, sc.MinDelta)
	case ChannelCoherenceStore:
		res.scoreDelta(r.recvCoherenceStore(sc, victim, attacker, l, oob), secret, sc.MinDelta)
	case ChannelCoherenceLoad:
		res.scoreDelta(r.recvCoherenceLoad(sc, victim, attacker, l, oob), secret, sc.MinDelta)
	case ChannelPrefetchNext:
		res.score(r.recvPrefetchNext(sc, victim, attacker, l, oob), secret)
	case ChannelIfetch:
		res.score(r.recvIfetch(sc, victim, attacker, l, oob, victimCore), secret)
	}
	return res
}

// recvProbeReload is the flush+reload receiver: evict every probe line the
// victim could transmit through, fire, context-switch in, and time each
// scored candidate in permuted order (fastest = transmitted).
func (r *rig) recvProbeReload(sc Scenario, victim, attacker *sim.Process, l *victimLayout, oob uint64) []event.Cycle {
	// Park the attacker's own copy of the gadget: a huge mailbox index
	// and zero bounds keep its (speculative) gadget away from the probe.
	r.writeWord(attacker, l.mailbox, 1<<20)

	r.sys.RunOn(0, victim, 0)
	r.step(200)
	r.trainAndFire(0, victim, l, oob, sc.maxProbeIndex()+1, sc.Stride)
	if sc.Gadget == GadgetJumpLoad {
		// The first window spends itself fetching the secret target's cold
		// code line; fire again with the code warm so the target's probe
		// load issues inside the window.
		r.fire(0, victim, l, oob, sc.maxProbeIndex()+1, sc.Stride)
	}

	r.sys.RunOn(0, attacker, 0) // protection-domain switch
	r.step(50)
	lats := make([]event.Cycle, sc.Candidates)
	step, off := permStep(sc.Candidates, 7, 5, 3, 1), 5%sc.Candidates
	for i := 0; i < sc.Candidates; i++ {
		s := (i*step + off) % sc.Candidates // permuted probe order
		lats[s] = r.timedLoad(0, attacker, 0x400040+uint64(s)*4096,
			l.probe+uint64(s)*sc.Stride)
	}
	return lats
}

// recvInclusion is the cross-core prime+probe receiver over L2 sets: prime
// each candidate set with 8 same-set lines, fire repeatedly, and re-time
// the primed lines (the secret set's lines were evicted by the inclusive
// L2's back-invalidations, so its worst reload is slow).
func (r *rig) recvInclusion(sc Scenario, victim, attacker *sim.Process, l *victimLayout, oob uint64) []event.Cycle {
	r.sys.RunOn(1, victim, 0)
	r.step(200)
	// Let the victim reach steady state first: its cold-start page-table
	// walks and fills would otherwise pollute the primed sets.
	r.train(victim, l, 24)

	// Prime the candidate L2 sets with 8 same-set lines each, selected
	// from the attacker's physically contiguous buffer by actual set
	// index.
	primeVAs := make([][]uint64, sc.Candidates)
	for s := 0; s < sc.Candidates; s++ {
		target := r.sys.Hier.L2SetIndex(translate(victim, l.vbuf+uint64(s)*sc.Stride))
		for o := uint64(0); o < 4*1024*1024 && len(primeVAs[s]) < 8; o += 64 {
			va := l.abuf + o
			if r.sys.Hier.L2SetIndex(translate(attacker, va)) == target {
				primeVAs[s] = append(primeVAs[s], va)
			}
		}
	}
	for s := 0; s < sc.Candidates; s++ {
		for i, va := range primeVAs[s] {
			r.timedLoad(0, attacker, 0x400040+uint64(s*16+i)*4096, va)
		}
	}

	// Fire the speculation a few times; each window fills up to 4 lines
	// of the secret set.
	for t := 0; t < 3; t++ {
		r.fire(1, victim, l, oob, 0, 0)
		r.train(victim, l, 4) // re-establish the branch bias
	}

	// Re-time the primed lines: the secret set shows evictions (slow
	// reloads).
	worst := make([]event.Cycle, sc.Candidates)
	for s := 0; s < sc.Candidates; s++ {
		for i, va := range primeVAs[s] {
			if lat := r.timedLoad(0, attacker, 0x600040+uint64(s*16+i)*4096, va); lat > worst[s] {
				worst[s] = lat
			}
		}
	}
	return worst
}

// recvCoherenceStore is the MeltdownPrime-style store receiver: take every
// candidate line exclusive, fire, and re-time the stores (the line the
// victim's speculative load downgraded pays an upgrade penalty).
func (r *rig) recvCoherenceStore(sc Scenario, victim, attacker *sim.Process, l *victimLayout, oob uint64) []event.Cycle {
	r.sys.RunOn(1, victim, 0)
	r.step(200)
	r.train(victim, l, 24)

	// Attacker takes the candidate lines exclusive (a store drain leaves
	// them Modified in its L1).
	for s := 0; s < sc.Candidates; s++ {
		r.timedStore(0, attacker, l.probe+uint64(s)*sc.Stride)
	}

	r.fire(1, victim, l, oob, 0, 0)

	// Attacker times stores to the candidates: the line the victim
	// speculatively touched lost its exclusivity.
	lats := make([]event.Cycle, sc.Candidates)
	for s := 0; s < sc.Candidates; s++ {
		lats[s] = r.timedStore(0, attacker, l.probe+uint64(s)*sc.Stride)
	}
	return lats
}

// recvCoherenceLoad is the filter-exclusivity receiver: fire, then load
// each candidate cold (the line held exclusively in the victim's filter
// cache pays the downgrade penalty).
func (r *rig) recvCoherenceLoad(sc Scenario, victim, attacker *sim.Process, l *victimLayout, oob uint64) []event.Cycle {
	r.sys.RunOn(1, victim, 0)
	r.step(200)
	r.trainAndFire(1, victim, l, oob, 0, 0)

	// Attacker loads the candidate lines (cold in its own caches; DRAM
	// row state equalised by construction): the one held exclusively in
	// the victim's filter pays the downgrade penalty.
	lats := make([]event.Cycle, sc.Candidates)
	for s := 0; s < sc.Candidates; s++ {
		lats[s] = r.timedLoad(0, attacker, 0x400040+uint64(s)*4096, l.probe+uint64(s)*sc.Stride)
	}
	return lats
}

// recvPrefetchNext is the prefetcher receiver: after firing, probe the
// line *beyond* the speculatively streamed window in each candidate
// region — only the prefetcher could have fetched it.
func (r *rig) recvPrefetchNext(sc Scenario, victim, attacker *sim.Process, l *victimLayout, oob uint64) []event.Cycle {
	r.sys.RunOn(1, victim, 0)
	r.step(200)
	r.trainAndFire(1, victim, l, oob, 0, 0)
	r.step(500) // let prefetches land

	lats := make([]event.Cycle, sc.Candidates)
	step, off := permStep(sc.Candidates, 3, 7, 1), 1%sc.Candidates
	for i := 0; i < sc.Candidates; i++ {
		s := (i*step + off) % sc.Candidates // permuted probe order
		va := l.probe + uint64(s)*sc.Stride + 4*64
		lats[s] = r.timedLoad(0, attacker, 0x400040+uint64(s)*4096, va)
	}
	return lats
}

// recvIfetch is the instruction-cache receiver: after firing, context-
// switch in and time an instruction fetch of each candidate target block
// (the secret block's code line was speculatively fetched).
func (r *rig) recvIfetch(sc Scenario, victim, attacker *sim.Process, l *victimLayout, oob uint64, core int) []event.Cycle {
	r.sys.RunOn(core, victim, 0)
	r.step(200)
	r.trainAndFire(core, victim, l, oob, 0, 0)

	r.sys.RunOn(core, attacker, 0) // domain switch
	r.step(50)
	lats := make([]event.Cycle, sc.Candidates)
	for s := 0; s < sc.Candidates; s++ {
		lats[s] = r.timedIfetch(core, attacker, l.targets+uint64(s)*sc.Stride)
	}
	return lats
}
