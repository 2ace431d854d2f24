// Package attack implements the transient-leak scenario corpus: the six
// speculative side-channel attacks the paper uses to motivate and validate
// MuonTrap (Attacks 1-6, §2-§4), plus generated variants (Spectre v1 index
// sweeps, v2 indirect-jump mistraining, MeltdownPrime-style coherence
// prime+probe). Every attack is a declarative Scenario — a speculative
// gadget on a transmission channel. The gadget implies the mistraining;
// the channel's row in one channel table holds the gadgets it accepts, the
// receiver's decision rule, the victim's placement, the candidate and
// stride bounds and the receiver. One interpreter (RunSecret) builds the
// victim program, places it from the row, drives the mistraining, and runs
// the row's receiver against it under a defense scheme. The victim really executes speculatively on the
// out-of-order core; run under the unprotected configuration the scenarios
// recover the secret, and under the configuration whose mechanism the
// paper credits as the defense they must fail.
//
// Key types:
//
//   - Scenario: the declarative spec, validated against its channel's row,
//     with a canonical wire form (Encode) that doubles as the cache
//     identity of a security-matrix cell. Scenarios() enumerates the
//     corpus.
//   - Result: one trial's outcome — the probe timings, the recovered
//     value and whether it matches the planted secret.
//   - ScenarioByName and RunSecret: one registry scenario run under one
//     scheme with a chosen secret — how the paper's six hand-built attacks
//     are run, by name, under a memory-system mode alone.
//
// Invariants:
//
//   - Every channel-dependent decision is read from the channel's row:
//     nothing outside the table compares a scenario's channel.
//   - The receivers (prime, probe, timing) are driven by the harness
//     through committed, non-speculative port accesses — exactly the
//     attacker capability in the paper's threat model (§3): an attacker
//     observes only its own committed accesses' timing, after a
//     protection-domain switch.
//   - Evictions of victim lines are performed by Hierarchy.EvictLine, the
//     stand-in for set-contention eviction on the shared L2, which is
//     always available to a real attacker.
package attack
