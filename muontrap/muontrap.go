package muontrap

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/figures"
	"repro/internal/sim"
)

// Result reports one run.
type Result struct {
	// Cycles is the simulated execution time.
	Cycles uint64 `json:"cycles"`
	// Instructions is the committed instruction count across all cores.
	Instructions uint64 `json:"instructions"`
	// Counters carries every microarchitectural statistic the simulator
	// collected, keyed as "core0.l0d.hits", "l2.misses", ….
	Counters map[string]uint64 `json:"counters"`
}

// IPC reports committed instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// TableOne renders the paper's Table 1 from the live configuration.
func TableOne() string { return figures.TableOne() }

// AttackResult reports one attack trial.
type AttackResult = attack.Result

// Attack runs one attack scenario from the corpus under the named scheme,
// leaking the given secret value (normalised into the scenario's candidate
// range). The returned result records the probe timings and whether the
// secret was recovered. The scheme's pipeline defense and memory-system
// mode both apply, so CPU-level schemes (SafeBet, InvisiSpec, STT) can be
// attacked too. An empty scheme means the insecure baseline; unknown
// identifiers return errors wrapping ErrUnknownAttack / ErrUnknownScheme.
func Attack(name AttackName, scheme Scheme, secret int) (AttackResult, error) {
	if scheme == "" {
		scheme = SchemeInsecure
	}
	sch, err := defense.ByName(string(scheme))
	if err != nil {
		return AttackResult{}, fmt.Errorf("%w %q (see Schemes())", ErrUnknownScheme, scheme)
	}
	sc, ok := attack.ScenarioByName(string(name))
	if !ok {
		return AttackResult{}, fmt.Errorf("%w %q (see AttackNames())", ErrUnknownAttack, name)
	}
	return attack.RunSecret(sc, sch, secret), nil
}

// System re-exports the underlying machine for advanced scenarios (custom
// programs, per-component statistics, multi-process scheduling). See
// internal packages' documentation via this type's methods.
type System = sim.System

// NewSystem builds a machine with the named scheme on n cores.
func NewSystem(scheme Scheme, cores int) (*System, error) {
	if scheme == "" {
		scheme = SchemeInsecure
	}
	sch, err := defense.ByName(string(scheme))
	if err != nil {
		return nil, fmt.Errorf("%w %q (see Schemes())", ErrUnknownScheme, scheme)
	}
	cfg := sim.DefaultConfig(cores)
	cfg.CPU.Defense = sch.CPU
	cfg.Mem.Mode = sch.Mode
	return sim.New(cfg), nil
}
