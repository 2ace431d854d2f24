package muontrap

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/attack"
	"repro/internal/defense"
	"repro/internal/workload"
)

// Sentinel errors for identifier validation, usable with errors.Is. Every
// Parse* function — and every Runner method handed an invalid identifier —
// returns an error wrapping one of these.
var (
	ErrUnknownWorkload = errors.New("muontrap: unknown workload")
	ErrUnknownScheme   = errors.New("muontrap: unknown scheme")
	ErrUnknownFigure   = errors.New("muontrap: unknown figure")
	ErrUnknownAttack   = errors.New("muontrap: unknown attack")
)

// Workload names one benchmark kernel (a SPEC CPU2006 or Parsec entry).
// Construct validated values with ParseWorkload, or enumerate Workloads().
type Workload string

// String returns the workload's name.
func (w Workload) String() string { return string(w) }

// Suite reports which benchmark suite the workload belongs to ("spec2006"
// or "parsec"), or "" for an unknown workload.
func (w Workload) Suite() string {
	if spec, ok := workload.ByName(string(w)); ok {
		return spec.Suite
	}
	return ""
}

// ParseWorkload validates a benchmark name. Unknown names return an error
// wrapping ErrUnknownWorkload.
func ParseWorkload(s string) (Workload, error) {
	if _, err := lookupWorkload(Workload(s)); err != nil {
		return "", err
	}
	return Workload(s), nil
}

// lookupWorkload is the one registry lookup for a workload name.
func lookupWorkload(w Workload) (workload.Spec, error) {
	spec, ok := workload.ByName(string(w))
	if !ok {
		return workload.Spec{}, fmt.Errorf("%w %q (see Workloads())", ErrUnknownWorkload, w)
	}
	return spec, nil
}

// Scheme names one protection configuration. Construct validated values
// with ParseScheme, or enumerate Schemes().
type Scheme string

// SchemeInsecure is the unprotected baseline; it is the default wherever a
// Scheme is optional.
const SchemeInsecure Scheme = "insecure"

// String returns the scheme's name.
func (s Scheme) String() string { return string(s) }

// ParseScheme validates a protection-scheme name. Unknown names return an
// error wrapping ErrUnknownScheme. The empty name is not a scheme: the
// insecure default applies only where a Scheme is optional.
func ParseScheme(s string) (Scheme, error) {
	if _, err := lookupScheme(Scheme(s)); err != nil {
		return "", err
	}
	return Scheme(s), nil
}

// orInsecure returns the scheme an optional Scheme names: the empty scheme
// is the insecure baseline. It is the one place that alias is spelled.
func (s Scheme) orInsecure() Scheme {
	if s == "" {
		return SchemeInsecure
	}
	return s
}

// lookupScheme is the one registry lookup for a scheme name. It takes the
// name as given; callers holding an optional Scheme pass s.orInsecure().
func lookupScheme(s Scheme) (defense.Scheme, error) {
	sch, err := defense.ByName(string(s))
	if err != nil {
		return defense.Scheme{}, fmt.Errorf("%w %q (see Schemes())", ErrUnknownScheme, s)
	}
	return sch, nil
}

// FigureID names one regenerable paper figure.
type FigureID string

// The paper's regenerable figures.
const (
	Fig3 FigureID = "fig3" // SPEC CPU2006 scheme comparison
	Fig4 FigureID = "fig4" // Parsec scheme comparison (4 threads)
	Fig5 FigureID = "fig5" // filter cache size sweep
	Fig6 FigureID = "fig6" // filter cache associativity sweep
	Fig7 FigureID = "fig7" // store upgrade-broadcast rate
	Fig8 FigureID = "fig8" // cumulative mechanisms, Parsec
	Fig9 FigureID = "fig9" // cumulative mechanisms, SPEC
)

// String returns the figure's identifier.
func (f FigureID) String() string { return string(f) }

// ParseFigureID validates a figure identifier ("fig3" … "fig9"). Unknown
// identifiers return an error wrapping ErrUnknownFigure.
func ParseFigureID(s string) (FigureID, error) {
	for _, id := range FigureIDs() {
		if string(id) == s {
			return id, nil
		}
	}
	return "", fmt.Errorf("%w %q (fig3..fig9)", ErrUnknownFigure, s)
}

// AttackName names one attack scenario from the corpus: the paper's six
// attacks plus the generated variants. Construct validated values with
// ParseAttackName, or enumerate AttackNames().
type AttackName string

// The paper's six attacks, in paper order. The full corpus (including
// generated Spectre index sweeps, indirect-jump mistraining and
// MeltdownPrime-style coherence variants) is enumerated by AttackNames().
const (
	AttackSpectre         AttackName = "spectre"
	AttackInclusion       AttackName = "inclusion"
	AttackSharedData      AttackName = "shareddata"
	AttackFilterCoherency AttackName = "filtercoherency"
	AttackPrefetcher      AttackName = "prefetcher"
	AttackICache          AttackName = "icache"
)

// String returns the attack's name.
func (a AttackName) String() string { return string(a) }

// ParseAttackName validates an attack name. Unknown names return an error
// wrapping ErrUnknownAttack.
func ParseAttackName(s string) (AttackName, error) {
	if _, err := lookupAttack(AttackName(s)); err != nil {
		return "", err
	}
	return AttackName(s), nil
}

// lookupAttack is the one registry lookup for an attack scenario name.
func lookupAttack(a AttackName) (attack.Scenario, error) {
	sc, ok := attack.ScenarioByName(string(a))
	if !ok {
		return attack.Scenario{}, fmt.Errorf("%w %q (see AttackNames())", ErrUnknownAttack, a)
	}
	return sc, nil
}

// Workloads lists the available benchmark names (26 SPEC CPU2006 kernels
// and 7 Parsec kernels), sorted and deduplicated so help text and golden
// output are deterministic.
func Workloads() []Workload {
	var names []Workload
	for _, s := range workload.SPEC2006() {
		names = append(names, Workload(s.Name))
	}
	for _, s := range workload.Parsec() {
		names = append(names, Workload(s.Name))
	}
	return sortDedup(names)
}

// Schemes lists the available protection scheme names, sorted and
// deduplicated.
func Schemes() []Scheme {
	var names []Scheme
	for _, s := range defense.All() {
		names = append(names, Scheme(s.Name))
	}
	return sortDedup(names)
}

// SchemeDescriptions maps scheme names to one-line descriptions. The map
// is rebuilt from the scheme registry on every call; render it in a
// deterministic order by iterating Schemes(), which is sorted.
func SchemeDescriptions() map[Scheme]string {
	out := make(map[Scheme]string)
	for _, s := range defense.All() {
		out[Scheme(s.Name)] = s.Description
	}
	return out
}

// FigureIDs lists the regenerable figures, sorted.
func FigureIDs() []FigureID {
	return []FigureID{Fig3, Fig4, Fig5, Fig6, Fig7, Fig8, Fig9}
}

// AttackNames lists the full attack-scenario corpus, sorted and
// deduplicated like the other identifier registries.
func AttackNames() []AttackName {
	var names []AttackName
	for _, s := range attack.Scenarios() {
		names = append(names, AttackName(s.Name))
	}
	return sortDedup(names)
}

// sortDedup sorts a name slice and removes adjacent duplicates.
func sortDedup[T ~string](names []T) []T {
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	out := names[:0]
	for _, n := range names {
		if len(out) == 0 || n != out[len(out)-1] {
			out = append(out, n)
		}
	}
	return out
}
