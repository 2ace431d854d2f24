package muontrap

import (
	"errors"
	"fmt"

	"repro/internal/figures"
)

// Sweep declares a (workloads × schemes × scales) experiment matrix,
// optionally extended with an (attacks × schemes) security block. An
// empty Scales runs every cell at the runner's default scale; a zero
// MaxCycles inherits the runner's default. Attack cells run each named
// scenario under each scheme with the scenario's canonical secret; they
// ignore scales and the cycle bound (an attack's identity is its spec).
// A sweep may declare attacks without workloads. The JSON field names are
// the experiment service's wire format (see docs/API.md).
//
// What a declaration means is decided by Resolve and Cells alone: the
// Runner, the experiment service (validation, job size, cache key) and
// the fleet coordinator (sharding) all read a sweep through them.
type Sweep struct {
	Workloads []Workload   `json:"workloads,omitempty"`
	Schemes   []Scheme     `json:"schemes"`
	Scales    []float64    `json:"scales,omitempty"`
	MaxCycles int          `json:"max_cycles,omitempty"`
	Attacks   []AttackName `json:"attacks,omitempty"`
}

// Resolve returns the sweep with every default made explicit: an empty
// scheme becomes SchemeInsecure, an empty Scales becomes {scale}, and a
// non-positive MaxCycles becomes maxCycles. A non-positive scale or
// maxCycles argument means the library default. Resolve does not
// validate (Cells does) and never writes to sw's slices.
func (sw Sweep) Resolve(scale float64, maxCycles int) Sweep {
	def := figures.DefaultOptions()
	if scale <= 0 {
		scale = def.Scale
	}
	if maxCycles <= 0 {
		maxCycles = def.MaxCycles
	}
	schemes := make([]Scheme, len(sw.Schemes))
	for i, s := range sw.Schemes {
		schemes[i] = s.orInsecure()
	}
	sw.Schemes = schemes
	if len(sw.Scales) == 0 {
		sw.Scales = []float64{scale}
	}
	if sw.MaxCycles <= 0 {
		sw.MaxCycles = maxCycles
	}
	return sw
}

// Cells resolves the sweep (see Resolve), validates it, and lists its
// one-cell sweeps in declaration order: workload × scheme × scale, then
// attack × scheme. A repeated declaration is a repeated cell. Every cell
// carries the resolved cycle bound, and a workload cell its scale; an
// attack cell has no scale. An unknown identifier is an error wrapping
// its ErrUnknown* sentinel; a sweep with no cells or a non-positive scale
// is an error too.
func (sw Sweep) Cells(scale float64, maxCycles int) ([]Sweep, error) {
	sw = sw.Resolve(scale, maxCycles)
	if len(sw.Workloads) == 0 && len(sw.Attacks) == 0 {
		return nil, errors.New("muontrap: sweep declares no workloads or attacks")
	}
	if len(sw.Schemes) == 0 {
		return nil, errors.New("muontrap: sweep declares no schemes")
	}
	for _, s := range sw.Schemes {
		if _, err := lookupScheme(s); err != nil {
			return nil, err
		}
	}
	for _, sc := range sw.Scales {
		if !(sc > 0) {
			return nil, fmt.Errorf("muontrap: sweep declares scale %g; a scale must be positive (omit scales for the default)", sc)
		}
	}
	cells := make([]Sweep, 0, (len(sw.Workloads)*len(sw.Scales)+len(sw.Attacks))*len(sw.Schemes))
	for _, w := range sw.Workloads {
		if _, err := lookupWorkload(w); err != nil {
			return nil, err
		}
		for _, s := range sw.Schemes {
			for _, sc := range sw.Scales {
				cells = append(cells, Sweep{Workloads: []Workload{w}, Schemes: []Scheme{s},
					Scales: []float64{sc}, MaxCycles: sw.MaxCycles})
			}
		}
	}
	for _, a := range sw.Attacks {
		if _, err := lookupAttack(a); err != nil {
			return nil, err
		}
		for _, s := range sw.Schemes {
			cells = append(cells, Sweep{Attacks: []AttackName{a}, Schemes: []Scheme{s}, MaxCycles: sw.MaxCycles})
		}
	}
	return cells, nil
}
