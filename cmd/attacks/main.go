// Command attacks runs the attack-scenario corpus against the compared
// protection schemes and prints the security matrix: scenario (rows) vs
// scheme (columns), each cell a leak(value,signal) or block(signal)
// verdict. The cells run as a muontrap sweep and the matrix is assembled
// and rendered by the library's one assembler, SecurityMatrixFromSweep, so
// its bytes match the pinned golden artifact
// (muontrap/testdata/security_matrix.golden). -attack and -scheme filter
// the matrix to one row or one column (both: one cell).
//
// Usage:
//
//	attacks                                  # full security matrix
//	attacks -cache-dir .cache                # matrix with disk-cached cells
//	attacks -attack spectre                  # one row
//	attacks -attack spectre -scheme muontrap # one cell
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/muontrap"
)

func main() {
	var (
		name     = flag.String("attack", "", "only this attack's row (default: every scenario)")
		scheme   = flag.String("scheme", "", "only this scheme's column, any scheme (default: the compared schemes)")
		cacheDir = flag.String("cache-dir", "", "disk cache directory for matrix cells")
	)
	flag.Parse()

	sw := muontrap.Sweep{Attacks: muontrap.AttackNames(), Schemes: muontrap.SecuritySchemes()}
	if *name != "" {
		a, err := muontrap.ParseAttackName(*name)
		if err != nil {
			fatal(err)
		}
		sw.Attacks = []muontrap.AttackName{a}
	}
	if *scheme != "" {
		s, err := muontrap.ParseScheme(*scheme)
		if err != nil {
			fatal(err)
		}
		sw.Schemes = []muontrap.Scheme{s}
	}
	res, err := muontrap.NewRunner(muontrap.WithCacheDir(*cacheDir)).Sweep(context.Background(), sw)
	if err != nil {
		fatal(err)
	}
	m, err := muontrap.SecurityMatrixFromSweep(sw, res)
	if err != nil {
		fatal(err)
	}
	fmt.Print(m.Render())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
