// Command shhc-vet is the multichecker for the repo's invariant
// analyzers. It mechanically enforces the contracts the hot path relies
// on — pooled buffers released exactly once on every path (bufown), no
// I/O under RAM-only stripe locks plus lock rank order (lockio), and
// context-first APIs (ctxfirst) — using the //shhc: markers in source as
// ground truth.
//
// Usage:
//
//	go run ./cmd/shhc-vet [-list] [-only name] [-v] [packages...]
//
// Patterns default to ./... relative to the current module. The exit
// status is 1 when any finding is reported, so CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"shhc/internal/analysis"
	"shhc/internal/analysis/bufown"
	"shhc/internal/analysis/ctxfirst"
	"shhc/internal/analysis/lockio"
)

var all = []*analysis.Analyzer{
	bufown.Analyzer,
	lockio.Analyzer,
	ctxfirst.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	only := flag.String("only", "", "comma-free single analyzer name to run alone (debugging)")
	verbose := flag.Bool("v", false, "print run statistics")
	flag.Parse()

	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *only != "" {
		analyzers = nil
		for _, a := range all {
			if a.Name == *only {
				analyzers = []*analysis.Analyzer{a}
			}
		}
		if analyzers == nil {
			fmt.Fprintf(os.Stderr, "shhc-vet: unknown analyzer %q\n", *only)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "shhc-vet: %v\n", err)
		os.Exit(2)
	}

	res, err := analysis.Run(analysis.RunConfig{
		Dir:       dir,
		Patterns:  patterns,
		Analyzers: analyzers,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "shhc-vet: %v\n", err)
		os.Exit(2)
	}

	for _, f := range res.Findings {
		fmt.Println(f.String())
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "shhc-vet: %d packages, %d findings, %d suppressed\n",
			res.Packages, len(res.Findings), res.Suppressed)
	}
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}
