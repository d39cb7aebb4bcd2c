// Command krakcheck runs krak's in-tree static-analysis suite — the
// mechanical form of the repo's determinism, arena-hygiene, typed-error,
// bounded-parse, context-propagation, and dead-export invariants — over a
// set of packages, in the style of an x/tools multichecker.
//
// Usage:
//
//	krakcheck [-rules r1,r2] [-fix] [-list] [packages...]
//
// Exit status is 1 when any diagnostic survives //krakcheck:ignore
// filtering, 2 on operational errors. `make lint` runs `krakcheck ./...`
// and CI keeps it green; `make lint-fix` applies the safe suggested
// fixes (-fix), e.g. the sorted-keys rewrite for map ranges.
package main

import (
	"flag"
	"fmt"
	"os"

	"krak/internal/analysis"
	"krak/internal/analysis/analyzers"
)

// modulePattern matches every package of the module, from any directory
// inside it.
const modulePattern = "krak/..."

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("krakcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rules   = fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
		fix     = fs.Bool("fix", false, "apply suggested fixes to the source tree")
		list    = fs.Bool("list", false, "list available rules and exit")
		verbose = fs.Bool("v", false, "print the number of packages checked")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected := analyzers.All()
	if *rules != "" {
		var unknown string
		selected, unknown = analyzers.ByName(*rules)
		if unknown != "" {
			fmt.Fprintf(stderr, "krakcheck: unknown rule %q (use -list)\n", unknown)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "krakcheck: %v\n", err)
		return 2
	}
	// deadexport asks whether any package of the module uses an export,
	// so every run analyses the whole module (and whatever the patterns
	// add to it) and keeps only the findings in the packages the patterns
	// name: a package's findings do not depend on which others were named.
	pkgs, err := analysis.Load(".", append([]string{modulePattern}, patterns...)...)
	if err != nil {
		fmt.Fprintf(stderr, "krakcheck: %v\n", err)
		return 2
	}
	all, err := analysis.Run(pkgs, selected)
	if err != nil {
		fmt.Fprintf(stderr, "krakcheck: %v\n", err)
		return 2
	}
	named := make(map[string]bool, len(targets))
	for _, p := range targets {
		named[p.PkgPath] = true
	}
	var findings []analysis.Finding
	for _, f := range all {
		if named[f.Pkg.PkgPath] {
			findings = append(findings, f)
		}
	}
	if *verbose {
		fmt.Fprintf(stdout, "krakcheck: %d packages, %d rules, %d findings\n",
			len(targets), len(selected), len(findings))
	}
	if len(findings) == 0 {
		return 0
	}
	if *fix {
		changed, err := analysis.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintf(stderr, "krakcheck: applying fixes: %v\n", err)
			return 2
		}
		for _, name := range changed {
			fmt.Fprintf(stdout, "fixed: %s\n", name)
		}
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f.String())
	}
	return 1
}
