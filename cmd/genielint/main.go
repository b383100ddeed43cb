// Command genielint runs the repository's static-analysis suite
// (internal/lint: goroleak, lockscope, netdeadline, obsnaming) over the
// given package patterns, default ./... .
//
// Exit codes: 0 clean, 1 diagnostics found, 2 load/internal error or an
// -only list naming an analyzer that does not exist.
// Diagnostics print as file:line:col: [analyzer] message. Suppress a false
// positive in place with //genie:nolint <analyzer> -- <reason>.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"cachegenie/internal/lint"
)

func main() {
	dir := flag.String("C", ".", "directory to resolve package patterns in")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				sel = append(sel, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			unknown := slices.Sorted(maps.Keys(keep))
			fmt.Fprintf(os.Stderr, "genielint: -only names unknown analyzer(s) %q (see -list)\n", unknown)
			os.Exit(2)
		}
		analyzers = sel
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genielint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genielint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "genielint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
