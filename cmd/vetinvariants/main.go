// Command vetinvariants enforces repository-wide source invariants that
// go vet does not know about, using the type-aware multi-pass analyzer
// in internal/invariants:
//
//	vetinvariants [flags] [repo-root]
//
// Every pass has a stable VIxxx code (run `vetinvariants -list` for the
// catalog): three of the original syntactic rules — single clock source
// (VI001), no stray prints (VI002), cancellable job layer (VI004) —
// ported onto resolved go/types objects so import aliases and bound
// function values cannot evade them, plus the type-aware passes the
// string matcher could not express: TimingOn guards on clock-derived
// observations (VI006), context threading below the edge (VI007),
// bounded metric label sets (VI008), no locks held across blocking
// operations (VI009), goroutine join tracking (VI010) and store-confined
// file I/O in the job layer (VI012). The retired codes VI003, VI005 and
// VI011 are unknown codes.
//
// Output is deterministic text (file:line:col) or JSON (-json). Exit
// status: 0 clean, 1 findings, 2 usage or load error — the same contract
// as netlint.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"analogdft/internal/invariants"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vetinvariants", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	codes := fs.String("codes", "", "comma-separated VIxxx codes to run (default: all passes)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	list := fs.Bool("list", false, "print the pass catalog and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(stderr, "vetinvariants: at most one root directory")
		return 2
	}
	root := fs.Arg(0)
	if root == "" {
		root = "."
	}

	if *list {
		for _, p := range invariants.Passes() {
			fmt.Fprintf(stdout, "%s %-24s %s\n\t%s\n\tscope: %s\n", p.Code, "["+p.Name+"]", p.Summary, p.Rationale, p.Scope)
		}
		return 0
	}

	opts := invariants.Options{}
	if *codes != "" {
		for _, c := range strings.Split(*codes, ",") {
			if c = strings.TrimSpace(c); c == "" {
				continue
			}
			// Reject unknown codes before the (slow) repo load.
			if !invariants.KnownCode(c) {
				fmt.Fprintf(stderr, "vetinvariants: unknown pass code %q (run -list for the catalog)\n", c)
				return 2
			}
			opts.Codes = append(opts.Codes, c)
		}
	}
	loader := invariants.NewLoader()
	pkgs, err := loader.LoadRepo(root)
	if err != nil {
		fmt.Fprintln(stderr, "vetinvariants:", err)
		return 2
	}
	rep, err := invariants.Analyze(root, pkgs, opts)
	if err != nil {
		fmt.Fprintln(stderr, "vetinvariants:", err)
		return 2
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "vetinvariants:", err)
			return 2
		}
		defer f.Close()
		dst = f
	}
	if *asJSON {
		err = rep.WriteJSON(dst)
	} else {
		err = rep.WriteText(dst)
	}
	if err != nil {
		fmt.Fprintln(stderr, "vetinvariants:", err)
		return 2
	}
	if !rep.Clean() {
		fmt.Fprintf(stderr, "vetinvariants: %d invariant violation(s)\n", len(rep.Diagnostics))
		// With the report routed to a file, keep the violations visible
		// in the terminal/CI log too.
		if *out != "" {
			_ = rep.WriteText(stderr)
		}
		return 1
	}
	return 0
}
