package invariants

import (
	"fmt"
	"sort"
)

// Options tunes one Analyze run.
type Options struct {
	// Codes restricts the run to these VIxxx passes; empty means all.
	Codes []string
}

// Analyze runs every selected pass over every applicable package and
// returns the combined report. Output is deterministic: diagnostics are
// sorted by position regardless of package or file discovery order.
func Analyze(root string, pkgs []*Package, opts Options) (*Report, error) {
	selected, err := selectPasses(opts.Codes)
	if err != nil {
		return nil, err
	}
	rep := &Report{Root: root}
	for _, e := range selected {
		rep.Codes = append(rep.Codes, e.Code)
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		rep.Packages = append(rep.Packages, pkg.Rel)
		for _, e := range selected {
			if !e.applies(pkg.Roles) {
				continue
			}
			p := &pass{pkg: pkg, info: &e.PassInfo}
			e.run(p)
			all = append(all, p.out...)
		}
	}
	sort.Strings(rep.Packages)
	sortDiagnostics(all)
	if all == nil {
		// A clean run serializes as an empty list, not JSON null.
		all = []Diagnostic{}
	}
	rep.Diagnostics = all
	return rep, nil
}

// selectPasses resolves the -codes filter against the registry.
func selectPasses(codes []string) ([]*passEntry, error) {
	if len(codes) == 0 {
		out := make([]*passEntry, len(passTable))
		for i := range passTable {
			out[i] = &passTable[i]
		}
		return out, nil
	}
	var out []*passEntry
	seen := make(map[string]bool)
	for _, c := range codes {
		e, ok := passByCode[c]
		if !ok {
			return nil, fmt.Errorf("invariants: unknown pass code %q", c)
		}
		if seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out, nil
}
