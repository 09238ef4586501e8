// Package invariants is a type-aware multi-pass analyzer for the
// repository's own source tree. It enforces the load-bearing conventions
// the compiler cannot see — the single clock source behind the timing
// gates, cancellable job entry points, context threading through the job
// layer, bounded metric label sets, lock/channel discipline — the way
// netlint enforces deck structure: every pass has a stable VIxxx code, a
// one-line summary, a position-carrying diagnostic and a golden fixture
// under testdata/invariants/.
//
// Unlike the original cmd/vetinvariants string matcher, every pass here
// resolves names with go/types (go/parser plus the source importer, so
// the analyzer stays stdlib-only): an import alias, a function value
// bound to a local, or a method value cannot evade a rule, because the
// rules match the resolved object, not the spelling at the call site.
package invariants

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Diagnostic codes. Codes are stable across releases: CI gates and tests
// key on them, so new passes append new codes and retired passes leave
// holes. VI003 (clone-free-fanout), VI005 (in-place-factorization) and
// VI011 (slab-backed-matrices) are retired: they banned call spellings
// that nothing made, and tests pin the behaviour they stood in for
// (detect's solve accounting and fallback ladder, the analysis sweeps'
// flat allocation counts).
const (
	// CodeClockSource: an internal package reads the wall clock directly
	// (time.Now / time.Since) instead of going through obs.Now/obs.Since.
	CodeClockSource = "VI001"
	// CodeStrayPrint: an internal package prints to stdout via
	// fmt.Print/Printf/Println.
	CodeStrayPrint = "VI002"
	// CodeBlockingJob: the job layer references a blocking simulation
	// entry point instead of its ...Context variant.
	CodeBlockingJob = "VI004"
	// CodeUngatedObservation: a clock-derived histogram observation is
	// not guarded by the obs TimingOn gate.
	CodeUngatedObservation = "VI006"
	// CodeContextLaundering: a context-receiving function below the edge
	// manufactures context.Background/context.TODO instead of threading
	// its own context.
	CodeContextLaundering = "VI007"
	// CodeUnboundedLabel: a metric label value is not provably drawn from
	// a fixed string set (cardinality-explosion guard).
	CodeUnboundedLabel = "VI008"
	// CodeLockAcrossBlocking: a mutex is held across a blocking channel
	// operation or a solver call.
	CodeLockAcrossBlocking = "VI009"
	// CodeUntrackedGoroutine: a goroutine is launched without a visible
	// WaitGroup or done-channel join.
	CodeUntrackedGoroutine = "VI010"
	// CodeDirectStoreIO: internal/jobs touches the filesystem (os, io/fs)
	// outside the fsstore files; persistence must go through the Store
	// interface.
	CodeDirectStoreIO = "VI012"
)

// PassInfo describes one registered pass for listings, docs and the
// -list CLI mode.
type PassInfo struct {
	// Code is the stable VIxxx identifier.
	Code string `json:"code"`
	// Name is the short kebab-case pass name.
	Name string `json:"name"`
	// Summary is a one-line description of what the pass flags.
	Summary string `json:"summary"`
	// Rationale says why the invariant is load-bearing.
	Rationale string `json:"rationale"`
	// Scope names the package sets the pass walks.
	Scope string `json:"scope"`
}

// passEntry couples a pass's metadata with its implementation and the
// role predicate that selects which packages it walks.
type passEntry struct {
	PassInfo
	applies func(Roles) bool
	run     func(*pass)
}

// passTable is the registry of every pass, in code order.
var passTable = []passEntry{
	{
		PassInfo: PassInfo{Code: CodeClockSource, Name: "single-clock-source",
			Summary:   "internal packages must read the clock through obs.Now/obs.Since, never time.Now/time.Since",
			Rationale: "the TimingOn gate in internal/obs is the only place wall-clock time may enter, so timing-off metric and trace snapshots stay deterministic across worker counts",
			Scope:     "internal/** except internal/obs"},
		applies: func(r Roles) bool { return r.Internal && !r.Obs },
		run:     runClockSource,
	},
	{
		PassInfo: PassInfo{Code: CodeStrayPrint, Name: "no-stray-prints",
			Summary:   "internal packages must not print to stdout via fmt.Print/Printf/Println",
			Rationale: "library code reports through error values, the obs logger or an io.Writer handed in by the caller; stdout belongs to the commands",
			Scope:     "internal/**"},
		applies: func(r Roles) bool { return r.Internal },
		run:     runStrayPrint,
	},
	{
		PassInfo: PassInfo{Code: CodeBlockingJob, Name: "cancellable-job-layer",
			Summary:   "the job layer must use the ...Context simulation entry points, never the blocking variants",
			Rationale: "every job the server runs must be cancellable mid-simulation for drain, deadline and client-abort paths to work",
			Scope:     "internal/jobs, cmd/dftserved"},
		applies: func(r Roles) bool { return r.Jobs || r.Served },
		run:     runBlockingJob,
	},
	{
		PassInfo: PassInfo{Code: CodeUngatedObservation, Name: "gated-clock-observation",
			Summary:   "clock-derived histogram observations must sit behind a TimingOn guard",
			Rationale: "ungated latency observations make registry snapshots differ across worker counts and runs, breaking the metric determinism gate",
			Scope:     "internal/** except internal/obs"},
		applies: func(r Roles) bool { return r.Internal && !r.Obs },
		run:     runUngatedObservation,
	},
	{
		PassInfo: PassInfo{Code: CodeContextLaundering, Name: "context-threading",
			Summary:   "functions that receive a context must not manufacture context.Background/TODO (span bookkeeping via obs is exempt)",
			Rationale: "a Background context below the edge detaches work from cancellation and tracing; the caller's context must flow through",
			Scope:     "internal/jobs, internal/detect, internal/analysis"},
		applies: func(r Roles) bool { return r.Jobs || r.Detect || r.Analysis },
		run:     runContextLaundering,
	},
	{
		PassInfo: PassInfo{Code: CodeUnboundedLabel, Name: "bounded-metric-labels",
			Summary:   "CounterVec/HistogramVec label values must come from fixed string sets, never request-derived data",
			Rationale: "a trace ID or request field used as a label value grows one metric series per request until exposition falls over",
			Scope:     "internal/jobs, internal/detect, cmd/dftserved"},
		applies: func(r Roles) bool { return r.Jobs || r.Detect || r.Served },
		run:     runUnboundedLabel,
	},
	{
		PassInfo: PassInfo{Code: CodeLockAcrossBlocking, Name: "no-lock-across-blocking",
			Summary:   "internal/jobs must not hold a mutex across a blocking channel operation or a solver call",
			Rationale: "a send or solve under the manager mutex turns queue backpressure into a deadlock of every submitter and poller",
			Scope:     "internal/jobs"},
		applies: func(r Roles) bool { return r.Jobs },
		run:     runLockAcrossBlocking,
	},
	{
		PassInfo: PassInfo{Code: CodeUntrackedGoroutine, Name: "joined-goroutines",
			Summary:   "goroutines in the job and detect layers must be joined via a WaitGroup or a done channel",
			Rationale: "an unjoined goroutine outlives drain and shutdown, racing the race detector and leaking under server churn",
			Scope:     "internal/jobs, internal/detect"},
		applies: func(r Roles) bool { return r.Jobs || r.Detect },
		run:     runUntrackedGoroutine,
	},
	{
		PassInfo: PassInfo{Code: CodeDirectStoreIO, Name: "store-confined-io",
			Summary:   "internal/jobs must not access the filesystem (os, io/fs) outside the fsstore files; persistence goes through the Store interface",
			Rationale: "the Store seam carries the atomic-rename and corruption-tolerance contracts replicas rely on; a stray os call in the manager or scheduler bypasses both and runs disk I/O under locks the store releases",
			Scope:     "internal/jobs except fsstore*.go"},
		applies: func(r Roles) bool { return r.Jobs },
		run:     runDirectStoreIO,
	},
}

// Passes returns the registered passes in code order.
func Passes() []PassInfo {
	out := make([]PassInfo, len(passTable))
	for i, p := range passTable {
		out[i] = p.PassInfo
	}
	return out
}

// passByCode maps code → registry entry.
var passByCode = func() map[string]*passEntry {
	m := make(map[string]*passEntry, len(passTable))
	for i := range passTable {
		m[passTable[i].Code] = &passTable[i]
	}
	return m
}()

// KnownCode reports whether code names a registered pass.
func KnownCode(code string) bool { _, ok := passByCode[code]; return ok }

// Diagnostic is one structured finding.
type Diagnostic struct {
	// Code is the stable VIxxx identifier of the pass that fired.
	Code string `json:"code"`
	// Package is the analyzed package's root-relative directory.
	Package string `json:"package"`
	// File is the offending file, slash-separated and root-relative.
	File string `json:"file"`
	// Line and Col locate the finding (1-based).
	Line int `json:"line"`
	Col  int `json:"col"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Hint suggests a fix.
	Hint string `json:"hint,omitempty"`
}

// String renders "file:line:col: VI001 [single-clock-source]: message".
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d:%d: %s", d.File, d.Line, d.Col, d.Code)
	if p, ok := passByCode[d.Code]; ok {
		fmt.Fprintf(&b, " [%s]", p.Name)
	}
	b.WriteString(": ")
	b.WriteString(d.Message)
	return b.String()
}

// Report is the result of analyzing a set of packages.
type Report struct {
	// Root is the analysis root the file paths are relative to.
	Root string `json:"root"`
	// Packages lists the analyzed package directories.
	Packages []string `json:"packages"`
	// Codes lists the pass codes that ran (all of them unless filtered).
	Codes []string `json:"codes"`
	// Diagnostics holds every finding, sorted by file, line, column and
	// code.
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Clean reports whether the analysis produced no diagnostics.
func (r *Report) Clean() bool { return len(r.Diagnostics) == 0 }

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes one "file:line:col: CODE [name]: message" line per
// finding, each followed by its fix hint, then a one-line verdict.
func (r *Report) WriteText(w io.Writer) error {
	for _, d := range r.Diagnostics {
		if _, err := fmt.Fprintf(w, "%s\n", d); err != nil {
			return err
		}
		if d.Hint != "" {
			if _, err := fmt.Fprintf(w, "\tfix: %s\n", d.Hint); err != nil {
				return err
			}
		}
	}
	var err error
	if r.Clean() {
		_, err = fmt.Fprintf(w, "clean: %d package(s), %d pass(es)\n", len(r.Packages), len(r.Codes))
	} else {
		_, err = fmt.Fprintf(w, "%d invariant violation(s) across %d package(s)\n", len(r.Diagnostics), len(r.Packages))
	}
	return err
}

// sortDiagnostics orders findings for deterministic output.
func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Code < b.Code
	})
}
