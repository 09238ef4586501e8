package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"analogdft/internal/circuit"
	"analogdft/internal/detect"
	"analogdft/internal/fault"
	"analogdft/internal/spice"
)

// CacheKey derives the content address of a job's result: a SHA-256 over a
// canonical rendering of everything that determines the answer —
//
//   - the parsed circuit and chain, re-serialized through spice.Write so
//     that whitespace, comments, blank lines and value spellings ("15.9k"
//     vs "15900") of the submitted deck cannot influence the key;
//   - the fault universe, one canonical line per fault;
//   - the Options after Normalize, printed in a fixed field order, so a
//     request relying on a default and one spelling the same value
//     explicitly collapse onto one key;
//   - the job kind (plus the cost name for optimize jobs).
//
// The options line still carries the literal tokens engine=incremental and
// layout=auto, the values every default key carried while the engine mode
// and the matrix layout were request fields: keeping them leaves every
// such key, and so every entry of a shared store, unchanged now that one
// engine and one layout remain.
//
// Deliberately excluded: Workers (matrices are identical for any worker
// count) and Progress (pure observation). Two requests with equal keys are
// therefore guaranteed to produce byte-identical results, which is what
// lets the server answer repeats from the cache without re-simulating.
func CacheKey(kind Kind, costName string, ckt *circuit.Circuit, chain []string, faults fault.List, opts detect.Options) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "kind=%s cost=%s\n", kind, costName)
	if err := spice.Write(h, ckt, chain); err != nil {
		return "", fmt.Errorf("jobs: cache key: %w", err)
	}
	for _, f := range faults {
		fmt.Fprintf(h, "fault %s %s %d %g\n", f.ID, f.Component, f.Kind, f.Factor)
	}
	o := opts.Normalize()
	fmt.Fprintf(h, "opts eps=%g noeps=%t points=%d floor=%g region=%g:%g probe=%g:%g:%d transparent=%t perconfig=%t onerror=%s engine=incremental layout=auto maxretries=%d maxfollowers=%d\n",
		o.Eps, o.NoEps, o.Points, o.MeasFloor,
		o.Region.LoHz, o.Region.HiHz,
		o.Probe.StartHz, o.Probe.StopHz, o.Probe.Points,
		o.IncludeTransparent, o.PerConfigRegion,
		o.OnError, o.MaxRetries, o.MaxFollowers)
	for _, p := range o.EpsProfile {
		fmt.Fprintf(h, "epsprofile %g\n", p)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)), nil
}
