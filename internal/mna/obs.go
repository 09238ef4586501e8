package mna

import (
	"errors"
	"time"

	"analogdft/internal/numeric"
	"analogdft/internal/obs"
)

// Solve instrumentation. Counters are always live (one atomic add per
// solve, negligible against an LU factorization); the latency histogram
// needs two clock reads per solve and is gated on obs.TimingOn().
var (
	mSolves = obs.Reg().Counter("mna_solves_total",
		"AC solves performed (matrix assembly + factorization + back-substitution)")
	mSingular = obs.Reg().Counter("mna_solve_singular_total",
		"AC solves that failed on a singular system")
	mUnsupported = obs.Reg().Counter("mna_solve_unsupported_total",
		"AC solves rejected on an unsupported component or invalid frequency")
	mOtherErr = obs.Reg().Counter("mna_solve_error_total",
		"AC solves that failed for any other reason")
	mSolveLatency = obs.Reg().Histogram("mna_solve_seconds",
		"per-point AC solve latency in seconds (collected when timing is on)", obs.TimeBuckets)

	// Stamp-cache effectiveness: assemblies served by the fused G + jω·C
	// scale-add versus full component walks. The reuse hit rate is
	// reuse / (reuse + rebuild). How many Systems get built — and hence
	// how many first-assembly rebuilds occur — depends on how many
	// engines the detect worker pool lazily instantiates, which varies
	// with worker count and scheduling; like the scheduler's own
	// instruments, these counters are therefore collected only when obs
	// timing is on, keeping timing-off registry snapshots deterministic.
	mStampReuse = obs.Reg().Counter("mna_stamp_reuse_total",
		"matrix assemblies served from the cached G/C split stamps (fused scale-add, no component walk; timing on only)")
	mStampRebuild = obs.Reg().Counter("mna_stamp_rebuild_total",
		"full component-walk stamp builds, one per System (timing on only)")
)

// accountStamps records one assembly's stamp-cache outcome (timing on
// only; see the counter declarations).
func accountStamps(rebuilt bool) {
	if !obs.TimingOn() {
		return
	}
	if rebuilt {
		mStampRebuild.Inc()
	} else {
		mStampReuse.Inc()
	}
}

// solveTally is the Sweeper's local, unsynchronized view of the solve
// counters. The detectability engine runs one Sweeper per worker with a
// solve every few microseconds; a shared atomic would make those workers
// ping-pong one cache line, so each sweep tallies locally and flushes the
// totals in one Add per counter when the sweep finishes.
type solveTally struct {
	solves, singular, unsupported, otherErr int64
	stampReuse, stampRebuild                int64
}

// recordStamps tallies one assembly's stamp-cache outcome locally (timing
// on only; see the counter declarations).
func (t *solveTally) recordStamps(rebuilt bool) {
	if !obs.TimingOn() {
		return
	}
	if rebuilt {
		t.stampRebuild++
	} else {
		t.stampReuse++
	}
}

func (t *solveTally) record(err error, start time.Time, timed bool) {
	t.solves++
	if timed {
		mSolveLatency.Observe(obs.Since(start).Seconds())
	}
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, numeric.ErrSingular):
		t.singular++
	case errors.Is(err, ErrUnsupported):
		t.unsupported++
	default:
		t.otherErr++
	}
}

func (t *solveTally) flush() {
	if t.solves != 0 {
		mSolves.Add(t.solves)
	}
	if t.singular != 0 {
		mSingular.Add(t.singular)
	}
	if t.unsupported != 0 {
		mUnsupported.Add(t.unsupported)
	}
	if t.otherErr != 0 {
		mOtherErr.Add(t.otherErr)
	}
	if t.stampReuse != 0 {
		mStampReuse.Add(t.stampReuse)
	}
	if t.stampRebuild != 0 {
		mStampRebuild.Add(t.stampRebuild)
	}
	*t = solveTally{}
}
