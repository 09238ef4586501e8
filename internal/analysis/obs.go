package analysis

import "analogdft/internal/obs"

// Engine instrumentation. engine_patch_total counts every fault applied
// to a live system as an in-place stamp patch; its companion
// engine_fallback_total lives in the detect package, which owns the
// fall-back-to-clone decision. The stamp-reuse hit rate underneath both
// is mna_stamp_reuse_total / (mna_stamp_reuse_total +
// mna_stamp_rebuild_total).
var ePatches = obs.Reg().Counter("engine_patch_total",
	"faults applied to a live system as in-place stamp patches (no clone, no rebuild)")

// eLowRankSolves counts Sherman–Morrison answers: a property of the cell
// set and the math, identical for any worker count, so always live.
var eLowRankSolves = obs.Reg().Counter("engine_lowrank_solve_total",
	"rank-1 Sherman–Morrison fault solves against a nominal grid-point factorization (O(n²), no refactorization)")
