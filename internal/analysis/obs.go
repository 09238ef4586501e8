package analysis

import "analogdft/internal/obs"

// Engine instrumentation. engine_patch_total counts every fault applied
// to a live system as an in-place patch, whatever its kind. The
// stamp-reuse hit rate underneath is mna_stamp_reuse_total /
// (mna_stamp_reuse_total + mna_stamp_rebuild_total).
var ePatches = obs.Reg().Counter("engine_patch_total",
	"faults applied to a live system as in-place patches (no clone, no rebuild)")

// eLowRankSolves counts Sherman–Morrison answers: a property of the cell
// set and the math, identical for any worker count, so always live.
var eLowRankSolves = obs.Reg().Counter("engine_lowrank_solve_total",
	"rank-1 Sherman–Morrison fault answers against a nominal grid-point factorization (no refactorization)")

// eLowRankIncidences counts the z = A⁻¹u solves behind those answers:
// one per distinct fault incidence (u, v) per grid point, shared by the
// faults that differ only in scale. Deterministic, so always live.
var eLowRankIncidences = obs.Reg().Counter("engine_lowrank_incidence_total",
	"z = A⁻¹u solves of the rank-1 walk: one per distinct fault incidence per grid point, shared by every fault on it")
