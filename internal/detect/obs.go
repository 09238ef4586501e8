package detect

import (
	"analogdft/internal/obs"
)

// Engine instrumentation. The counters bridge the deterministic Stats of
// each evaluation into the process-wide registry; they are identical for
// any worker count and scheduling order. Everything that depends on the
// clock or on the actual schedule (chunk latency, per-worker utilization,
// the worker-count gauge) is collected only when obs timing is on, so a
// registry snapshot taken with timing off is fully deterministic.
var (
	dEvaluations = obs.Reg().Counter("detect_evaluations_total",
		"matrix/row evaluations completed")
	dCells = obs.Reg().Counter("detect_cells_total",
		"(configuration, fault) cells evaluated")
	dSolves = obs.Reg().Counter("detect_solves_total",
		"AC grid-point solves accounted by the engine (nominal sweeps, cells, retries), whichever solve answered each point")
	dSingular = obs.Reg().Counter("detect_singular_points_total",
		"grid points left singular after any retries")
	dRetries = obs.Reg().Counter("detect_retries_total",
		"jittered re-solve attempts under the Retry policy")
	dRecovered = obs.Reg().Counter("detect_recovered_total",
		"singular points rescued by a retry")
	dCellErrors = obs.Reg().Counter("detect_cell_errors_total",
		"cells that recorded a simulation error")
	dDegraded = obs.Reg().Counter("detect_policy_degraded_total",
		"failed cells recorded as undetectable under the Degrade/Retry policies")
	dFailFast = obs.Reg().Counter("detect_policy_failfast_total",
		"evaluations aborted by the FailFast policy")
	dCancelled = obs.Reg().Counter("detect_cancelled_total",
		"evaluations abandoned because the caller's context was cancelled")
	// The rank-1 tallies of the row sweep. Which cells are rank-1, and
	// which of their points the identity cannot answer or the guard
	// cannot settle, are properties of the cell set: always live, like
	// engine_lowrank_solve_total in the analysis package.
	dRank1Cells = obs.Reg().Counter("detect_rank1_cells_total",
		"cells answered on the rank-1 rung: Sherman–Morrison against the basis the row reads at each grid point")
	dLowRankRefactors = obs.Reg().Counter("engine_lowrank_refactor_total",
		"rank-1 grid points re-solved under a patch because the identity could not answer them (singular nominal point, a point the basis could not answer, or singular rank-1 update)")
	// dConfigRefactors counts the nominal solves of a row's own
	// configuration matrix: at the points the basis cannot answer a row
	// with followers, at the corrected nominal points the guard or the
	// floor's peak needs exact, and at every point of an oracle row.
	dConfigRefactors = obs.Reg().Counter("detect_config_refactor_total",
		"nominal solves of a row's own configuration matrix: points the shared basis could not answer (singular functional matrix, capacitance screen), corrected nominal points re-solved exactly for the guard or the floor's peak, and every point of a patch/clone oracle row")
	dGuardResolves = obs.Reg().Counter("detect_guard_resolves_total",
		"rank-1 grid points re-solved under a patch because the answer lay within the guard band of ε or of the measurement floor, or (rows that report MaxDev) could hold the cell's peak deviation")

	dCellSeconds = obs.Reg().HistogramVec("detect_cell_seconds",
		"per-cell solve latency by the engine-ladder rung that answered: rank1, patch or clone (timing on only)", "rung", obs.TimeBuckets)

	dWorkers = obs.Reg().Gauge("detect_workers",
		"worker count of the most recent fan-out (timing on only)")
	dChunkSeconds = obs.Reg().Histogram("detect_chunk_seconds",
		"scheduler chunk latency in seconds (timing on only)", obs.TimeBuckets)
	dChunkCells = obs.Reg().Histogram("detect_chunk_cells",
		"tasks (configuration rows) per scheduler chunk (timing on only)", obs.CountBuckets)
	dWorkerBusy = obs.Reg().Histogram("detect_worker_busy_ratio",
		"per-worker busy fraction of the fan-out wall time (timing on only)", obs.RatioBuckets)
)

// dlog is the package logger.
var dlog = obs.Logger("detect")

// dSlowCells retains the slowest cell solves seen by this process, each
// stamped with the W3C trace ID of the job that ran it — the bridge from
// a P99 regression on detect_cell_seconds to a concrete job trace.
// Offered only when timing is on, like the histogram it annotates.
var dSlowCells = obs.RegisterExemplars("detect_cell_seconds", 8)

// bridgeStats folds one evaluation's final Stats into the registry.
func bridgeStats(st Stats, policy ErrorPolicy) {
	dEvaluations.Inc()
	dCells.Add(int64(st.CellsDone))
	dSolves.Add(int64(st.Solves))
	dSingular.Add(int64(st.SingularPoints))
	dRetries.Add(int64(st.Retries))
	dRecovered.Add(int64(st.Recovered))
	dCellErrors.Add(int64(st.Errors))
	if policy != FailFast {
		dDegraded.Add(int64(st.Errors))
	}
}
