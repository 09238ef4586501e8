package jobs

import (
	"analogdft/internal/obs"
)

// Job-layer instrumentation. Everything here is deterministic given the
// request stream (no clock-gated metrics): counters count decisions, the
// gauges track queue and cache occupancy. cmd/dftserved exposes the whole
// registry on /metrics.
var (
	jSubmitted = obs.Reg().Counter("jobs_submitted_total",
		"job requests accepted (cache hits included)")
	jRejected = obs.Reg().Counter("jobs_rejected_total",
		"job requests rejected because the queue was full (HTTP 429)")
	jCancelRequests = obs.Reg().Counter("jobs_cancel_requests_total",
		"cancellation requests delivered to a queued or running job")
	jCacheHits = obs.Reg().Counter("jobs_cache_hits_total",
		"jobs answered from the content-addressed result cache, no simulation")
	jCacheMisses = obs.Reg().Counter("jobs_cache_misses_total",
		"jobs whose key was not cached and were enqueued for simulation")
	jCacheEvictions = obs.Reg().Counter("jobs_cache_evictions_total",
		"cache entries evicted by the LRU bound")
	jCacheEntries = obs.Reg().Gauge("jobs_cache_entries",
		"result cache occupancy")
	jQueueDepth = obs.Reg().Gauge("jobs_queue_depth",
		"jobs waiting in the queue (excludes running jobs)")
	jDone = obs.Reg().CounterVec("jobs_finished_total",
		"jobs by terminal state", "state")
	// jEnqueueWait is clock-derived and therefore gated on obs.TimingOn,
	// like every latency instrument in the repo.
	jEnqueueWait = obs.Reg().Histogram("jobs_enqueue_wait_seconds",
		"submit-to-worker-pickup wait (timing mode only)", obs.TimeBuckets)

	// Result-store occupancy and hygiene, shared by memstore and fsstore.
	jStoreBytes = obs.Reg().Gauge("jobs_store_bytes",
		"total payload bytes held by the result store")
	jStoreEvictions = obs.Reg().Counter("jobs_store_evictions_total",
		"fsstore entries evicted by the byte-LRU bound")
	jStoreCorrupt = obs.Reg().Counter("jobs_store_corrupt_total",
		"stored payloads dropped because they failed to read back as JSON")
	jStoreResultBytes = obs.Reg().Histogram("jobs_store_result_bytes",
		"size distribution of stored result payloads", obs.ByteBuckets)
)

// jlog is the package logger.
var jlog = obs.Logger("jobs")
