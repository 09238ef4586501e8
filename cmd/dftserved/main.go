// Command dftserved serves the multi-configuration DFT workflow over
// HTTP: clients submit evaluate, matrix and optimize jobs as JSON (a
// built-in benchmark name or an inline SPICE deck), poll their status,
// cancel them mid-simulation, and fetch results. Identical jobs are
// answered from a content-addressed result cache without re-simulating.
//
//	dftserved [-addr :8080] [-workers 2] [-queue 16] [-cache 128]
//	          [-store-dir DIR] [-store-bytes N] [-trace-ring 64]
//	          [-slo-target 0.99] [-timing]
//
// With -store-dir the result cache lives on disk, content-addressed by
// job key, so any number of replicas pointed at the same directory serve
// each other's finished results.
//
// Memory stays bounded: a finished job leaves the live job table for one
// ring of the last -trace-ring finished jobs, which keeps each job's
// view, result and span tree. Once a job ages out of that ring its
// endpoints answer 410 (`evicted`, `trace_evicted` for the trace); the
// result itself stays in the store, reachable by resubmitting the job.
//
// Endpoints:
//
//	POST   /v1/jobs             submit a job (201; 429 + Retry-After when the queue is full)
//	GET    /v1/jobs             list live and retained jobs
//	GET    /v1/jobs/{id}        job status (with a links object to its resources)
//	GET    /v1/jobs/{id}/result result payload (202 while running; ?stream=rows waits, then streams NDJSON rows read from it)
//	GET    /v1/jobs/{id}/trace  span tree of the job (410 once evicted from the ring)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/benches          built-in benchmark names
//	GET    /v1/debug/traces     retained trace summaries, newest first
//	GET    /v1/debug/slo        latency quantiles and error-budget snapshot
//	GET    /metrics             Prometheus text exposition (with slow-solve exemplars)
//	GET    /healthz             liveness + build/queue/cache snapshot
//	GET    /debug/pprof/        standard profiles
//
// Every response carries a `traceparent` header: the inbound one when the
// client sent a valid W3C trace context, a freshly minted identity
// otherwise. A submitted job's spans — enqueue wait, cache lookup, engine
// phases — are recorded under that trace ID and served from
// /v1/jobs/{id}/trace.
//
// On SIGINT/SIGTERM the server stops accepting requests and drains
// in-flight jobs for -drain before forcing cancellation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"analogdft/internal/jobs"
	"analogdft/internal/obs"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (use :0 for an ephemeral port)")
		workers    = flag.Int("workers", 2, "jobs simulated concurrently")
		queue      = flag.Int("queue", 16, "queued jobs beyond the running ones before 429")
		cache      = flag.Int("cache", 128, "result cache entries (in-memory store only)")
		storeDir   = flag.String("store-dir", "", "disk-backed result store directory, shareable between replicas (empty = in-memory)")
		storeBytes = flag.Int64("store-bytes", 256<<20, "payload bytes retained in the disk store before LRU eviction")
		simWorkers = flag.Int("sim-workers", 0, "default per-job simulation parallelism (0 = GOMAXPROCS)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
		traceRing  = flag.Int("trace-ring", 64, "finished jobs retained with their results and traces; older job IDs answer 410")
		sloGoal    = flag.Float64("slo-target", defaultSLOTarget, "availability objective for the error-budget gauge (fraction of non-5xx responses)")
		timing     = flag.Bool("timing", false, "collect latency metrics and schedule-dependent spans (per-chunk solves, enqueue waits)")
	)
	flag.Parse()
	if *sloGoal <= 0 || *sloGoal >= 1 {
		fmt.Fprintln(os.Stderr, "dftserved: -slo-target must be in (0, 1)")
		os.Exit(2)
	}
	setSLOTarget(*sloGoal)
	obs.Default().SetTiming(*timing)
	if err := run(*addr, jobs.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		SimWorkers:   *simWorkers,
		TraceEntries: *traceRing,
	}, *storeDir, *storeBytes, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "dftserved:", err)
		os.Exit(1)
	}
}

// run serves until a termination signal, then drains.
func run(addr string, cfg jobs.Config, storeDir string, storeBytes int64, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	opts := []jobs.Option{jobs.WithConfig(cfg)}
	if storeDir != "" {
		store, err := jobs.NewFSStore(storeDir, storeBytes)
		if err != nil {
			return err
		}
		opts = append(opts, jobs.WithStore(store))
	}
	mgr := jobs.New(opts...)
	srv := &http.Server{Handler: newServer(mgr)}

	// The smoke tests scrape this line for the ephemeral port.
	fmt.Printf("dftserved: listening on %s\n", ln.Addr())
	srvlog.Info("listening", "addr", ln.Addr().String(),
		"workers", mgr.Config().Workers, "queue", mgr.Config().QueueDepth,
		"store", mgr.StoreStats().Kind)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	srvlog.Info("shutting down", "drain", drain.String())

	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		srvlog.Warn("http shutdown", "err", err)
	}
	if err := mgr.Close(dctx); err != nil {
		srvlog.Warn("drain incomplete, jobs cancelled", "err", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srvlog.Info("bye")
	return nil
}
