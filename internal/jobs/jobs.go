package jobs

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"analogdft/internal/obs"
)

// Manager-level errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull is returned by Submit when the job queue is at
	// capacity; the server answers 429 with Retry-After.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed is returned by Submit once the manager is draining.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound is returned for job IDs the manager never issued.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrEvicted is returned for a job ID that was issued but whose
	// finished record has aged out of the bounded ring of retired jobs.
	ErrEvicted = errors.New("jobs: job evicted from ring")
	// ErrFinished is returned by Cancel when the job already reached a
	// terminal state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrTraceEvicted is returned by Trace for an evicted job: its span
	// tree aged out of the ring together with its record.
	ErrTraceEvicted = errors.New("jobs: trace evicted from ring")
)

// State is a job's lifecycle state.
type State string

// Job states. queued → running → {done, failed, canceled}; a queued job
// may also jump straight to canceled.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is the manager's internal record. All fields are guarded by the
// manager's mutex; handlers only ever see immutable View snapshots. A
// retired job (see retireLocked) no longer changes.
type job struct {
	id       string
	kind     Kind
	key      string
	res      *Resolved // nil once retired
	state    State
	cached   bool
	err      string
	result   json.RawMessage
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	done     chan struct{} // closed by retireLocked

	// Per-job tracing. Every job runs under its own always-enabled
	// tracer, attached to the run context as an override, so the span
	// trees the engine opens (detect.matrix, detect.cells, …) land in
	// the job's private trace regardless of the global tracing switch.
	tc     obs.TraceContext // W3C identity (inbound or generated)
	parent string           // inbound caller's span ID, "" when generated
	tracer *obs.Tracer      // nil once retired
	root   *obs.Span        // the job's root span
	wait   *obs.Span        // jobs.enqueue_wait, open while queued
	trace  *JobTrace        // the exported trace, set on retirement
}

// Links lists a job's related resources; the HTTP layer fills it in so
// clients navigate by URL instead of assembling paths.
type Links struct {
	Result string `json:"result"`
	Trace  string `json:"trace"`
	Stream string `json:"stream"`
}

// View is an immutable snapshot of a job for the HTTP layer.
type View struct {
	ID     string `json:"id"`
	Kind   Kind   `json:"kind"`
	Key    string `json:"key"`
	State  State  `json:"state"`
	Cached bool   `json:"cached"`
	Err    string `json:"error,omitempty"`
	// HasResult tells pollers the result endpoint is ready.
	HasResult bool `json:"has_result"`
	// TraceID is the job's W3C trace ID, for GET /v1/jobs/{id}/trace.
	TraceID  string     `json:"trace_id,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// Links is populated by the HTTP layer, never by the manager.
	Links *Links `json:"links,omitempty"`
}

func (j *job) view() View {
	v := View{
		ID:        j.id,
		Kind:      j.kind,
		Key:       j.key,
		State:     j.state,
		Cached:    j.cached,
		Err:       j.err,
		HasResult: len(j.result) > 0,
		TraceID:   j.tc.TraceIDString(),
		Created:   j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// exportTrace exports tracer's span tree as j's trace in the given
// state. The identity fields it reads never change after Submit.
func (j *job) exportTrace(state State, tracer *obs.Tracer) *JobTrace {
	tr := tracer.Export()
	jt := &JobTrace{JobID: j.id, Kind: j.kind, State: state, TraceID: j.tc.TraceIDString(),
		Parent: j.parent, Spans: len(tr.Flat), Trace: tr}
	if len(tr.Spans) > 0 {
		jt.DurMs = tr.Spans[0].DurMs
	}
	return jt
}

// endTrace ends the job's queue wait (if still open) and its root span,
// tagged with the terminal state, and exports the job's tracer.
func (j *job) endTrace(state State) *JobTrace {
	j.wait.End()
	j.root.SetTag("state", string(state))
	j.root.End()
	return j.exportTrace(state, j.tracer)
}

// Manager owns the job table and composes the job layer: a Store for
// finished payloads, a bounded worker pool for admission and dispatch,
// and a Runner for execution. All methods are safe for concurrent use.
// The job table holds queued and running jobs only: a job retires into
// a ring bounded by Config.TraceEntries in the step that finishes it,
// and a cache hit goes straight to the ring.
type Manager struct {
	cfg    Config
	store  Store
	sched  *poolScheduler
	runner Runner

	mu     sync.Mutex
	jobs   map[string]*job
	traces *jobRing // retired jobs
	seq    int      // IDs job-1 … job-seq have been issued
	closed bool
}

// New starts a manager assembled from opts: unset seams default to the
// in-memory store and runResolved, which executes every job kind through
// the context-aware Session API. Jobs run on a bounded worker pool sized
// by the Config.
func New(opts ...Option) *Manager {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	o.cfg = o.cfg.normalize()
	if o.store == nil {
		o.store = NewMemStore(o.cfg.CacheEntries)
	}
	if o.runner == nil {
		o.runner = RunnerFunc(runResolved)
	}
	return &Manager{
		cfg:    o.cfg,
		store:  o.store,
		sched:  newPoolScheduler(o.cfg.Workers, o.cfg.QueueDepth),
		runner: o.runner,
		jobs:   make(map[string]*job),
		traces: newJobRing(o.cfg.TraceEntries),
	}
}

// Config returns the normalized configuration the manager runs with.
func (m *Manager) Config() Config { return m.cfg }

// Submit resolves the request and either answers it from the result store
// (the returned View is already done, Cached true) or enqueues it.
// ErrQueueFull means the caller should retry later; ErrBadRequest wraps
// every validation failure; ErrClosed means the manager is draining.
func (m *Manager) Submit(req Request) (View, error) {
	return m.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit with a caller context. When ctx carries a W3C
// TraceContext (the HTTP edge parses the traceparent header into one) the
// job runs under the caller's trace ID with a fresh span ID; otherwise a
// new trace identity is generated. ctx is only read for the trace
// identity — the job's lifetime is governed by the manager, not ctx.
func (m *Manager) SubmitCtx(ctx context.Context, req Request) (View, error) {
	res, err := req.Resolve()
	if err != nil {
		return View{}, err
	}
	tc := obs.TraceFrom(ctx)
	parent := ""
	if tc.IsZero() {
		tc = obs.NewTraceContext()
	} else {
		parent = tc.SpanIDString()
		tc = tc.WithNewSpanID()
	}
	tracer := obs.NewTracer()
	tracer.SetEnabled(true)
	_, root := tracer.Start(context.Background(), "job")
	root.SetTag("kind", string(res.Req.Kind))
	root.SetTag("trace_id", tc.TraceIDString())
	// The store lookup may touch disk (fsstore), so it happens before
	// the manager lock. A racing Put of the same key is harmless: equal
	// keys address byte-identical payloads.
	_, lookup := tracer.Start(obs.ContextWithSpan(context.Background(), root), "jobs.cache_lookup")
	payload, hit := m.store.Get(res.Key)
	lookup.SetTag("key", res.Key)
	lookup.SetTag("hit", strconv.FormatBool(hit))
	lookup.End()

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return View{}, ErrClosed
	}
	m.seq++
	j := &job{
		id:      "job-" + strconv.Itoa(m.seq),
		kind:    res.Req.Kind,
		key:     res.Key,
		res:     res,
		state:   StateQueued,
		created: obs.Now(),
		done:    make(chan struct{}),
		tc:      tc,
		parent:  parent,
		tracer:  tracer,
		root:    root,
	}
	root.SetTag("job", j.id)
	if hit {
		jCacheHits.Inc()
		jSubmitted.Inc()
		j.state = StateDone
		j.cached = true
		j.result = payload
		j.finished = j.created
		// The tree holds the root and jobs.cache_lookup only, so the
		// export is cheap enough for the lock.
		m.retireLocked(j, j.endTrace(StateDone))
		return j.view(), nil
	}
	if m.cfg.SimWorkers > 0 && req.Options.Workers == 0 {
		res.Options.Workers = m.cfg.SimWorkers
	}
	_, j.wait = tracer.Start(obs.ContextWithSpan(context.Background(), root), "jobs.enqueue_wait")
	if err := m.sched.Enqueue(func(ctx context.Context) { m.runJob(ctx, j) }); err != nil {
		m.seq-- // the job never existed
		if errors.Is(err, ErrQueueFull) {
			jRejected.Inc()
		}
		return View{}, err
	}
	jCacheMisses.Inc()
	jSubmitted.Inc()
	m.jobs[j.id] = j
	return j.view(), nil
}

// retireLocked is the one place a record leaves the table: it closes
// j's done channel (streaming watchers unblock), keeps j's view fields,
// payload and exported trace jt in the ring of retired jobs and drops
// the rest. Caller holds m.mu and has already put j in a terminal state.
func (m *Manager) retireLocked(j *job, jt *JobTrace) {
	jDone.With(string(j.state)).Inc()
	close(j.done)
	j.trace = jt
	j.res, j.tracer, j.root, j.wait, j.cancel = nil, nil, nil, nil, nil
	m.traces.add(j)
	delete(m.jobs, j.id)
}

// lookupLocked finds id among the live jobs, then in the ring of retired
// ones. An ID that was issued but is held by neither has been evicted.
// Caller holds m.mu.
func (m *Manager) lookupLocked(id string) (*job, error) {
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	if j, ok := m.traces.byID[id]; ok {
		return j, nil
	}
	if n := seqOf(id); n > 0 && n <= m.seq {
		return nil, ErrEvicted
	}
	return nil, ErrNotFound
}

// seqOf returns N for a canonical job ID "job-N", 0 for anything else.
func seqOf(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n < 1 || id != "job-"+strconv.Itoa(n) {
		return 0
	}
	return n
}

// runJob is the task the scheduler executes: it runs one queued job to a
// terminal state. schedCtx is the scheduler's base context, canceled
// when Close force-cancels the pool.
func (m *Manager) runJob(schedCtx context.Context, j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		m.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(schedCtx)
	j.state = StateRunning
	j.started = obs.Now()
	j.cancel = cancel
	res := j.res
	j.wait.End() // the queue wait is over: a worker picked the job up
	if obs.TimingOn() {
		jEnqueueWait.Observe(obs.Since(j.created).Seconds())
	}
	// Route the run's spans to the job's private tracer, parented
	// under its root, and carry the W3C identity for exemplars.
	ctx = obs.ContextWithTracer(ctx, j.tracer)
	ctx = obs.ContextWithSpan(ctx, j.root)
	ctx = obs.ContextWithTrace(ctx, j.tc)
	m.mu.Unlock()

	jctx, span := obs.Start(ctx, "jobs.run")
	span.SetTag("job", j.id)
	span.SetTag("kind", string(res.Req.Kind))
	payload, err := m.runner.Run(jctx, res)
	span.End()
	cancel()
	state := StateDone
	switch {
	case err == nil:
		// Store writes may touch disk (fsstore): off the manager lock.
		m.store.Put(res.Key, payload)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = StateCanceled
	default:
		state = StateFailed
		jlog.Warn("job failed", "job", j.id, "kind", res.Req.Kind, "err", err)
	}
	finished := obs.Now()
	// The run's tree can be large: export it off the manager lock. Only
	// this goroutine retires a running job, so its tracer stays put.
	jt := j.endTrace(state)

	m.mu.Lock()
	defer m.mu.Unlock()
	j.state, j.finished = state, finished
	if err == nil {
		j.result = payload
	} else {
		j.err = err.Error()
	}
	m.retireLocked(j, jt)
}

// find returns the job's payload and done channel alongside its snapshot.
func (m *Manager) find(id string) (json.RawMessage, <-chan struct{}, View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return nil, nil, View{}, err
	}
	return j.result, j.done, j.view(), nil
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (View, error) {
	_, _, v, err := m.find(id)
	return v, err
}

// Result returns the job's result payload alongside its snapshot. The
// payload is nil until the job is done.
func (m *Manager) Result(id string) (json.RawMessage, View, error) {
	payload, _, v, err := m.find(id)
	return payload, v, err
}

// Done returns a channel that is closed once the job reaches a terminal
// state (already closed for cache hits and retired jobs), alongside the
// job's snapshot.
func (m *Manager) Done(id string) (<-chan struct{}, View, error) {
	_, done, v, err := m.find(id)
	return done, v, err
}

// List returns snapshots of the live and retained jobs in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]View, 0, len(m.jobs)+len(m.traces.entries))
	for _, j := range m.jobs {
		out = append(out, j.view())
	}
	for _, j := range m.traces.entries {
		out = append(out, j.view())
	}
	slices.SortFunc(out, func(a, b View) int { return cmp.Compare(seqOf(a.ID), seqOf(b.ID)) })
	return out
}

// Cancel stops a queued or running job: a queued job goes straight to
// canceled (the worker skips it), a running one has its context cancelled
// and reaches canceled within one cell boundary of the simulation.
// Cancelling an already-finished job returns ErrFinished.
func (m *Manager) Cancel(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return View{}, err
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.err = context.Canceled.Error()
		j.finished = obs.Now()
		jCancelRequests.Inc()
		j.wait.SetTag("canceled", "true")
		// The tree holds the root, jobs.cache_lookup and
		// jobs.enqueue_wait only, so the export is cheap enough for the
		// lock.
		m.retireLocked(j, j.endTrace(StateCanceled))
	case StateRunning:
		jCancelRequests.Inc()
		j.cancel() // worker observes ctx.Err and marks the terminal state
	default:
		return j.view(), ErrFinished
	}
	return j.view(), nil
}

// Trace returns the job's span tree: a live export for a job that has
// not retired yet, the retained export afterwards. ErrTraceEvicted means
// the job finished but aged out of the bounded ring.
func (m *Manager) Trace(id string) (*JobTrace, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	if err != nil {
		m.mu.Unlock()
		if errors.Is(err, ErrEvicted) {
			return nil, ErrTraceEvicted
		}
		return nil, err
	}
	if j.trace != nil {
		m.mu.Unlock()
		return j.trace, nil
	}
	state, tracer := j.state, j.tracer
	m.mu.Unlock()
	return j.exportTrace(state, tracer), nil
}

// TraceSummaries lists the traces of the retained retired jobs, newest
// first, without their span trees.
func (m *Manager) TraceSummaries() []JobTrace {
	m.mu.Lock()
	defer m.mu.Unlock()
	retired := m.traces.entries
	out := make([]JobTrace, 0, len(retired))
	for i := len(retired) - 1; i >= 0; i-- {
		out = append(out, retired[i].trace.Summary())
	}
	return out
}

// QueueStats returns the current queue depth and configured capacity,
// for backpressure responses and health snapshots.
func (m *Manager) QueueStats() (depth, capacity int) {
	return m.sched.Depth()
}

// StoreStats returns the result store's occupancy snapshot.
func (m *Manager) StoreStats() StoreStats { return m.store.Stats() }

// Close drains the manager: no new submissions are accepted, queued and
// running jobs finish normally, and Close returns when the pool is idle.
// If ctx expires first, every in-flight job is cancelled and Close waits
// for the workers to acknowledge before returning ctx's error. Either
// way — graceful or forced — a job retires in the step that finishes
// it, so every admitted job has retired once Close returns and GET
// /v1/jobs/{id}/trace never races shutdown. The store is closed last.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	err := m.sched.Close(ctx)
	if cerr := m.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}
