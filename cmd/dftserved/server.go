package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"analogdft/internal/jobs"
	"analogdft/internal/obs"
)

// HTTP-layer instrumentation: one latency histogram per endpoint (the
// registry's histogram names cannot carry labels, so each endpoint gets
// its own series) plus a response counter by status class.
var (
	hSubmit = obs.Reg().Histogram("dftserved_http_submit_seconds",
		"POST /v1/jobs latency", obs.TimeBuckets)
	hStatus = obs.Reg().Histogram("dftserved_http_status_seconds",
		"GET /v1/jobs and /v1/jobs/{id} latency", obs.TimeBuckets)
	hResult = obs.Reg().Histogram("dftserved_http_result_seconds",
		"GET /v1/jobs/{id}/result latency", obs.TimeBuckets)
	hCancel = obs.Reg().Histogram("dftserved_http_cancel_seconds",
		"DELETE /v1/jobs/{id} latency", obs.TimeBuckets)
	hOther = obs.Reg().Histogram("dftserved_http_other_seconds",
		"latency of the remaining endpoints (benches, metrics, health)", obs.TimeBuckets)
	cResponses = obs.Reg().CounterVec("dftserved_http_responses_total",
		"responses by status class", "class")
)

// srvlog is the server logger.
var srvlog = obs.Logger("dftserved")

// server is the HTTP front of a jobs.Manager.
type server struct {
	mgr     *jobs.Manager
	started time.Time
}

// newServer builds the full handler: the /v1 job API, the trace and SLO
// debug endpoints, /metrics, /healthz and /debug/pprof, each wrapped in a
// request-scoped span and a latency histogram.
func newServer(mgr *jobs.Manager) http.Handler {
	s := &server{mgr: mgr, started: obs.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", instrument("submit", hSubmit, s.submit))
	mux.HandleFunc("GET /v1/jobs", instrument("list", hStatus, s.list))
	mux.HandleFunc("GET /v1/jobs/{id}", instrument("status", hStatus, s.status))
	mux.HandleFunc("GET /v1/jobs/{id}/result", instrument("result", hResult, s.result))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", instrument("trace", hOther, s.trace))
	mux.HandleFunc("DELETE /v1/jobs/{id}", instrument("cancel", hCancel, s.cancel))
	mux.HandleFunc("GET /v1/benches", instrument("benches", hOther, s.benches))
	mux.HandleFunc("GET /v1/debug/traces", instrument("traces", hOther, s.traces))
	mux.HandleFunc("GET /v1/debug/slo", instrument("slo", hOther, s.slo))
	mux.HandleFunc("GET /metrics", instrument("metrics", hOther, s.metrics))
	mux.HandleFunc("GET /healthz", instrument("healthz", hOther, s.healthz))
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// statusWriter records the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the wrapped writer's Flush,
// which the row stream needs.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps a handler in the edge middleware: W3C trace-context
// adoption (an inbound `traceparent` header is parsed and carried through
// the request context into the job's trace; a missing or malformed header
// mints a fresh identity, echoed back so clients learn their trace ID), a
// span named after the endpoint, the per-endpoint latency histogram, the
// rolling all-endpoint latency summary, and the SLO failure accounting.
func instrument(name string, h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := obs.Now()
		tc, err := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			tc = obs.NewTraceContext()
		}
		w.Header().Set("traceparent", tc.String())
		ctx := obs.ContextWithTrace(r.Context(), tc)
		ctx, span := obs.Start(ctx, "http."+name)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r.WithContext(ctx))
		span.SetTag("status", fmt.Sprint(sw.code))
		span.End()
		el := obs.Since(start).Seconds()
		h.Observe(el)
		hRequest.Observe(el)
		sloRequests.Add(1)
		if sw.code >= 500 {
			sloFailures.Add(1)
		}
		cResponses.With(fmt.Sprintf("%dxx", sw.code/100)).Inc()
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		srvlog.Warn("write response", "err", err)
	}
}

// apiError is the one JSON shape of every error response, documented in
// DESIGN.md §16: a stable machine-readable code, the human message, and —
// where retrying can help — a retry hint. On 429 the queue occupancy
// rides along so clients can back off proportionally instead of blindly
// honoring Retry-After.
type apiError struct {
	Code          string `json:"code"`
	Message       string `json:"message"`
	RetryAfter    int    `json:"retry_after,omitempty"`
	QueueDepth    *int   `json:"queue_depth,omitempty"`
	QueueCapacity *int   `json:"queue_capacity,omitempty"`
}

// errorFor maps a manager error onto its HTTP status and apiError code:
// bad requests → 400 bad_request, a full queue → 429 queue_full,
// never-issued job IDs → 404 not_found, finished jobs → 409 finished,
// jobs evicted from the ring of retired jobs → 410 evicted (their traces
// → 410 trace_evicted), a draining manager → 503 draining, everything
// else → 500 internal.
func errorFor(err error) (int, apiError) {
	body := apiError{Code: "internal", Message: err.Error()}
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, jobs.ErrBadRequest):
		code, body.Code = http.StatusBadRequest, "bad_request"
	case errors.Is(err, jobs.ErrQueueFull):
		code, body.Code = http.StatusTooManyRequests, "queue_full"
		body.RetryAfter = 1
	case errors.Is(err, jobs.ErrNotFound):
		code, body.Code = http.StatusNotFound, "not_found"
	case errors.Is(err, jobs.ErrFinished):
		code, body.Code = http.StatusConflict, "finished"
	case errors.Is(err, jobs.ErrEvicted):
		code, body.Code = http.StatusGone, "evicted"
	case errors.Is(err, jobs.ErrTraceEvicted):
		code, body.Code = http.StatusGone, "trace_evicted"
	case errors.Is(err, jobs.ErrClosed):
		code, body.Code = http.StatusServiceUnavailable, "draining"
		body.RetryAfter = 1
	}
	return code, body
}

// writeError renders a manager error as its apiError shape.
func (s *server) writeError(w http.ResponseWriter, err error) {
	code, body := errorFor(err)
	if body.Code == "queue_full" {
		w.Header().Set("Retry-After", "1")
		depth, capacity := s.mgr.QueueStats()
		body.QueueDepth, body.QueueCapacity = &depth, &capacity
	}
	writeJSON(w, code, body)
}

// withLinks fills a job view's navigation links, so clients follow URLs
// instead of assembling paths.
func withLinks(v jobs.View) jobs.View {
	base := "/v1/jobs/" + v.ID
	v.Links = &jobs.Links{
		Result: base + "/result",
		Trace:  base + "/trace",
		Stream: base + "/result?stream=rows",
	}
	return v
}

// submit handles POST /v1/jobs.
func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req jobs.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Code: "bad_request", Message: fmt.Sprintf("decode request: %v", err)})
		return
	}
	v, err := s.mgr.SubmitCtx(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+v.ID)
	writeJSON(w, http.StatusCreated, withLinks(v))
}

// list handles GET /v1/jobs.
func (s *server) list(w http.ResponseWriter, r *http.Request) {
	views := s.mgr.List()
	for i := range views {
		views[i] = withLinks(views[i])
	}
	writeJSON(w, http.StatusOK, views)
}

// status handles GET /v1/jobs/{id}.
func (s *server) status(w http.ResponseWriter, r *http.Request) {
	v, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, withLinks(v))
}

// result handles GET /v1/jobs/{id}/result: 200 with the payload once the
// job is done, 202 with the job view while it is queued or running, 409
// when it finished without a result (failed or cancelled). With
// ?stream=rows the response is instead a chunked NDJSON stream of the
// matrix rows and the payload once the job is done (see streamRows).
func (s *server) result(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("stream") == "rows" {
		s.streamRows(w, r)
		return
	}
	payload, v, err := s.mgr.Result(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	switch {
	case v.State == jobs.StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(payload); err != nil {
			srvlog.Warn("write result", "job", v.ID, "err", err)
		}
	case v.State.Terminal():
		writeJSON(w, http.StatusConflict, apiError{Code: "finished", Message: fmt.Sprintf("job %s %s: %s", v.ID, v.State, v.Err)})
	default:
		writeJSON(w, http.StatusAccepted, withLinks(v))
	}
}

// streamEvent is one NDJSON line of the row stream: a matrix row, the
// final aggregate payload, or a terminal error — exactly one field set,
// discriminated by Type.
type streamEvent struct {
	Type   string          `json:"type"`
	Row    *jobs.RowEvent  `json:"row,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *apiError       `json:"error,omitempty"`
}

// streamRows handles GET /v1/jobs/{id}/result?stream=rows: a chunked
// application/x-ndjson stream. For a job still queued or running the
// headers go out when the stream opens. Once the job is done it emits one
// {"type":"row"} line per matrix row, read from the finished payload,
// then a final {"type":"result"} line whose payload is byte-identical to
// the non-streaming result (or {"type":"error"} when the job failed, was
// cancelled, was evicted before the result line, or left a malformed
// matrix payload). Live jobs, cache hits and retired jobs take the same
// path.
func (s *server) streamRows(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	done, _, err := s.mgr.Done(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	fl := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	select {
	case <-done: // finished already: the headers go out with the first line
	default:
		if fl.Flush() != nil {
			return
		}
		select {
		case <-done:
		case <-r.Context().Done():
			return
		}
	}
	// Every line is in hand once the job is done: one flush sends them.
	defer fl.Flush()
	enc := json.NewEncoder(w)
	emit := func(ev streamEvent) bool {
		return enc.Encode(ev) == nil // false: the client went away
	}
	payload, v, err := s.mgr.Result(id)
	if err != nil {
		_, body := errorFor(err)
		emit(streamEvent{Type: "error", Error: &body})
		return
	}
	if v.State != jobs.StateDone {
		emit(streamEvent{Type: "error", Error: &apiError{Code: "finished", Message: fmt.Sprintf("job %s %s: %s", v.ID, v.State, v.Err)}})
		return
	}
	if v.Kind == jobs.KindMatrix {
		rows, err := payloadRows(payload)
		if err != nil {
			emit(streamEvent{Type: "error", Error: &apiError{Code: "internal", Message: fmt.Sprintf("job %s: %v", v.ID, err)}})
			return
		}
		for i := range rows {
			if !emit(streamEvent{Type: "row", Row: &rows[i]}) {
				return
			}
		}
	}
	emit(streamEvent{Type: "result", Result: payload})
}

// payloadRows reads a matrix job's row events from its payload, decoding
// only the fields the rows carry (jobs.MatrixResult's configs, det and
// omega). Stored payloads are untrusted input, so one that does not
// decode, or whose det or omega rows do not match its configurations, is
// an error.
func payloadRows(payload json.RawMessage) ([]jobs.RowEvent, error) {
	var mx struct {
		Configs []string    `json:"configs"`
		Det     [][]bool    `json:"det"`
		Omega   [][]float64 `json:"omega"`
	}
	if err := json.Unmarshal(payload, &mx); err != nil {
		return nil, fmt.Errorf("malformed matrix payload: %w", err)
	}
	if len(mx.Det) != len(mx.Configs) || len(mx.Omega) != len(mx.Configs) {
		return nil, fmt.Errorf("malformed matrix payload: %d configurations, %d det rows, %d omega rows",
			len(mx.Configs), len(mx.Det), len(mx.Omega))
	}
	rows := make([]jobs.RowEvent, len(mx.Configs))
	for i, cfg := range mx.Configs {
		rows[i] = jobs.RowEvent{Index: i, Config: cfg, Det: mx.Det[i], Omega: mx.Omega[i]}
	}
	return rows, nil
}

// cancel handles DELETE /v1/jobs/{id}.
func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	v, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, withLinks(v))
}

// benches handles GET /v1/benches.
func (s *server) benches(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, jobs.BenchNames())
}

// metrics handles GET /metrics in the Prometheus text format, followed by
// the slow-solve exemplar comments that link latency outliers to traces.
func (s *server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := obs.Reg().WritePrometheus(w); err != nil {
		srvlog.Warn("write metrics", "err", err)
		return
	}
	if err := obs.WriteExemplarComments(w); err != nil {
		srvlog.Warn("write exemplars", "err", err)
	}
}

// healthBody is the structured /healthz snapshot.
type healthBody struct {
	OK            bool            `json:"ok"`
	GoVersion     string          `json:"go_version"`
	Revision      string          `json:"revision,omitempty"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Workers       int             `json:"workers"`
	QueueDepth    int             `json:"queue_depth"`
	QueueCapacity int             `json:"queue_capacity"`
	CacheEntries  int             `json:"cache_entries"`
	Store         jobs.StoreStats `json:"store"`
}

// healthz handles GET /healthz. It stays a plain-200 liveness probe — the
// snapshot is assembled from in-memory counters, nothing here can block
// or fail, and the status code never degrades.
func (s *server) healthz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.mgr.QueueStats()
	store := s.mgr.StoreStats()
	writeJSON(w, http.StatusOK, healthBody{
		OK:            true,
		GoVersion:     buildGoVersion,
		Revision:      buildRevision,
		UptimeSeconds: obs.Since(s.started).Seconds(),
		Workers:       s.mgr.Config().Workers,
		QueueDepth:    depth,
		QueueCapacity: capacity,
		CacheEntries:  store.Entries,
		Store:         store,
	})
}
