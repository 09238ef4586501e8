package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"analogdft/internal/jobs"
	"analogdft/internal/obs"
)

// clientTraceparent is a fixed W3C trace-context header: trace ID
// 4bf92f3577b34da6a3ce929d0e0e4736, caller span 00f067aa0ba902b7, sampled.
const clientTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// withTiming enables latency collection (and with it the schedule-level
// spans: per-chunk cell solves, enqueue waits) for one test.
func withTiming(t *testing.T) {
	t.Helper()
	prev := obs.TimingOn()
	obs.Default().SetTiming(true)
	t.Cleanup(func() { obs.Default().SetTiming(prev) })
}

// findNode returns the first node named name in a depth-first walk.
func findNode(node *obs.SpanNode, name string) *obs.SpanNode {
	if node == nil {
		return nil
	}
	if node.Name == name {
		return node
	}
	for _, c := range node.Children {
		if n := findNode(c, name); n != nil {
			return n
		}
	}
	return nil
}

// TestServerTraceEndToEnd is the acceptance e2e of the tracing layer: a
// matrix job submitted under a client traceparent yields, on
// GET /v1/jobs/{id}/trace, a span tree covering enqueue wait → cache
// lookup → worker pickup → nominal sweep → cell-solve chunks, all under
// the client's trace ID.
func TestServerTraceEndToEnd(t *testing.T) {
	withTiming(t)
	ts, _ := startServer(t, jobs.Config{Workers: 1})

	raw, err := json.Marshal(smallMatrixJob())
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", clientTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("traceparent"); got != clientTraceparent {
		t.Errorf("response traceparent = %q, want the inbound identity echoed", got)
	}
	var v jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("job view trace id = %q, inbound ID not propagated", v.TraceID)
	}
	done := pollTerminal(t, ts.URL, v.ID, 30*time.Second)
	if done.State != jobs.StateDone {
		t.Fatalf("job state = %s (err %q)", done.State, done.Err)
	}

	var jt jobs.JobTrace
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/trace", nil, &jt); resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: HTTP %d", resp.StatusCode)
	}
	if jt.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || jt.Parent != "00f067aa0ba902b7" {
		t.Fatalf("trace identity = %s parent %s, inbound header not carried end to end", jt.TraceID, jt.Parent)
	}
	if jt.Trace == nil || len(jt.Trace.Spans) != 1 {
		t.Fatalf("trace tree = %+v", jt.Trace)
	}
	root := jt.Trace.Spans[0]
	if root.Name != "job" || root.Tags["trace_id"] != jt.TraceID {
		t.Fatalf("root span = %+v", root)
	}
	// The full request-to-solve path: queue wait and cache lookup at the
	// job layer, worker pickup (jobs.run), and the engine's chunked cell
	// solves with one detect.config span per configuration row.
	for _, name := range []string{"jobs.enqueue_wait", "jobs.cache_lookup", "jobs.run", "detect.config", "detect.cells", "detect.chunk"} {
		if findNode(root, name) == nil {
			t.Errorf("span %q missing from the job trace", name)
		}
	}
	if run := findNode(root, "jobs.run"); run != nil && findNode(run, "detect.chunk") == nil {
		t.Error("cell-solve chunks not nested under the worker's run span")
	}

	// The debug listing knows the job, newest first, without span trees.
	var sums []jobs.JobTrace
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/traces", nil, &sums); resp.StatusCode != http.StatusOK {
		t.Fatalf("debug traces: HTTP %d", resp.StatusCode)
	}
	found := false
	for _, s := range sums {
		if s.JobID == v.ID {
			found = true
			if s.Trace != nil {
				t.Error("trace summary carries a span tree")
			}
		}
	}
	if !found {
		t.Errorf("job %s missing from /v1/debug/traces", v.ID)
	}
}

// TestServerTraceErrors covers the 404/410 mappings of the trace endpoint.
func TestServerTraceErrors(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1, TraceEntries: 1})
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999/trace", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: HTTP %d, want 404", resp.StatusCode)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		job := smallMatrixJob()
		job["options"] = map[string]any{"points": 11 + i}
		var v jobs.View
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", job, &v); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		pollTerminal(t, ts.URL, v.ID, 30*time.Second)
		ids = append(ids, v.ID)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[0]+"/trace", nil, nil); resp.StatusCode != http.StatusGone {
		t.Errorf("evicted trace: HTTP %d, want 410", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[1]+"/trace", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("retained trace: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestServerQueueFullBody: the 429 body names the queue occupancy so
// clients can back off proportionally.
func TestServerQueueFullBody(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1, QueueDepth: 1})
	big := func(points int) map[string]any {
		return map[string]any{
			"kind":    "matrix",
			"bench":   "paper-biquad",
			"options": map[string]any{"points": points},
		}
	}
	var ids []string
	for i := 0; i < 2; i++ {
		var v jobs.View
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", big(20001+i), &v); resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		ids = append(ids, v.ID)
	}
	var eb apiError
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", big(20003), &eb); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: HTTP %d, want 429", resp.StatusCode)
	}
	if eb.QueueDepth == nil || *eb.QueueDepth != 1 {
		t.Errorf("429 queue_depth = %v, want 1", eb.QueueDepth)
	}
	if eb.QueueCapacity == nil || *eb.QueueCapacity != 1 {
		t.Errorf("429 queue_capacity = %v, want 1", eb.QueueCapacity)
	}
	for _, id := range ids {
		doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil, &jobs.View{})
	}
	for _, id := range ids {
		pollTerminal(t, ts.URL, id, 30*time.Second)
	}
}

// TestServerHealthzSnapshot: the liveness endpoint answers 200 with the
// structured build/queue/cache snapshot.
func TestServerHealthzSnapshot(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 3})
	var h healthBody
	if resp := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &h); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	if !h.OK || h.Workers != 3 || h.GoVersion == "" {
		t.Errorf("healthz body = %+v", h)
	}
	if h.QueueCapacity == 0 {
		t.Error("healthz missing queue capacity")
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %g", h.UptimeSeconds)
	}
}

// TestServerSLOEndpoint: after a handful of requests the SLO snapshot has
// traffic, latency quantiles and an intact error budget; /metrics carries
// the matching summary series.
func TestServerSLOEndpoint(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	for i := 0; i < 5; i++ {
		doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil)
	}
	var body sloBody
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/debug/slo", nil, &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("slo: HTTP %d", resp.StatusCode)
	}
	if body.Requests < 5 || body.Target <= 0 || body.Target >= 1 {
		t.Errorf("slo body = %+v", body)
	}
	if body.LatencyP50 == nil || body.LatencyP99 == nil {
		t.Errorf("slo quantiles missing: %+v", body)
	}
	if body.ErrorBudgetRemaining > 1 {
		t.Errorf("error budget remaining = %g > 1", body.ErrorBudgetRemaining)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		`dftserved_http_request_seconds{quantile="0.5"}`,
		`dftserved_http_request_seconds{quantile="0.99"}`,
		"dftserved_slo_error_budget_remaining",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Errorf("metrics exposition missing %s:\n%.2000s", series, text)
		}
	}
}
