package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"analogdft/internal/jobs"
	"analogdft/internal/obs"
)

// startServer boots the handler over a real manager and tears both down
// with the test. Extra options (WithStore, WithRunner, …) layer on top of
// the config.
func startServer(t *testing.T, cfg jobs.Config, extra ...jobs.Option) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr := jobs.New(append([]jobs.Option{jobs.WithConfig(cfg)}, extra...)...)
	ts := httptest.NewServer(newServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := mgr.Close(ctx); err != nil {
			t.Errorf("manager close: %v", err)
		}
	})
	return ts, mgr
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// pollTerminal polls the status endpoint until the job finishes.
func pollTerminal(t *testing.T, base, id string, timeout time.Duration) jobs.View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var v jobs.View
		resp := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll: HTTP %d", resp.StatusCode)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return jobs.View{}
}

// smallMatrixJob is the paper-biquad matrix request the smoke path uses:
// few sweep points so it simulates in well under a second.
func smallMatrixJob() map[string]any {
	return map[string]any{
		"kind":    "matrix",
		"bench":   "paper-biquad",
		"options": map[string]any{"points": 31},
	}
}

// TestServerMatrixCacheRoundTrip is the headline e2e: a paper-biquad
// matrix job runs once; the identical resubmission is served from the
// cache — hit counter up by one, zero new engine solves.
func TestServerMatrixCacheRoundTrip(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	before := obs.Reg().Snapshot()

	var v jobs.View
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Errorf("Location = %q", loc)
	}
	done := pollTerminal(t, ts.URL, v.ID, 30*time.Second)
	if done.State != jobs.StateDone {
		t.Fatalf("job state = %s (err %q), want done", done.State, done.Err)
	}

	var result jobs.MatrixResult
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", nil, &result)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	if len(result.Configs) == 0 || len(result.Faults) == 0 || result.Stats.Solves == 0 {
		t.Fatalf("degenerate result: %+v", result)
	}

	mid := obs.Reg().Snapshot()
	if d := mid["detect_solves_total"].Value - before["detect_solves_total"].Value; d == 0 {
		t.Fatal("first run did not reach the engine")
	}

	// Identical resubmission: answered from the cache, no simulation.
	var v2 jobs.View
	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v2)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit: HTTP %d", resp.StatusCode)
	}
	if !v2.Cached || v2.State != jobs.StateDone {
		t.Fatalf("resubmit: cached=%v state=%s, want cached done", v2.Cached, v2.State)
	}
	var result2 jobs.MatrixResult
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v2.ID+"/result", nil, &result2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached result: HTTP %d", resp.StatusCode)
	}
	if result2.Coverage != result.Coverage || result2.Stats.Solves != result.Stats.Solves {
		t.Errorf("cached result differs: %+v vs %+v", result2, result)
	}

	after := obs.Reg().Snapshot()
	if d := after["jobs_cache_hits_total"].Value - mid["jobs_cache_hits_total"].Value; d != 1 {
		t.Errorf("cache hits delta = %g, want 1", d)
	}
	if d := after["detect_solves_total"].Value - mid["detect_solves_total"].Value; d != 0 {
		t.Errorf("cache hit triggered %g new solves", d)
	}
}

// TestServerCancelInFlight: DELETE on a running job stops the simulation
// within a cell boundary and the job lands in canceled.
func TestServerCancelInFlight(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	// A deliberately heavy sweep so the job is still mid-matrix when the
	// cancel arrives.
	big := map[string]any{
		"kind":    "matrix",
		"bench":   "paper-biquad",
		"options": map[string]any{"points": 20001},
	}
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", big, &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Wait until the worker picks it up, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var s jobs.View
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID, nil, &s)
		if s.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	var cv jobs.View
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, &cv); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	done := pollTerminal(t, ts.URL, v.ID, 30*time.Second)
	if done.State != jobs.StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", done.State)
	}
	// The result endpoint reports the abort, not a payload.
	var ae apiError
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", nil, &ae); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of cancelled job: HTTP %d, want 409", resp.StatusCode)
	}
	if ae.Code != "finished" {
		t.Errorf("409 code = %q, want finished", ae.Code)
	}
}

// TestServerBackpressure: with one worker and a one-slot queue, the third
// concurrent job bounces with 429 and a Retry-After header.
func TestServerBackpressure(t *testing.T) {
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
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", big(20003), &eb)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if eb.Code != "queue_full" || eb.RetryAfter != 1 || eb.QueueDepth == nil || eb.QueueCapacity == nil {
		t.Errorf("429 body = %+v, want queue_full with occupancy", eb)
	}
	// Cancel the backlog so teardown stays fast.
	for _, id := range ids {
		doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil, &jobs.View{})
	}
	for _, id := range ids {
		pollTerminal(t, ts.URL, id, 30*time.Second)
	}
}

// TestServerValidationAndLookup covers the 400/404/405 mappings.
func TestServerValidationAndLookup(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{http.MethodPost, "/v1/jobs", map[string]any{}, http.StatusBadRequest},                 // no kind
		{http.MethodPost, "/v1/jobs", map[string]any{"kind": "matrix"}, http.StatusBadRequest}, // no circuit
		{http.MethodPost, "/v1/jobs", map[string]any{"kind": "matrix", "bench": "nope"}, http.StatusBadRequest},
		{http.MethodPost, "/v1/jobs", map[string]any{"kind": "matrix", "bench": "paper-biquad", "bogus": 1}, http.StatusBadRequest}, // unknown field
		{http.MethodGet, "/v1/jobs/job-999", nil, http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/job-999/result", nil, http.StatusNotFound},
		{http.MethodDelete, "/v1/jobs/job-999", nil, http.StatusNotFound},
		{http.MethodPut, "/v1/jobs", nil, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		resp := doJSON(t, c.method, ts.URL+c.path, c.body, nil)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: HTTP %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestServerRejectsRetiredEngine: "naive" is no longer an engine a
// request can name; it maps to 400 bad_request like any unknown engine.
func TestServerRejectsRetiredEngine(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	body := map[string]any{"kind": "matrix", "bench": "paper-biquad", "options": map[string]any{"engine": "naive"}}
	var ae apiError
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &ae)
	if resp.StatusCode != http.StatusBadRequest || ae.Code != "bad_request" {
		t.Fatalf("HTTP %d code %q, want 400 bad_request", resp.StatusCode, ae.Code)
	}
	if !strings.Contains(ae.Message, `unknown engine mode "naive"`) {
		t.Errorf("message %q does not name the engine", ae.Message)
	}
}

// TestServerRejectsRetiredLayout: the matrix layout is no longer a
// request option (CSR is the only layout), so a submission naming one
// is an unknown field and maps to 400 bad_request for every value it
// used to accept.
func TestServerRejectsRetiredLayout(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	for _, layout := range []string{"auto", "dense", "sparse"} {
		body := map[string]any{"kind": "matrix", "bench": "paper-biquad", "options": map[string]any{"layout": layout}}
		var ae apiError
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", body, &ae)
		if resp.StatusCode != http.StatusBadRequest || ae.Code != "bad_request" {
			t.Fatalf("layout %q: HTTP %d code %q, want 400 bad_request", layout, resp.StatusCode, ae.Code)
		}
		if !strings.Contains(ae.Message, `"layout"`) {
			t.Errorf("layout %q: message %q does not name the field", layout, ae.Message)
		}
	}
}

// TestServerAuxEndpoints: benches, healthz and a non-empty Prometheus
// exposition that includes the job-layer series.
func TestServerAuxEndpoints(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})

	var benches []string
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/benches", nil, &benches); resp.StatusCode != http.StatusOK {
		t.Fatalf("benches: HTTP %d", resp.StatusCode)
	}
	found := false
	for _, b := range benches {
		if b == "paper-biquad" {
			found = true
		}
	}
	if !found {
		t.Errorf("benches %v missing paper-biquad", benches)
	}

	var health map[string]any
	if resp := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); resp.StatusCode != http.StatusOK || health["ok"] != true {
		t.Errorf("healthz: HTTP %d, body %v", resp.StatusCode, health)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if resp.StatusCode != http.StatusOK || len(text) == 0 {
		t.Fatalf("metrics: HTTP %d, %d bytes", resp.StatusCode, len(text))
	}
	for _, series := range []string{"jobs_cache_hits_total", "jobs_queue_depth", "dftserved_http_submit_seconds", "detect_solves_total"} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics exposition missing %s", series)
		}
	}
}

// TestServerListAndInlineDeck: an inline-deck evaluate job round-trips
// and shows up in the listing.
func TestServerListAndInlineDeck(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	deck := `* inverting amplifier
R1 in mid 1k
R2 mid out 2k
OA1 0 mid out
R3 out 0 10k
.input in
.output out
.chain OA1
.end
`
	req := map[string]any{
		"kind":    "evaluate",
		"deck":    deck,
		"options": map[string]any{"points": 21},
	}
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	done := pollTerminal(t, ts.URL, v.ID, 30*time.Second)
	if done.State != jobs.StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Err)
	}
	var result jobs.EvaluateResult
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", nil, &result); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	if len(result.Faults) == 0 {
		t.Error("evaluate result has no fault verdicts")
	}

	var list []jobs.View
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list: HTTP %d", resp.StatusCode)
	}
	seen := false
	for _, item := range list {
		if item.ID == v.ID {
			seen = true
		}
	}
	if !seen {
		t.Errorf("job %s missing from listing %v", v.ID, list)
	}
}

// TestServerOptimizeJob: the optimize kind returns a best candidate with
// full coverage on the paper biquad.
func TestServerOptimizeJob(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	req := map[string]any{
		"kind":    "optimize",
		"bench":   "paper-biquad",
		"cost":    "opamps",
		"options": map[string]any{"points": 31},
	}
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", req, &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	done := pollTerminal(t, ts.URL, v.ID, 60*time.Second)
	if done.State != jobs.StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Err)
	}
	var result jobs.OptimizeResult
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/result", nil, &result); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	if !strings.Contains(result.CostName, "opamp") || len(result.Best.Configs) == 0 {
		t.Errorf("unexpected optimize result: %+v", result)
	}
	if result.Stats.Solves == 0 {
		t.Error("optimize result carries no simulation stats")
	}
}

// TestServerDrainUnderLoad: closing the manager while a job runs lets it
// finish (graceful drain), and later submissions get 503.
func TestServerDrainUnderLoad(t *testing.T) {
	ts, mgr := startServer(t, jobs.Config{Workers: 1})
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := mgr.Close(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	done, err := mgr.Get(v.ID)
	if err != nil || done.State != jobs.StateDone {
		t.Fatalf("after drain: state=%s err=%v, want done", done.State, err)
	}
	var eb apiError
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &eb); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit after close: HTTP %d, want 503", resp.StatusCode)
	}
	if eb.Code != "draining" || eb.Message == "" {
		t.Errorf("503 body = %+v, want code draining", eb)
	}
}
