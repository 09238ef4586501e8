package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"analogdft/internal/jobs"
	"analogdft/internal/obs"
)

// TestServerJobLinks pins the navigation contract: every single-job view
// carries a stable links object pointing at the job's resources.
func TestServerJobLinks(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	check := func(where string, v jobs.View) {
		t.Helper()
		base := "/v1/jobs/" + v.ID
		if v.Links == nil {
			t.Fatalf("%s: view has no links", where)
		}
		if v.Links.Result != base+"/result" || v.Links.Trace != base+"/trace" || v.Links.Stream != base+"/result?stream=rows" {
			t.Errorf("%s: links = %+v", where, v.Links)
		}
	}
	check("submit", v)
	var sv jobs.View
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID, nil, &sv); resp.StatusCode != http.StatusOK {
		t.Fatalf("status: HTTP %d", resp.StatusCode)
	}
	check("status", sv)
	pollTerminal(t, ts.URL, v.ID, 30*time.Second)

	// The links resolve: the result URL serves the payload.
	var result jobs.MatrixResult
	if resp := doJSON(t, http.MethodGet, ts.URL+sv.Links.Result, nil, &result); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET links.result: HTTP %d", resp.StatusCode)
	}
	if len(result.Configs) == 0 {
		t.Error("links.result served a degenerate payload")
	}
}

// readStream consumes an NDJSON row stream to completion and returns the
// row events and the raw final result line (nil if the stream ended with
// an error event, which is returned third).
func readStream(t *testing.T, url string) ([]jobs.RowEvent, json.RawMessage, *apiError) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var rows []jobs.RowEvent
	var result json.RawMessage
	var streamErr *apiError
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "row":
			if result != nil || streamErr != nil {
				t.Fatal("row event after the terminal event")
			}
			rows = append(rows, *ev.Row)
		case "result":
			result = ev.Result
		case "error":
			streamErr = ev.Error
		default:
			t.Fatalf("unknown stream event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if result == nil && streamErr == nil {
		t.Fatal("stream ended without a terminal event")
	}
	return rows, result, streamErr
}

// TestServerStreamRows is the streaming acceptance test: the row stream
// of a matrix job delivers every row exactly once and finishes with an
// aggregate byte-identical to the non-streaming result.
func TestServerStreamRows(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	// Open the stream while the job runs: rows arrive once it is done.
	rows, result, streamErr := readStream(t, ts.URL+"/v1/jobs/"+v.ID+"/result?stream=rows")
	if streamErr != nil {
		t.Fatalf("stream error: %+v", streamErr)
	}
	var mx jobs.MatrixResult
	if err := json.Unmarshal(result, &mx); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(mx.Configs) {
		t.Fatalf("stream delivered %d rows, matrix has %d", len(rows), len(mx.Configs))
	}
	seen := make(map[int]bool)
	for _, r := range rows {
		if seen[r.Index] {
			t.Fatalf("row %d streamed twice", r.Index)
		}
		seen[r.Index] = true
		if r.Config != mx.Configs[r.Index] {
			t.Errorf("row %d config %q, aggregate says %q", r.Index, r.Config, mx.Configs[r.Index])
		}
	}
	// The final aggregate is the non-streaming payload, byte for byte.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var direct json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}
	if string(direct) != string(result) {
		t.Error("streamed aggregate differs from GET /result payload")
	}
}

// TestServerStreamCachedJob: a cache-hit job streams its rows from the
// stored payload, in order, one per configuration.
func TestServerStreamCachedJob(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	pollTerminal(t, ts.URL, v.ID, 30*time.Second)
	var v2 jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit: HTTP %d", resp.StatusCode)
	}
	if !v2.Cached {
		t.Fatal("resubmit missed the cache")
	}
	rows, result, streamErr := readStream(t, ts.URL+"/v1/jobs/"+v2.ID+"/result?stream=rows")
	if streamErr != nil {
		t.Fatalf("stream error: %+v", streamErr)
	}
	var mx jobs.MatrixResult
	if err := json.Unmarshal(result, &mx); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(mx.Configs) || len(rows) == 0 {
		t.Fatalf("cached stream delivered %d rows, matrix has %d", len(rows), len(mx.Configs))
	}
	for i, r := range rows {
		if r.Index != i || r.Config != mx.Configs[i] {
			t.Fatalf("synthesized row %d = {%d %q}", i, r.Index, r.Config)
		}
	}
}

// streamBody reads a whole row stream as raw bytes.
func streamBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServerStreamLiveMatchesCached: the stream of a freshly computed
// matrix job and the stream of its cache hit are the same bytes, row
// lines and result line alike.
func TestServerStreamLiveMatchesCached(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	live := streamBody(t, ts.URL+"/v1/jobs/"+v.ID+"/result?stream=rows")
	var v2 jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("resubmit: HTTP %d", resp.StatusCode)
	}
	if !v2.Cached {
		t.Fatal("resubmit missed the cache")
	}
	cached := streamBody(t, ts.URL+"/v1/jobs/"+v2.ID+"/result?stream=rows")
	if lines := bytes.Count(live, []byte("\n")); lines < 2 {
		t.Fatalf("live stream has %d lines: %s", lines, live)
	}
	if !bytes.Equal(live, cached) {
		t.Errorf("live and cached streams differ:\nlive:   %s\ncached: %s", live, cached)
	}
}

// flushCounter is a ResponseWriter that counts Flush calls and closes
// first on the first one.
type flushCounter struct {
	*httptest.ResponseRecorder
	first   chan struct{}
	flushes int
}

func (w *flushCounter) Flush() {
	if w.flushes == 0 {
		close(w.first)
	}
	w.flushes++
	w.ResponseRecorder.Flush()
}

// TestServerStreamFlushes: a finished matrix job's stream goes out in
// one flushed write, however many rows it has; a live job's stream
// flushes its headers when it opens and its lines once the job is done.
// Both send the same bytes.
func TestServerStreamFlushes(t *testing.T) {
	req := jobs.Request{Kind: jobs.KindMatrix, Bench: "paper-biquad", Options: jobs.OptionSpec{Points: 31}}
	stream := func(mgr *jobs.Manager, id string) (*flushCounter, <-chan struct{}) {
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder(), first: make(chan struct{})}
		done := make(chan struct{})
		go func() {
			defer close(done)
			newServer(mgr).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/result?stream=rows", nil))
		}()
		return w, done
	}

	ts, mgr := startServer(t, jobs.Config{Workers: 1})
	v, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	pollTerminal(t, ts.URL, v.ID, 30*time.Second)
	finished, done := stream(mgr, v.ID)
	<-done
	if lines := bytes.Count(finished.Body.Bytes(), []byte("\n")); lines < 2 {
		t.Fatalf("finished stream has %d lines: %s", lines, finished.Body)
	}
	if finished.flushes != 1 {
		t.Errorf("finished stream flushed %d times, want 1", finished.flushes)
	}
	payload, _, err := mgr.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	_, liveMgr := startServer(t, jobs.Config{Workers: 1}, jobs.WithRunner(jobs.RunnerFunc(func(ctx context.Context, res *jobs.Resolved) (json.RawMessage, error) {
		select {
		case <-release:
			return payload, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})))
	lv, err := liveMgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	live, done := stream(liveMgr, lv.ID)
	<-live.first // the headers are out while the job runs
	close(release)
	<-done
	if live.flushes != 2 {
		t.Errorf("live stream flushed %d times, want 2", live.flushes)
	}
	if !bytes.Equal(live.Body.Bytes(), finished.Body.Bytes()) {
		t.Errorf("live and finished streams differ:\nlive:     %s\nfinished: %s", live.Body, finished.Body)
	}
}

// TestServerStreamMalformedPayload: a stored matrix payload whose rows
// do not match its configurations, or that is not JSON at all, ends the
// stream with an internal error event instead of a panic or a silent
// stream without rows.
func TestServerStreamMalformedPayload(t *testing.T) {
	res, err := jobs.Request{Kind: jobs.KindMatrix, Bench: "paper-biquad", Options: jobs.OptionSpec{Points: 31}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string]string{
		"short-rows":  `{"configs":["C0"]}`,
		"short-omega": `{"configs":["C0","C1"],"det":[[true],[false]],"omega":[[1]]}`,
		"not-json":    `{"configs":`,
	} {
		t.Run(name, func(t *testing.T) {
			store := jobs.NewMemStore(4)
			store.Put(res.Key, json.RawMessage(payload))
			ts, _ := startServer(t, jobs.Config{Workers: 1}, jobs.WithStore(store))
			var v jobs.View
			if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", smallMatrixJob(), &v); resp.StatusCode != http.StatusCreated {
				t.Fatalf("submit: HTTP %d", resp.StatusCode)
			}
			if !v.Cached {
				t.Fatal("submit missed the stored payload")
			}
			rows, result, streamErr := readStream(t, ts.URL+"/v1/jobs/"+v.ID+"/result?stream=rows")
			if len(rows) != 0 || result != nil || streamErr == nil || streamErr.Code != "internal" {
				t.Fatalf("stream: rows=%d result=%v err=%+v, want one internal error", len(rows), result != nil, streamErr)
			}
		})
	}
}

// TestServerStreamErrors: unknown jobs fail with the plain apiError shape
// before the stream starts; a cancelled job's stream terminates with an
// error event.
func TestServerStreamErrors(t *testing.T) {
	ts, _ := startServer(t, jobs.Config{Workers: 1})
	var ae apiError
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-999/result?stream=rows", nil, &ae); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream: HTTP %d, want 404", resp.StatusCode)
	}
	if ae.Code != "not_found" {
		t.Errorf("404 code = %q", ae.Code)
	}

	big := map[string]any{
		"kind":    "matrix",
		"bench":   "paper-biquad",
		"options": map[string]any{"points": 20001},
	}
	var v jobs.View
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", big, &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil, &jobs.View{}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: HTTP %d", resp.StatusCode)
	}
	pollTerminal(t, ts.URL, v.ID, 30*time.Second)
	rows, result, streamErr := readStream(t, ts.URL+"/v1/jobs/"+v.ID+"/result?stream=rows")
	if result != nil || streamErr == nil || streamErr.Code != "finished" {
		t.Fatalf("cancelled job stream: rows=%d result=%v err=%+v", len(rows), result != nil, streamErr)
	}
}

// TestServerTwoReplicasSharedStore is the distributed acceptance test:
// two in-process replicas share one fsstore directory; the second serves
// the first's result as a cache hit without touching the engine.
func TestServerTwoReplicasSharedStore(t *testing.T) {
	dir := t.TempDir()
	newStore := func() jobs.Store {
		st, err := jobs.NewFSStore(dir, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	tsA, _ := startServer(t, jobs.Config{Workers: 1}, jobs.WithStore(newStore()))
	tsB, _ := startServer(t, jobs.Config{Workers: 1}, jobs.WithStore(newStore()))

	var v jobs.View
	if resp := doJSON(t, http.MethodPost, tsA.URL+"/v1/jobs", smallMatrixJob(), &v); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit to A: HTTP %d", resp.StatusCode)
	}
	done := pollTerminal(t, tsA.URL, v.ID, 30*time.Second)
	if done.State != jobs.StateDone {
		t.Fatalf("job on A finished %s: %s", done.State, done.Err)
	}

	mid := obs.Reg().Snapshot()
	var v2 jobs.View
	if resp := doJSON(t, http.MethodPost, tsB.URL+"/v1/jobs", smallMatrixJob(), &v2); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit to B: HTTP %d", resp.StatusCode)
	}
	if !v2.Cached || v2.State != jobs.StateDone {
		t.Fatalf("replica B: cached=%v state=%s, want cached done", v2.Cached, v2.State)
	}
	after := obs.Reg().Snapshot()
	if d := after["jobs_cache_hits_total"].Value - mid["jobs_cache_hits_total"].Value; d != 1 {
		t.Errorf("cache hits delta = %g, want 1", d)
	}
	if d := after["detect_solves_total"].Value - mid["detect_solves_total"].Value; d != 0 {
		t.Errorf("replica B simulated anyway: %g new solves", d)
	}

	// Both replicas serve byte-identical payloads.
	var ra, rb json.RawMessage
	if resp := doJSON(t, http.MethodGet, tsA.URL+"/v1/jobs/"+v.ID+"/result", nil, &ra); resp.StatusCode != http.StatusOK {
		t.Fatalf("result from A: HTTP %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, tsB.URL+"/v1/jobs/"+v2.ID+"/result", nil, &rb); resp.StatusCode != http.StatusOK {
		t.Fatalf("result from B: HTTP %d", resp.StatusCode)
	}
	if string(ra) != string(rb) {
		t.Error("replicas disagree on the shared payload")
	}

	// The health snapshot reports the disk store.
	var health healthBody
	if resp := doJSON(t, http.MethodGet, tsB.URL+"/healthz", nil, &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	if health.Store.Kind != "fs" || health.Store.Path != dir || health.Store.Entries == 0 {
		t.Errorf("healthz store = %+v", health.Store)
	}
}
