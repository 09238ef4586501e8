package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"analogdft/internal/jobs"
)

// stubOK finishes every job at once with an empty payload.
var stubOK = jobs.WithRunner(jobs.RunnerFunc(func(ctx context.Context, res *jobs.Resolved) (json.RawMessage, error) {
	return json.RawMessage(`{}`), nil
}))

// awaitEvicted polls the manager until id has aged out of the ring,
// that is until a later job has run and retired after it.
func awaitEvicted(t *testing.T, mgr *jobs.Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := mgr.Get(id); errors.Is(err, jobs.ErrEvicted) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never evicted", id)
}

// TestServerEvictedJob pins the HTTP contract of eviction: a job that has
// aged out of the ring answers 410 `evicted` on every job endpoint (410
// `trace_evicted` on its trace), while a never-issued ID stays 404.
func TestServerEvictedJob(t *testing.T) {
	ts, mgr := startServer(t, jobs.Config{Workers: 1, TraceEntries: 1}, stubOK)
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
	awaitEvicted(t, mgr, ids[0])

	check := func(method, path string, wantCode int, want string) {
		t.Helper()
		var ae apiError
		resp := doJSON(t, method, ts.URL+path, nil, &ae)
		if resp.StatusCode != wantCode || ae.Code != want {
			t.Errorf("%s %s: HTTP %d %q, want %d %q", method, path, resp.StatusCode, ae.Code, wantCode, want)
		}
	}
	old := "/v1/jobs/" + ids[0]
	check(http.MethodGet, old, http.StatusGone, "evicted")
	check(http.MethodGet, old+"/result", http.StatusGone, "evicted")
	check(http.MethodGet, old+"/result?stream=rows", http.StatusGone, "evicted")
	check(http.MethodDelete, old, http.StatusGone, "evicted")
	check(http.MethodGet, old+"/trace", http.StatusGone, "trace_evicted")
	for _, path := range []string{"/v1/jobs/job-999", "/v1/jobs/job-999/result", "/v1/jobs/job-999/result?stream=rows"} {
		check(http.MethodGet, path, http.StatusNotFound, "not_found")
	}

	// The retained job still answers in full.
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+ids[1]+"/result", nil, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("retained result: HTTP %d", resp.StatusCode)
	}
	var list []jobs.View
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list)
	if len(list) != 1 || list[0].ID != ids[1] {
		t.Errorf("list = %+v, want only %s", list, ids[1])
	}
}

// gatedWriter is a ResponseWriter whose first Flush blocks until gate is
// closed, freezing a stream handler right after it sends its headers.
type gatedWriter struct {
	*httptest.ResponseRecorder
	entered chan struct{} // closed once the first Flush is waiting
	gate    chan struct{}
	once    sync.Once
}

func (w *gatedWriter) Flush() {
	w.once.Do(func() {
		close(w.entered)
		<-w.gate
	})
	w.ResponseRecorder.Flush()
}

// TestServerStreamEvictedBeforeResult: a stream opened on a live job
// whose record is evicted before the result is read ends with a single
// error event carrying the `evicted` code, and no row.
func TestServerStreamEvictedBeforeResult(t *testing.T) {
	finish := make(chan struct{})
	mgr := jobs.New(jobs.WithConfig(jobs.Config{Workers: 1, TraceEntries: 1}),
		jobs.WithRunner(jobs.RunnerFunc(func(ctx context.Context, res *jobs.Resolved) (json.RawMessage, error) {
			if res.Options.Points == 11 { // the streamed job
				<-finish
			}
			return json.RawMessage(`{}`), nil
		})))
	t.Cleanup(func() {
		if err := mgr.Close(context.Background()); err != nil {
			t.Errorf("manager close: %v", err)
		}
	})
	submit := func(points int) jobs.View {
		t.Helper()
		v, err := mgr.Submit(jobs.Request{Kind: jobs.KindMatrix, Bench: "paper-biquad", Options: jobs.OptionSpec{Points: points}})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	streamed := submit(11)
	w := &gatedWriter{ResponseRecorder: httptest.NewRecorder(), entered: make(chan struct{}), gate: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		newServer(mgr).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+streamed.ID+"/result?stream=rows", nil))
	}()
	<-w.entered // the headers are out; the handler has not read the job yet
	close(finish)
	submit(12) // runs after the streamed job, so it retires after it
	awaitEvicted(t, mgr, streamed.ID)
	close(w.gate)
	<-done

	var events []streamEvent
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 1 {
		t.Fatalf("stream events = %+v, want one terminal event", events)
	}
	if ev := events[0]; ev.Type != "error" || ev.Error == nil || ev.Error.Code != "evicted" {
		t.Fatalf("terminal event = %+v, want an error with code evicted", ev)
	}
}
