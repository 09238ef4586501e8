package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"analogdft/internal/obs"
)

const clientTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// submitTraced submits req under the given traceparent header value.
func submitTraced(t *testing.T, m *Manager, header string, req Request) View {
	t.Helper()
	ctx := context.Background()
	if header != "" {
		tc, err := obs.ParseTraceparent(header)
		if err != nil {
			t.Fatal(err)
		}
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	v, err := m.SubmitCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// spanNames collects the names of node's children.
func spanNames(node *obs.SpanNode) []string {
	out := make([]string, len(node.Children))
	for i, c := range node.Children {
		out[i] = c.Name
	}
	return out
}

// findChild returns the first child with the given name.
func findChild(node *obs.SpanNode, name string) *obs.SpanNode {
	for _, c := range node.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func TestJobTracePropagatesTraceparent(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		_, s := obs.Start(ctx, "detect.matrix")
		s.End()
		return json.RawMessage(`{"ok":true}`), nil
	})
	v := submitTraced(t, m, clientTraceparent, biquadRequest(t, 300))
	if v.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("view trace id = %s", v.TraceID)
	}
	awaitState(t, m, v.ID)

	jt, err := m.Trace(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jt.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s, inbound ID not propagated", jt.TraceID)
	}
	if jt.Parent != "00f067aa0ba902b7" {
		t.Errorf("parent span id = %s", jt.Parent)
	}
	if jt.State != StateDone || len(jt.Trace.Spans) != 1 {
		t.Fatalf("trace = %+v", jt)
	}
	root := jt.Trace.Spans[0]
	if root.Name != "job" || root.Tags["trace_id"] != jt.TraceID {
		t.Fatalf("root = %+v", root)
	}
	names := spanNames(root)
	for _, want := range []string{"jobs.cache_lookup", "jobs.enqueue_wait", "jobs.run"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing span %s in %v", want, names)
		}
	}
	if lookup := findChild(root, "jobs.cache_lookup"); lookup.Tags["hit"] != "false" {
		t.Errorf("cache_lookup = %+v", lookup)
	}
	run := findChild(root, "jobs.run")
	if run == nil || findChild(run, "detect.matrix") == nil {
		t.Errorf("engine span not nested under jobs.run: %+v", run)
	}
}

func TestJobTraceGeneratedIdentity(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		// The run context must carry the job's trace identity for
		// exemplar stamping.
		if obs.TraceFrom(ctx).IsZero() {
			t.Error("run context has no trace identity")
		}
		return json.RawMessage(`{}`), nil
	})
	v, err := m.Submit(biquadRequest(t, 310))
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID == "" || v.TraceID == strings.Repeat("0", 32) {
		t.Fatalf("generated trace id = %q", v.TraceID)
	}
	awaitState(t, m, v.ID)
	jt, err := m.Trace(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jt.Parent != "" {
		t.Errorf("generated identity has a parent span: %q", jt.Parent)
	}
}

func TestJobTraceCacheHit(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	req := biquadRequest(t, 320)
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, m, first.ID)
	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second submit missed the cache")
	}
	jt, err := m.Trace(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	root := jt.Trace.Spans[0]
	lookup := findChild(root, "jobs.cache_lookup")
	if lookup == nil || lookup.Tags["hit"] != "true" {
		t.Fatalf("cached trace = %+v", root)
	}
	if findChild(root, "jobs.run") != nil {
		t.Error("cached job has a run span")
	}
}

func TestJobTraceCanceledQueued(t *testing.T) {
	release := make(chan struct{})
	m := testManager(t, Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	defer close(release)
	blocker, err := m.Submit(biquadRequest(t, 330))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID)
	queued, err := m.Submit(biquadRequest(t, 331))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	jt, err := m.Trace(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jt.State != StateCanceled {
		t.Fatalf("state = %s", jt.State)
	}
	wait := findChild(jt.Trace.Spans[0], "jobs.enqueue_wait")
	if wait == nil || wait.Tags["canceled"] != "true" {
		t.Fatalf("wait span = %+v", wait)
	}
}

// TestCancelQueuedRetires: cancelling a queued job retires it before
// Cancel returns — out of the table, into the ring with its exported
// trace, whose queue-wait span is tagged as cancelled.
func TestCancelQueuedRetires(t *testing.T) {
	release := make(chan struct{})
	m := testManager(t, Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	defer close(release)
	blocker, err := m.Submit(biquadRequest(t, 335))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID)
	queued, err := m.Submit(biquadRequest(t, 336))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// No polling: Cancel's return must already imply retirement.
	m.mu.Lock()
	_, live := m.jobs[queued.ID]
	j, retired := m.traces.byID[queued.ID]
	m.mu.Unlock()
	if live || !retired || j.trace == nil {
		t.Fatalf("after Cancel: in table %v, in ring %v", live, retired)
	}
	if j.state != StateCanceled || j.trace.State != StateCanceled {
		t.Errorf("retired state = %s, trace state = %s, want canceled", j.state, j.trace.State)
	}
	root := j.trace.Trace.Spans[0]
	if root.Tags["state"] != string(StateCanceled) {
		t.Errorf("root span tags = %v, want state=canceled", root.Tags)
	}
	if wait := findChild(root, "jobs.enqueue_wait"); wait == nil || wait.Tags["canceled"] != "true" {
		t.Errorf("wait span = %+v, want canceled=true", wait)
	}
}

func TestTraceRingEviction(t *testing.T) {
	m := testManager(t, Config{Workers: 1, TraceEntries: 2}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := m.Submit(biquadRequest(t, 340+i))
		if err != nil {
			t.Fatal(err)
		}
		awaitState(t, m, v.ID)
		ids = append(ids, v.ID)
	}
	if _, err := m.Trace(ids[0]); !errors.Is(err, ErrTraceEvicted) {
		t.Fatalf("oldest trace err = %v, want ErrTraceEvicted", err)
	}
	for _, id := range ids[1:] {
		if _, err := m.Trace(id); err != nil {
			t.Fatalf("Trace(%s): %v", id, err)
		}
	}
	sums := m.TraceSummaries()
	if len(sums) != 2 || sums[0].JobID != ids[2] || sums[1].JobID != ids[1] {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Trace != nil {
		t.Error("summary carries a span tree")
	}
	if _, err := m.Trace("job-999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job err = %v", err)
	}
}

// TestCloseForceCancelDrainsTraceRetirement pins the shutdown contract:
// a slow job force-canceled at the drain deadline must still have its
// trace retired into the ring by the time Close returns, so a trace read
// racing shutdown sees the retained export, never a gap.
func TestCloseForceCancelDrainsTraceRetirement(t *testing.T) {
	m := New(WithConfig(Config{Workers: 1}), WithRunner(RunnerFunc(func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		<-ctx.Done() // slow job: only the forced cancel ends it
		return nil, ctx.Err()
	})))
	v, err := m.Submit(biquadRequest(t, 360))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close: err = %v, want deadline exceeded", err)
	}
	// No polling: Close's return must already imply full retirement.
	m.mu.Lock()
	_, retired := m.traces.byID[v.ID]
	m.mu.Unlock()
	if !retired {
		t.Fatal("trace not in the ring after forced Close")
	}
	jt, err := m.Trace(v.ID)
	if err != nil {
		t.Fatalf("Trace after Close: %v", err)
	}
	if jt.State != StateCanceled {
		t.Errorf("retired trace state = %s, want canceled", jt.State)
	}
	if root := jt.Trace.Spans[0]; root.Tags["state"] != string(StateCanceled) {
		t.Errorf("root span tags = %v, want state=canceled", root.Tags)
	}
	sums := m.TraceSummaries()
	if len(sums) != 1 || sums[0].JobID != v.ID {
		t.Errorf("summaries after Close = %+v", sums)
	}
}

// shape canonicalizes a span subtree into a deterministic string: span
// names only, children sorted by name, so concurrent sibling order and
// all timing is erased.
func shape(node *obs.SpanNode) string {
	parts := make([]string, len(node.Children))
	for i, c := range node.Children {
		parts[i] = shape(c)
	}
	sort.Strings(parts)
	return node.Name + "(" + strings.Join(parts, ",") + ")"
}

// TestTraceShapeDeterministicAcrossWorkers pins the satellite
// requirement: with timing gated off, the exported span tree of a real
// simulation has the same shape regardless of simulation parallelism —
// schedule-dependent spans (per-chunk solves) must be timing-gated.
func TestTraceShapeDeterministicAcrossWorkers(t *testing.T) {
	if obs.TimingOn() {
		t.Fatal("test requires timing off")
	}
	run := func(simWorkers int) string {
		m := testManager(t, Config{Workers: 1, SimWorkers: simWorkers}, nil) // real runner
		v, err := m.Submit(biquadRequest(t, 350))
		if err != nil {
			t.Fatal(err)
		}
		final := awaitState(t, m, v.ID)
		if final.State != StateDone {
			t.Fatalf("job with %d sim workers finished %s: %s", simWorkers, final.State, final.Err)
		}
		jt, err := m.Trace(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		return shape(jt.Trace.Spans[0])
	}
	one := run(1)
	four := run(4)
	if one != four {
		t.Fatalf("span tree shape depends on worker count:\n 1: %s\n 4: %s", one, four)
	}
	if !strings.Contains(one, "jobs.run") || !strings.Contains(one, "detect.") {
		t.Fatalf("trace shape misses engine spans: %s", one)
	}
}

// slowStore delays every lookup, so a span that wraps the store read
// must last at least that long.
type slowStore struct {
	Store
	delay time.Duration
}

func (s slowStore) Get(key string) (json.RawMessage, bool) {
	time.Sleep(s.delay)
	return s.Store.Get(key)
}

// TestCacheLookupSpanCoversStoreRead: jobs.cache_lookup times the store
// read itself, on a miss and on a hit alike.
func TestCacheLookupSpanCoversStoreRead(t *testing.T) {
	const delay = 20 * time.Millisecond
	m := New(WithConfig(Config{Workers: 1}), WithStore(slowStore{NewMemStore(4), delay}), WithRunner(RunnerFunc(func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})))
	t.Cleanup(func() {
		if err := m.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	req := biquadRequest(t, 370)
	for _, hit := range []string{"false", "true"} {
		v, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		awaitState(t, m, v.ID)
		jt, err := m.Trace(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		lookup := findChild(jt.Trace.Spans[0], "jobs.cache_lookup")
		if lookup == nil || lookup.Tags["hit"] != hit {
			t.Fatalf("cache_lookup span = %+v, want hit=%s", lookup, hit)
		}
		if want := float64(delay) / float64(time.Millisecond); lookup.DurMs < want {
			t.Errorf("hit=%s: cache_lookup lasted %.3f ms, the store read %.0f ms", hit, lookup.DurMs, want)
		}
	}
}
