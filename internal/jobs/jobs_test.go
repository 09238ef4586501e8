package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// stubRunner adapts a feed-less stub function to the Runner seam, so
// queue and lifecycle behaviour can be tested without simulating
// anything.
func stubRunner(fn func(ctx context.Context, res *Resolved) (json.RawMessage, error)) Option {
	return WithRunner(RunnerFunc(func(ctx context.Context, res *Resolved, feed *RowFeed) (json.RawMessage, error) {
		return fn(ctx, res)
	}))
}

// testManager builds a manager whose runner is fn (nil keeps the real
// session runner) and closes it with the test.
func testManager(t *testing.T, cfg Config, fn func(ctx context.Context, res *Resolved) (json.RawMessage, error)) *Manager {
	t.Helper()
	opts := []Option{WithConfig(cfg)}
	if fn != nil {
		opts = append(opts, stubRunner(fn))
	}
	m := New(opts...)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := m.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return m
}

// biquadRequest returns a small matrix request over the testdata deck,
// uniquified by salt so each call has a distinct cache key.
func biquadRequest(t testing.TB, salt int) Request {
	t.Helper()
	deck, err := os.ReadFile("../../testdata/biquad.cir")
	if err != nil {
		t.Fatal(err)
	}
	return Request{
		Kind:    KindMatrix,
		Deck:    string(deck),
		Options: OptionSpec{Points: 11 + salt},
	}
}

// awaitState polls until job id reaches a terminal state.
func awaitState(t testing.TB, m *Manager, id string) View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return View{}
}

func TestManagerRunsJob(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		return json.RawMessage(`{"ok":true}`), nil
	})
	v, err := m.Submit(biquadRequest(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Cached {
		t.Error("fresh job reported cached")
	}
	done := awaitState(t, m, v.ID)
	if done.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", done.State, done.Err)
	}
	raw, _, err := m.Result(v.ID)
	if err != nil || string(raw) != `{"ok":true}` {
		t.Errorf("Result = %s, %v", raw, err)
	}
}

func TestManagerCacheHit(t *testing.T) {
	runs := make(chan struct{}, 8)
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		runs <- struct{}{}
		return json.RawMessage(`{"n":1}`), nil
	})
	req := biquadRequest(t, 1)
	hits0 := jCacheHits.Value()

	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, m, first.ID)

	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("resubmit: cached=%v state=%s, want cached done", second.Cached, second.State)
	}
	if got := jCacheHits.Value() - hits0; got != 1 {
		t.Errorf("cache hits delta = %d, want 1", got)
	}
	raw, _, err := m.Result(second.ID)
	if err != nil || string(raw) != `{"n":1}` {
		t.Errorf("cached Result = %s, %v", raw, err)
	}
	if len(runs) != 1 {
		t.Errorf("runner executed %d times, want 1", len(runs))
	}
	if first.Key != second.Key {
		t.Errorf("same request, different keys: %s vs %s", first.Key, second.Key)
	}
}

func TestManagerQueueFull(t *testing.T) {
	release := make(chan struct{})
	m := testManager(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	defer close(release)

	// Job 0 occupies the worker, job 1 the queue slot; job 2 must bounce.
	var views []View
	for i := 0; i < 2; i++ {
		v, err := m.Submit(biquadRequest(t, 10+i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		views = append(views, v)
		if i == 0 {
			waitRunning(t, m, v.ID)
		}
	}
	rejected0 := jRejected.Value()
	if _, err := m.Submit(biquadRequest(t, 12)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	if got := jRejected.Value() - rejected0; got != 1 {
		t.Errorf("rejected delta = %d, want 1", got)
	}
	// Draining the queue makes room again.
	release <- struct{}{}
	release <- struct{}{}
	awaitState(t, m, views[1].ID)
	if _, err := m.Submit(biquadRequest(t, 13)); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// waitRunning polls until job id leaves the queued state.
func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateRunning {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started", id)
}

func TestManagerCancelQueued(t *testing.T) {
	release := make(chan struct{})
	m := testManager(t, Config{Workers: 1, QueueDepth: 2}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		<-release
		return json.RawMessage(`{}`), nil
	})
	defer close(release)

	blocker, err := m.Submit(biquadRequest(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, blocker.ID)
	queued, err := m.Submit(biquadRequest(t, 21))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCanceled {
		t.Fatalf("queued cancel: state = %s, want canceled", v.State)
	}
	// The worker must skip the cancelled job, not run it.
	release <- struct{}{}
	awaitState(t, m, blocker.ID)
	if v, _ := m.Get(queued.ID); v.State != StateCanceled {
		t.Errorf("cancelled job resurrected as %s", v.State)
	}
	if _, err := m.Cancel(queued.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel: err = %v, want ErrFinished", err)
	}
}

func TestManagerCancelRunning(t *testing.T) {
	started := make(chan struct{})
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		close(started)
		<-ctx.Done() // simulate a ctx-aware solve loop
		return nil, ctx.Err()
	})
	v, err := m.Submit(biquadRequest(t, 30))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitRunning(t, m, v.ID)
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	done := awaitState(t, m, v.ID)
	if done.State != StateCanceled {
		t.Errorf("state = %s, want canceled", done.State)
	}
	if done.HasResult {
		t.Error("cancelled job has a result")
	}
}

func TestManagerFailedJob(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		return nil, fmt.Errorf("solver exploded")
	})
	v, err := m.Submit(biquadRequest(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	done := awaitState(t, m, v.ID)
	if done.State != StateFailed || done.Err != "solver exploded" {
		t.Errorf("state=%s err=%q, want failed/solver exploded", done.State, done.Err)
	}
	// Failures must not poison the cache.
	if m.CacheLen() != 0 {
		t.Errorf("failed job cached: %d entries", m.CacheLen())
	}
}

func TestManagerCloseDrains(t *testing.T) {
	slow := make(chan struct{})
	m := New(WithWorkers(1), stubRunner(func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		<-slow
		if err := ctx.Err(); err != nil {
			return nil, err // a forced shutdown would cancel us
		}
		return json.RawMessage(`{"drained":true}`), nil
	}))
	v, err := m.Submit(biquadRequest(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, v.ID)
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(slow)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Graceful drain lets the in-flight job finish, not cancel.
	done, err := m.Get(v.ID)
	if err != nil || done.State != StateDone {
		t.Errorf("after drain: state=%s err=%v, want done", done.State, err)
	}
	if _, err := m.Submit(biquadRequest(t, 51)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

func TestManagerCloseDeadlineForcesCancel(t *testing.T) {
	m := New(WithWorkers(1), stubRunner(func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		<-ctx.Done() // never finishes voluntarily
		return nil, ctx.Err()
	}))
	v, err := m.Submit(biquadRequest(t, 60))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close: err = %v, want deadline exceeded", err)
	}
	done, err := m.Get(v.ID)
	if err != nil || done.State != StateCanceled {
		t.Errorf("after forced close: state=%s err=%v, want canceled", done.State, err)
	}
}

func TestManagerBadRequest(t *testing.T) {
	m := testManager(t, Config{}, nil)
	cases := []Request{
		{},                                   // no kind
		{Kind: "frobnicate"},                 // unknown kind
		{Kind: KindMatrix},                   // neither bench nor deck
		{Kind: KindMatrix, Bench: "no-such"}, // unknown bench
		{Kind: KindMatrix, Bench: "paper-biquad", Deck: "x"},                               // both
		{Kind: KindMatrix, Bench: "paper-biquad", Faults: FaultSpec{Universe: "weird"}},    // bad universe
		{Kind: KindMatrix, Bench: "paper-biquad", Faults: FaultSpec{Frac: 1.5}},            // bad frac
		{Kind: KindMatrix, Bench: "paper-biquad", Options: OptionSpec{LoHz: 10}},           // half a region
		{Kind: KindMatrix, Bench: "paper-biquad", Options: OptionSpec{OnError: "explode"}}, // bad policy
		{Kind: KindOptimize, Bench: "paper-biquad", Cost: "karma"},                         // bad cost
		{Kind: KindMatrix, Deck: "R1 a b 1k\n.input a\n.output b\n.end"},                   // no chain
	}
	for i, req := range cases {
		if _, err := m.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadRequest", i, req, err)
		}
	}
	if _, err := m.Get("job-999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Cancel("job-999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown: err = %v, want ErrNotFound", err)
	}
}

func TestManagerListOrder(t *testing.T) {
	m := testManager(t, Config{Workers: 1}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	})
	var ids []string
	for i := 0; i < 3; i++ {
		v, err := m.Submit(biquadRequest(t, 70+i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		awaitState(t, m, v.ID)
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("List = %d jobs, want 3", len(list))
	}
	for i, v := range list {
		if v.ID != ids[i] {
			t.Errorf("List[%d] = %s, want %s", i, v.ID, ids[i])
		}
	}
}

func TestMemStoreLRU(t *testing.T) {
	c := NewMemStore(2)
	c.Put("a", json.RawMessage(`1`))
	c.Put("b", json.RawMessage(`2`))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", json.RawMessage(`3`)) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if got, _ := c.Get("c"); string(got) != `3` {
		t.Errorf("c = %s", got)
	}
	c.Put("a", json.RawMessage(`9`)) // refresh, no growth
	if st := c.Stats(); st.Entries != 2 || st.Kind != "mem" || st.Bytes != 2 {
		t.Errorf("Stats = %+v, want 2 mem entries of 2 bytes", st)
	}
	if got, _ := c.Get("a"); string(got) != `9` {
		t.Errorf("refreshed a = %s", got)
	}
}

// TestWithConfigSizing: a manager built from a Config reports that
// sizing back and bounds its queue by it.
func TestWithConfigSizing(t *testing.T) {
	m := testManager(t, Config{Workers: 1, QueueDepth: 3}, nil)
	cfg := m.Config()
	if cfg.Workers != 1 || cfg.QueueDepth != 3 {
		t.Errorf("Config = %+v, want workers 1, queue 3", cfg)
	}
	if _, capacity := m.QueueStats(); capacity != 3 {
		t.Errorf("queue capacity = %d, want 3", capacity)
	}
}
