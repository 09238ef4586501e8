package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// okRunner finishes every job at once with a fixed payload.
func okRunner(ctx context.Context, res *Resolved) (json.RawMessage, error) {
	return json.RawMessage(`{"ok":true}`), nil
}

// TestManagerEvictionContract pins what an evicted job answers: once
// more than TraceEntries jobs have finished after it, the oldest ID is
// ErrEvicted on every lookup (ErrTraceEvicted for its trace), while an ID
// the manager never issued stays ErrNotFound.
func TestManagerEvictionContract(t *testing.T) {
	const ring = 3
	m := testManager(t, Config{Workers: 1, TraceEntries: ring}, okRunner)
	var ids []string
	for i := 0; i <= ring; i++ {
		v, err := m.Submit(biquadRequest(t, 400+i))
		if err != nil {
			t.Fatal(err)
		}
		awaitState(t, m, v.ID)
		ids = append(ids, v.ID)
	}

	old := ids[0]
	if _, err := m.Get(old); !errors.Is(err, ErrEvicted) {
		t.Errorf("Get(%s) err = %v, want ErrEvicted", old, err)
	}
	if _, _, err := m.Result(old); !errors.Is(err, ErrEvicted) {
		t.Errorf("Result(%s) err = %v, want ErrEvicted", old, err)
	}
	if _, _, err := m.Done(old); !errors.Is(err, ErrEvicted) {
		t.Errorf("Done(%s) err = %v, want ErrEvicted", old, err)
	}
	if _, err := m.Cancel(old); !errors.Is(err, ErrEvicted) {
		t.Errorf("Cancel(%s) err = %v, want ErrEvicted", old, err)
	}
	if _, err := m.Trace(old); !errors.Is(err, ErrTraceEvicted) {
		t.Errorf("Trace(%s) err = %v, want ErrTraceEvicted", old, err)
	}

	for _, id := range []string{"job-999", "job-0", "job-01", "job-x", "1"} {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(%s) err = %v, want ErrNotFound", id, err)
		}
		if _, _, err := m.Result(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Result(%s) err = %v, want ErrNotFound", id, err)
		}
		if _, _, err := m.Done(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Done(%s) err = %v, want ErrNotFound", id, err)
		}
		if _, err := m.Cancel(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Cancel(%s) err = %v, want ErrNotFound", id, err)
		}
		if _, err := m.Trace(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("Trace(%s) err = %v, want ErrNotFound", id, err)
		}
	}

	// The retained jobs still answer in full from the ring.
	for _, id := range ids[1:] {
		raw, v, err := m.Result(id)
		if err != nil || v.State != StateDone || string(raw) != `{"ok":true}` {
			t.Errorf("Result(%s) = %s, %+v, %v", id, raw, v, err)
		}
		done, _, err := m.Done(id)
		if err != nil {
			t.Fatalf("Done(%s): %v", id, err)
		}
		select {
		case <-done:
		default:
			t.Errorf("Done(%s): channel still open on a finished job", id)
		}
		if _, err := m.Cancel(id); !errors.Is(err, ErrFinished) {
			t.Errorf("Cancel(%s) err = %v, want ErrFinished", id, err)
		}
	}
	list := m.List()
	if len(list) != ring {
		t.Fatalf("List = %d jobs, want %d", len(list), ring)
	}
	for i, v := range list {
		if v.ID != ids[i+1] {
			t.Errorf("List[%d] = %s, want %s", i, v.ID, ids[i+1])
		}
	}
}

// TestManagerListMergesLiveAndRetired: List interleaves the live table
// and the ring in submission order, whatever order the jobs finished in.
func TestManagerListMergesLiveAndRetired(t *testing.T) {
	release := make(chan struct{})
	slowReq := biquadRequest(t, 410)
	m := testManager(t, Config{Workers: 2}, func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		if res.Options.Points == slowReq.Options.Points {
			<-release
		}
		return json.RawMessage(`{}`), nil
	})
	defer close(release)
	slow, err := m.Submit(slowReq)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.Submit(biquadRequest(t, 411))
	if err != nil {
		t.Fatal(err)
	}
	awaitState(t, m, fast.ID)
	list := m.List()
	if len(list) != 2 || list[0].ID != slow.ID || list[1].ID != fast.ID {
		t.Fatalf("List = %+v, want [%s %s]", list, slow.ID, fast.ID)
	}
	if list[0].State.Terminal() || list[1].State != StateDone {
		t.Errorf("states = %s, %s", list[0].State, list[1].State)
	}
}

// TestManagerTableBounded is the deterministic memory gate of the job
// layer: a cache hit never enters the table, so however many hits the
// manager serves it retains no finished job outside the bounded ring,
// and no retained job pins its request, tracer or spans.
func TestManagerTableBounded(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 3, TraceEntries: 8}
	store := NewMemStore(4)
	m := New(WithConfig(cfg), WithStore(store), WithRunner(RunnerFunc(func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
		t.Error("a cache hit reached the runner")
		return nil, errors.New("unexpected run")
	})))
	t.Cleanup(func() {
		if err := m.Close(context.Background()); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	req := biquadRequest(t, 420)
	res, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	store.Put(res.Key, json.RawMessage(`{"hit":true}`))

	for i := 0; i < 10*cfg.TraceEntries; i++ {
		v, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Cached {
			t.Fatalf("submit %d missed the cache", i)
		}
		// No polling: the hit has retired by the time Submit returns.
		m.mu.Lock()
		live := len(m.jobs)
		m.mu.Unlock()
		if live != 0 {
			t.Fatalf("table holds %d jobs after cache hit %d", live, i)
		}
	}

	if n := len(m.List()); n != cfg.TraceEntries {
		t.Errorf("List = %d jobs, want the ring's %d", n, cfg.TraceEntries)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	retired := m.traces.entries
	if len(retired) != cfg.TraceEntries {
		t.Errorf("ring holds %d jobs, want %d", len(retired), cfg.TraceEntries)
	}
	for _, j := range retired {
		if j.res != nil || j.tracer != nil || j.root != nil || j.wait != nil || j.cancel != nil {
			t.Errorf("retired %s still holds live state: res %v tracer %v root %v wait %v cancel %v",
				j.id, j.res != nil, j.tracer != nil, j.root != nil, j.wait != nil, j.cancel != nil)
		}
		if j.trace == nil || string(j.result) != `{"hit":true}` {
			t.Errorf("retired %s lost its trace or payload", j.id)
		}
	}
}
