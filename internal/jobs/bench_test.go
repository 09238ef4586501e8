package jobs

import (
	"context"
	"encoding/json"
	"testing"
)

// benchResolved resolves the biquad matrix request the job benchmarks
// share, and builds its real payload once.
func benchResolved(b *testing.B) (*Resolved, json.RawMessage) {
	b.Helper()
	res, err := biquadRequest(b, 0).Resolve()
	if err != nil {
		b.Fatal(err)
	}
	payload, err := runResolved(context.Background(), res)
	if err != nil {
		b.Fatal(err)
	}
	return res, payload
}

// BenchmarkCacheKey times the content address of a matrix request: the
// deck re-serialized through spice.Write, the fault list and the options,
// hashed with SHA-256.
func BenchmarkCacheKey(b *testing.B) {
	res, _ := benchResolved(b)
	ckt, chain := res.Bench.Circuit, res.Bench.Chain
	if key, err := CacheKey(res.Req.Kind, "", ckt, chain, res.Faults, res.Options); err != nil || key != res.Key {
		b.Fatalf("CacheKey = %s, %v; Resolve keyed %s", key, err, res.Key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CacheKey(res.Req.Kind, "", ckt, chain, res.Faults, res.Options); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStore times one Get (a hit) and one Put (a refresh of the same
// key) of a real matrix payload on each Store implementation.
func BenchmarkStore(b *testing.B) {
	res, payload := benchResolved(b)
	for _, kind := range []string{"mem", "fs"} {
		open := func(b *testing.B) Store {
			if kind == "mem" {
				return NewMemStore(16)
			}
			s, err := NewFSStore(b.TempDir(), 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			return s
		}
		b.Run("store="+kind+"/op=get", func(b *testing.B) {
			s := open(b)
			defer s.Close()
			s.Put(res.Key, payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(res.Key); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.Run("store="+kind+"/op=put", func(b *testing.B) {
			s := open(b)
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Put(res.Key, payload)
			}
		})
	}
}

// missStore holds nothing: every lookup misses and every write is
// dropped, so the same request takes the miss path every time.
type missStore struct{}

func (missStore) Get(string) (json.RawMessage, bool) { return nil, false }
func (missStore) Put(string, json.RawMessage)        {}
func (missStore) Stats() StoreStats                  { return StoreStats{Kind: "miss"} }
func (missStore) Close() error                       { return nil }

// BenchmarkSubmit times the job layer end to end for one request:
// path=hit resolves, keys and answers it from an in-memory store;
// path=miss-stub resolves, keys, misses, enqueues and waits for a stub
// runner to pick it up, so no simulation is timed.
func BenchmarkSubmit(b *testing.B) {
	req := biquadRequest(b, 0)
	closeWith := func(b *testing.B, m *Manager) {
		b.Cleanup(func() {
			if err := m.Close(context.Background()); err != nil {
				b.Error(err)
			}
		})
	}
	b.Run("path=hit", func(b *testing.B) {
		_, payload := benchResolved(b)
		m := New(WithConfig(Config{Workers: 1}), WithRunner(RunnerFunc(func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
			return payload, nil
		})))
		closeWith(b, m)
		first, err := m.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		awaitState(b, m, first.ID)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if v, err := m.Submit(req); err != nil || !v.Cached {
				b.Fatalf("submit: cached %v, %v", v.Cached, err)
			}
		}
	})
	b.Run("path=miss-stub", func(b *testing.B) {
		ran := make(chan struct{})
		m := New(WithConfig(Config{Workers: 1}), WithStore(missStore{}), WithRunner(RunnerFunc(func(ctx context.Context, res *Resolved) (json.RawMessage, error) {
			ran <- struct{}{}
			return json.RawMessage(`{}`), nil
		})))
		closeWith(b, m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Submit(req); err != nil {
				b.Fatal(err)
			}
			<-ran
		}
	})
}
