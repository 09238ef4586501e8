package jobs

import (
	"context"
	"sync"
)

// task is one unit of schedulable work. The context it receives is the
// scheduler's base context: canceled when Close force-cancels, otherwise
// alive for the task's whole run. Cancellation of an individual job is
// layered on top by the manager (the task derives its own sub-context),
// so the scheduler needs no per-task handle.
type task func(ctx context.Context)

// poolScheduler is the job layer's admission and dispatch: a bounded
// channel queue drained by a fixed pool of goroutine workers — the shape
// the HTTP layer's 429 mapping assumes. It is safe for concurrent use.
type poolScheduler struct {
	queue      chan task
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// newPoolScheduler starts a scheduler with workers goroutines draining a
// queue of the given depth (minimums 1).
func newPoolScheduler(workers, depth int) *poolScheduler {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &poolScheduler{
		queue:      make(chan task, depth),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Enqueue admits t for execution. ErrQueueFull signals backpressure
// (the caller may retry later); ErrClosed that Close has begun. Enqueue
// never blocks.
func (s *poolScheduler) Enqueue(t task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- t:
	default:
		return ErrQueueFull
	}
	jQueueDepth.Set(float64(len(s.queue)))
	return nil
}

// Depth returns the number of admitted-but-not-started tasks and the
// queue capacity, for backpressure responses and health snapshots.
func (s *poolScheduler) Depth() (depth, capacity int) {
	return len(s.queue), cap(s.queue)
}

// worker drains the queue until Close closes it.
func (s *poolScheduler) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		jQueueDepth.Set(float64(len(s.queue)))
		t(s.baseCtx)
	}
}

// Close stops intake and drains: admitted tasks finish normally and
// Close returns nil when the pool is idle. If ctx expires first the base
// context every task received is canceled, Close waits for the workers
// to acknowledge, and returns ctx's error.
func (s *poolScheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return ctx.Err()
	}
}
