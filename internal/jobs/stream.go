package jobs

import (
	"sync"

	"analogdft/internal/detect"
)

// RowEvent is one completed matrix row as delivered to streaming result
// watchers: the row's index, its configuration label, and the
// detectability verdicts of every fault. The slices are shared with the
// job's result payload and must not be modified.
type RowEvent struct {
	Index  int       `json:"index"`
	Config string    `json:"config"`
	Det    []bool    `json:"det"`
	Omega  []float64 `json:"omega"`
}

// RowFeed fans completed matrix rows out to any number of watchers. The
// runner publishes every row once the matrix build completes; the
// manager closes the feed when the job reaches a terminal state. Watchers poll with Snapshot, blocking on the returned
// channel between polls, so a watcher can select against its own
// context without the feed tracking subscribers.
type RowFeed struct {
	mu   sync.Mutex
	rows []RowEvent
	done bool
	wake chan struct{} // closed and replaced on every change
}

func newRowFeed() *RowFeed {
	return &RowFeed{wake: make(chan struct{})}
}

// doneFeed is the shared feed of cache hits and retired jobs: finished
// and empty, so watchers synthesize rows from the payload.
var doneFeed = func() *RowFeed { f := newRowFeed(); f.Close(); return f }()

// Publish appends rows and wakes every watcher. No-op after Close.
func (f *RowFeed) Publish(rows ...RowEvent) {
	if f == nil || len(rows) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.rows = append(f.rows, rows...)
	close(f.wake)
	f.wake = make(chan struct{})
}

// Close marks the feed finished and wakes every watcher. Idempotent.
func (f *RowFeed) Close() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.done = true
	close(f.wake)
}

// Snapshot returns the rows published at index from onward, whether the
// feed is finished, and a channel that is closed on the next change (or
// already closed when the feed is finished — a late watcher never
// blocks). Watchers loop: drain the returned rows, stop when done,
// otherwise wait on the channel or their own context.
func (f *RowFeed) Snapshot(from int) (rows []RowEvent, done bool, wake <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from < len(f.rows) {
		rows = f.rows[from:]
	}
	return rows, f.done, f.wake
}

// rowEvents flattens a matrix into row events, one per configuration.
func rowEvents(mx *detect.Matrix) []RowEvent {
	events := make([]RowEvent, 0, len(mx.Configs))
	for i, cfg := range mx.Configs {
		events = append(events, RowEvent{
			Index:  i,
			Config: cfg.Label(),
			Det:    mx.Det[i],
			Omega:  mx.Omega[i],
		})
	}
	return events
}
