package jobs

import (
	"sync"

	"analogdft/internal/obs"
)

// JobTrace is the exported trace of one job: the W3C identity it ran
// under, its state when exported, and the span tree.
type JobTrace struct {
	JobID   string     `json:"job_id"`
	Kind    Kind       `json:"kind"`
	State   State      `json:"state"`
	TraceID string     `json:"trace_id"`
	Parent  string     `json:"parent_span_id,omitempty"` // inbound caller's span ID
	Spans   int        `json:"spans"`
	DurMs   float64    `json:"dur_ms"`
	Trace   *obs.Trace `json:"trace,omitempty"`
}

// Summary returns a copy without the span tree, for listings.
func (jt *JobTrace) Summary() JobTrace {
	s := *jt
	s.Trace = nil
	return s
}

// jobRing holds the last max retired jobs (see Manager.retireJob); an
// evicted job is gone for good. Safe for concurrent use.
type jobRing struct {
	mu      sync.Mutex
	max     int
	entries []*job // oldest first
	byID    map[string]*job
}

// newJobRing returns a ring keeping the last max ≥ 1 jobs.
func newJobRing(max int) *jobRing {
	return &jobRing{max: max, byID: make(map[string]*job)}
}

// add retains j, evicting the oldest entry when full.
func (r *jobRing) add(j *job) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == r.max {
		delete(r.byID, r.entries[0].id)
		copy(r.entries, r.entries[1:])
		r.entries = r.entries[:len(r.entries)-1]
	}
	r.entries = append(r.entries, j)
	r.byID[j.id] = j
}

// get returns the retired job with the given ID.
func (r *jobRing) get(id string) (*job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.byID[id]
	return j, ok
}

// all returns the retained jobs, oldest first.
func (r *jobRing) all() []*job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*job(nil), r.entries...)
}
