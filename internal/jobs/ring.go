package jobs

import "analogdft/internal/obs"

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

// jobRing holds the last max retired jobs (see Manager.retireLocked);
// an evicted job is gone for good. The manager's mutex guards it.
type jobRing struct {
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
	if len(r.entries) == r.max {
		delete(r.byID, r.entries[0].id)
		copy(r.entries, r.entries[1:])
		r.entries = r.entries[:len(r.entries)-1]
	}
	r.entries = append(r.entries, j)
	r.byID[j.id] = j
}
