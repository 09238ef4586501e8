package jobs

// RowEvent is one matrix row as delivered to streaming result watchers:
// the row's index, its configuration label, and the detectability
// verdicts of every fault. The HTTP layer synthesizes the events from a
// finished job's payload.
type RowEvent struct {
	Index  int       `json:"index"`
	Config string    `json:"config"`
	Det    []bool    `json:"det"`
	Omega  []float64 `json:"omega"`
}
