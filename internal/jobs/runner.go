package jobs

import (
	"context"
	"encoding/json"
)

// Runner is the execution seam of the job layer: it turns a resolved
// request into its JSON payload. The context carries the job's tracer
// and cancellation. Implementations must be safe for concurrent use —
// the worker pool runs many jobs at once through one Runner.
type Runner interface {
	Run(ctx context.Context, res *Resolved) (json.RawMessage, error)
}

// RunnerFunc adapts a function to the Runner interface (tests stub
// execution with it).
type RunnerFunc func(ctx context.Context, res *Resolved) (json.RawMessage, error)

// Run implements Runner.
func (f RunnerFunc) Run(ctx context.Context, res *Resolved) (json.RawMessage, error) {
	return f(ctx, res)
}
