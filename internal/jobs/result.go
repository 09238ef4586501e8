package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"analogdft"
	"analogdft/internal/detect"
)

// StatsJSON is the wire form of the simulation effort summary.
type StatsJSON struct {
	Cells          int     `json:"cells"`
	CellsDone      int     `json:"cells_done"`
	Solves         int     `json:"solves"`
	SingularPoints int     `json:"singular_points"`
	Retries        int     `json:"retries"`
	Recovered      int     `json:"recovered"`
	Errors         int     `json:"errors"`
	ElapsedMS      float64 `json:"elapsed_ms"`
}

func statsJSON(s detect.Stats) StatsJSON {
	return StatsJSON{
		Cells:          s.Cells,
		CellsDone:      s.CellsDone,
		Solves:         s.Solves,
		SingularPoints: s.SingularPoints,
		Retries:        s.Retries,
		Recovered:      s.Recovered,
		Errors:         s.Errors,
		ElapsedMS:      float64(s.Elapsed.Microseconds()) / 1000,
	}
}

// EvalJSON is one fault's verdict.
type EvalJSON struct {
	ID         string  `json:"id"`
	Detectable bool    `json:"detectable"`
	OmegaDet   float64 `json:"omega_det"`
	MaxDev     float64 `json:"max_dev"`
	Err        string  `json:"error,omitempty"`
}

// EvaluateResult is the payload of an evaluate job.
type EvaluateResult struct {
	Circuit     string     `json:"circuit"`
	RegionHz    [2]float64 `json:"region_hz"`
	Coverage    float64    `json:"coverage"`
	AvgOmegaDet float64    `json:"avg_omega_det"`
	Faults      []EvalJSON `json:"faults"`
	Stats       StatsJSON  `json:"stats"`
}

// MatrixResult is the payload of a matrix job.
type MatrixResult struct {
	Source       string      `json:"source"`
	Configs      []string    `json:"configs"`
	Faults       []string    `json:"faults"`
	Det          [][]bool    `json:"det"`
	Omega        [][]float64 `json:"omega"`
	Coverage     float64     `json:"coverage"`
	AvgBestOmega float64     `json:"avg_best_omega"`
	FailedCells  []string    `json:"failed_cells,omitempty"`
	Stats        StatsJSON   `json:"stats"`
}

// CandidateJSON is one maximum-coverage configuration set.
type CandidateJSON struct {
	Configs     []string `json:"configs"`
	Opamps      []string `json:"opamps,omitempty"`
	Coverage    float64  `json:"coverage"`
	AvgOmegaDet float64  `json:"avg_omega_det"`
	NumConfigs  int      `json:"num_configs"`
	NumOpamps   int      `json:"num_opamps"`
}

func candidateJSON(c *analogdft.Candidate) CandidateJSON {
	return CandidateJSON{
		Configs:     c.Labels,
		Opamps:      c.Opamps,
		Coverage:    c.Coverage,
		AvgOmegaDet: c.AvgOmegaDet,
		NumConfigs:  c.NumConfigs,
		NumOpamps:   c.NumOpamps,
	}
}

// OptimizeResult is the payload of an optimize job.
type OptimizeResult struct {
	Source        string          `json:"source"`
	CostName      string          `json:"cost_name"`
	Best          CandidateJSON   `json:"best"`
	BestByCost    []CandidateJSON `json:"best_by_cost"`
	NumCandidates int             `json:"num_candidates"`
	Undetectable  []string        `json:"undetectable,omitempty"`
	MaxCoverage   float64         `json:"max_coverage"`
	Stats         StatsJSON       `json:"stats"`
}

// runResolved is the default Runner: it executes the job through the
// context-aware Session API and marshals the payload.
func runResolved(ctx context.Context, res *Resolved) (json.RawMessage, error) {
	s := analogdft.NewSession(res.Bench, res.Faults, res.Options)
	var payload any
	switch res.Req.Kind {
	case KindEvaluate:
		row, err := s.Evaluate(ctx)
		if err != nil {
			return nil, err
		}
		out := EvaluateResult{
			Circuit:     row.Circuit,
			RegionHz:    [2]float64{row.Region.LoHz, row.Region.HiHz},
			Coverage:    row.FaultCoverage(),
			AvgOmegaDet: row.AvgOmegaDet(),
			Stats:       statsJSON(row.Stats),
		}
		for _, e := range row.Evals {
			ej := EvalJSON{ID: e.Fault.ID, Detectable: e.Detectable, OmegaDet: e.OmegaDet, MaxDev: e.MaxDev}
			if e.Err != nil {
				ej.Err = e.Err.Error()
			}
			out.Faults = append(out.Faults, ej)
		}
		payload = out
	case KindMatrix:
		mx, err := s.Matrix(ctx)
		if err != nil {
			return nil, err
		}
		payload = matrixResult(mx)
	case KindOptimize:
		opt, err := s.Optimize(ctx, res.Cost)
		if err != nil {
			return nil, err
		}
		mx, err := s.Matrix(ctx) // cached by the session; only reads stats
		if err != nil {
			return nil, err
		}
		out := OptimizeResult{
			Source:        mx.Source,
			CostName:      opt.CostName,
			Best:          candidateJSON(opt.Best),
			NumCandidates: len(opt.Candidates),
			Undetectable:  opt.Undetectable,
			MaxCoverage:   opt.MaxCoverage,
			Stats:         statsJSON(mx.Stats),
		}
		for i := range opt.BestByCost {
			out.BestByCost = append(out.BestByCost, candidateJSON(&opt.BestByCost[i]))
		}
		payload = out
	default:
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, res.Req.Kind)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("jobs: marshal result: %w", err)
	}
	return raw, nil
}

// matrixResult flattens a detectability matrix into its wire form.
func matrixResult(mx *analogdft.Matrix) MatrixResult {
	out := MatrixResult{
		Source:       mx.Source,
		Faults:       mx.Faults.IDs(),
		Det:          mx.Det,
		Omega:        mx.Omega,
		Coverage:     mx.FaultCoverage(),
		AvgBestOmega: mx.AvgBestOmega(nil),
		Stats:        statsJSON(mx.Stats),
	}
	for _, cfg := range mx.Configs {
		out.Configs = append(out.Configs, cfg.Label())
	}
	for _, ce := range mx.CellErrors {
		out.FailedCells = append(out.FailedCells, ce.Error())
	}
	return out
}
