package jobs

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// resolveBiquadMatrix resolves a paper-biquad matrix request pinned to an
// explicit region so every run measures the same grid.
func resolveBiquadMatrix(t *testing.T) *Resolved {
	t.Helper()
	res, err := Request{
		Kind:  KindMatrix,
		Bench: "paper-biquad",
		Options: OptionSpec{
			Points: 31,
			LoHz:   100,
			HiHz:   5600,
		},
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunnerPublishesEveryRow verifies the feed contract of the default
// runner: by the time Run returns, every matrix row has been published
// exactly once, each row's content matches the aggregate payload, and
// the feed is still open (closing it is the manager's job).
func TestRunnerPublishesEveryRow(t *testing.T) {
	res := resolveBiquadMatrix(t)
	feed := newRowFeed()
	raw, err := RunnerFunc(runResolved).Run(context.Background(), res, feed)
	if err != nil {
		t.Fatal(err)
	}
	var out MatrixResult
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	rows, done, _ := feed.Snapshot(0)
	if done {
		t.Error("runner closed the feed; that is the manager's job")
	}
	if len(rows) != len(out.Configs) {
		t.Fatalf("feed delivered %d rows, matrix has %d", len(rows), len(out.Configs))
	}
	seen := make(map[int]bool)
	for _, r := range rows {
		if seen[r.Index] {
			t.Fatalf("row %d published twice", r.Index)
		}
		seen[r.Index] = true
		if r.Index < 0 || r.Index >= len(out.Configs) {
			t.Fatalf("row index %d out of range", r.Index)
		}
		if r.Config != out.Configs[r.Index] {
			t.Errorf("row %d config %q, payload says %q", r.Index, r.Config, out.Configs[r.Index])
		}
		if !reflect.DeepEqual(r.Det, out.Det[r.Index]) || !reflect.DeepEqual(r.Omega, out.Omega[r.Index]) {
			t.Errorf("row %d content differs from aggregate payload", r.Index)
		}
	}
}
