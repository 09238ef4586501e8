package cliobs

import (
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"analogdft/internal/detect"
	"analogdft/internal/obs"
)

// TestRegisterFlagTable is the one table-driven test replacing the flag
// parsing previously copy-pasted across cmd/faultsim, cmd/dftopt and
// cmd/acsim: every shared flag, its default, and a parsed value.
func TestRegisterFlagTable(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		check func(t *testing.T, s *SimFlags, f *ObsFlags)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, s *SimFlags, f *ObsFlags) {
				if s.Workers != 0 || s.Stats || s.Progress || s.OnError != "degrade" {
					t.Fatalf("sim defaults = %+v", s)
				}
				if f.LogLevel != "warn" || f.LogJSON || f.MetricsOut != "" ||
					f.TraceOut != "" || f.PprofAddr != "" || f.RunReportOut != "" {
					t.Fatalf("obs defaults = %+v", f)
				}
			},
		},
		{
			name: "sim flags",
			args: []string{"-workers", "4", "-stats", "-progress", "-onerror", "retry"},
			check: func(t *testing.T, s *SimFlags, f *ObsFlags) {
				if s.Workers != 4 || !s.Stats || !s.Progress || s.OnError != "retry" {
					t.Fatalf("sim = %+v", s)
				}
			},
		},
		{
			name: "obs flags",
			args: []string{"-log-level", "debug", "-log-json", "-metrics-out", "m.prom",
				"-trace-out", "t.json", "-pprof", "localhost:0", "-run-report", "r.json"},
			check: func(t *testing.T, s *SimFlags, f *ObsFlags) {
				if f.LogLevel != "debug" || !f.LogJSON || f.MetricsOut != "m.prom" ||
					f.TraceOut != "t.json" || f.PprofAddr != "localhost:0" || f.RunReportOut != "r.json" {
					t.Fatalf("obs = %+v", f)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			sim := RegisterSim(fs)
			obsf := RegisterObs(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			c.check(t, sim, obsf)
		})
	}
}

// TestSimFlagsRejectLayout: -layout is retired (CSR is the only matrix
// layout), so it is an undefined flag for every value it used to take.
func TestSimFlagsRejectLayout(t *testing.T) {
	for _, v := range []string{"auto", "dense", "sparse"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		RegisterSim(fs)
		err := fs.Parse([]string{"-layout", v})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -layout") {
			t.Fatalf("-layout %s: err = %v, want undefined flag", v, err)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want detect.ErrorPolicy
		ok   bool
	}{
		{"", detect.Degrade, true},
		{"degrade", detect.Degrade, true},
		{"failfast", detect.FailFast, true},
		{"retry", detect.Retry, true},
		{"abort", detect.Degrade, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestSimFlagsApply(t *testing.T) {
	s := &SimFlags{Workers: 3, Progress: true, OnError: "failfast"}
	var o detect.Options
	if err := s.Apply(&o, io.Discard); err != nil {
		t.Fatal(err)
	}
	if o.Workers != 3 || o.OnError != detect.FailFast || o.Progress == nil {
		t.Fatalf("options = %+v", o)
	}
	bad := &SimFlags{OnError: "bogus"}
	if err := bad.Apply(&o, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown error policy") {
		t.Fatalf("err = %v", err)
	}
}

func TestProgressReporter(t *testing.T) {
	var sb strings.Builder
	hook := ProgressReporter(&sb)
	hook(detect.Stats{Cells: 4, CellsDone: 2})
	hook(detect.Stats{Cells: 4, CellsDone: 4, Elapsed: 1})
	out := sb.String()
	if !strings.Contains(out, "simulated 2/4 cells") {
		t.Fatalf("missing live line:\n%q", out)
	}
	if !strings.Contains(out, "simulated 4/4 cells: ") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("missing final summary:\n%q", out)
	}
}

func TestSessionWritesAllOutputs(t *testing.T) {
	dir := t.TempDir()
	f := &ObsFlags{
		LogLevel:     "warn",
		MetricsOut:   filepath.Join(dir, "metrics.prom"),
		TraceOut:     filepath.Join(dir, "trace.json"),
		RunReportOut: filepath.Join(dir, "report.json"),
	}
	rt := obs.NewRuntime()
	sess, err := f.Start("testcmd", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetLogging(os.Stderr, false, slog.LevelWarn)
	if !rt.TimingOn() || !rt.Tracer.Enabled() {
		t.Fatal("outputs requested but runtime not enabled")
	}
	sess.Report.SetInput("deck", "builtin")
	rt.Metrics.Counter("work_total", "test work").Add(7)
	_, span := rt.Tracer.Start(nil, "work")
	span.End()
	if err := sess.Finish(); err != nil {
		t.Fatal(err)
	}

	// Run report: valid JSON with the input and the metric snapshot.
	var report map[string]any
	data, err := os.ReadFile(f.RunReportOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("run report invalid: %v", err)
	}
	if report["command"] != "testcmd" {
		t.Fatalf("command = %v", report["command"])
	}
	if inputs := report["inputs"].(map[string]any); inputs["deck"] != "builtin" {
		t.Fatalf("inputs = %v", inputs)
	}
	if metrics := report["metrics"].(map[string]any); metrics["work_total"] == nil {
		t.Fatalf("metrics snapshot missing work_total: %v", metrics)
	}

	// Trace: root span "testcmd.run" wrapping the "work" span.
	var trace struct {
		Spans []struct {
			Name     string  `json:"name"`
			DurMs    float64 `json:"dur_ms"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"spans"`
	}
	data, err = os.ReadFile(f.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if len(trace.Spans) != 1 || trace.Spans[0].Name != "testcmd.run" {
		t.Fatalf("trace roots = %+v", trace.Spans)
	}
	if len(trace.Spans[0].Children) != 1 || trace.Spans[0].Children[0].Name != "work" {
		t.Fatalf("root children = %+v", trace.Spans[0].Children)
	}

	// Metrics: Prometheus text lines.
	data, err = os.ReadFile(f.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	prom := string(data)
	for _, want := range []string{"# HELP work_total test work", "# TYPE work_total counter", "work_total 7"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("metrics missing %q:\n%s", want, prom)
		}
	}
}

func TestSessionNoOutputsIsQuiet(t *testing.T) {
	rt := obs.NewRuntime()
	sess, err := (&ObsFlags{LogLevel: "warn"}).Start("quiet", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetLogging(os.Stderr, false, slog.LevelWarn)
	if rt.TimingOn() || rt.Tracer.Enabled() {
		t.Fatal("no outputs requested but runtime enabled")
	}
	if err := sess.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionRejectsBadLevel(t *testing.T) {
	if _, err := (&ObsFlags{LogLevel: "loud"}).Start("x", obs.NewRuntime()); err == nil {
		t.Fatal("bad log level accepted")
	}
}
