// Package cliobs wires the obs telemetry layer into command-line tools:
// one shared observability flag set (-log-level, -log-json, -metrics-out,
// -trace-out, -pprof, -run-report), one shared fault-simulation flag set
// (-workers, -stats, -progress, -onerror) that used to be copy-pasted
// across the commands, and a Session that turns the parsed flags into a
// configured runtime and writes every requested output on Finish.
package cliobs

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"analogdft/internal/detect"
	"analogdft/internal/obs"
)

// ObsFlags is the shared observability flag set.
type ObsFlags struct {
	// LogLevel is the minimum structured-log level (debug, info, warn,
	// error).
	LogLevel string
	// LogJSON switches structured logs from text to JSON.
	LogJSON bool
	// MetricsOut, when set, receives the final metric registry in
	// Prometheus text exposition format.
	MetricsOut string
	// TraceOut, when set, receives the span trace as JSON (tree + flat
	// flame-friendly list).
	TraceOut string
	// PprofAddr, when set, serves net/http/pprof on that address for the
	// lifetime of the run.
	PprofAddr string
	// RunReportOut, when set, receives a machine-readable JSON run
	// summary (inputs, stats, metric snapshot, wall/CPU time).
	RunReportOut string
	// Timing forces latency collection (histograms, schedule-level spans)
	// on, even when no output file implies it. Useful with -pprof or when
	// scraping expvar from a live run.
	Timing bool
}

// RegisterObs installs the shared observability flags on fs (use
// flag.CommandLine in main).
func RegisterObs(fs *flag.FlagSet) *ObsFlags {
	f := &ObsFlags{}
	f.Register(fs)
	return f
}

// Register installs the observability flags on fs, bound to f.
func (f *ObsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.LogLevel, "log-level", "warn", `structured log level: "debug", "info", "warn" or "error"`)
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit structured logs as JSON instead of text")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write final metrics in Prometheus text format to this file")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the span trace as JSON to this file")
	fs.StringVar(&f.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.RunReportOut, "run-report", "", "write a JSON run summary to this file")
	fs.BoolVar(&f.Timing, "timing", false, "collect latency metrics and schedule-dependent spans even without an output file")
}

// SimFlags is the shared fault-simulation flag set, deduplicated from the
// per-command copies.
type SimFlags struct {
	// Workers bounds the fault-simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Stats prints the simulation effort summary.
	Stats bool
	// Progress reports live progress on stderr.
	Progress bool
	// OnError names the cell error policy (degrade, failfast, retry).
	OnError string
	// Engine names the cell simulation strategy (incremental, lowrank);
	// either falls back to clone-and-rebuild for faults it cannot express.
	Engine string
}

// RegisterSim installs the shared simulation flags on fs.
func RegisterSim(fs *flag.FlagSet) *SimFlags {
	s := &SimFlags{}
	s.Register(fs)
	return s
}

// Register installs the simulation flags on fs, bound to s.
func (s *SimFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Workers, "workers", 0, "fault-simulation parallelism (0 = GOMAXPROCS)")
	fs.BoolVar(&s.Stats, "stats", false, "print the simulation effort summary")
	fs.BoolVar(&s.Progress, "progress", false, "report live progress on stderr")
	fs.StringVar(&s.OnError, "onerror", "degrade", `cell error policy: "degrade", "failfast" or "retry"`)
	fs.StringVar(&s.Engine, "engine", "incremental", `cell simulation strategy: "incremental" (patch a reusable system in place) or "lowrank" (Sherman–Morrison rank-1 solves against cached nominal factorizations); both clone and rebuild the circuit for faults they cannot express`)
}

// Policy maps the -onerror value onto the engine error policy.
func (s *SimFlags) Policy() (detect.ErrorPolicy, error) { return ParsePolicy(s.OnError) }

// EngineMode maps the -engine value onto the cell simulation strategy.
func (s *SimFlags) EngineMode() (detect.EngineMode, error) { return detect.ParseEngineMode(s.Engine) }

// ParsePolicy maps an -onerror flag value onto the engine error policy.
func ParsePolicy(name string) (detect.ErrorPolicy, error) {
	switch name {
	case "", "degrade":
		return detect.Degrade, nil
	case "failfast":
		return detect.FailFast, nil
	case "retry":
		return detect.Retry, nil
	default:
		return detect.Degrade, fmt.Errorf("unknown error policy %q", name)
	}
}

// Apply copies the parsed simulation flags onto engine options: worker
// count, error policy, engine mode and (when -progress is set) a live
// progress reporter writing to w.
func (s *SimFlags) Apply(o *detect.Options, w io.Writer) error {
	policy, err := s.Policy()
	if err != nil {
		return err
	}
	mode, err := s.EngineMode()
	if err != nil {
		return err
	}
	o.Workers = s.Workers
	o.OnError = policy
	o.Engine = mode
	if s.Progress {
		o.Progress = ProgressReporter(w)
	}
	return nil
}

// ProgressReporter returns a Progress hook that rewrites a one-line cell
// counter on w, finishing with the effort summary.
func ProgressReporter(w io.Writer) func(detect.Stats) {
	return func(st detect.Stats) {
		if st.Elapsed > 0 {
			fmt.Fprintf(w, "\rsimulated %d/%d cells: %s\n", st.CellsDone, st.Cells, st)
			return
		}
		fmt.Fprintf(w, "\rsimulated %d/%d cells", st.CellsDone, st.Cells)
	}
}

// Session is one observed CLI run: the configured runtime, the root span
// and the pending output files. Create with ObsFlags.Start, close with
// Finish.
type Session struct {
	Cmd    string
	Report *obs.RunReport

	flags    *ObsFlags
	rt       *obs.Runtime
	root     *obs.Span
	pprofSrv *http.Server
}

// Start applies the parsed flags to the runtime (nil means the process
// default): logging sink and level, tracing and timing enablement, the
// expvar publication and the pprof server. It opens the root span
// "<cmd>.run" and starts the run-report clock.
func (f *ObsFlags) Start(cmd string, rt *obs.Runtime) (*Session, error) {
	if rt == nil {
		rt = obs.Default()
	}
	level, err := obs.ParseLevel(f.LogLevel)
	if err != nil {
		return nil, err
	}
	obs.SetLogging(os.Stderr, f.LogJSON, level)

	s := &Session{Cmd: cmd, flags: f, rt: rt, Report: obs.NewRunReport(cmd, os.Args[1:])}
	if f.MetricsOut != "" || f.TraceOut != "" || f.RunReportOut != "" || f.PprofAddr != "" {
		rt.SetTiming(true)
		rt.EnableTracing(true)
		rt.Metrics.PublishExpvar("analogdft")
	}
	if f.Timing {
		rt.SetTiming(true)
	}
	_, s.root = rt.Tracer.Start(nil, cmd+".run")

	if f.PprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ln, err := net.Listen("tcp", f.PprofAddr)
		if err != nil {
			return nil, fmt.Errorf("pprof listener: %w", err)
		}
		s.pprofSrv = &http.Server{Handler: mux}
		go s.pprofSrv.Serve(ln) //nolint:errcheck // closed on Finish
		fmt.Fprintf(os.Stderr, "%s: pprof serving on http://%s/debug/pprof/\n", cmd, ln.Addr())
	}
	return s, nil
}

// Finish ends the root span, stamps the run report and writes every
// requested output file. It returns the first error encountered but
// attempts all outputs.
func (s *Session) Finish() error {
	s.root.End()
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.flags.RunReportOut != "" {
		s.Report.Finalize(s.rt.Metrics)
		keep(writeFile(s.flags.RunReportOut, s.Report.WriteJSON))
	}
	if s.flags.TraceOut != "" {
		keep(writeFile(s.flags.TraceOut, s.rt.Tracer.WriteJSON))
	}
	if s.flags.MetricsOut != "" {
		keep(writeFile(s.flags.MetricsOut, s.rt.Metrics.WritePrometheus))
	}
	if s.pprofSrv != nil {
		keep(s.pprofSrv.Close())
	}
	return firstErr
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
