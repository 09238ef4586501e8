package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"analogdft"
)

const (
	// serveClients is the closed-loop client count: one per core of the
	// two-core machine the benchmark is sized for, each on its own
	// connection.
	serveClients = 2
	// corpusSize is the number of distinct requests serve-hot repeats:
	// one whole generator cycle, so its make-up does not change with the
	// seed.
	corpusSize = cycleSize
	// coldSamples is how many serve-cold jobs are recomputed in-process
	// after the window to check the served answers.
	coldSamples = 30
	// jobTraceEvery: a traced run fetches the job trace of every this
	// many ops of each client.
	jobTraceEvery = 50
)

// dftserved is one running server process.
type dftserved struct {
	cmd  *exec.Cmd
	pid  string
	base string
	log  *os.File
	done chan error // receives the process's exit
}

// startServer launches dftserved on an ephemeral port with a fresh disk
// store under dir and every other flag at its default, and returns once
// /healthz answers.
func startServer(bin, dir string) (*dftserved, error) {
	if bin == "" {
		return nil, errors.New("no dftserved binary (-dftserved)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "server.log")
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-store-dir", filepath.Join(dir, "store"))
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start dftserved: %w", err)
	}
	s := &dftserved{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	const marker = "dftserved: listening on "
	deadline := time.Now().Add(20 * time.Second)
	for s.base == "" {
		raw, _ := os.ReadFile(logPath) // retried until the deadline
		if i := bytes.Index(raw, []byte(marker)); i >= 0 {
			if line, _, ok := strings.Cut(string(raw[i+len(marker):]), "\n"); ok {
				s.base = "http://" + strings.TrimSpace(line)
				break
			}
		}
		if err := s.waitOrExit(deadline); err != nil {
			return nil, err
		}
	}
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if err := s.waitOrExit(deadline); err != nil {
			return nil, err
		}
	}
}

// waitOrExit pauses between start-up polls, failing once the process has
// exited or the deadline passed.
func (s *dftserved) waitOrExit(deadline time.Time) error {
	select {
	case err := <-s.done:
		s.done <- err
		s.log.Close()
		return fmt.Errorf("dftserved exited during start-up: %v", err)
	case <-time.After(2 * time.Millisecond): // short, as set-up time is measured through it
	}
	if time.Now().After(deadline) {
		s.stop()
		return errors.New("dftserved did not come up within 20s")
	}
	return nil
}

// stop terminates the server (SIGTERM, then SIGKILL after a grace
// period) and waits for it to exit.
func (s *dftserved) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// scrape reads the server's /metrics.
func (s *dftserved) scrape(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		},
	}
}

// jobView is the part of a job status the benchmark reads.
type jobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

// served is what one submit → result op returned.
type served struct {
	view    jobView
	payload []byte // result payload, byte for byte as served
	stream  bool   // read as an NDJSON row stream
	rows    int    // row events of the stream
	submit  time.Duration
	fetch   time.Duration
}

// serveOp submits r and reads its result: as an NDJSON row stream to the
// terminal event, or with a plain GET (which needs a finished job).
func serveOp(c *http.Client, base string, r request, stream bool) (served, error) {
	out := served{stream: stream}
	t0 := time.Now()
	resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(r.body()))
	if err != nil {
		return out, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusCreated {
		return out, fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out.view); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	t1 := time.Now()
	out.submit = t1.Sub(t0)
	url := base + "/v1/jobs/" + out.view.ID + "/result"
	if stream {
		err = readStream(c, url+"?stream=rows", &out)
	} else {
		err = readPlain(c, url, &out)
	}
	out.fetch = time.Since(t1)
	return out, err
}

func readPlain(c *http.Client, url string, out *served) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	out.payload = body
	return nil
}

func readStream(c *http.Client, url string, out *served) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) // for the message only
		return fmt.Errorf("stream: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	for sc.Scan() {
		var ev struct {
			Type   string          `json:"type"`
			Result json.RawMessage `json:"result"`
			Error  json.RawMessage `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
		switch ev.Type {
		case "row":
			out.rows++
		case "result":
			out.payload = ev.Result // Unmarshal copied it out of the scanner's buffer
			return nil
		case "error":
			return fmt.Errorf("stream: job failed: %s", ev.Error)
		default:
			return fmt.Errorf("stream: unknown event %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return errors.New("stream ended without a terminal event")
}

// matrixRows is the row count of a matrix payload (0 for other kinds).
func matrixRows(kind string, payload []byte) int {
	if kind != "matrix" {
		return 0
	}
	var mx struct {
		Configs []string `json:"configs"`
	}
	_ = json.Unmarshal(payload, &mx) // a malformed payload shows as a row mismatch
	return len(mx.Configs)
}

// checkServed validates one op's response; hot ops must be cache hits
// serving exactly the preloaded bytes, cold ops fresh computations.
func checkServed(res served, hot bool, want []byte) error {
	if res.view.State != "done" && hot {
		return fmt.Errorf("job %s is %s at submit, want done", res.view.ID, res.view.State)
	}
	if res.view.Cached != hot {
		return fmt.Errorf("job %s cached=%t, want %t", res.view.ID, res.view.Cached, hot)
	}
	if !json.Valid(res.payload) {
		return fmt.Errorf("job %s: payload is not JSON", res.view.ID)
	}
	if hot && !bytes.Equal(res.payload, want) {
		return fmt.Errorf("job %s: payload differs from the preloaded one", res.view.ID)
	}
	if res.stream && res.rows != matrixRows(res.view.Kind, res.payload) {
		return fmt.Errorf("job %s: %d streamed rows, payload has %d", res.view.ID, res.rows, matrixRows(res.view.Kind, res.payload))
	}
	return nil
}

// coldJob is a finished serve-cold op kept for recomputation.
type coldJob struct {
	req     request
	kind    string
	payload []byte
}

// clientLog is one client's record of the window.
type clientLog struct {
	lat               []time.Duration
	submitMs, fetchMs []float64
	traced            []bool
	failed            int
	notes             []string
	cold              []coldJob
	ops, jobs         *spanLog // traced ops, sampled job traces
}

// runServe runs serve-cold (hot=false) or serve-hot against a dftserved
// started from cfg.serverBin.
func runServe(cfg config, hot bool) (*window, error) {
	decks, err := readDecks(filepath.Join(cfg.benchDir, "decks"))
	if err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	c := newHTTPClient()
	defer c.CloseIdleConnections()

	w := newWindow()
	var (
		srv     *dftserved
		corpus  []request
		payload [][]byte
	)
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(cfg.serverBin, filepath.Join(runDir, fmt.Sprintf("setup-%d", rep))); err != nil {
			return nil, err
		}
		if hot {
			corpus, payload, err = preload(c, srv.base, cfg.seed, decks)
		} else {
			err = warmUp(c, srv.base, cfg.seed, decks)
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
		w.setupDone(t0)
	}
	defer srv.stop()

	m0, err := srv.scrape(c)
	if err != nil {
		return nil, err
	}
	p0, err := readProc(srv.pid)
	if err != nil {
		return nil, err
	}
	self0, err := readProc("self")
	if err != nil {
		return nil, err
	}
	ld := &load{cfg: cfg, c: c, srv: srv, hot: hot, corpus: corpus, payload: payload, decks: decks, rssMark: coldRSSMark}
	if hot {
		ld.rssMark = hotRSSMark
	}
	logs := make([]*clientLog, serveClients)
	ld.start = w.windowStart()
	ld.deadline = ld.start.Add(cfg.duration())
	var wg sync.WaitGroup
	for k := range logs {
		logs[k] = &clientLog{ops: newSpanLog("traced op"), jobs: newSpanLog("sampled job")}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			ld.runClient(k, logs[k])
		}(k)
	}
	stopMeter := make(chan struct{})
	meterDone := make(chan struct{})
	go func() {
		defer close(meterDone)
		t := time.NewTicker(serveCadence.every)
		defer t.Stop()
		for {
			select {
			case <-stopMeter:
				return
			case <-t.C:
				ld.gate.Lock() // waits for the ops in flight; holds off new ones
				w.meter.sample(serveCadence.runs)
				ld.gate.Unlock()
			}
		}
	}()
	wg.Wait()
	close(stopMeter)
	<-meterDone
	w.windowDone()

	m1, err := srv.scrape(c)
	if err != nil {
		return nil, err
	}
	p1, err := readProc(srv.pid)
	if err != nil {
		return nil, err
	}
	self1, err := readProc("self")
	if err != nil {
		return nil, err
	}
	w.peakRSSMB = p1.hwmKB / 1024
	if kb := ld.markKB.Load(); kb > 0 {
		w.peakRSSMB = float64(kb) / 1024
	} else if !cfg.smoke {
		w.note("peak_rss_mb read at the end: %d ops ran, the mark is %d", ld.done.Load(), ld.rssMark)
	}

	var cold []coldJob
	var submitMs, fetchMs []float64
	for _, l := range logs {
		// Every serve request is distinct: the stream is the one input.
		for i, lat := range l.lat {
			w.record("", lat, l.traced[i])
		}
		submitMs = append(submitMs, l.submitMs...)
		fetchMs = append(fetchMs, l.fetchMs...)
		w.failed += l.failed
		w.notes = append(w.notes, l.notes...)
		cold = append(cold, l.cold...)
	}
	w.attempted = len(w.latMs)
	if w.attempted == 0 {
		return nil, errors.New("no op completed in the window")
	}

	d := deltas(m0, m1)
	if hot {
		if s := d["detect_solves_total"]; s != 0 {
			w.failed++
			w.note("serve-hot simulated: detect_solves_total rose by %g", s)
		}
		if hits, sub := d["jobs_cache_hits_total"], d["jobs_submitted_total"]; hits != sub {
			w.failed++
			w.note("serve-hot: %g cache hits of %g submissions", hits, sub)
		}
	} else {
		w.failed += recheckCold(cfg.seed, cold, w)
	}
	if cfg.trace {
		ops := float64(w.attempted)
		layers := map[string]float64{
			"boolexpr.peak_terms":     m1["boolexpr_petrick_peak_terms"],
			"jobs.rejected_ratio":     d["jobs_rejected_total"] / ops,
			"dftserved.submit_ms":     mean(submitMs),
			"dftserved.result_ms":     mean(fetchMs),
			"dftserved.cpu_ms_per_op": (p1.cpuS - p0.cpuS) * 1000 / ops,
			"dftserved.rss_kb_per_op": (p1.rssKB - p0.rssKB) / ops,
			"loadgen.cpu_ms_per_op":   (self1.cpuS - self0.cpuS) * 1000 / ops,
		}
		for metric, counter := range libCounters {
			layers[metric] = d[counter] / ops
		}
		if in := d["boolexpr_absorb_terms_in_total"]; in > 0 {
			layers["boolexpr.absorb_keep_ratio"] = d["boolexpr_absorb_terms_out_total"] / in
		}
		if sub := d["jobs_submitted_total"]; sub > 0 {
			layers["jobs.hit_ratio"] = d["jobs_cache_hits_total"] / sub
		}
		if n := d["jobs_store_result_bytes_count"]; n > 0 {
			layers["jobs.store_bytes_per_put"] = d["jobs_store_result_bytes_sum"] / n
		}
		opLog, jobLog := newSpanLog("traced op"), newSpanLog("sampled job")
		for _, l := range logs {
			opLog.merge(l.ops)
			jobLog.merge(l.jobs)
		}
		addSpanMetrics(layers, jobLog)
		w.layers = layers
		w.finishTrace(cfg, layers, opLog, jobLog)
	}
	return w, nil
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// RSS marks: peak_rss_mb of a serve workload is dftserved's memory
// high-water mark when the window's ops reach this count, so runs compare
// memory after the same amount of work whatever their speed (the server
// keeps every job record, so its memory grows with ops served). Each is
// about a third of what a 20 s window reaches on a two-core machine.
const (
	coldRSSMark = 300
	hotRSSMark  = 20000
)

// load is what the clients of one serve window share.
type load struct {
	cfg             config
	c               *http.Client
	srv             *dftserved
	hot             bool
	corpus          []request
	payload         [][]byte
	decks           []deck
	start, deadline time.Time
	rssMark         int64
	done            atomic.Int64  // ops finished
	markKB          atomic.Uint64 // server VmHWM when done reached rssMark
	// gate is read-held by a client for each op and write-held by the
	// speed meter, so the meter samples only while no request is in
	// flight.
	gate sync.RWMutex
}

// opDone counts a finished op, sampling the server's memory at the mark.
func (ld *load) opDone() {
	if ld.done.Add(1) != ld.rssMark {
		return
	}
	if p, err := readProc(ld.srv.pid); err == nil {
		ld.markKB.Store(uint64(p.hwmKB))
	}
}

// runClient is one closed-loop client: it issues its next request only
// after the previous one completed, until the deadline (or the smoke op
// count).
func (ld *load) runClient(k int, l *clientLog) {
	gen := newGenerator(ld.cfg.seed, streamClient+k, ld.decks)
	pick := streamRand(ld.cfg.seed, streamClient+k)
	for n := 0; time.Now().Before(ld.deadline) && !(ld.cfg.smoke && n >= smokeOps); n++ {
		ld.gate.RLock()
		ld.clientOp(k, n, l, gen, pick)
		ld.gate.RUnlock()
	}
}

// clientOp is op n of client k: it draws the request, runs it, checks the
// answer and logs the op.
func (ld *load) clientOp(k, n int, l *clientLog, gen *generator, pick *rand.Rand) {
	cfg, c, base, hot := ld.cfg, ld.c, ld.srv.base, ld.hot
	var (
		req    request
		want   []byte
		stream = true
	)
	if hot {
		i := pick.Intn(len(ld.corpus))
		req, want = ld.corpus[i], ld.payload[i]
		stream = pick.Intn(2) == 0
	} else {
		req = gen.next()
	}
	t0 := time.Now()
	res, err := serveOp(c, base, req, stream)
	lat := time.Since(t0)
	ld.opDone()
	if err == nil {
		err = checkServed(res, hot, want)
	}
	traced := cfg.trace && n%2 == 0
	l.lat = append(l.lat, lat)
	l.submitMs = append(l.submitMs, ms(res.submit))
	l.fetchMs = append(l.fetchMs, ms(res.fetch))
	l.traced = append(l.traced, traced)
	if err != nil {
		l.failed++
		l.notes = append(l.notes, fmt.Sprintf("client %d op %d: %v", k, n, err))
		return
	}
	if !hot {
		l.cold = append(l.cold, coldJob{req: req, kind: res.view.Kind, payload: res.payload})
	}
	if traced {
		l.recordOp(k, n, t0.Sub(ld.start), res)
		if n%jobTraceEvery == 0 {
			if err := l.fetchJobTrace(c, base, res.view.ID, t0.Sub(ld.start)); err != nil {
				l.notes = append(l.notes, fmt.Sprintf("client %d job trace: %v", k, err))
			}
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recordOp adds the client-side spans of one traced op: the op, its
// submit call and its result read.
func (l *clientLog) recordOp(k, n int, at time.Duration, res served) {
	t0, t1 := ms(at), ms(at+res.submit)
	t2 := t1 + ms(res.fetch)
	trace := fmt.Sprintf("client-%d-op-%d", k, n)
	l.ops.add([]spanRec{
		{Trace: trace, ID: 0, Parent: -1, Name: "bench.op", Start: t0, End: t2},
		{Trace: trace, ID: 1, Parent: 0, Name: "dftserved.submit", Start: t0, End: t1},
		{Trace: trace, ID: 2, Parent: 0, Name: "dftserved.result", Start: t1, End: t2},
	}, 0)
}

// fetchJobTrace reads a finished job's span tree from the server and
// places it on the window's timeline at the op's submit time.
func (l *clientLog) fetchJobTrace(c *http.Client, base, id string, at time.Duration) error {
	resp, err := c.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", id, resp.Status)
	}
	var jt struct {
		TraceID string `json:"trace_id"`
		Trace   struct {
			Spans []*spanNode `json:"spans"`
		} `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jt); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	l.jobs.add(flattenSpans(jt.TraceID, jt.Trace.Spans, ms(at)), 0)
	return nil
}

// preload fills a fresh server's store with the serve-hot corpus and
// returns the corpus with each request's served payload.
func preload(c *http.Client, base string, seed int64, decks []deck) ([]request, [][]byte, error) {
	gen := newGenerator(seed, streamCorpus, decks)
	corpus := make([]request, corpusSize)
	payload := make([][]byte, corpusSize)
	for i := range corpus {
		corpus[i] = gen.next()
		res, err := serveOp(c, base, corpus[i], true)
		if err == nil {
			err = checkServed(res, false, nil)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("preload %d: %w", i, err)
		}
		payload[i] = res.payload
	}
	return corpus, payload, nil
}

// warmUp runs one untimed serve-cold job per library bench and per deck.
func warmUp(c *http.Client, base string, seed int64, decks []deck) error {
	rng := streamRand(seed, streamWarm)
	var reqs []request
	for _, b := range serveBenches {
		reqs = append(reqs, request{Kind: "matrix", Bench: b})
	}
	for _, d := range decks {
		reqs = append(reqs, request{Kind: "matrix", Deck: d.text})
	}
	for _, r := range reqs {
		r.Options.Eps = 0.08 + 0.04*rng.Float64()
		res, err := serveOp(c, base, r, true)
		if err == nil {
			err = checkServed(res, false, nil)
		}
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// recheckCold recomputes a seeded sample of the window's serve-cold jobs
// in-process through the public API and compares Det, coverage and the
// optimizer's best configurations with what the server returned. It
// returns the number of mismatches.
func recheckCold(seed int64, jobs []coldJob, w *window) int {
	if len(jobs) == 0 {
		return 0
	}
	rng := streamRand(seed, streamSample)
	idx := rng.Perm(len(jobs))
	bad := 0
	for _, i := range idx[:min(coldSamples, len(idx))] {
		if err := recompute(jobs[i]); err != nil {
			bad++
			w.note("serve-cold job %d recheck: %v", i, err)
		}
	}
	return bad
}

// recompute runs one served job's request through the library and
// compares the answers.
func recompute(j coldJob) error {
	r := j.req
	var bench *analogdft.Bench
	if r.Bench != "" {
		bench = analogdft.CircuitLibrary()[r.Bench]
	} else {
		var err error
		if bench, err = analogdft.LoadBench(r.deckPath); err != nil {
			return err
		}
	}
	var faults analogdft.FaultList
	switch r.Faults.Universe {
	case "deviation":
		faults = analogdft.DeviationFaults(bench.Circuit, r.Faults.Frac)
	case "bipolar":
		faults = analogdft.BipolarDeviationFaults(bench.Circuit, r.Faults.Frac)
	default:
		faults = analogdft.CatastrophicFaults(bench.Circuit)
	}
	s := analogdft.NewSession(bench, faults, analogdft.Options{Eps: r.Options.Eps})
	ctx := context.Background()
	switch j.kind {
	case "evaluate":
		row, err := s.Evaluate(ctx)
		if err != nil {
			return err
		}
		var got struct {
			Coverage float64 `json:"coverage"`
			Faults   []struct {
				ID         string `json:"id"`
				Detectable bool   `json:"detectable"`
			} `json:"faults"`
		}
		if err := json.Unmarshal(j.payload, &got); err != nil {
			return err
		}
		if got.Coverage != row.FaultCoverage() || len(got.Faults) != len(row.Evals) {
			return fmt.Errorf("evaluate: coverage %g over %d faults, library %g over %d", got.Coverage, len(got.Faults), row.FaultCoverage(), len(row.Evals))
		}
		for i, e := range row.Evals {
			if got.Faults[i].ID != e.Fault.ID || got.Faults[i].Detectable != e.Detectable {
				return fmt.Errorf("evaluate: fault %d served %+v, library %s detectable=%t", i, got.Faults[i], e.Fault.ID, e.Detectable)
			}
		}
	case "matrix":
		mx, err := s.Matrix(ctx)
		if err != nil {
			return err
		}
		var got struct {
			Det      [][]bool `json:"det"`
			Coverage float64  `json:"coverage"`
		}
		if err := json.Unmarshal(j.payload, &got); err != nil {
			return err
		}
		if got.Coverage != mx.FaultCoverage() || !reflect.DeepEqual(got.Det, mx.Det) {
			return fmt.Errorf("matrix: served coverage %g, library %g (or Det differs)", got.Coverage, mx.FaultCoverage())
		}
	case "optimize":
		cost := analogdft.ConfigCountCost
		if r.Cost == "opamps" {
			cost = analogdft.OpampCountCost
		}
		opt, err := s.Optimize(ctx, cost)
		if err != nil {
			return err
		}
		var got struct {
			Best struct {
				Configs []string `json:"configs"`
			} `json:"best"`
			MaxCoverage float64 `json:"max_coverage"`
		}
		if err := json.Unmarshal(j.payload, &got); err != nil {
			return err
		}
		if got.MaxCoverage != opt.MaxCoverage || !reflect.DeepEqual(got.Best.Configs, opt.Best.Labels) {
			return fmt.Errorf("optimize: served best %v at %g, library %v at %g", got.Best.Configs, got.MaxCoverage, opt.Best.Labels, opt.MaxCoverage)
		}
	default:
		return fmt.Errorf("unknown kind %q", j.kind)
	}
	return nil
}
