GO ?= go

.PHONY: build test race vet fmt invariants lint verify bench-test bench bench-smoke fuzz-smoke serve-smoke benchdiff

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

vet:
	$(GO) vet ./...

# fmt fails when any Go file is not gofmt-clean, listing the offenders.
fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# invariants enforces the repo-wide source rules with the type-aware
# multi-pass analyzer in internal/invariants (run
# `go run ./cmd/vetinvariants -list` for the VIxxx pass catalog). The
# JSON report lands in invariants-report.json for the CI artifact;
# findings are echoed to stderr so the log stays readable.
invariants:
	$(GO) run ./cmd/vetinvariants -json -o invariants-report.json .

# lint statically checks the reference deck; it must stay clean.
lint:
	$(GO) run ./cmd/netlint -Werror testdata/biquad.cir

# bench-test runs the harness tests of the end-to-end benchmark, which
# lives in its own module under bench/ and so is outside ./...
bench-test:
	cd bench && $(GO) test ./...

# verify is the full gate: static checks, a clean build, the whole test
# suite under the race detector and the benchmark harness tests. CI runs
# exactly these steps.
verify: vet fmt invariants lint build race bench-test

# bench runs the full benchmark suite three times with allocation stats
# and commits the aggregated result into the perf trajectory (see
# cmd/benchjson) as BENCH_<date>T<hhmmss>Z.json, stamped in UTC, so two
# snapshots of one day both stay and sort in the order they were taken,
# after a bare BENCH_<date>.json of that day ('T' sorts after '.').
# -cpu=1 pins GOMAXPROCS so snapshots from machines with different core
# counts stay comparable: the names carry no -N suffix, as in the
# committed snapshots.
bench:
	$(GO) test -bench=. -benchmem -count=3 -cpu=1 -run=^$$ -timeout 60m ./... \
		| $(GO) run ./cmd/benchjson -o BENCH_$$(date -u +%Y-%m-%dT%H%M%SZ).json

# bench-smoke is the cheap CI variant: every benchmark runs exactly once.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./...

# fuzz-smoke runs each fuzz target beyond its seed corpus for 15 s;
# plain `go test` runs only the seeds.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=^FuzzCSR$$ -fuzztime=15s ./internal/numeric/
	$(GO) test -run=^$$ -fuzz=^FuzzParse$$ -fuzztime=15s ./internal/spice/
	$(GO) test -run=^$$ -fuzz=^FuzzPetrick$$ -fuzztime=15s ./internal/boolexpr/
	$(GO) test -run=^$$ -fuzz=^FuzzFSStore$$ -fuzztime=15s ./internal/jobs/

# serve-smoke boots dftserved on an ephemeral port, runs a matrix job end
# to end over HTTP under a fixed traceparent, asserts the trace ID
# propagates into the job's span tree, that the resubmission is a cache
# hit and that the server drains cleanly on SIGTERM.
serve-smoke:
	./scripts/dftserved-smoke.sh

# benchdiff compares the two freshest committed BENCH_*.json snapshots
# with noise-aware thresholds; exit 2 means at least one regression.
# CI runs this advisory plus an enforcing `-gate allocs` pass (allocation
# counts are deterministic, so they gate hard while ns/op stays advisory),
# and a cross-sectional `-dim impl=dense-ref:csr -gate allocs` pass that
# holds the CSR sweep point (internal/mna BenchmarkSolvePoint) to never
# allocating more than its in-test dense reference within one snapshot.
benchdiff:
	$(GO) run ./cmd/benchdiff -dir .
	$(GO) run ./cmd/benchdiff -dir . -dim impl=dense-ref:csr -gate allocs
