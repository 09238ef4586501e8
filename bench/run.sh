#!/usr/bin/env bash
# Builds dftbench and dftserved from this checkout, then runs the benchmark.
#
#   bash bench/run.sh --workload paper-flow --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --workload all --seed 1
#   bash bench/run.sh compare A.json B.json
#
# Every build and run artifact (Go build cache, temp files, the go
# command's own config and telemetry, binaries, result stores, traces)
# stays under .bench_build/ at the checkout root.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry" "$out/gopath"
# With telemetry on, the go command starts a detached child that outlives
# it; turning telemetry off in this private config keeps it from starting.
printf 'off\n' > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root" build -o "$out/bin/dftserved" ./cmd/dftserved
go -C "$root/bench" build -o "$out/bin/dftbench" ./dftbench

cd "$root"
exec "$out/bin/dftbench" -dftserved "$out/bin/dftserved" -workdir "$out" -benchdir "$root/bench" "$@"
