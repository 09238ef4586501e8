#!/usr/bin/env bash
# Smoke test for cmd/dftserved: boot the server on an ephemeral port with
# a disk-backed result store, run a paper-biquad matrix job end to end
# under a fixed W3C traceparent, assert the trace ID propagates into the
# job's span tree, assert the identical resubmission is a cache hit,
# stream the matrix rows as NDJSON, then boot a second replica over the same store directory and
# assert it serves the first replica's result without simulating. Needs
# curl and python3 (for JSON field extraction). Exits non-zero on any
# failed assertion; CI runs this as the dftserved smoke job. When
# SMOKE_ARTIFACTS names a directory, the job trace, the trace listing and
# the SLO snapshot are saved there for upload.
set -euo pipefail

log() { echo "smoke: $*" >&2; }
fail() { log "FAIL: $*"; exit 1; }

workdir=$(mktemp -d)
server_pid=""
replica_pid=""
trap 'kill "$server_pid" "$replica_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/dftserved" ./cmd/dftserved

# wait_addr LOGFILE PID: scrape the "listening on" line for the base URL.
wait_addr() {
    local logfile=$1 pid=$2 addr
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^dftserved: listening on //p' "$logfile" | head -n1)
        if [ -n "$addr" ]; then echo "http://$addr"; return 0; fi
        kill -0 "$pid" 2>/dev/null || { cat "$logfile" >&2; return 1; }
        sleep 0.1
    done
    return 1
}

store_dir="$workdir/store"
"$workdir/dftserved" -addr 127.0.0.1:0 -workers 1 -timing \
    -store-dir "$store_dir" >"$workdir/server.log" 2>&1 &
server_pid=$!

# The server prints "dftserved: listening on 127.0.0.1:PORT" on boot.
base=$(wait_addr "$workdir/server.log" "$server_pid") || fail "server never reported its address"
log "server at $base (store $store_dir)"

json_field() { python3 -c "import json,sys; print(json.load(sys.stdin)$1)"; }

body='{"kind":"matrix","bench":"paper-biquad","options":{"points":31}}'

# A fixed W3C trace context; its trace ID must surface end to end.
trace_id=4bf92f3577b34da6a3ce929d0e0e4736
traceparent="00-$trace_id-00f067aa0ba902b7-01"

# Submit: must answer 201 with a job id carrying our trace identity.
resp=$(curl -sS -w '\n%{http_code}' -X POST -H "traceparent: $traceparent" -d "$body" "$base/v1/jobs")
code=${resp##*$'\n'}
[ "$code" = 201 ] || fail "submit: HTTP $code"
job_id=$(printf '%s' "${resp%$'\n'*}" | json_field "['id']")
got_trace=$(printf '%s' "${resp%$'\n'*}" | json_field "['trace_id']")
[ "$got_trace" = "$trace_id" ] || fail "job trace_id=$got_trace, inbound traceparent not adopted"
log "submitted $job_id under trace $trace_id"

# Poll until the job finishes.
state=queued
for _ in $(seq 1 300); do
    state=$(curl -sS "$base/v1/jobs/$job_id" | json_field "['state']")
    case "$state" in done|failed|canceled) break ;; esac
    sleep 0.1
done
[ "$state" = done ] || fail "job ended in state $state"

# Result: 200 with a non-degenerate matrix.
resp=$(curl -sS -w '\n%{http_code}' "$base/v1/jobs/$job_id/result")
code=${resp##*$'\n'}
[ "$code" = 200 ] || fail "result: HTTP $code"
coverage=$(printf '%s' "${resp%$'\n'*}" | json_field "['coverage']")
solves=$(printf '%s' "${resp%$'\n'*}" | json_field "['stats']['solves']")
log "matrix done: coverage=$coverage solves=$solves"
[ "$solves" != 0 ] || fail "matrix reports zero solves"

# Trace: the retained span tree must carry the inbound trace identity
# and reach the engine (a jobs.run span with detect.* children).
resp=$(curl -sS -w '\n%{http_code}' "$base/v1/jobs/$job_id/trace")
code=${resp##*$'\n'}
[ "$code" = 200 ] || fail "trace: HTTP $code"
trace_json=${resp%$'\n'*}
jt_id=$(printf '%s' "$trace_json" | json_field "['trace_id']")
[ "$jt_id" = "$trace_id" ] || fail "trace endpoint reports trace_id=$jt_id, want $trace_id"
printf '%s' "$trace_json" | grep -q '"jobs.run"' || fail "trace has no jobs.run span"
printf '%s' "$trace_json" | grep -q '"detect.' || fail "trace has no engine spans"
log "trace propagated end to end ($(printf '%s' "$trace_json" | json_field "['spans']") spans)"

# Save the observability artifacts when CI asked for them.
if [ -n "${SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS"
    printf '%s' "$trace_json" > "$SMOKE_ARTIFACTS/job-trace.json"
    curl -sS "$base/v1/debug/traces" > "$SMOKE_ARTIFACTS/traces.json"
    curl -sS "$base/v1/debug/slo" > "$SMOKE_ARTIFACTS/slo.json"
    curl -sS "$base/healthz" > "$SMOKE_ARTIFACTS/healthz.json"
    log "artifacts saved to $SMOKE_ARTIFACTS"
fi

# Identical resubmission: served from the cache, already done.
resp=$(curl -sS -w '\n%{http_code}' -X POST -d "$body" "$base/v1/jobs")
code=${resp##*$'\n'}
[ "$code" = 201 ] || fail "resubmit: HTTP $code"
cached=$(printf '%s' "${resp%$'\n'*}" | json_field "['cached']")
state2=$(printf '%s' "${resp%$'\n'*}" | json_field "['state']")
[ "$cached" = True ] && [ "$state2" = done ] || fail "resubmit not a cache hit (cached=$cached state=$state2)"
log "resubmit was a cache hit"

# Metrics: non-empty exposition counting exactly one hit.
metrics=$(curl -sS "$base/metrics")
[ -n "$metrics" ] || fail "/metrics is empty"
echo "$metrics" | grep -q '^jobs_cache_hits_total 1$' || fail "jobs_cache_hits_total != 1"
echo "$metrics" | grep -q '^detect_solves_total ' || fail "detect_solves_total missing"

# Streaming: the NDJSON row stream must deliver one row per matrix
# config and a final aggregate equal to the plain result payload.
curl -sS "$base/v1/jobs/$job_id/result?stream=rows" > "$workdir/stream.ndjson"
curl -sS "$base/v1/jobs/$job_id/result" > "$workdir/result.json"
python3 - "$workdir/stream.ndjson" "$workdir/result.json" <<'PY' || fail "row stream inconsistent"
import json, sys
rows, result = [], None
with open(sys.argv[1]) as f:
    for line in f:
        ev = json.loads(line)
        if ev["type"] == "row":
            rows.append(ev["row"])
        elif ev["type"] == "result":
            result = ev["result"]
        else:
            sys.exit(f"stream error event: {ev}")
direct = json.load(open(sys.argv[2]))
assert result == direct, "streamed aggregate differs from GET /result"
assert len(rows) == len(direct["configs"]), (len(rows), len(direct["configs"]))
assert sorted(r["index"] for r in rows) == list(range(len(rows))), "row indices not a permutation"
for r in rows:
    assert r["config"] == direct["configs"][r["index"]]
PY
log "row stream delivered all $(python3 -c "import json;print(len(json.load(open('$workdir/result.json'))['configs']))") rows + aggregate"

# Retired layout option: CSR is the only matrix layout, so a submission
# that still names one is rejected as a bad request, whatever the value.
for layout in auto dense sparse; do
    code=$(curl -sS -o "$workdir/layout.json" -w '%{http_code}' -X POST \
        -d "{\"kind\":\"matrix\",\"bench\":\"paper-biquad\",\"options\":{\"points\":31,\"layout\":\"$layout\"}}" \
        "$base/v1/jobs")
    [ "$code" = 400 ] || fail "submit layout=$layout: HTTP $code, want 400"
    json_field "['code']" <"$workdir/layout.json" | grep -qx bad_request || fail "layout=$layout: error code is not bad_request"
done
log "retired layout option: HTTP 400 bad_request"

# Shared store: a second replica over the same -store-dir must serve the
# first replica's result as a cache hit without ever reaching the engine.
"$workdir/dftserved" -addr 127.0.0.1:0 -workers 1 \
    -store-dir "$store_dir" >"$workdir/replica.log" 2>&1 &
replica_pid=$!
rbase=$(wait_addr "$workdir/replica.log" "$replica_pid") || fail "replica never reported its address"
log "replica at $rbase (same store)"
curl -sS "$rbase/healthz" | json_field "['store']['kind']" | grep -qx fs || fail "replica store kind != fs"
resp=$(curl -sS -w '\n%{http_code}' -X POST -d "$body" "$rbase/v1/jobs")
code=${resp##*$'\n'}
[ "$code" = 201 ] || fail "replica submit: HTTP $code"
rcached=$(printf '%s' "${resp%$'\n'*}" | json_field "['cached']")
rstate=$(printf '%s' "${resp%$'\n'*}" | json_field "['state']")
[ "$rcached" = True ] && [ "$rstate" = done ] || fail "replica missed the shared store (cached=$rcached state=$rstate)"
rmetrics=$(curl -sS "$rbase/metrics")
echo "$rmetrics" | grep -q '^jobs_cache_hits_total 1$' || fail "replica jobs_cache_hits_total != 1"
echo "$rmetrics" | grep -q '^detect_solves_total 0$' || fail "replica simulated despite the shared store"
rjob=$(printf '%s' "${resp%$'\n'*}" | json_field "['id']")
rcoverage=$(curl -sS "$rbase/v1/jobs/$rjob/result" | json_field "['coverage']")
[ "$rcoverage" = "$coverage" ] || fail "replica coverage $rcoverage != $coverage"
log "replica served the shared-store result: cache hit, zero solves"
kill -TERM "$replica_pid"
wait "$replica_pid" || fail "replica exited non-zero on SIGTERM"
replica_pid=""

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$server_pid"
wait "$server_pid" || fail "server exited non-zero on SIGTERM"
log "PASS"
