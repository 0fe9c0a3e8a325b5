#!/usr/bin/env bash
# Serving smoke + load gate.
#
# Boots `phasefold serve` on an ephemeral port (discovered via --port-file),
# fires smoke requests at /healthz, /metrics, and /v1/analyze (cold miss
# then byte-identical cache hit), checks that the daemon and the CLI both
# accept a trace with one malformed record line, then points a low-concurrency
# exp_serve_load run at the live daemon. Gates:
#
#   - every smoke request answers with the expected status,
#   - the warm /v1/analyze answer is byte-identical to the cold one and
#     carries `x-cache: hit`,
#   - no `# TYPE` family repeats in the Prometheus exposition,
#   - worst p99 latency across load levels stays under P99_GATE_MS,
#   - the daemon's own /metrics latency histogram agrees with the
#     client-observed p99 (within 25% or 1 ms — telemetry that disagrees
#     with the client's stopwatch is lying),
#   - overall cache hit ratio stays above HIT_RATIO_GATE,
#   - zero dropped well-formed requests,
#   - the daemon drains gracefully (the serve command itself exits non-zero
#     on a non-clean drain, and its output must say clean=true),
#   - kill-and-resume: a second daemon booted with `--durability wal` is
#     SIGKILLed mid-stream and rebooted on the same --state-dir; the
#     resumed session's /phases answer must be byte-identical to the one
#     served just before the kill — zero acknowledged records lost,
#   - scaling: the full E16 concurrency ladder (1..1024) writes a fresh
#     BENCH_serve.json in-process and is gated on throughput shape. On
#     multi-core hosts throughput must be monotone (5% slack) up to the
#     core count. On 1-core hosts real scaling cannot be observed —
#     `scaling_measured: false` is recorded, mirroring bench.sh — so the
#     honest gate is no-collapse: c=64 throughput ≥ COLLAPSE_GATE× both
#     the c=4 throughput and the ladder peak, p99 at c=64 under
#     SCALE_P99_GATE_MS, zero drops through c=1024.
#
# Every result file (BENCH_serve.json, results/e16_serve_load.csv) is
# written into the script's temporary work directory, so a run leaves the
# tracked copies alone.
#
# Usage:
#   scripts/serve.sh            # run the gates
#   scripts/serve.sh --update   # also copy the ladder's BENCH_serve.json and
#                               # results/e16_serve_load.csv into the repo
#                               # once every gate has passed (the ladder
#                               # writes no "durability" block: rerun
#                               # exp_durability afterwards to splice it)
#
# Needs only cargo + POSIX shell tools; exp_serve_load writes its JSON one
# scalar per line exactly so this script can stay dependency-free.

set -euo pipefail
cd "$(dirname "$0")/.."
REPO=$PWD

UPDATE=0
case "${1:-}" in
    "") ;;
    --update) UPDATE=1 ;;
    *) echo "usage: scripts/serve.sh [--update]" >&2; exit 2 ;;
esac

P99_GATE_MS=${P99_GATE_MS:-2000}
HIT_RATIO_GATE=${HIT_RATIO_GATE:-0.5}
SCALE_P99_GATE_MS=${SCALE_P99_GATE_MS:-100}
COLLAPSE_GATE=${COLLAPSE_GATE:-0.8}

WORK=$(mktemp -d /tmp/phasefold-serve.XXXXXX)
PORT_FILE="$WORK/addr.txt"
SERVE_LOG="$WORK/serve.log"
LOAD_JSON="$WORK/load.json"
SERVER_PID=""
cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== release build =="
cargo build --release -p phasefold-cli -p phasefold-bench

PHASEFOLD=target/release/phasefold
LOADGEN=$REPO/target/release/exp_serve_load
# exp_serve_load writes results/e16_serve_load.csv under its working
# directory; running it from $WORK keeps the tracked copy untouched.
BENCH_JSON="$WORK/BENCH_serve.json"

echo "== booting daemon on an ephemeral port =="
"$PHASEFOLD" serve --addr 127.0.0.1:0 --workers 4 --queue-depth 32 \
    --fleet-dir "$WORK/fleet" \
    --port-file "$PORT_FILE" >"$SERVE_LOG" 2>&1 &
SERVER_PID=$!

ADDR=""
for _ in $(seq 1 100); do
    if [[ -s "$PORT_FILE" ]]; then
        ADDR=$(cat "$PORT_FILE")
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "FAIL: daemon died during boot"; cat "$SERVE_LOG"; exit 1
    fi
    sleep 0.1
done
if [[ -z "$ADDR" ]]; then
    echo "FAIL: port file never appeared"; cat "$SERVE_LOG"; exit 1
fi
echo "daemon at $ADDR (pid $SERVER_PID)"

# Minimal HTTP client on /dev/tcp so the smoke path needs no curl. Prints
# the full response (headers + body) to stdout.
request() {
    local method=$1 path=$2 body=${3:-}
    local host=${ADDR%:*} port=${ADDR##*:}
    exec 3<>"/dev/tcp/$host/$port"
    {
        printf '%s %s HTTP/1.1\r\n' "$method" "$path"
        printf 'Host: %s\r\nContent-Length: %s\r\nConnection: close\r\n\r\n' \
            "$ADDR" "${#body}"
        printf '%s' "$body"
    } >&3
    cat <&3
    exec 3<&- 3>&-
}

expect_status() {
    local label=$1 want=$2 response=$3
    local got
    got=$(printf '%s' "$response" | head -1 | awk '{print $2}' | tr -d '\r')
    if [[ "$got" != "$want" ]]; then
        echo "FAIL: $label answered $got (wanted $want)"
        printf '%s\n' "$response" | head -20
        exit 1
    fi
    echo "ok: $label -> $got"
}

echo "== smoke requests =="
expect_status "GET /healthz" 200 "$(request GET /healthz)"
expect_status "GET /metrics" 200 "$(request GET /metrics)"
expect_status "GET /nonexistent" 404 "$(request GET /nonexistent)"
expect_status "POST /v1/analyze (garbage)" 422 "$(request POST /v1/analyze 'not a trace')"

echo "== cold/warm analyze round trip =="
TRACE="$WORK/smoke.prv"
"$PHASEFOLD" simulate synthetic --iterations 60 --ranks 1 \
    --out "$TRACE" >/dev/null
COLD=$(request POST /v1/analyze "$(cat "$TRACE")")
expect_status "POST /v1/analyze (cold)" 200 "$COLD"
WARM=$(request POST /v1/analyze "$(cat "$TRACE")")
expect_status "POST /v1/analyze (warm)" 200 "$WARM"
if ! printf '%s' "$WARM" | grep -qi '^x-cache: hit'; then
    echo "FAIL: warm analyze was not served from cache"
    printf '%s\n' "$WARM" | head -10
    exit 1
fi
body_of() { printf '%s' "$1" | awk 'body {print} /^\r?$/ {body=1}'; }
if [[ "$(body_of "$COLD")" != "$(body_of "$WARM")" ]]; then
    echo "FAIL: cache hit body differs from cold-run body"
    exit 1
fi
echo "ok: cache hit is byte-identical to the cold run"

echo "== Prometheus exposition: one # TYPE line per family =="
PROM=$(request GET "/metrics?format=prom")
expect_status "GET /metrics?format=prom" 200 "$PROM"
DUPES=$(body_of "$PROM" | awk '$1 == "#" && $2 == "TYPE" {print $3}' | sort | uniq -d)
if [[ -n "$DUPES" ]]; then
    echo "FAIL: repeated # TYPE families in /metrics?format=prom:"
    printf '%s\n' "$DUPES"
    exit 1
fi
echo "ok: every # TYPE family appears once"

echo "== fleet fingerprint + compare smoke =="
expect_status "POST /v1/fingerprints" 200 \
    "$(request POST "/v1/fingerprints?build=smoke-base" "$(cat "$TRACE")")"
VERDICT=$(request POST "/v1/compare?baseline=smoke-base" "$(cat "$TRACE")")
expect_status "POST /v1/compare" 200 "$VERDICT"
# The candidate is the byte-identical trace: the verdict must be clean.
if ! body_of "$VERDICT" | grep -q '"regressed":false'; then
    echo "FAIL: self-compare reported a regression"
    body_of "$VERDICT" | head -5
    exit 1
fi
echo "ok: self-compare verdict is clean"

echo "== parse parity: a trace with one malformed record line =="
# Lenient parsing (the default) quarantines the bad line; the daemon and
# the CLI must accept the same trace.
DIRTY="$WORK/dirty.prv"
cp "$TRACE" "$DIRTY"
echo "R 0 bogus line" >>"$DIRTY"
expect_status "POST /v1/fingerprints (one malformed line)" 200 \
    "$(request POST "/v1/fingerprints?build=dirty" "$(cat "$DIRTY")")"
if ! "$PHASEFOLD" fingerprint "$DIRTY" --out "$WORK/dirty.pffp" \
    --fault-policy lenient >/dev/null; then
    echo "FAIL: phasefold fingerprint --fault-policy lenient rejected the trace"
    exit 1
fi
echo "ok: phasefold fingerprint --fault-policy lenient accepts it too"

echo "== low-concurrency load against the live daemon =="
(cd "$WORK" && "$LOADGEN" "$LOAD_JSON" --addr "$ADDR" --requests 64 --levels 1,4)

extract() {
    grep "\"$1\":" "$LOAD_JSON" | head -1 | sed "s/.*\"$1\": \([0-9.truefalse]*\),*/\1/"
}

fail=0
p99=$(extract worst_p99_ms)
hit=$(extract overall_hit_ratio)
dropped=$(extract dropped_requests)
awk -v p="$p99" -v gate="$P99_GATE_MS" 'BEGIN {
    status = (p <= gate) ? "ok" : "TOO SLOW";
    printf "worst p99: %.2f ms (gate <= %d ms)   %s\n", p, gate, status;
    exit (p <= gate) ? 0 : 1;
}' || fail=1
awk -v h="$hit" -v gate="$HIT_RATIO_GATE" 'BEGIN {
    status = (h >= gate) ? "ok" : "TOO COLD";
    printf "overall cache hit ratio: %.3f (gate >= %.2f)   %s\n", h, gate, status;
    exit (h >= gate) ? 0 : 1;
}' || fail=1
if [[ "$dropped" != "0" ]]; then
    echo "dropped_requests = $dropped (must be 0)"
    fail=1
fi

# Telemetry self-consistency: the daemon-side latency histogram and the
# client's own stopwatch must tell the same p99 story at the anchor level
# (lowest concurrency — with more clients than cores the client stopwatch
# includes CPU-contention waits the handler never sees). The histogram is
# log-bucketed, so allow 25% relative or 1 ms absolute slack.
client_p99=$(extract gate_client_p99_ms)
daemon_p99=$(extract daemon_p99_ms)
awk -v c="$client_p99" -v d="$daemon_p99" 'BEGIN {
    tol = (0.25 * c > 1.0) ? 0.25 * c : 1.0;
    diff = (d > c) ? d - c : c - d;
    status = (diff <= tol) ? "ok" : "INCONSISTENT";
    printf "daemon p99 %.2f ms vs client p99 %.2f ms (|diff| %.2f, tol %.2f)   %s\n", \
        d, c, diff, tol, status;
    exit (diff <= tol) ? 0 : 1;
}' || fail=1

echo "== graceful shutdown =="
expect_status "POST /admin/shutdown" 200 "$(request POST /admin/shutdown)"
if ! wait "$SERVER_PID"; then
    echo "FAIL: serve command exited non-zero (non-graceful drain)"
    cat "$SERVE_LOG"
    exit 1
fi
SERVER_PID=""
if ! grep -q 'clean=true' "$SERVE_LOG"; then
    echo "FAIL: daemon did not report a clean drain"
    cat "$SERVE_LOG"
    exit 1
fi
echo "ok: daemon drained cleanly"
cat "$SERVE_LOG"

echo "== kill-and-resume: no acknowledged record may outlive a SIGKILL =="
STATE_DIR="$WORK/state"
RECORDS="$WORK/records.txt"
grep -v '^#' "$TRACE" >"$RECORDS"
TOTAL_LINES=$(wc -l <"$RECORDS")
HALF=$((TOTAL_LINES / 2))

boot_durable() {
    rm -f "$PORT_FILE"
    "$PHASEFOLD" serve --addr 127.0.0.1:0 --workers 2 --queue-depth 16 \
        --state-dir "$STATE_DIR" --durability wal \
        --port-file "$PORT_FILE" >>"$SERVE_LOG" 2>&1 &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        if [[ -s "$PORT_FILE" ]]; then
            ADDR=$(cat "$PORT_FILE")
            break
        fi
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "FAIL: durable daemon died during boot"; tail -20 "$SERVE_LOG"; exit 1
        fi
        sleep 0.1
    done
    [[ -n "$ADDR" ]] || { echo "FAIL: durable daemon never published its port"; exit 1; }
}

boot_durable
expect_status "POST records (first half)" 200 \
    "$(request POST /v1/streams/gate/records "$(head -n "$HALF" "$RECORDS")")"
expect_status "POST records (second half)" 200 \
    "$(request POST /v1/streams/gate/records "$(tail -n +"$((HALF + 1))" "$RECORDS")")"
BEFORE=$(request GET /v1/streams/gate/phases)
expect_status "GET phases (before kill)" 200 "$BEFORE"

kill -9 "$SERVER_PID" 2>/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "daemon SIGKILLed; rebooting on the same state dir"

boot_durable
AFTER=$(request GET /v1/streams/gate/phases)
expect_status "GET phases (resumed)" 200 "$AFTER"
if [[ "$(body_of "$BEFORE")" != "$(body_of "$AFTER")" ]]; then
    echo "FAIL: resumed session lost acknowledged records"
    echo "--- before kill:"; body_of "$BEFORE"
    echo "--- after resume:"; body_of "$AFTER"
    exit 1
fi
echo "ok: resumed /phases is byte-identical to the pre-kill answer"
# The resumed session must keep accepting records, not just replaying.
expect_status "POST records (after resume)" 200 \
    "$(request POST /v1/streams/gate/records "$(head -n 5 "$RECORDS")")"
expect_status "POST /admin/shutdown (durable)" 200 "$(request POST /admin/shutdown)"
wait "$SERVER_PID" || { echo "FAIL: durable daemon drain non-clean"; exit 1; }
SERVER_PID=""
echo "ok: kill-and-resume gate passed"

echo "== scaling gate: full E16 ladder, in-process daemons =="
(cd "$WORK" && "$LOADGEN" "$BENCH_JSON")

extract_bench() {
    grep "\"$1\":" "$BENCH_JSON" | head -1 \
        | sed "s/.*\"$1\": \([0-9.truefalse]*\),*/\1/"
}

cores=$(extract_bench host_cores)
measured=$(extract_bench scaling_measured)
bench_dropped=$(extract_bench dropped_requests)
if [[ "$bench_dropped" != "0" ]]; then
    echo "BENCH_serve.json dropped_requests = $bench_dropped (must be 0)"
    fail=1
fi
# One "concurrency throughput p99" triple per ladder level (the
# durability block has no "concurrency" key, so this grep is exact).
grep '"concurrency":' "$BENCH_JSON" \
    | sed 's/.*"concurrency": \([0-9]*\),.*"throughput_rps": \([0-9.]*\),.*"p99_ms": \([0-9.]*\),.*/\1 \2 \3/' \
    | awk -v cores="$cores" -v measured="$measured" \
          -v p99gate="$SCALE_P99_GATE_MS" -v collapse="$COLLAPSE_GATE" '
    { c[NR] = $1; t[NR] = $2; p[NR] = $3; if ($2 > peak) peak = $2 }
    END {
        fail = 0
        for (i = 1; i <= NR; i++) {
            if (c[i] == 4)  t4 = t[i]
            if (c[i] == 64) { t64 = t[i]; p64 = p[i] }
        }
        printf "host cores: %d, scaling_measured: %s, ladder peak: %.0f rps\n", \
            cores, measured, peak
        if (measured == "true") {
            # Real cores to scale across: throughput must not dip on the
            # way up to the core count (5% noise slack).
            for (i = 2; i <= NR; i++) {
                if (c[i] <= cores && t[i] < t[i-1] * 0.95) {
                    printf "NOT MONOTONE: c=%d %.0f rps < c=%d %.0f rps\n", \
                        c[i], t[i], c[i-1], t[i-1]
                    fail = 1
                }
            }
            if (!fail) printf "throughput monotone up to %d cores   ok\n", cores
        } else {
            print "1-core host: scaling unobservable, gating no-collapse only"
        }
        # No-collapse holds on every host: concurrency alone must not
        # erase throughput (the thread-per-connection core fell to 0.46x
        # peak at c=64 on this container).
        status = (t64 >= collapse * t4) ? "ok" : "COLLAPSED"
        printf "c=64 vs c=4: %.0f / %.0f rps = %.2fx (gate >= %.2f)   %s\n", \
            t64, t4, t64 / t4, collapse, status
        if (t64 < collapse * t4) fail = 1
        status = (t64 >= collapse * peak) ? "ok" : "COLLAPSED"
        printf "c=64 vs peak: %.0f / %.0f rps = %.2fx (gate >= %.2f)   %s\n", \
            t64, peak, t64 / peak, collapse, status
        if (t64 < collapse * peak) fail = 1
        status = (p64 <= p99gate) ? "ok" : "TOO SLOW"
        printf "c=64 p99: %.2f ms (gate <= %d ms)   %s\n", p64, p99gate, status
        if (p64 > p99gate) fail = 1
        exit fail
    }' || fail=1

if [[ $fail -ne 0 ]]; then
    echo "FAIL: serving gate"
    exit 1
fi
if [[ $UPDATE -eq 1 ]]; then
    cp "$BENCH_JSON" "$REPO/BENCH_serve.json"
    cp "$WORK/results/e16_serve_load.csv" "$REPO/results/e16_serve_load.csv"
    echo "updated BENCH_serve.json and results/e16_serve_load.csv"
fi
echo "OK: serve smoke + load + scaling gates passed"
