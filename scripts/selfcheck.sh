#!/usr/bin/env bash
# Self-profiling smoke test.
#
# Builds the CLI in release mode and runs `phasefold selfcheck`: a canned
# synthetic workload pushed through simulate -> trace -> analyze with
# observability recording on, printing per-stage timings and kernel
# counters. Exits non-zero if the pipeline produces no models.
#
# The run also exports the same snapshot as JSON (--metrics) and
# Prometheus text (--prom) and asserts the two renderings agree: every
# counter and gauge in the JSON dump must appear exactly once as a series
# in the exposition output. A metric that exists in one exporter but not
# the other is a telemetry bug, and exactly the kind a human only notices
# months later on a dashboard.
#
# Usage:
#   scripts/selfcheck.sh                 # default canned workload
#   scripts/selfcheck.sh --ranks 8       # extra args forwarded to selfcheck

set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d /tmp/phasefold-selfcheck.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
METRICS="$WORK/metrics.json"
PROM="$WORK/metrics.prom"

cargo run --release -q -p phasefold-cli --bin phasefold -- selfcheck \
    --metrics "$METRICS" --prom "$PROM" "$@"

echo
echo "== prom/JSON round trip =="
# Pull every counter and gauge name out of the JSON dump's two sections.
names=$(sed -n '/^  "counters": {/,/^  },/p; /^  "gauges": {/,/^  },/p' "$METRICS" \
    | sed -n 's/^    "\([^"]*\)":.*/\1/p')
if [[ -z "$names" ]]; then
    echo "FAIL: no counters/gauges found in $METRICS"
    exit 1
fi
fail=0
total=0
while IFS= read -r name; do
    total=$((total + 1))
    # Same sanitisation as the exporter: anything outside [a-zA-Z0-9_:]
    # becomes '_'.
    series=$(printf '%s' "$name" | sed 's/[^a-zA-Z0-9_:]/_/g')
    count=$(grep -c -- "^$series " "$PROM" || true)
    if [[ "$count" != "1" ]]; then
        echo "FAIL: JSON metric \"$name\" appears $count times as prom series \"$series\" (want 1)"
        fail=1
    fi
done <<<"$names"
if [[ $fail -ne 0 ]]; then
    echo "FAIL: prom exposition disagrees with the JSON metrics dump"
    exit 1
fi
echo "ok: all $total counters/gauges render exactly once in the exposition output"
