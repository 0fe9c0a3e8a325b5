#!/usr/bin/env bash
# Lint gate for the fault-critical paths.
#
# The files where a stray unwrap can take down a whole analysis —
# crates/core/src/pipeline.rs, crates/core/src/pool.rs, and
# crates/model/src/prv.rs — carry file-scoped
# `#![deny(clippy::unwrap_used, clippy::expect_used)]` attributes, and
# phasefold-serve denies them crate-wide (a panic on a connection thread
# kills a live client; the daemon must never unwrap request-derived data).
# That crate-wide deny deliberately covers the durability layer —
# crates/serve/src/{store,wal}.rs — where the stakes are higher still: a
# panic during WAL replay or checkpoint recovery turns one corrupt byte on
# disk into a daemon that can never boot again. Torn tails and bad
# checkpoints must flow through the fault taxonomy, never through unwrap.
# phasefold-verify denies them crate-wide too: an oracle that panics
# mid-fuzz hides every divergence the remaining seeds would have found.
# The hot kernels — crates/regress/src/{segdp,linalg}.rs and
# crates/cluster/src/kdtree.rs — carry the same file-scoped deny: a panic
# there aborts every fit/clustering in flight, and the kernel rewrites
# must stay total functions (bound checks, not unwraps).
# phasefold-obs denies them crate-wide as well: the telemetry layer runs
# inside every request and every worker, and instrumentation must never
# be the thing that takes the instrumented process down.
# phasefold-fleet joins the deny list because it decodes fingerprints that
# arrive over the wire and off disk: a panic on a malformed `.pffp` frame
# would let one corrupt baseline wedge every deploy gate that reads it.
# Any unwrap/expect reintroduced there is a hard *error* under clippy (test
# modules opt back in explicitly with #[allow]). Plain rustc accepts the
# tool-lint attributes silently; this script runs clippy on the owning
# crates so the deny actually bites.
#
# It then runs the two test sets that share process-global state between
# concurrently running tests (the obs span registry and enabled flag; the
# serve event-loop tests' thread census) 20 times each, so an
# order-dependent test shows up as a failure here rather than as an
# occasional red tier-1 run.
#
# Usage:
#   scripts/lint.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy: fault-critical crates (unwrap/expect are hard errors) =="
cargo clippy -q -p phasefold -p phasefold-model -p phasefold-serve -p phasefold-verify \
    -p phasefold-regress -p phasefold-cluster -p phasefold-obs -p phasefold-fleet \
    --all-targets

echo "== repeat runs: tests sharing process-global state (20x each) =="
repeat() {
    local label=$1
    shift
    for i in $(seq 1 20); do
        if ! out=$("$@" 2>&1); then
            echo "$out"
            echo "FAIL: $label failed on run $i of 20"
            exit 1
        fi
    done
    echo "$label: 20/20 passed"
}
repeat "phasefold-obs --lib" cargo test -q -p phasefold-obs --lib
repeat "phasefold-serve --test event_loop" cargo test -q -p phasefold-serve --test event_loop

echo "lint OK"
