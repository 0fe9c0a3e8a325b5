#!/usr/bin/env bash
# Builds the phasefold daemon and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the benchmark's account and its final JSON
# line go to stdout. Artifacts land in $CARGO_TARGET_DIR (.bench_build by
# default).
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the root of a phasefold checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p phasefold-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
# The revision under test: the commit when the checkout is a git work tree
# of its own, else a digest of the sources the daemon is built from.
commit=""
if [ -e .git ]; then
    commit=$(git rev-parse --short HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
    commit="src-$(find Cargo.toml Cargo.lock crates vendor -type f | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --daemon "$CARGO_TARGET_DIR/release/phasefold" --commit "$commit"
