#!/usr/bin/env bash
# The repo benchmark: build it from source, then run it.
#
#   benchmark/run.sh                      all four workloads, timed, then a summary
#   benchmark/run.sh --traced             all four, traced: per-layer metrics and out/trace-*.json
#   benchmark/run.sh --repeat 2           timed and traced sets twice; fails unless they agree
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; the last line of output is its JSON result
#
# Run it from anywhere; it reads and writes only below the repo root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# CARGO_TARGET_DIR, when set, is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" >&2

BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)" \
BENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)" \
    exec "$target/release/xmlrel-benchmark" --out "$here/out" "$@"
