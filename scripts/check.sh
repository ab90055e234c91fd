#!/usr/bin/env bash
# Full verification gate: formatting, release build, the workspace linter,
# the plan-quality gate, clippy, the whole test suite, and the benchmark's
# own tests (every workload run once plain and once traced, answers
# checked). Run from anywhere; operates on the repository root. Each step
# names itself so a failure is attributable at a glance.
#
# Wall-clock performance is not gated here: `benchmark/run.sh` is the one
# perf harness, and plan or cost regressions fail tests/golden_plans.rs.
#
# All cargo invocations run --locked: the container is offline and the
# lockfile is the only dependency truth, so a drifted Cargo.toml fails
# loudly here instead of mid-build.
set -uo pipefail
cd "$(dirname "$0")/.."

failed=0
mkdir -p target

step() {
    local name="$1"
    shift
    echo "==> ${name}"
    if ! "$@"; then
        echo "FAILED: ${name}" >&2
        failed=1
    fi
}

planlint() {
    if ! cargo run -q --locked -p planlint -- --out target/planlint.json; then
        echo "planlint: report written to target/planlint.json" >&2
        return 1
    fi
}

# Concurrency-readiness gate: Send/Sync reachability against the committed
# CONC_ALLOWLIST.txt (which may only shrink), lock-order cycle detection,
# and atomics discipline. See DESIGN.md §15.
conclint() {
    if ! cargo run -q --locked -p lint -- --conc --out target/conclint.json; then
        echo "conclint: report written to target/conclint.json" >&2
        return 1
    fi
}

sqllint() {
    if ! cargo run -q --locked -p lint -- --sql --out target/sqllint.json; then
        echo "sqllint: report written to target/sqllint.json" >&2
        return 1
    fi
}

step "cargo fmt --check"  cargo fmt --all --check
step "release build"      cargo build --release --locked
step "xmlrel-lint"        cargo run -q --locked -p lint -- --out target/lint.json
step "conclint"           conclint
step "sqllint"            sqllint
step "planlint"           planlint
step "clippy"             cargo clippy --workspace --all-targets --locked -- -D warnings
step "tests"              cargo test -q --workspace --locked
step "benchmark tests"    cargo test -q --manifest-path benchmark/Cargo.toml --offline --locked

if [ "${failed}" -ne 0 ]; then
    echo "check.sh: one or more steps failed" >&2
    exit 1
fi
echo "check.sh: all steps passed"
