#!/usr/bin/env bash
# Full local gate: static analysis, build, and tests for every workspace
# member. Everything runs offline — the workspace has no external
# dependencies by design (see DESIGN.md, "Offline substitutions").
#
#   bash scripts/check.sh
#
# Formatting drift, lint, clippy, build and test failures are fatal; the
# format and clippy checks are skipped only where rustfmt or clippy is not
# installed (minimal toolchains).
set -uo pipefail

cd "$(dirname "$0")/.."

fail=0

echo "== cargo fmt --check =="
if command -v rustfmt >/dev/null 2>&1; then
    cargo fmt --all --check || fail=1
else
    echo "   rustfmt not installed; skipping"
fi

echo "== amnt-lint (self-tests + workspace gate) =="
# The linter's own suite first (parse/callgraph/dataflow fixtures), then
# the workspace gate. The gate archives machine-readable findings next to
# the bench sidecars and runs under a generous wall-clock budget — the
# interprocedural pass is a fixpoint, and a resolution regression that
# blows it up should fail loudly here rather than hang CI.
cargo test -q -p amnt-lint || fail=1
mkdir -p results
lint_start=$(date +%s)
cargo run --release -p amnt-lint -- --json results/lint.json || fail=1
lint_elapsed=$(( $(date +%s) - lint_start ))
lint_budget="${AMNT_LINT_BUDGET_S:-300}"
if [ "$lint_elapsed" -gt "$lint_budget" ]; then
    echo "   amnt-lint: self-time ${lint_elapsed}s exceeds budget ${lint_budget}s (fixpoint blowup?)"
    fail=1
fi

echo "== cargo build --release --workspace --all-targets =="
# --all-targets also compiles the examples and every test target in
# release mode, which the debug-mode test step below does not.
cargo build --release --workspace --all-targets || fail=1

echo "== cargo clippy --workspace --all-targets (warnings are errors) =="
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings || fail=1
else
    echo "   clippy not installed; skipping"
fi

echo "== cargo doc --no-deps --workspace (warnings are errors) =="
# A doc comment that links a deleted or private item, or a bracketed
# citation rustdoc reads as a link, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace || fail=1

echo "== cargo test --workspace =="
cargo test -q --workspace || fail=1

echo "== amnt-crypto and amnt-nvm at the x86-64 baseline (SSE2) =="
# .cargo/config.toml builds at x86-64-v3, where the 8-lane SHA-256 engine
# uses AVX2 and the device's frame store ranks lines and words with
# POPCNT and BMI. The crypto must be bit-identical at any target-cpu, and
# the frame store must hold and serve the same bytes, so their known
# answers, reference models and heap bounds also run on the generic
# lowering of the same code, in a target directory of their own
# (RUSTFLAGS overrides the config's flags and would otherwise rebuild the
# main one).
if [ "$(uname -m)" = x86_64 ]; then
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64-baseline \
        cargo test -q -p amnt-crypto -p amnt-nvm || fail=1
else
    echo "   not an x86-64 host; skipping"
fi

echo "== perfbench tests (repository benchmark, its own cargo workspace) =="
# perfbench builds the path crates' public configs (NvmConfig, CacheConfig,
# SecureMemoryConfig, MachineConfig) outside this workspace; its tests keep
# that surface compiling and its counts reconciled.
cargo test -q --offline --manifest-path perfbench/Cargo.toml || fail=1

echo "== registry artifacts (fresh for perfgate; AMNT_JOBS 1-vs-2 byte-compare) =="
# One loop over the artifact registry (crates/bench/src/registry.rs), read
# through `all --list`. Every entry marked `run` or `jobs` runs with its
# knob defaults (a variable already set here wins, so AMNT_FAULT_OPS=100
# runs the acceptance fault sweep) and leaves fresh artifacts in results/:
# perfgate never reads a stale or missing one. A `jobs` entry runs first at
# AMNT_JOBS=1 in a scratch directory, then at AMNT_JOBS=2 here, and every
# file the first run wrote, host-clock .host.json sidecars aside, must be
# byte-identical to the second run's. The fault sweep is exhaustive in
# crash points at any size, and perfgate pins its zero rows (silent,
# boundary_deficit, bounds_violations, evict_silent,
# idempotence_violations, work_regressions, verify_queue_silent,
# tamper_silent); crypto_bench's rows are host-clock ratios.
bin_dir="$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)"
run_entry() {
    # shellcheck disable=SC2086 # $knobs holds VAR=value words
    env -u CARGO_MANIFEST_DIR $knobs "$@" "$bin_dir/$bin"
}
listing="$("$bin_dir/all" --list)" || fail=1
while read -r -u 3 bin _ check _ knobs; do
    [ "$check" = - ] && continue
    echo "-- $bin $knobs"
    if [ "$check" = run ]; then
        run_entry || fail=1
        continue
    fi
    jobsdir="$(mktemp -d)"
    (cd "$jobsdir" && run_entry AMNT_JOBS=1) || fail=1
    run_entry AMNT_JOBS=2 >/dev/null || fail=1
    for f in "$jobsdir"/results/*.json; do
        case "$f" in *.host.json) continue ;; esac
        if ! cmp -s "$f" "results/${f##*/}"; then
            echo "   $bin: ${f##*/} differs between AMNT_JOBS=1 and 2"
            fail=1
        fi
    done
    rm -rf "$jobsdir"
done 3< <(grep -v '^#' <<<"$listing")

echo "== trace smoke (observer purity + cross-run diff) =="
# Quick traced runs of the trace_report grid (the registry loop above
# byte-compares its sidecars across worker counts): the main artifact must
# be byte-identical with tracing on or off (tracing is a pure observer).
tracedir="$(mktemp -d)"
# Every run takes the trace_report registry entry's knobs, as the loop
# above ran it: its run length keeps each AMNT cell's epoch series dense
# enough for the perfgate `series` rows (one subtree transition per cell
# with sampled post-transition windows), and a caller's AMNT_ACCESSES wins
# here too.
read -r _ _ _ _ trace_knobs < <(grep '^trace_report ' <<<"$listing")
trace_smoke() {
    # shellcheck disable=SC2086 # $trace_knobs holds VAR=value words
    env -u CARGO_MANIFEST_DIR $trace_knobs "$@" "$bin_dir/trace_report" >/dev/null
}
trace_smoke AMNT_JOBS=1 || fail=1
cp results/trace_report.json results/trace_report.trace.json "$tracedir"/ || fail=1
trace_smoke AMNT_JOBS=2 AMNT_TRACE=0 || fail=1
if ! cmp -s "$tracedir/trace_report.json" results/trace_report.json; then
    echo "   trace smoke: main artifact differs with tracing on vs off"
    fail=1
fi
# Leave deterministic traced sidecars behind, not the quick-run artifact.
trace_smoke AMNT_JOBS=1 || fail=1
# Cross-run diff gate: the fresh sidecar against the AMNT_JOBS=1 copy
# from the start of this block must be an *empty* diff at tol 0 (same
# knobs, same bytes). trace_diff exits nonzero on any divergence; the
# machine-readable report is archived next to the other artifacts.
if ! cargo run --release -q -p amnt-bench --bin trace_diff -- \
        results/trace_report.trace.json "$tracedir/trace_report.trace.json" \
        --json > results/trace_diff.json; then
    echo "   trace smoke: trace_diff found cross-run divergence"
    fail=1
fi
rm -rf "$tracedir"
[ "$fail" -eq 0 ] && echo "   trace smoke: observer pure, cross-run diff empty"

echo "== perfgate (results/*.json vs EXPERIMENTS.md reference rows) =="
cargo run --release -p amnt-bench --bin perfgate || fail=1

if [ "$fail" -ne 0 ]; then
    echo "check.sh: FAILED"
    exit 1
fi
echo "check.sh: all gates passed"
