#!/usr/bin/env bash
# Full local gate: static analysis, build, and tests for every workspace
# member. Everything runs offline — the workspace has no external
# dependencies by design (see DESIGN.md, "Offline substitutions").
#
#   bash scripts/check.sh
#
# Formatting is advisory (rustfmt may be absent on minimal toolchains);
# lint, build and test failures are fatal.
set -uo pipefail

cd "$(dirname "$0")/.."

fail=0

echo "== cargo fmt --check (advisory) =="
if command -v rustfmt >/dev/null 2>&1; then
    cargo fmt --all --check || echo "   (formatting drift — advisory only)"
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
# --all-targets also compiles the bench harnesses (crates/bench/benches/),
# which no other step builds.
cargo build --release --workspace --all-targets || fail=1

echo "== cargo test --workspace =="
cargo test -q --workspace || fail=1

echo "== amnt-crypto at the x86-64 baseline (SSE2) =="
# .cargo/config.toml builds at x86-64-v3, where the 8-lane SHA-256 engine
# uses AVX2. The crypto must be bit-identical at any target-cpu, so its
# known answers and equivalence tests also run on the SSE2 lowering of the
# same kernels, in a target directory of their own (RUSTFLAGS overrides
# the config's flags and would otherwise rebuild the main one).
if [ "$(uname -m)" = x86_64 ]; then
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/x86-64-baseline \
        cargo test -q -p amnt-crypto || fail=1
else
    echo "   not an x86-64 host; skipping"
fi

echo "== perfbench tests (repository benchmark, its own cargo workspace) =="
# perfbench builds the path crates' public configs (NvmConfig, CacheConfig,
# SecureMemoryConfig, MachineConfig) outside this workspace; its tests keep
# that surface compiling and its counts reconciled.
cargo test -q --offline --manifest-path perfbench/Cargo.toml || fail=1

echo "== fault sweep (crash-point, eviction-class + idempotence smoke) =="
# Bounded smoke by default; the sweep is exhaustive in crash points at any
# size — including eviction-writeback crash points and the nested
# recovery-fault (idempotence) pass — so silent, boundary_deficit,
# evict_silent and idempotence_violations must be zero regardless of
# AMNT_FAULT_OPS. Run the full acceptance sweep with AMNT_FAULT_OPS=100
# (or larger). The artifact must also be byte-identical across AMNT_JOBS.
sweepdir="$(mktemp -d)"
AMNT_FAULT_OPS="${AMNT_FAULT_OPS:-24}" AMNT_JOBS=1 \
    cargo run --release -p amnt-bench --bin fault_sweep || fail=1
cp results/fault_sweep.json results/fault_sweep.trace.json "$sweepdir"/ || fail=1
AMNT_FAULT_OPS="${AMNT_FAULT_OPS:-24}" AMNT_JOBS=2 \
    cargo run --release -q -p amnt-bench --bin fault_sweep >/dev/null || fail=1
for f in fault_sweep.json fault_sweep.trace.json; do
    if ! cmp -s "$sweepdir/$f" "results/$f"; then
        echo "   fault sweep: $f differs between AMNT_JOBS=1 and 2"
        fail=1
    fi
done
rm -rf "$sweepdir"

echo "== trace smoke (sidecar determinism + observer purity) =="
# Quick traced runs of the trace_report grid: the two sidecars must be
# byte-identical across worker counts, and the main artifact must be
# byte-identical with tracing on or off (tracing is a pure observer).
tracedir="$(mktemp -d)"
# 30k accesses so each AMNT cell's epoch series is dense enough for the
# perfgate `series` rows (one subtree transition per cell with sampled
# post-transition windows) — still ~2 s per run.
trace_smoke() {
    AMNT_ACCESSES=30000 AMNT_WARMUP=2000 \
        cargo run --release -q -p amnt-bench --bin trace_report >/dev/null || return 1
}
AMNT_JOBS=1 trace_smoke || fail=1
cp results/trace_report.json results/trace_report.trace.json \
   results/trace_report.perfetto.json "$tracedir"/ || fail=1
AMNT_JOBS=2 trace_smoke || fail=1
for f in trace_report.trace.json trace_report.perfetto.json; do
    if ! cmp -s "$tracedir/$f" "results/$f"; then
        echo "   trace smoke: $f differs between AMNT_JOBS=1 and 2"
        fail=1
    fi
done
AMNT_JOBS=2 AMNT_TRACE=0 trace_smoke || fail=1
if ! cmp -s "$tracedir/trace_report.json" results/trace_report.json; then
    echo "   trace smoke: main artifact differs with tracing on vs off"
    fail=1
fi
# The lazy verify queue batches host-side MAC checks but charges each one
# at enqueue: disabling it (eager per-read verification) must not change a
# byte of the main artifact either.
AMNT_JOBS=2 AMNT_VERIFY_QUEUE=0 trace_smoke || fail=1
if ! cmp -s "$tracedir/trace_report.json" results/trace_report.json; then
    echo "   trace smoke: main artifact differs with verify queue on vs off"
    fail=1
fi
# Leave deterministic traced sidecars behind, not the quick-run artifact.
AMNT_JOBS=1 trace_smoke || fail=1
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
[ "$fail" -eq 0 ] && echo "   trace smoke: sidecars deterministic, observer pure, cross-run diff empty"

echo "== sharded smoke (shard_bench determinism across worker counts) =="
# The sharded controller runs one shard per executor job, so AMNT_JOBS is
# a pure speed knob: the main artifact and the per-shard trace sidecar
# must be byte-identical between 1 and 2 workers. The bin itself asserts
# N=1 bit-equivalence to the unsharded SecureMemory and runs the fault
# sweep, every fault class, at every N (perfgate pins the zero rows).
# AMNT_SHARD_OPS scales the tenant mix (default 800).
sharddir="$(mktemp -d)"
AMNT_JOBS=1 cargo run --release -p amnt-bench --bin shard_bench || fail=1
cp results/shard_bench.json results/shard_bench.trace.json "$sharddir"/ || fail=1
AMNT_JOBS=2 cargo run --release -q -p amnt-bench --bin shard_bench >/dev/null || fail=1
for f in shard_bench.json shard_bench.trace.json; do
    if ! cmp -s "$sharddir/$f" "results/$f"; then
        echo "   sharded smoke: $f differs between AMNT_JOBS=1 and 2"
        fail=1
    fi
done
rm -rf "$sharddir"

echo "== table4 recovery (2 TB simulated recovery smoke) =="
# The simulated column runs a real crash + O(touched) recovery on an actual
# (sparse-frame) 2 TB device and reconciles against the analytical leaf
# anchor; perfgate pins the extrapolated cell to 6222.21 ms ± 2%. The
# functional grid is parallel, so the artifact must also be byte-identical
# across AMNT_JOBS (wall-clock lives in the .host.json sidecar).
t4dir="$(mktemp -d)"
AMNT_JOBS=1 cargo run --release -p amnt-bench --bin table4_recovery || fail=1
cp results/table4.json "$t4dir"/ || fail=1
AMNT_JOBS=2 cargo run --release -q -p amnt-bench --bin table4_recovery >/dev/null || fail=1
if ! cmp -s "$t4dir/table4.json" results/table4.json; then
    echo "   table4: artifact differs between AMNT_JOBS=1 and 2"
    fail=1
fi
rm -rf "$t4dir"

echo "== wear smoke (per-region wear ledger determinism) =="
# wear_analysis is the one artifact the controller's wear ledger feeds:
# per-region frame-write summaries for every protocol. Its cells run in
# parallel, so the artifact must be byte-identical across AMNT_JOBS.
weardir="$(mktemp -d)"
AMNT_JOBS=1 cargo run --release -p amnt-bench --bin wear_analysis || fail=1
cp results/wear.json "$weardir"/ || fail=1
AMNT_JOBS=2 cargo run --release -q -p amnt-bench --bin wear_analysis >/dev/null || fail=1
if ! cmp -s "$weardir/wear.json" results/wear.json; then
    echo "   wear smoke: artifact differs between AMNT_JOBS=1 and 2"
    fail=1
fi
rm -rf "$weardir"

echo "== crypto bench (multi-lane MAC engine) =="
# Host-clock ns/op for the scalar vs 8-lane batched 85-byte MAC; perfgate
# holds the batched path to >= 1.6x scalar throughput per MAC (and <= 0.6x
# the scalar per-MAC cost) via the one-sided reference rows.
cargo run --release -p amnt-bench --bin crypto_bench || fail=1

echo "== perfgate (results/*.json vs EXPERIMENTS.md reference rows) =="
cargo run --release -p amnt-bench --bin perfgate || fail=1

if [ "$fail" -ne 0 ]; then
    echo "check.sh: FAILED"
    exit 1
fi
echo "check.sh: all gates passed"
