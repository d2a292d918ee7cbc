#!/usr/bin/env bash
# Byte-identity check of the main artifacts against a base revision.
#
#   bash scripts/artifact_cmp.sh <base-rev>
#
# Exports <base-rev> into a temporary directory (`git archive`: offline, and
# nothing is registered in .git), builds the artifact bins there and in this
# working tree, runs every bin in both trees with the same knobs and
# AMNT_JOBS=2, and `cmp`s every file the runs leave under results/ except
# the host-clock `.host.json` sidecars. Prints one line per file; exits 1
# on any difference or failed build/run, 2 on a usage error. The temporary
# tree is removed on every exit. It takes minutes, so check.sh does not run
# it.
#
# Bins: fault_sweep (AMNT_FAULT_OPS, default 24; 100 is the acceptance
# sweep), shard_bench, table4_recovery, trace_report (AMNT_ACCESSES=30000
# AMNT_WARMUP=2000), wear_analysis, and the protocol-driven artifacts
# that perfgate gates: fig4_parsec_single, fig5_parsec_multi,
# fig8_spec_multithread, table2_os_cost and table3_hw_overhead (their
# reference rows are checked against whatever these bins last wrote, so
# this is where a change to them shows). Other AMNT_* knobs pass through
# to both trees unchanged. TMPDIR picks where the temporary tree is
# built.
set -uo pipefail

if [ $# -ne 1 ]; then
    echo "usage: bash scripts/artifact_cmp.sh <base-rev>" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
head_tree="$(pwd)"
if ! base_rev="$(git rev-parse --verify --quiet "$1^{commit}")"; then
    echo "artifact_cmp: unknown revision '$1'" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/base" "$tmp/out-base" "$tmp/out-head"
git archive "$base_rev" | tar -x -C "$tmp/base" || exit 1

bins=(fault_sweep shard_bench table4_recovery trace_report wear_analysis
    fig4_parsec_single fig5_parsec_multi fig8_spec_multithread table2_os_cost table3_hw_overhead)
bin_args=()
for b in "${bins[@]}"; do
    bin_args+=(--bin "$b")
done

for side in base head; do
    tree="$head_tree"
    [ "$side" = base ] && tree="$tmp/base"
    echo "== build ($side) =="
    (cd "$tree" && CARGO_TARGET_DIR="$tree/target" \
        cargo build --release -q --offline -p amnt-bench "${bin_args[@]}") || exit 1
    for b in "${bins[@]}"; do
        echo "== run $b ($side) =="
        knobs=(AMNT_JOBS=2)
        case "$b" in
            fault_sweep) knobs+=("AMNT_FAULT_OPS=${AMNT_FAULT_OPS:-24}") ;;
            trace_report) knobs+=(AMNT_ACCESSES=30000 AMNT_WARMUP=2000) ;;
        esac
        # Without CARGO_MANIFEST_DIR the bins write to ./results, so each
        # side's output lands in its own fresh directory.
        log="$tmp/$side-$b.log"
        if ! (cd "$tmp/out-$side" && env -u CARGO_MANIFEST_DIR "${knobs[@]}" \
            "$tree/target/release/$b" >"$log" 2>&1); then
            cat "$log"
            exit 1
        fi
    done
done

echo "== compare ($base_rev vs working tree) =="
status=0
for f in $( (ls "$tmp/out-base/results"; ls "$tmp/out-head/results") | grep -v '\.host\.json$' | sort -u); do
    a="$tmp/out-base/results/$f"
    b="$tmp/out-head/results/$f"
    if [ ! -e "$a" ]; then
        echo "only in working tree  $f"
        status=1
    elif [ ! -e "$b" ]; then
        echo "missing in working tree  $f"
        status=1
    elif cmp -s "$a" "$b"; then
        echo "identical  $f"
    else
        echo "DIFFERS    $f"
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "artifact_cmp: every artifact is byte-identical"
else
    echo "artifact_cmp: artifacts differ"
fi
exit "$status"
