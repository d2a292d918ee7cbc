#!/usr/bin/env bash
# Byte-identity check of the main artifacts against a base revision.
#
#   bash scripts/artifact_cmp.sh <base-rev>
#
# Exports <base-rev> into a temporary directory (`git archive`: offline, and
# nothing is registered in .git), builds amnt-bench's bins there and in
# this working tree, and runs every deterministic entry of the working
# tree's artifact registry (`all --list`; crates/bench/src/registry.rs) in
# both trees, with the registry's knob defaults (a variable already set in
# the environment wins: AMNT_FAULT_OPS=100 runs the acceptance fault sweep)
# and AMNT_JOBS=2. Other AMNT_* knobs pass through to both trees unchanged,
# so AMNT_TRACE=1 also compares the figures' trace sidecars. It then `cmp`s
# every file the runs leave under results/ except the host-clock
# `.host.json` sidecars. Prints one line per file; exits 1 on any
# difference or failed build/run, 2 on a usage error. The temporary tree
# is removed on every exit. It takes minutes, so check.sh does not run it.
# TMPDIR picks where the temporary tree is built.
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

# The working tree is built first: its registry names the bins and knobs
# both trees run.
for side in head base; do
    tree="$head_tree"
    [ "$side" = base ] && tree="$tmp/base"
    echo "== build ($side) =="
    (cd "$tree" && CARGO_TARGET_DIR="$tree/target" \
        cargo build --release -q --offline -p amnt-bench --bins) || exit 1
    if [ "$side" = head ]; then
        listing="$("$tree/target/release/all" --list)" || exit 1
    fi
    while read -r -u 3 bin _ _ clock knobs; do
        [ "$clock" = host ] && continue
        echo "== run $bin ($side) =="
        # Without CARGO_MANIFEST_DIR the bins write to ./results, so each
        # side's output lands in its own fresh directory.
        log="$tmp/$side-$bin.log"
        # shellcheck disable=SC2086 # $knobs holds VAR=value words
        if ! (cd "$tmp/out-$side" && env -u CARGO_MANIFEST_DIR $knobs AMNT_JOBS=2 \
            "$tree/target/release/$bin" >"$log" 2>&1); then
            cat "$log"
            exit 1
        fi
    done 3< <(grep -v '^#' <<<"$listing")
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
