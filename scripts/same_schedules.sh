#!/usr/bin/env bash
# Proves a change schedule-neutral against a base ref: the simulated
# schedules of the working tree must be the base's, byte for byte. Both
# sides run the perf matrix (`BENCH.json`) and the chaos sweep at every
# nemesis intensity (`swarm --intensity <i>`, CHAOS_SEEDS seeds); the six
# outputs are compared with `cmp`.
#
#   scripts/same_schedules.sh <base-ref>
#   make same-schedules BASE=<rev> [CHAOS_SEEDS=720]
#
# The base's tree is exported with `git archive` into .same_schedules/
# (git-ignored; SAME_SCHEDULES_DIR moves it) and built into its own
# CARGO_TARGET_DIR there, so neither side rebuilds the other's artifacts
# and a second run reuses the base build. Exits 0 when every output is
# identical, 1 on any difference (its first lines are printed), 2 on bad
# usage. A sweep that fails its invariants on both sides alike still
# counts as identical: its exit status is part of the compared output.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/same_schedules.sh <base-ref>" >&2
    exit 2
fi
base_ref="$1"
seeds="${CHAOS_SEEDS:-720}"
intensities="calm rough hostile viewchange fastpath"

root="$(git rev-parse --show-toplevel)"
work="${SAME_SCHEDULES_DIR:-$root/.same_schedules}"
base_tree="$work/base"
rm -rf "$base_tree" "$work/out"
mkdir -p "$base_tree" "$work/out"
git -C "$root" archive "$base_ref" | tar -x -C "$base_tree"

# run_side <name> <tree> <target-dir>: build, then write the six outputs.
run_side() {
    local side="$1" tree="$2" target="$3" out="$work/out/$1"
    mkdir -p "$out"
    (cd "$tree" && CARGO_TARGET_DIR="$target" cargo build --release -q \
        -p otp-bench --bin perf -p otp-lab --bin swarm)
    (cd "$tree" && "$target/release/perf" --out "$out/BENCH.json" >/dev/null)
    for i in $intensities; do
        local status=0
        (cd "$tree" && CHAOS_SEEDS="$seeds" "$target/release/swarm" --intensity "$i" \
            >"$out/swarm-$i.txt") || status=$?
        echo "exit $status" >>"$out/swarm-$i.txt"
    done
}

start=$(date +%s)
run_side base "$base_tree" "$work/target-base"
run_side change "$root" "${CARGO_TARGET_DIR:-$root/target}"

differ=0
for f in BENCH.json $(for i in $intensities; do echo "swarm-$i.txt"; done); do
    if cmp -s "$work/out/base/$f" "$work/out/change/$f"; then
        echo "same    $f"
    else
        echo "DIFFERS $f"
        diff "$work/out/base/$f" "$work/out/change/$f" | head -20 || true
        differ=1
    fi
done
echo "base $base_ref vs working tree, $seeds seeds per intensity: $(($(date +%s) - start)) s wall"
exit "$differ"
