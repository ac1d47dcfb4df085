#!/usr/bin/env bash
# Runs the repo's benchmark on a base ref and on the working tree in
# alternating pairs and says, per workload and end-to-end metric, who won.
#
#   scripts/bench_pair.sh <base-ref> [workload]
#   BENCH_PAIRS=10 BENCH_SEED=42 scripts/bench_pair.sh HEAD~1 sim-seq-crash
#
# The base ref is checked out into a git worktree under .bench_pair/ (git-
# ignored) and built into its own CARGO_TARGET_DIR, so neither side ever
# rebuilds the other's artifacts. Odd pairs run the base first, even pairs
# the change first. Each side runs its *own* benchmark/run.sh — nothing
# under benchmark/ and not BENCHMARK.json is touched. Ends with
# `benchmark/run.sh compare` on the last pair (its exit code is ours).
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: scripts/bench_pair.sh <base-ref> [workload]" >&2
    exit 2
fi
base_ref="$1"
workload="${2:-}"
pairs="${BENCH_PAIRS:-10}"
seed="${BENCH_SEED:-42}"

root="$(git rev-parse --show-toplevel)"
work="$root/.bench_pair"
base_tree="$work/base"

cleanup() { git -C "$root" worktree remove --force "$base_tree" 2>/dev/null || true; }
trap cleanup EXIT
cleanup
mkdir -p "$work"
rm -rf "$work/out"
git -C "$root" worktree add --detach "$base_tree" "$base_ref" >&2

# run_side <base|change> <pair>: one benchmark/run.sh pass, results only.
run_side() {
    local side="$1" pair="$2" tree="$root"
    [ "$side" = base ] && tree="$base_tree"
    (cd "$tree" && CARGO_TARGET_DIR="$work/target-$side" bash benchmark/run.sh \
        ${workload:+--workload "$workload"} --seed "$seed" \
        --out "$work/out/$side-$pair" >/dev/null) ||
        echo "pair $pair: $side exited non-zero (failed operations or checks)" >&2
}

for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
    echo "pair $pair/$pairs: $order" >&2
    for side in $order; do run_side "$side" "$pair"; done
done

python3 - "$root/BENCHMARK.json" "$work/out" "$pairs" <<'PY'
import json, statistics, sys

decl_path, out, pairs = sys.argv[1], sys.argv[2], int(sys.argv[3])
better = {m["name"]: m["better"] for m in json.load(open(decl_path))["end_to_end"]}


def load(side, pair):
    doc = json.load(open(f"{out}/{side}-{pair}/results.json"))
    return {w["name"]: w for w in doc["workloads"]}


runs = [(load("base", p), load("change", p)) for p in range(1, pairs + 1)]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


print(f"{'workload':<20} {'metric':<16} {'base median [q1, q3]':>38} "
      f"{'change median [q1, q3]':>38} {'wins':>7}")
for name in runs[0][0]:
    failed = [sum(side[name]["failed"] for side, _ in runs),
              sum(side[name]["failed"] for _, side in runs)]
    for metric, direction in better.items():
        base = [b[name]["metrics"][metric]["value"] for b, _ in runs]
        change = [c[name]["metrics"][metric]["value"] for _, c in runs]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
        # A gain counts when the change wins >= 9/10 of the pairs and the
        # medians differ by more than the base's own interquartile range.
        gain = wins * 10 >= 9 * pairs and sign * (cmed - bmed) > bq3 - bq1
        loss = losses * 10 >= 9 * pairs and sign * (bmed - cmed) > bq3 - bq1
        verdict = "gain" if gain else "loss" if loss else ""
        print(f"{name:<20} {metric:<16} {bmed:>14.6g} [{bq1:>9.6g}, {bq3:>9.6g}] "
              f"{cmed:>14.6g} [{cq1:>9.6g}, {cq3:>9.6g}] {wins:>3}/{pairs:<3} {verdict}")
    print(f"{name:<20} {'failed ops':<16} {failed[0]:>38} {failed[1]:>38}")
PY

echo "--- benchmark/run.sh compare (pair $pairs) ---"
CARGO_TARGET_DIR="$work/target-change" bash "$root/benchmark/run.sh" compare \
    "$work/out/base-$pairs/results.json" "$work/out/change-$pairs/results.json"
