#!/usr/bin/env bash
# Net non-test Rust code lines of the working tree against a base ref:
# per changed file, per changed source directory, and in total, counted by
# `otp-lint --loc` (comments stripped, `#[cfg(test)]` items masked).
#
#   scripts/net_lines.sh <base-ref>
#   make net-lines BASE=main
#
# The base's `src/` and `crates/` are exported with `git archive` into a
# temporary directory and counted by the working tree's otp-lint, so both
# sides are counted by the same rules. Integration tests (`tests/`) and the
# benchmark's own workspace are not counted.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/net_lines.sh <base-ref>" >&2
    exit 2
fi
base_ref="$1"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base_ref" src crates | tar -x -C "$tmp/base"

(cd "$root" && cargo build --release -q -p otp-analysis --bin otp-lint)
lint="${CARGO_TARGET_DIR:-$root/target}/release/otp-lint"
"$lint" --loc --root "$tmp/base" >"$tmp/base.loc"
"$lint" --loc --root "$root" >"$tmp/tree.loc"

# `path<TAB>lines`, sorted by path, without the total row.
by_path() { awk -F '\t' '$2 != "total" { print $2 "\t" $1 }' "$1" | LC_ALL=C sort; }

LC_ALL=C join -t "$(printf '\t')" -a 1 -a 2 -e 0 -o 0,1.2,2.2 \
    <(by_path "$tmp/base.loc") <(by_path "$tmp/tree.loc") |
    awk -F '\t' -v base="$base_ref" '
        BEGIN { printf "%8s %8s %8s  %s\n", "base", "tree", "delta", "file (base = " base ")" }
        {
            d = $3 - $2; b += $2; t += $3
            dir = $1; sub(/\/[^\/]*$/, "", dir)
            db[dir] += $2; dt[dir] += $3
            if (d > 0) grew += d
            if (d < 0) shrank -= d
            if (d != 0) printf "%8d %8d %+8d  %s\n", $2, $3, d, $1
        }
        END {
            for (dir in db) if (dt[dir] != db[dir])
                printf "%8d %8d %+8d  %s/ (directory)\n", db[dir], dt[dir], dt[dir] - db[dir], dir | "LC_ALL=C sort -k4"
            close("LC_ALL=C sort -k4")
            printf "%8d %8d %+8d  total\n", b, t, t - b
            printf "+%d in files that grew / -%d in files that shrank\n", grew, shrank
        }'
