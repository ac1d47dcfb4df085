#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it. See README.md.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
#   benchmark/run.sh compare A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR when it is set (a relative path
# is taken from the current directory), else to the repo's shared target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Cargo's progress goes to stderr: the last line of stdout is the result.
(cd "$here" && cargo build --release --offline --quiet) >&2

# Where results and span files go unless --out says otherwise.
export OTP_BENCHMARK_OUT="${OTP_BENCHMARK_OUT:-$here/out}"
exec "$target/release/otp-benchmark" "$@"
