#!/usr/bin/env bash
# Runs one cargo test command N times and stops at the first failure,
# to show that a test step is deterministic (or to catch a flake).
#
#   scripts/repeat_test.sh 200 -p obs --lib
#
# Every argument after N is passed to `cargo test -q --offline`. The
# test binary is built once, before the first timed run. Exits 0 when
# all N runs pass, 1 at the first failing run (after printing its
# output), 2 on bad usage.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 || ! "$1" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 N <cargo test args...>" >&2
    exit 2
fi
n=$1
shift

cargo test -q --offline --no-run "$@"
for ((i = 1; i <= n; i++)); do
    if ! out=$(cargo test -q --offline "$@" 2>&1); then
        echo "$out"
        echo "repeat_test: run $i of $n failed: cargo test $*" >&2
        exit 1
    fi
done
echo "repeat_test: $n of $n runs passed: cargo test $*"
