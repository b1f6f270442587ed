#!/usr/bin/env bash
# Host-time A/B of the working tree against a parent revision on one
# benchmark workload.
#
#   tools/bench_ab.sh <parent-rev> <workload> [pairs] [seconds] [benchmark args...]
#
# Builds <parent-rev> in a temporary git worktree under $TMPDIR and the
# working tree as the change, then runs `pairs` (default 10) pairs of
# `benchmark --workload <workload> --seconds <seconds> --trace 0`
# (default 10 s), parent and change, alternating which side goes first.
# Any further arguments, such as `--seed 424242`, go to both sides.
# Prints each side's median and quartiles of host_s and setup_s and how
# many pairs the change won on each. Exits non-zero if device_cycles,
# speedup_vs_cpu_geomean, correct or failed differ between any two
# runs, or a run is incorrect or failed.
#
# Reads benchmark/ and BENCHMARK.json, never edits them; the worktree and
# its build are removed on exit.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs] [seconds] [benchmark args...]" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=${3:-10} seconds=${4:-10}
shift $(($# < 4 ? $# : 4))

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" worktree add --quiet --detach "$tmp/parent" "$rev"
echo "building $rev (parent) and the working tree (change)" >&2
cargo build --release --offline --quiet \
    --manifest-path "$tmp/parent/benchmark/Cargo.toml" --target-dir "$tmp/target"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
parent_bin=$tmp/target/release/swp-benchmark
change_bin=$root/benchmark/target/release/swp-benchmark

# The verdict (last stdout line) of one run, as
# `host_s setup_s device_cycles speedup correct failed`.
run() {
    local verdict
    verdict=$("$1" --workload "$workload" --seconds "$seconds" --trace 0 "${@:2}" | tail -n 1)
    metric() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" <<<"$verdict"; }
    field() { sed -n "s/.*\"$1\":\([^,}]*\).*/\1/p" <<<"$verdict"; }
    echo "$(metric host_s) $(metric setup_s) $(metric device_cycles)" \
        "$(metric speedup_vs_cpu_geomean) $(field correct) $(field failed)"
}

: >"$tmp/parent.txt"
: >"$tmp/change.txt"
for i in $(seq 1 "$pairs"); do
    # Alternate which side runs first.
    if [ $((i % 2)) -eq 1 ]; then
        run "$parent_bin" "$@" >>"$tmp/parent.txt"
        run "$change_bin" "$@" >>"$tmp/change.txt"
    else
        run "$change_bin" "$@" >>"$tmp/change.txt"
        run "$parent_bin" "$@" >>"$tmp/parent.txt"
    fi
    echo "pair $i/$pairs: parent $(tail -n 1 "$tmp/parent.txt" | cut -d' ' -f1) s," \
        "change $(tail -n 1 "$tmp/change.txt" | cut -d' ' -f1) s host" >&2
done

# Median and quartiles (linear interpolation between order statistics).
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
        END { printf "median %.6f  q1 %.6f  q3 %.6f  iqr %.6f", q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}

echo "workload $workload, $pairs pairs, $seconds s, extra args: ${*:-none}"
for col in 1:host_s 2:setup_s; do
    n=${col%%:*} name=${col#*:}
    echo "$name parent: $(cut -d' ' -f"$n" "$tmp/parent.txt" | quartiles)"
    echo "$name change: $(cut -d' ' -f"$n" "$tmp/change.txt" | quartiles)"
    wins=$(paste -d' ' <(cut -d' ' -f"$n" "$tmp/parent.txt") <(cut -d' ' -f"$n" "$tmp/change.txt") |
        awk '$2 < $1 { w++ } END { print w + 0 }')
    echo "$name change wins $wins/$pairs"
done

status=0
identity=$(cat "$tmp/parent.txt" "$tmp/change.txt" | cut -d' ' -f3- | sort -u)
if [ "$(wc -l <<<"$identity")" -ne 1 ]; then
    echo "FAIL: device_cycles, speedup_vs_cpu_geomean, correct or failed differ between runs:" >&2
    echo "$identity" >&2
    status=1
elif [ "$(cut -d' ' -f3- <<<"$identity")" != "true 0" ]; then
    echo "FAIL: runs are incorrect or failed: $identity" >&2
    status=1
else
    echo "identical on every run: device_cycles speedup correct failed = $identity"
fi
exit $status
