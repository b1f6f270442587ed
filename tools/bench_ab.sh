#!/usr/bin/env bash
# Host-time A/B of the working tree against a parent revision on one or
# more benchmark workloads.
#
#   tools/bench_ab.sh <parent-rev> <workload>[,<workload>...] [pairs] [seconds] [benchmark args...]
#
# Exports <parent-rev> into a temporary directory under $TMPDIR and builds
# it as the parent, and the working tree as the change. For each workload,
# runs `pairs` (default 10) pairs of
# `benchmark --workload <workload> --seconds <seconds> --trace 0`
# (default 10 s), parent and change, alternating which side goes first.
# Any further arguments, such as `--seed 424242`, go to both sides.
# Prints each side's median and quartiles of host_s and setup_s, how
# many pairs the change won on each, and whether the A/B can decide it:
# a metric is `unresolved` when either side's IQR exceeds the metric's
# end-to-end bound in BENCHMARK.json (as a fraction of that side's
# median), `resolved` otherwise.
#
# Each pair also runs both sides once with `--trace 1`, in the same
# order, and the script prints per operation — each (span, op id) of the
# timed phase; for exec_steady the op id is the suite graph's index —
# the median and the minimum of its self time over those `pairs` traced
# runs per side, so a per-graph regression the aggregate hides shows up.
#
# Exits non-zero if, on any workload, device_cycles,
# speedup_vs_cpu_geomean, correct or failed differ between any two runs,
# or a run is incorrect or failed.
#
# Reads benchmark/ and BENCHMARK.json, never edits them; the exported tree
# and its build are removed on exit.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload>[,<workload>...] [pairs] [seconds] [benchmark args...]" >&2
    exit 2
fi
rev=$1 workloads=$2 pairs=${3:-10} seconds=${4:-10}
shift $(($# < 4 ? $# : 4))

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
echo "building $rev (parent) and the working tree (change)" >&2
cargo build --release --offline --quiet \
    --manifest-path "$tmp/parent/benchmark/Cargo.toml" --target-dir "$tmp/target"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
parent_bin=$tmp/target/release/swp-benchmark
change_bin=$root/benchmark/target/release/swp-benchmark

# The verdict (last stdout line) of one untraced run, as
# `host_s setup_s device_cycles speedup correct failed`.
run() {
    local verdict
    verdict=$("$1" --workload "$workload" --seconds "$seconds" --trace 0 "${@:2}" | tail -n 1)
    metric() { sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p" <<<"$verdict"; }
    field() { sed -n "s/.*\"$1\":\([^,}]*\).*/\1/p" <<<"$verdict"; }
    echo "$(metric host_s) $(metric setup_s) $(metric device_cycles)" \
        "$(metric speedup_vs_cpu_geomean) $(field correct) $(field failed)"
}

# The timed-phase spans of one traced run, as `span op self_us` lines.
traced() {
    local path
    path=$("$1" --workload "$workload" --seconds "$seconds" --trace 1 "${@:2}" |
        sed -n 's/^# trace: .* written to //p')
    grep -o '"name":"[^"]*"[^}]*"op":[0-9]*,"phase":"timed","self_us":[0-9.e+-]*' "$path" |
        sed 's/"name":"\([^"]*\)".*"op":\([0-9]*\),"phase":"timed","self_us":\(.*\)/\1 \2 \3/'
}

# The end-to-end bound of metric $1 in BENCHMARK.json, a fraction.
bound() {
    awk -v m="\"$1\"" '/"name":/ { named = index($0, m) > 0 }
        named && /"bound":/ { gsub(/[^0-9.]/, "", $2); print $2; exit }' "$root/BENCHMARK.json"
}

# Median and quartiles (linear interpolation between order statistics).
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, l) { h = 1 + (NR - 1) * p; l = int(h); return v[l] + (h - l) * (v[l + 1 < NR ? l + 1 : NR] - v[l]) }
        END { printf "median %.6f  q1 %.6f  q3 %.6f  iqr %.6f", q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}

# Per (span, op): the median self time of each side and the change, then
# the same for the minimum, which host_s sums and noise inflates least.
per_op() {
    printf "%-40s %4s %12s %12s %8s %12s %12s %8s\n" span op parent_med change_med change \
        parent_min change_min change
    awk '{ k = $2 " " $3; n[$1, k]++; v[$1, k, n[$1, k]] = $4; keys[k] = 1 }
        function sorted(side, k, a,   m, i, j, t) {
            m = n[side, k]
            for (i = 1; i <= m; i++) a[i] = v[side, k, i]
            for (i = 2; i <= m; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            return m
        }
        function median(side, k,   a, m) {
            m = sorted(side, k, a)
            return m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2
        }
        function least(side, k,   a) { sorted(side, k, a); return a[1] }
        function pct(p, c) { return p > 0 ? 100 * (c - p) / p : 0 }
        END {
            for (k in keys) {
                split(k, f, " ")
                p = median("parent", k); c = median("change", k)
                pm = least("parent", k); cm = least("change", k)
                printf "%-40s %4d %12.1f %12.1f %+7.1f%% %12.1f %12.1f %+7.1f%%\n",
                    f[1], f[2], p, c, pct(p, c), pm, cm, pct(pm, cm)
            }
        }' | sort -k2,2n -k1,1
}

status=0
for workload in ${workloads//,/ }; do
    : >"$tmp/parent.txt"
    : >"$tmp/change.txt"
    : >"$tmp/spans.txt"
    for i in $(seq 1 "$pairs"); do
        # Alternate which side runs first.
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            bin=${side}_bin
            run "${!bin}" "$@" >>"$tmp/$side.txt"
        done
        for side in $order; do
            bin=${side}_bin
            traced "${!bin}" "$@" | sed "s/^/$side /" >>"$tmp/spans.txt"
        done
        echo "$workload pair $i/$pairs: parent $(tail -n 1 "$tmp/parent.txt" | cut -d' ' -f1) s," \
            "change $(tail -n 1 "$tmp/change.txt" | cut -d' ' -f1) s host" >&2
    done

    echo "workload $workload, $pairs pairs, $seconds s, extra args: ${*:-none}"
    for col in 1:host_s 2:setup_s; do
        n=${col%%:*} name=${col#*:}
        limit=$(bound "$name") verdict=resolved
        for side in parent change; do
            stats=$(cut -d' ' -f"$n" "$tmp/$side.txt" | quartiles)
            echo "$name $side: $stats"
            # `median m q1 a q3 b iqr i`: is i / m above the bound?
            if awk -v s="$stats" -v b="$limit" \
                'BEGIN { split(s, f, " "); exit !(f[2] > 0 && f[8] / f[2] > b) }'; then
                verdict=unresolved
            fi
        done
        wins=$(paste -d' ' <(cut -d' ' -f"$n" "$tmp/parent.txt") <(cut -d' ' -f"$n" "$tmp/change.txt") |
            awk '$2 < $1 { w++ } END { print w + 0 }')
        echo "$name change wins $wins/$pairs"
        echo "$name $verdict: each side's IQR against the bound of $limit of its median"
    done
    echo "timed-phase self time per operation, over $pairs traced runs per side:"
    per_op <"$tmp/spans.txt"

    identity=$(cat "$tmp/parent.txt" "$tmp/change.txt" | cut -d' ' -f3- | sort -u)
    if [ "$(wc -l <<<"$identity")" -ne 1 ]; then
        echo "FAIL $workload: device_cycles, speedup_vs_cpu_geomean, correct or failed differ between runs:" >&2
        echo "$identity" >&2
        status=1
    elif [ "$(cut -d' ' -f3- <<<"$identity")" != "true 0" ]; then
        echo "FAIL $workload: runs are incorrect or failed: $identity" >&2
        status=1
    else
        echo "identical on every run: device_cycles speedup correct failed = $identity"
    fi
    echo
done
exit $status
