#!/usr/bin/env bash
# Compares the output digests of two perfbench builds.
#
#   scripts/digests.sh PARENT_BIN CHANGE_BIN [SEED...]
#
# For each seed (default 1 and 2), each workload of BENCHMARK.json and
# `--trace 0` and `--trace 1`, runs both binaries at `--seconds 0` and
# takes the `digest` from each run's `detail` line. Prints one row per
# run with both digests, and exits non-zero if any pair differs or a run
# printed no digest. A speed-only or simplicity change must leave every
# digest as it was. Needs only bash, grep and awk.
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN [SEED...]" >&2
    exit 2
fi
parent=$1
change=$2
shift 2
seeds=("$@")
if [ "${#seeds[@]}" -eq 0 ]; then
    seeds=(1 2)
fi
manifest="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

# The workload names of the manifest, in order.
workloads=$(awk '
    /"workloads"/ { on = 1 }
    /"end_to_end"/ { on = 0 }
    on && /"name"/ {
        match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
        sub(/"name": *"/, "", n); sub(/"$/, "", n)
        print n
    }' "$manifest")

# The digest of one run, or nothing if the run failed or printed none.
digest() {
    { "$1" --workload "$2" --seed "$3" --seconds 0 --trace "$4" || true; } |
        grep '^detail ' | grep -o '"digest":"[0-9a-f]*"' | awk -F'"' '{ print $4 }' || true
}

mismatches=0
printf '%-4s %-18s %-5s %-16s %-16s %s\n' seed workload trace parent change result
for seed in "${seeds[@]}"; do
    for workload in $workloads; do
        for trace in 0 1; do
            a=$(digest "$parent" "$workload" "$seed" "$trace")
            b=$(digest "$change" "$workload" "$seed" "$trace")
            result=same
            if [ -z "$a" ] || [ "$a" != "$b" ]; then
                result=DIFFERENT
                mismatches=$((mismatches + 1))
            fi
            printf '%-4s %-18s %-5s %-16s %-16s %s\n' \
                "$seed" "$workload" "$trace" "${a:-none}" "${b:-none}" "$result"
        done
    done
done

if [ "$mismatches" -gt 0 ]; then
    echo "$mismatches run(s) differ" >&2
    exit 1
fi
echo "all digests identical"
