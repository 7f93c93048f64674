#!/usr/bin/env bash
# Compares the output digests of two perfbench builds.
#
#   scripts/digests.sh PARENT_BIN CHANGE_BIN [SEED...]
#
# For each seed (default 1 and 2), each workload of BENCHMARK.json and
# `--trace 0` and `--trace 1`, runs both binaries at `--seconds 0` and
# takes the `digest` from each run's `detail` line and the verdict from
# its result line (the last line). Prints one row per run with both
# digests and exits non-zero if any pair differs, a run printed no
# digest, or a run's result line is missing, is not `"correct":true` or
# reports a non-zero `"failed"`; such a row names the reason. A
# speed-only or simplicity change must leave every digest as it was.
# Needs only bash and awk.
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

# One run, summarised on one line: its digest ("none" if it printed
# none), a tab, and why its result line fails the check (empty if it
# passes).
verdict() {
    { "$1" --workload "$2" --seed "$3" --seconds 0 --trace "$4" 2>/dev/null || true; } | awk '
        /^detail / && match($0, /"digest":"[0-9a-f]*"/) {
            digest = substr($0, RSTART + 10, RLENGTH - 11)
        }
        NF { last = $0 }
        END {
            why = ""
            if (last !~ /^\{"correct":/) {
                why = "no result line"
            } else {
                if (last !~ /^\{"correct":true,/) why = "not correct"
                if (!match(last, /"failed":[0-9]+/)) {
                    why = why (why == "" ? "" : ", ") "no failed count"
                } else if (substr(last, RSTART + 9, RLENGTH - 9) + 0 != 0) {
                    why = why (why == "" ? "" : ", ") "failed " substr(last, RSTART + 9, RLENGTH - 9)
                }
            }
            printf "%s\t%s\n", (digest == "" ? "none" : digest), why
        }'
}

faults=0
printf '%-4s %-18s %-5s %-16s %-16s %s\n' seed workload trace parent change result
for seed in "${seeds[@]}"; do
    for workload in $workloads; do
        for trace in 0 1; do
            IFS=$'\t' read -r a a_why < <(verdict "$parent" "$workload" "$seed" "$trace")
            IFS=$'\t' read -r b b_why < <(verdict "$change" "$workload" "$seed" "$trace")
            result=same
            if [ "$a" = none ] || [ "$a" != "$b" ]; then
                result=DIFFERENT
            fi
            why=
            [ -n "$a_why" ] && why="parent: $a_why"
            [ -n "$b_why" ] && why="${why:+$why; }change: $b_why"
            [ -n "$why" ] && result="$result, FAILED ($why)"
            if [ "$result" != same ]; then
                faults=$((faults + 1))
            fi
            printf '%-4s %-18s %-5s %-16s %-16s %s\n' \
                "$seed" "$workload" "$trace" "$a" "$b" "$result"
        done
    done
done

if [ "$faults" -gt 0 ]; then
    echo "$faults run pair(s) differ or fail their check" >&2
    exit 1
fi
echo "all digests identical, every run correct with 0 failed"
