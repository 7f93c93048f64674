#!/usr/bin/env bash
# Checks the output digests of perfbench builds.
#
#   scripts/digests.sh PARENT_BIN CHANGE_BIN [SEED...]
#   scripts/digests.sh BIN
#
# With two binaries: for each seed (default 1, 2 and 3), each workload of
# BENCHMARK.json and `--trace 0` and `--trace 1`, runs both binaries at
# `--seconds 0` and compares their digests. With one binary: runs it the
# same way for each run listed in scripts/digests.pinned (the 18 runs of
# seeds 1 to 3) and compares its digest with the pinned one. A digest is
# the `digest` of a run's `detail` line; the verdict comes from its result
# line (the last line). Prints one row per run with both digests and
# exits non-zero if any pair differs, a run printed no digest, or a run's
# result line is missing, is not `"correct":true` or reports a non-zero
# `"failed"`; such a row names the reason. A speed-only or simplicity
# change must leave every digest as it was; a change that moves outputs
# on purpose updates scripts/digests.pinned. Needs only bash and awk.
set -euo pipefail

if [ "$#" -lt 1 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN [SEED...]  or  $0 BIN" >&2
    exit 2
fi
here="$(cd "$(dirname "$0")" && pwd)"

# One run, summarised on one line: its digest ("none" if it printed
# none), a tab, and why its result line fails the check (empty if it
# passes).
verdict() {
    { "$1" --workload "$2" --seed "$3" --seconds 0 --trace "$4" </dev/null 2>/dev/null || true; } | awk '
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
# Prints one row (seed, workload, trace, the two digests, the reasons
# either run failed its check) and counts a fault unless the first digest
# exists, the two match and neither run failed.
report() {
    local result=same why=
    if [ "$4" = none ] || [ "$4" != "$5" ]; then
        result=DIFFERENT
    fi
    [ -n "$6" ] && why=$6
    [ -n "$7" ] && why="${why:+$why; }$7"
    [ -n "$why" ] && result="$result, FAILED ($why)"
    if [ "$result" != same ]; then
        faults=$((faults + 1))
    fi
    printf '%-4s %-18s %-5s %-16s %-16s %s\n' "$1" "$2" "$3" "$4" "$5" "$result"
}

if [ "$#" -eq 1 ]; then
    printf '%-4s %-18s %-5s %-16s %-16s %s\n' seed workload trace pinned measured result
    while read -r -u 3 seed workload trace pinned; do
        case "$seed" in '' | '#'*) continue ;; esac
        IFS=$'\t' read -r b b_why < <(verdict "$1" "$workload" "$seed" "$trace")
        report "$seed" "$workload" "$trace" "$pinned" "$b" "" "${b_why:+measured: $b_why}"
    done 3<"$here/digests.pinned"
else
    parent=$1
    change=$2
    shift 2
    seeds=("$@")
    if [ "${#seeds[@]}" -eq 0 ]; then
        seeds=(1 2 3)
    fi
    # The workload names of the manifest, in order.
    workloads=$(awk '
        /"workloads"/ { on = 1 }
        /"end_to_end"/ { on = 0 }
        on && /"name"/ {
            match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
            sub(/"name": *"/, "", n); sub(/"$/, "", n)
            print n
        }' "$here/../BENCHMARK.json")
    printf '%-4s %-18s %-5s %-16s %-16s %s\n' seed workload trace parent change result
    for seed in "${seeds[@]}"; do
        for workload in $workloads; do
            for trace in 0 1; do
                IFS=$'\t' read -r a a_why < <(verdict "$parent" "$workload" "$seed" "$trace")
                IFS=$'\t' read -r b b_why < <(verdict "$change" "$workload" "$seed" "$trace")
                report "$seed" "$workload" "$trace" "$a" "$b" \
                    "${a_why:+parent: $a_why}" "${b_why:+change: $b_why}"
            done
        done
    done
fi

if [ "$faults" -gt 0 ]; then
    echo "$faults run(s) differ or fail their check" >&2
    exit 1
fi
echo "all digests identical, every run correct with 0 failed"
