#!/usr/bin/env bash
# Alternating parent/change pairs of perfbench runs, summarised per
# end-to-end metric, or per per-layer metric when traced.
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD SECONDS PAIRS [SEED] [TRACE]
#
# Runs PAIRS pairs of runs at seed SEED (default 1), untraced
# (`--trace 0`) unless TRACE is 1. Odd pairs run the parent first, even
# pairs the change first, so host drift falls on both sides. Prints
# every run's `failed` count and metrics, then for each metric of
# BENCHMARK.json the median and quartiles per side, the change's wins
# out of PAIRS by the metric's `better` (ties count for neither), the
# median gap and the parent's interquartile range. Untraced runs report
# the `end_to_end` metrics; traced runs (`--trace 1`) report the
# `per_layer` ones. A claimed gain needs the change to win at least nine
# tenths of the pairs and its median to beat the parent's, in the
# metric's `better` direction, by more than the parent's IQR. Under each
# metric two verdict lines follow: `claim` says whether the pairs meet
# that rule, and `bound` whether the change's median is no worse than
# the parent's by more than the metric's `bound` fraction in
# BENCHMARK.json (per-layer metrics declare none). Needs only bash and
# awk.
set -euo pipefail

if [ "$#" -lt 5 ]; then
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD SECONDS PAIRS [SEED] [TRACE]" >&2
    exit 2
fi
parent=$1
change=$2
workload=$3
seconds=$4
pairs=$5
seed=${6:-1}
trace=${7:-0}
case $trace in
    0) section=end_to_end ;;
    1) section=per_layer ;;
    *) echo "TRACE must be 0 or 1, not $trace" >&2; exit 2 ;;
esac
manifest="$(cd "$(dirname "$0")/.." && pwd)/BENCHMARK.json"

# One "name better bound" line per metric of the manifest's section;
# the bound is "none" where the metric declares none.
metrics=$(awk -v section="$section" '
    /"end_to_end"/ { on = section == "end_to_end" }
    /"per_layer"/ { on = section == "per_layer" }
    on && /"name"/ {
        match($0, /"name": *"[^"]*"/); n = substr($0, RSTART, RLENGTH)
        sub(/"name": *"/, "", n); sub(/"$/, "", n)
        match($0, /"better": *"[^"]*"/); b = substr($0, RSTART, RLENGTH)
        sub(/"better": *"/, "", b); sub(/"$/, "", b)
        l = "none"
        if (match($0, /"bound": *[0-9.eE+-]+/)) { l = substr($0, RSTART, RLENGTH); sub(/"bound": */, "", l) }
        print n, b, l
    }' "$manifest")
names=$(echo "$metrics" | awk '{print $1}' | tr '\n' ' ')

# An awk function: metric NAME's value in a perfbench result line.
value='
    function value(line, name,    m) {
        if (!match(line, "\"" name "\":\\{\"value\":[-0-9.eE+]+")) return "nan"
        m = substr(line, RSTART, RLENGTH); sub(/.*"value":/, "", m); return m + 0
    }'

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then bin=$parent; else bin=$change; fi
        line=$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
        echo "$i $side $line" >> "$runs"
        echo "$line" | awk -v pair="$i" -v side="$side" -v names="$names" "$value"'
            {
                match($0, /"failed":[0-9]+/)
                printf "pair %s %s failed=%s", pair, side, substr($0, RSTART + 9, RLENGTH - 9)
                n = split(names, a, " ")
                for (k = 1; k <= n; k++) printf " %s=%s", a[k], value($0, a[k])
                print ""
            }'
    done
done

# Per-layer names are longer than the end-to-end ones.
width=$(echo "$metrics" | awk '{ if (length($1) > w) w = length($1) } END { print (w > 14 ? w : 14) }')

echo "$metrics" | while read -r name better bound; do
    awk -v name="$name" -v better="$better" -v bound="$bound" -v pairs="$pairs" -v width="$width" "$value"'
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        function quantile(a, n, p,    pos, lo) {
            pos = (n - 1) * p + 1; lo = int(pos)
            return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
        }
        {
            v = value($0, name)
            if ($2 == "parent") { par[$1] = v; ps[++np] = v } else { chg[$1] = v; cs[++nc] = v }
        }
        END {
            wins = 0
            for (i = 1; i <= pairs; i++)
                if ((better == "lower" && chg[i] < par[i]) || (better == "higher" && chg[i] > par[i])) wins++
            sort(ps, np); sort(cs, nc)
            pm = quantile(ps, np, 0.5); cm = quantile(cs, nc, 0.5)
            iqr = quantile(ps, np, 0.75) - quantile(ps, np, 0.25)
            gap = cm - pm; if (gap < 0) gap = -gap
            printf "%-" width "s (%s better) parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  wins %d/%d  gap %.6g  parent IQR %.6g\n",
                name, better, pm, quantile(ps, np, 0.25), quantile(ps, np, 0.75),
                cm, quantile(cs, nc, 0.25), quantile(cs, nc, 0.75), wins, pairs, gap, iqr
            # How far the change median lies toward the better side, and
            # toward the worse side as a fraction of the parent median.
            gain = (better == "lower") ? pm - cm : cm - pm
            need = int((9 * pairs + 9) / 10)
            printf "    claim %s: wins %d/%d (need %d), median gain %.6g (need > parent IQR %.6g)\n",
                (wins >= need && gain > iqr) ? "met" : "not met", wins, pairs, need, gain, iqr
            if (bound == "none") {
                print "    bound none declared"
            } else {
                worse = (pm == 0) ? 0 : -gain / ((pm < 0) ? -pm : pm)
                printf "    bound %s: change median %.2f%% %s than the parent (bound %g%% worse)\n",
                    (worse <= bound + 0) ? "within" : "exceeded", 100 * ((worse < 0) ? -worse : worse),
                    (worse > 0) ? "worse" : "better", 100 * bound
            }
        }' "$runs"
done
