#!/usr/bin/env bash
# Prints the workspace's non-test line count, the size measure the
# ROADMAP's simplicity aim reports.
#
#   scripts/lines.sh [ROOT]
#   scripts/lines.sh PARENT CHANGE
#
# Counts every `.rs` file under ROOT/crates (ROOT defaults to this
# checkout), each up to its first column-0 `#[cfg(test)]` or whole when
# it has none, and prints the sum. Given two roots, it prints one row
# per file whose count differs between them, `FILE PARENT -> CHANGE
# (DIFF)` (a file missing from one root counts 0 there), and then the
# same row for the two totals. The rule assumes that line opens the
# file's test module, so the script exits non-zero, naming the file and
# line, when a column-0 `#[cfg(test)]` is followed (past blank lines,
# comments and further attributes) by anything but a `mod` item: a
# test-only item above the library code would stop the count early and
# hide every line after it. Needs only bash, awk and coreutils.
set -euo pipefail

# Prints `FILE COUNT` for every `.rs` file under $1/crates, by name.
per_file() {
    cd "$1"
    find crates -name '*.rs' | sort | awk '
        {
            file = $0
            gate = 0 # line of the column-0 #[cfg(test)] that ends the count
            n = 0
            while ((getline line < file) > 0) {
                fnr++
                if (!gate) {
                    if (line ~ /^#\[cfg\(test\)\]/) { gate = fnr; continue }
                    n++
                    continue
                }
                if (line ~ /^[ \t]*$/ || line ~ /^[ \t]*(#\[|\/\/)/) continue
                if (line !~ /^(pub(\([^)]*\))? +)?mod [A-Za-z_]/) {
                    printf "%s:%d: #[cfg(test)] is not followed by a mod item, so the count would stop here\n",
                        file, gate > "/dev/stderr"
                    bad = 1
                }
                break
            }
            close(file)
            fnr = 0
            print file, n
        }
        END { if (bad) exit 1 }'
}

total() {
    awk '{ n += $2 } END { print n + 0 }' <<<"$1"
}

if (($# < 2)); then
    counts=$(per_file "${1:-"$(cd "$(dirname "$0")/.." && pwd)"}")
    total "$counts"
    exit 0
fi

parent=$(per_file "$1")
change=$(per_file "$2")
awk '
    FNR == NR { p[$1] = $2; next }
    { c[$1] = $2 }
    END {
        for (f in p) if (!(f in c)) c[f] = 0
        for (f in c) if (p[f] + 0 != c[f]) printf "%s %d -> %d (%+d)\n", f, p[f], c[f], c[f] - p[f]
    }' <(echo "$parent") <(echo "$change") | sort
tp=$(total "$parent")
tc=$(total "$change")
printf 'total %d -> %d (%+d)\n' "$tp" "$tc" $((tc - tp))
