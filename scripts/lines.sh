#!/usr/bin/env bash
# Prints the workspace's non-test line count, the size measure the
# ROADMAP's simplicity aim reports.
#
#   scripts/lines.sh [ROOT]
#
# Counts every `.rs` file under ROOT/crates (ROOT defaults to this
# checkout), each up to its first column-0 `#[cfg(test)]` or whole when
# it has none, and prints the sum. The rule assumes that line opens the
# file's test module, so the script exits non-zero, naming the file and
# line, when a column-0 `#[cfg(test)]` is followed (past blank lines,
# comments and further attributes) by anything but a `mod` item: a
# test-only item above the library code would stop the count early and
# hide every line after it. Needs only bash and awk.
set -euo pipefail

root=${1:-"$(cd "$(dirname "$0")/.." && pwd)"}
cd "$root"

find crates -name '*.rs' | sort | awk '
    {
        file = $0
        gate = 0 # line of the column-0 #[cfg(test)] that ends the count
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
    }
    END {
        if (bad) exit 1
        print n + 0
    }'
