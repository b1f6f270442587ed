#!/usr/bin/env bash
# Non-test lines of Rust sources: for each `.rs` file under the given
# files or directories (`target/` skipped), the lines before its first
# `#[cfg(test)]` (every line when it has none), then the total.
#
#   tools/loc.sh [paths...]    # default: crates src
#
# Compare two revisions by running it in a checkout of each.
set -euo pipefail

[ $# -gt 0 ] || set -- crates src
find "$@" -name target -prune -o -type f -name '*.rs' -print | sort |
    xargs -r awk '
        function report() { printf "%7d %s\n", n, file; total += n }
        FNR == 1 { if (file != "") report(); file = FILENAME; n = 0; tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        !tests { n++ }
        END { if (file != "") report(); printf "%7d total\n", total }'
