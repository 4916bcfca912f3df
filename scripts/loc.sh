#!/usr/bin/env bash
# Counts Rust lines by the one rule the change log and ROADMAP quote.
#
#   scripts/loc.sh          # the files tracked in the index
#   scripts/loc.sh <rev>    # the files of a commit, e.g. HEAD~1
#
# The files are `git ls-files '*.rs'` outside benchmark/. A line is non-test
# when its file is not under a tests/ directory and the line lies above the
# file's first `#[cfg(test)]`. Prints three numbers:
#   workspace   every line of those files
#   non-test    their non-test lines
#   item 6      non-test lines of crates/net/src/downlink.rs + crates/sim/src/engine.rs
# Informational only: it never fails a build.
set -uo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" | grep '\.rs$')
    show() { git show "$rev:$1"; }
else
    files=$(git ls-files -- '*.rs')
    show() { cat "$1"; }
fi

for f in $files; do
    case "$f" in benchmark/*) continue ;; esac
    show "$f" | awk -v f="$f" '
        /#\[cfg\(test\)\]/ { tested = 1 }
        { all++; if (!tested) above++ }
        END {
            test_dir = (f ~ /(^|\/)tests\//)
            pair = (f == "crates/net/src/downlink.rs" || f == "crates/sim/src/engine.rs")
            nontest = test_dir ? 0 : above + 0
            print all + 0, nontest, pair ? nontest : 0
        }'
done | awk '
    { all += $1; nontest += $2; pair += $3 }
    END { printf "workspace %d\nnon-test %d\nitem 6 %d\n", all, nontest, pair }'
