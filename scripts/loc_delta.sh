#!/usr/bin/env bash
# Rust lines added and removed between a revision and the working tree,
# split into non-test and test code. Untracked (not ignored) .rs files
# count as added.
#
# Test code is every file under a `tests/` or `benches/` directory, and in
# any other file every line from its first `#[cfg(test)]` on. A changed
# line is classified by where it sits in its own version of the file: a
# removed line by the old file, an added line by the new one.
#
# Usage: scripts/loc_delta.sh <rev>
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/loc_delta.sh <rev>" >&2
    exit 2
fi
rev=$1
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "loc_delta: unknown revision '$rev'" >&2
    exit 2
}

# 1-based line of the first `#[cfg(test)]` on stdin, or 0 if none. Reads
# all of its input: exiting early would break the pipe of `git show`.
cfg_test_line() {
    awk '!line && /^[[:space:]]*#\[cfg\(test\)\]/ { line = NR } END { print line + 0 }'
}

tracked=$(git diff --no-renames --name-only "$rev" -- '*.rs')
untracked=$(git ls-files --others --exclude-standard -- '*.rs')

{
    # Per-file cut points: "CUT <path> <old line> <new line>".
    for f in $tracked $untracked; do
        old=0
        if git cat-file -e "$rev:$f" 2>/dev/null; then
            old=$(git show "$rev:$f" | cfg_test_line)
        fi
        new=0
        if [ -f "$f" ]; then
            new=$(cfg_test_line <"$f")
        fi
        echo "CUT $f $old $new"
    done
    if [ -n "$tracked" ]; then
        git diff --no-renames -U0 "$rev" -- $tracked
    fi
    for f in $untracked; do
        git diff --no-index -U0 /dev/null "$f" || true
    done
} | awk '
    function is_test_path(p) { return p ~ /(^|\/)(tests|benches)\// }
    $1 == "CUT" { old_cut[$2] = $3; new_cut[$2] = $4; next }
    /^diff / { header = 1; next }
    header && /^(---|\+\+\+) / {
        # The side that is not /dev/null names the file.
        if ($2 != "/dev/null") { path = substr($2, 3) }
        next
    }
    /^@@ / {
        header = 0
        # @@ -old[,n] +new[,m] @@
        split($2, o, ","); split($3, n, ",")
        old_ln = substr(o[1], 2) + 0
        new_ln = substr(n[1], 2) + 0
        next
    }
    /^-/ {
        t = is_test_path(path) || (old_cut[path] > 0 && old_ln >= old_cut[path])
        removed[t]++
        old_ln++
        next
    }
    /^\+/ {
        t = is_test_path(path) || (new_cut[path] > 0 && new_ln >= new_cut[path])
        added[t]++
        new_ln++
        next
    }
    END {
        printf "%-9s %8s %8s %8s\n", "", "added", "removed", "net"
        printf "%-9s %+8d %8d %+8d\n", "non-test", added[0], -removed[0], added[0] - removed[0]
        printf "%-9s %+8d %8d %+8d\n", "test", added[1], -removed[1], added[1] - removed[1]
        a = added[0] + added[1]; r = removed[0] + removed[1]
        printf "%-9s %+8d %8d %+8d\n", "total", a, -r, a - r
    }
'
