#!/usr/bin/env bash
# Count the non-test lines of the Rust files of a revision: each `.rs`
# file is counted up to its first `#[cfg(test)]` at column 0 (the file's
# test module), every line before it — code, comments and blank lines
# alike. An indented `#[cfg(test)]` (a test-only item inside production
# code) does not stop the count.
#
#   scripts/loc.sh <rev> [paths…]
#
#   <rev>      any commit-ish; the files are read from git, not from the
#              working tree, so two revisions are counted the same way.
#   paths…     limit the count to these paths (default: the whole tree).
#
# Prints `<lines> <file>` per file, then `<lines> total`.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0"
}

if [[ $# -lt 1 || "$1" == "-h" || "$1" == "--help" ]]; then
    usage
    [[ $# -ge 1 ]] && exit 0
    exit 2
fi
rev="$1"
shift
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
    echo "loc.sh: not a revision: $rev" >&2
    exit 2
fi

total=0
while IFS= read -r file; do
    # Read to the end (no early `exit`): `git show` must not die of SIGPIPE.
    n=$(git show "$rev:$file" | awk 'done { next } /^#\[cfg\(test\)\]/ { done = 1; next } { n++ } END { print n + 0 }')
    printf '%6d %s\n' "$n" "$file"
    total=$((total + n))
done < <(git ls-tree -r --name-only "$rev" -- "$@" | grep '\.rs$' || true)
printf '%6d total\n' "$total"
