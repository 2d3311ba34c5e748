#!/usr/bin/env bash
# Diff the trace digests of a base commit's solvers against the working tree's.
#
#     scripts/compare_digests.sh <base-ref>
#
# Checks <base-ref> out in a temporary git worktree, runs this tree's
# scripts/trace_digests.py (public API only) once on the base's sources and
# once on the working tree's, and prints the diff.  Exits 0 when the digests
# are byte-identical and 1 when they differ.  s > 1 runs may move within the
# trajectory contract's 1e-10 without being wrong, so a diff is a prompt to
# look, not a verdict.
set -euo pipefail

base=${1:?usage: scripts/compare_digests.sh <base-ref>}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
    rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach "$work/base" "$base" >/dev/null 2>&1
PYTHONPATH="$work/base/src" python3 "$root/scripts/trace_digests.py" > "$work/base.txt"
PYTHONPATH="$root/src" python3 "$root/scripts/trace_digests.py" > "$work/head.txt"
echo "base $(git -C "$root" rev-parse --short "$base"): $(wc -l < "$work/base.txt") lines; working tree: $(wc -l < "$work/head.txt") lines"
if diff "$work/base.txt" "$work/head.txt"; then
    echo "digests identical"
else
    exit 1
fi
