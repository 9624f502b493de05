#!/usr/bin/env bash
# Shows that the working tree's CI `repro` results are byte-identical to
# those of another revision.
#
#   scripts/repro-parent-diff.sh <rev>
#
# Builds <rev> in a temporary git worktree under target/repro-parent/
# (offline, into its own target directory there, so a rerun is an
# incremental build), builds the working tree, runs CI's three `repro`
# invocations for both at --threads 1 and 4, and runs `diff -r` over the
# two results trees. Prints nothing from the diff and exits 0 when every
# file matches; otherwise prints the diff and exits 1.
set -euo pipefail

rev=${1:?usage: scripts/repro-parent-diff.sh <rev>}
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$rev^{commit}")
base=$root/target/repro-parent
tree=$base/tree
out=$base/results
rm -rf "$out"
mkdir -p "$base"

git worktree remove --force "$tree" 2>/dev/null || rm -rf "$tree"
git worktree prune
git worktree add --quiet --detach "$tree" "$sha"
trap 'git worktree remove --force "$tree"' EXIT

echo "building $rev ($sha)"
(cd "$tree" && CARGO_TARGET_DIR=$base/target cargo build --release --offline -q -p nws-bench --bin repro)
echo "building the working tree"
cargo build --release --offline -q -p nws-bench --bin repro

# CI's determinism step, verbatim but for the binary and the results root.
run() {
    local repro=$1 dir=$2
    for t in 1 4; do
        NWS_RESULTS_DIR=$dir/ci-t$t/quick "$repro" --quick all --threads $t >/dev/null
        NWS_RESULTS_DIR=$dir/ci-t$t/smoke "$repro" --smoke faults fleet durability --threads $t >/dev/null
        NWS_RESULTS_DIR=$dir/ci-t$t/quality "$repro" --smoke fleet --quality --threads $t >/dev/null
    done
}
run "$base/target/release/repro" "$out/rev"
run "$root/target/release/repro" "$out/work"

files=$(find "$out/rev" -type f | wc -l)
diff -r "$out/rev" "$out/work"
echo "identical: $files files at --threads 1 and 4 ($rev vs working tree)"
