#!/usr/bin/env bash
# The benchmark's own check, for CI to call: unit tests, then the smoke
# benchmark (every workload, untraced and traced, tiny sizes) three
# times. Two smoke runs at one seed must agree bit for bit on every
# exact count and fingerprint; a run at another seed must change every
# script and schedule fingerprint, because the program under test sees
# only generated inputs.
set -euo pipefail
cd "$(dirname "$0")"

cargo test --release --quiet
cargo build --release --quiet
bin="${CARGO_TARGET_DIR:-target}/release/benchmark"
out="${1:-out/check}"
rm -rf "$out"
mkdir -p "$out"

smoke() { # smoke <seed> <name>
    "$bin" --smoke --seed "$1" --out-dir "$out/$2" | grep '^exact ' > "$out/$2.exact"
}
smoke 1999 first
smoke 1999 again
smoke 2000 other

if ! diff "$out/first.exact" "$out/again.exact"; then
    echo "check: two smoke runs at one seed disagree on an exact count" >&2
    exit 1
fi
inputs() { grep -E '^exact [a-z_]+ (script|schedule) ' "$1" | sort; }
if [ -z "$(inputs "$out/first.exact")" ]; then
    echo "check: no script fingerprints were printed" >&2
    exit 1
fi
if [ -n "$(comm -12 <(inputs "$out/first.exact") <(inputs "$out/other.exact"))" ]; then
    echo "check: another seed left a script or schedule fingerprint unchanged" >&2
    exit 1
fi
echo "check: ok ($(wc -l < "$out/first.exact") exact values agree)"
