#!/usr/bin/env bash
# Prints the peak resident set size of a full-tier `repro fleet` run,
# whose largest fleet is 10⁵ hosts.
#
#   scripts/fleet-peak-rss.sh [repro flags...]
#
# Builds `repro` (release, offline), runs `repro fleet` with any extra
# flags (none: the full tier) and its results in a temporary directory,
# and prints the child's peak RSS as getrusage(RUSAGE_CHILDREN) reports
# it (`ru_maxrss`, the kernel's VmHWM), in kB and in MB of 1,000 kB.
# python3 reads it because /usr/bin/time is not installed everywhere.
#
# Exits 1 when the peak is above 250 MB, ROADMAP item 16's gate: the
# peak before the time axis replaced the times column (~188 MB since).
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
cargo build --release --offline -q -p nws-bench --bin repro
repro=${CARGO_TARGET_DIR:-$root/target}/release/repro
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

NWS_RESULTS_DIR=$out python3 - "$repro" fleet "$@" <<'EOF'
import resource
import subprocess
import sys

subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"repro {' '.join(sys.argv[2:])}: peak RSS {kb:,} kB ({kb / 1000:.0f} MB)")
# ROADMAP item 16's fleet memory gate.
MAX_MB = 250
if kb / 1000 > MAX_MB:
    sys.exit(f"peak RSS {kb / 1000:.0f} MB is above {MAX_MB} MB")
EOF
