#!/usr/bin/env python3
"""Structural diff of two benchmark JSON artifacts.

CI regenerates each tracked benchmark at smoke tier and compares its
*structure* (nested key sets and value kinds) against the committed
baseline. Numbers are expected to differ run to run; a missing or
renamed key means the producer and the tracked baseline have drifted
apart and the baseline needs regenerating.

Array elements are folded together under one `[*]` path: every tier
emits the same per-entry schema, only the number of entries varies.

Usage: check_bench_schema.py BASELINE.json CANDIDATE.json
Exits 0 when the structures match, 1 with a path-level diff otherwise.
"""

import json
import sys

# Sections every BENCH_perf.json must carry, whatever the tier. The
# structural diff below catches drift between two artifacts; this list
# catches the case where *both* sides lost a section.
REQUIRED_PERF_SECTIONS = ("acf", "forecast_quality")

# Sections every BENCH_serve.json (the `repro load` artifact) must
# carry. Keyed on the presence of "open_loop" so the perf artifact and
# other benchmark files pass through untouched.
REQUIRED_SERVE_SECTIONS = (
    "tier",
    "workers",
    "mix",
    "open_loop",
    "closed_loop",
    "max_sustainable_rps",
    "soak",
    "churn",
    "concurrency",
    "personas",
    "failover",
)


def shape(node, path="$"):
    """The structure of a JSON value as a set of (path, kind) pairs."""
    out = set()
    if isinstance(node, dict):
        out.add((path, "object"))
        for key, value in node.items():
            out |= shape(value, f"{path}.{key}")
    elif isinstance(node, list):
        out.add((path, "array"))
        for value in node:
            out |= shape(value, f"{path}[*]")
    elif isinstance(node, bool):
        out.add((path, "bool"))
    elif isinstance(node, (int, float)):
        out.add((path, "number"))
    elif isinstance(node, str):
        out.add((path, "string"))
    else:
        out.add((path, "null"))
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} BASELINE.json CANDIDATE.json")
    baseline_path, candidate_path = sys.argv[1], sys.argv[2]
    with open(baseline_path) as f:
        baseline_doc = json.load(f)
    with open(candidate_path) as f:
        candidate_doc = json.load(f)

    for name, doc in ((baseline_path, baseline_doc), (candidate_path, candidate_doc)):
        if isinstance(doc, dict) and "acf" in doc:
            absent = [s for s in REQUIRED_PERF_SECTIONS if s not in doc]
            if absent:
                sys.exit(f"{name}: missing required sections: {', '.join(absent)}")
        if isinstance(doc, dict) and "open_loop" in doc:
            absent = [s for s in REQUIRED_SERVE_SECTIONS if s not in doc]
            if absent:
                sys.exit(f"{name}: missing required sections: {', '.join(absent)}")

    baseline = shape(baseline_doc)
    candidate = shape(candidate_doc)

    missing = sorted(baseline - candidate)
    extra = sorted(candidate - baseline)
    for path, kind in missing:
        print(f"missing from {candidate_path}: {path} ({kind})")
    for path, kind in extra:
        print(f"not in {baseline_path}: {path} ({kind})")
    if missing or extra:
        sys.exit(1)
    print(f"schema ok: {candidate_path} matches {baseline_path} ({len(baseline)} paths)")


if __name__ == "__main__":
    main()
