//! `repro check-bench BASELINE CANDIDATE`: the structural diff CI runs
//! between a tracked benchmark artifact and a freshly generated one.
//!
//! Numbers are expected to differ run to run; the *structure* — nested
//! key sets and value kinds — is not. A missing or renamed key means the
//! producer and the tracked baseline have drifted apart and the baseline
//! needs regenerating. Array elements fold together under one `[*]`
//! path: every tier emits the same per-entry schema, only the number of
//! entries varies.
//!
//! Exits 0 when the structures match, 1 with a path-level diff (or a
//! missing required section, or an unreadable file) otherwise.

use crate::json::{self, Value};
use std::collections::BTreeSet;

/// Sections every `BENCH_perf.json` must carry, whatever the tier. The
/// structural diff catches drift between two artifacts; this list
/// catches the case where *both* sides lost a section.
const REQUIRED_PERF_SECTIONS: &[&str] = &["acf", "forecast_quality"];

/// Sections every `BENCH_serve.json` (the `repro load` artifact) must
/// carry. Keyed on the presence of `open_loop`, so the perf artifact and
/// other benchmark files pass through untouched.
const REQUIRED_SERVE_SECTIONS: &[&str] = &[
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
];

/// Runs the check named by the arguments after `check-bench`, printing
/// its verdict; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let [baseline, candidate] = args else {
        eprintln!("usage: repro check-bench BASELINE CANDIDATE");
        return 1;
    };
    match check(baseline, candidate) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("{e}");
            1
        }
    }
}

/// Reads both artifacts, checks their required sections, and prints
/// their structural diff, or the match; `Ok(true)` when the structures
/// match. `Err` is an unreadable file or a missing section.
fn check(baseline_path: &str, candidate_path: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let baseline_doc = read(baseline_path)?;
    let candidate_doc = read(candidate_path)?;
    for (name, doc) in [
        (baseline_path, &baseline_doc),
        (candidate_path, &candidate_doc),
    ] {
        let Value::Obj(fields) = doc else { continue };
        let has = |key: &str| fields.iter().any(|(k, _)| k == key);
        for (marker, required) in [
            ("acf", REQUIRED_PERF_SECTIONS),
            ("open_loop", REQUIRED_SERVE_SECTIONS),
        ] {
            let absent: Vec<&str> = required.iter().copied().filter(|s| !has(s)).collect();
            if has(marker) && !absent.is_empty() {
                return Err(format!(
                    "{name}: missing required sections: {}",
                    absent.join(", ")
                ));
            }
        }
    }
    let (mut baseline, mut candidate) = (BTreeSet::new(), BTreeSet::new());
    shape(&baseline_doc, "$".into(), &mut baseline);
    shape(&candidate_doc, "$".into(), &mut candidate);
    for (path, kind) in baseline.difference(&candidate) {
        println!("missing from {candidate_path}: {path} ({kind})");
    }
    for (path, kind) in candidate.difference(&baseline) {
        println!("not in {baseline_path}: {path} ({kind})");
    }
    if baseline != candidate {
        return Ok(false);
    }
    println!(
        "schema ok: {candidate_path} matches {baseline_path} ({} paths)",
        baseline.len()
    );
    Ok(true)
}

/// Adds the structure of `node` at `path` to `out` as `(path, kind)`
/// pairs.
fn shape(node: &Value, path: String, out: &mut BTreeSet<(String, &'static str)>) {
    let kind = match node {
        Value::Obj(fields) => {
            for (key, value) in fields {
                shape(value, format!("{path}.{key}"), out);
            }
            "object"
        }
        Value::Arr(items) => {
            for value in items {
                shape(value, format!("{path}[*]"), out);
            }
            "array"
        }
        Value::Bool(_) => "bool",
        Value::Num(_) => "number",
        Value::Str(_) => "string",
        Value::Null => "null",
    };
    out.insert((path, kind));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_of(text: &str) -> Vec<(String, &'static str)> {
        let mut out = BTreeSet::new();
        shape(
            &json::parse(text).expect("valid JSON"),
            "$".into(),
            &mut out,
        );
        out.into_iter().collect()
    }

    #[test]
    fn array_elements_fold_under_one_path() {
        let pairs = |list: &[(&str, &'static str)]| {
            list.iter()
                .map(|&(p, k)| (p.to_string(), k))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            shape_of(r#"{"rows": [{"n": 1}, {"n": 2, "x": null}], "ok": true}"#),
            pairs(&[
                ("$", "object"),
                ("$.ok", "bool"),
                ("$.rows", "array"),
                ("$.rows[*]", "object"),
                ("$.rows[*].n", "number"),
                ("$.rows[*].x", "null"),
            ])
        );
        // A longer or shorter array has the same shape.
        assert_eq!(shape_of("[[1], [2, 3]]"), shape_of("[[4, 5, 6]]"));
    }
}
