//! `benchmark compare DIR_A DIR_B`: two sets of runs side by side.
//!
//! Each directory holds the `runs.jsonl` its runs appended to. For
//! every (workload, end-to-end metric) the tool prints each set's
//! median and quartiles, the relative difference with its base, the
//! metric's bound, and a verdict. Run on two sets of the same commit it
//! is the A/A check; on a parent and a change, the regression gate.

use crate::harness::END_TO_END;
use crate::json::{self, Value};
use crate::stats::{Better, Spread};
use crate::workloads::NAMES;
use std::collections::BTreeMap;
use std::path::Path;

/// Values per (workload, metric) across the runs of one set.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn load(dir: &Path) -> Result<Set, String> {
    let path = dir.join("runs.jsonl");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut set = Set::new();
    for (i, line) in text.lines().enumerate() {
        let run = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        if run.get("mode").and_then(Value::as_str) != Some("untraced") {
            continue;
        }
        let Some(workload) = run.get("workload").and_then(Value::as_str) else {
            continue;
        };
        for section in ["metrics", "notes"] {
            let Some(metrics) = run.get(section).and_then(Value::as_object) else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    set.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The sets' own spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// How much worse B's median is than A's, as a share of A's median
    /// (negative when B is better).
    pub worse_by: f64,
    /// The wider of the two sets' interquartile ranges, as a share of
    /// that set's median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// First quartile, median and third quartile of a set of runs.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = Spread::of(values);
    (s.p25, s.p50, s.p75)
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let toward_worse = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = toward_worse * (qb.1 - qa.1) / qa.1;
    let spread = ((qa.2 - qa.0) / qa.1).max((qb.2 - qb.0) / qb.1);
    // Every run of B better than every run of A settles it whatever
    // the spread.
    let b_dominates = b
        .iter()
        .all(|vb| a.iter().all(|va| toward_worse * (vb - va) < 0.0));
    let verdict = if spread > bound && !b_dominates {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Row {
        a: qa,
        b: qb,
        worse_by,
        spread,
        verdict,
    }
}

fn median_of(set: &Set, workload: &str, name: &str) -> Option<f64> {
    set.get(&(workload.to_string(), name.to_string()))
        .map(|v| quartiles(v).1)
}

/// Prints the comparison; returns the process exit code (1 if any
/// metric regressed, 2 if a set cannot be read).
pub fn run(dir_a: &Path, dir_b: &Path) -> i32 {
    let (a, b) = match (load(dir_a), load(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    println!(
        "# A = {}, B = {}; each cell: median [first quartile .. third quartile] (runs)",
        dir_a.display(),
        dir_b.display()
    );
    let mut regressed = false;
    for workload in NAMES {
        for (name, unit, better, bound) in END_TO_END {
            let key = (workload.to_string(), name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let row = judge(va, vb, better, bound);
            regressed |= row.verdict == Verdict::Regressed;
            println!(
                "{workload} {name} ({unit}, {} is better): \
                 A {:.6} [{:.6} .. {:.6}] ({}) | B {:.6} [{:.6} .. {:.6}] ({}) | \
                 B worse by {:+.2}% of A's {:.6} | spread {:.2}% | bound {:.0}% | {}",
                better.label(),
                row.a.1,
                row.a.0,
                row.a.2,
                va.len(),
                row.b.1,
                row.b.0,
                row.b.2,
                vb.len(),
                row.worse_by * 100.0,
                row.a.1,
                row.spread * 100.0,
                bound * 100.0,
                row.verdict.label()
            );
        }
        for gauge in ["harness.pass_spread", "harness.calib_spin_ms"] {
            if let (Some(ma), Some(mb)) = (
                median_of(&a, workload, gauge),
                median_of(&b, workload, gauge),
            ) {
                println!("{workload} {gauge}: A {ma:.4} | B {mb:.4}");
            }
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_within_the_bound_agree() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        let row = judge(&a, &b, Better::Lower, 0.10);
        assert_eq!(row.verdict, Verdict::Ok);
        assert!((row.worse_by - 0.03).abs() < 1e-9);
        // The same numbers as a rate: higher is better, so B is better.
        let row = judge(&a, &b, Better::Higher, 0.10);
        assert_eq!(row.verdict, Verdict::Ok);
        assert!(row.worse_by < 0.0);
    }

    #[test]
    fn a_median_past_the_bound_is_a_regression() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [113.0, 114.0, 112.0, 113.5, 112.5];
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&b, &a, Better::Higher, 0.10).verdict,
            Verdict::Regressed
        );
        assert_eq!(judge(&b, &a, Better::Lower, 0.10).verdict, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let a = [100.0, 130.0, 90.0, 120.0, 80.0];
        let b = [101.0, 128.0, 92.0, 119.0, 83.0];
        let row = judge(&a, &b, Better::Lower, 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
        assert!(row.spread > 0.10);
        let far_better = [50.0, 60.0, 40.0, 55.0, 45.0];
        assert_eq!(
            judge(&a, &far_better, Better::Lower, 0.10).verdict,
            Verdict::Ok
        );
    }
}
