//! Rendering a [`Report`]: the metric lines a person reads, the one
//! JSON result line a driver reads, and the `runs.jsonl` record
//! `compare` reads.

use crate::harness::{Metric, Report, RunConfig};
use crate::json;
use std::io::Write;

fn mode(report: &Report) -> &'static str {
    if report.traced {
        "traced"
    } else {
        "untraced"
    }
}

/// Every metric by name with its unit, one per line.
pub fn print(report: &Report) {
    let w = report.workload;
    println!(
        "## {w} ({}): {} passes, attempted {}, failed {}, correct {}{}{}",
        mode(report),
        report.passes,
        report.attempted,
        report.failed,
        report.correct,
        if report.noisy { ", NOISY" } else { "" },
        if report.truncated {
            ", TRUNCATED by --seconds"
        } else {
            ""
        }
    );
    for m in &report.metrics {
        println!("{w} {} {} {}", m.name, m.value, m.unit);
    }
    for m in &report.notes {
        println!("note {w} {} {} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &report.exact {
        println!("exact {w} {name} {value}");
    }
}

fn write_metrics(w: &mut json::Writer, metrics: &[Metric]) {
    w.begin_object();
    for m in metrics {
        w.key(&m.name).begin_object();
        w.key("value").number(m.value);
        w.key("unit").string(m.unit);
        w.end_object();
    }
    w.end_object();
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(report: &Report) -> String {
    let mut w = json::Writer::new();
    w.begin_object();
    w.key("correct").boolean(report.correct);
    w.key("attempted").integer(report.attempted.max(1));
    w.key("failed").integer(report.failed);
    w.key("metrics");
    write_metrics(&mut w, &report.metrics);
    w.end_object();
    w.finish()
}

/// The full record of one run, one line of `runs.jsonl`.
pub fn record(report: &Report) -> String {
    let mut w = json::Writer::new();
    w.begin_object();
    w.key("workload").string(report.workload);
    w.key("mode").string(mode(report));
    w.key("seed").integer(report.seed);
    w.key("passes").integer(report.passes as u64);
    w.key("correct").boolean(report.correct);
    w.key("attempted").integer(report.attempted);
    w.key("failed").integer(report.failed);
    w.key("noisy").boolean(report.noisy);
    w.key("truncated").boolean(report.truncated);
    w.key("metrics");
    write_metrics(&mut w, &report.metrics);
    w.key("notes");
    write_metrics(&mut w, &report.notes);
    w.key("exact").begin_object();
    for (name, value) in &report.exact {
        w.key(name).string(value);
    }
    w.end_object();
    w.key("series").begin_object();
    for (name, values) in &report.series {
        w.key(name).begin_array();
        for v in values {
            w.number(*v);
        }
        w.end_array();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

pub fn append(report: &Report, cfg: &RunConfig) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(cfg.out_dir.join("runs.jsonl"))?;
    writeln!(file, "{}", record(report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            workload: "serve_live",
            traced: false,
            seed: 7,
            passes: 50,
            truncated: false,
            attempted: 1000,
            failed: 0,
            correct: true,
            noisy: false,
            metrics: vec![
                Metric::new("setup_s", 0.5127, "s"),
                Metric::new("ops_per_s", 654321.25, "1/s"),
            ],
            notes: vec![Metric::new("harness.pass_spread", 1.21, "ratio")],
            exact: vec![("script".into(), "00ff".into())],
            series: vec![("pass_s", vec![0.4, 0.5])],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = json::parse(&result_line(&sample())).expect("one JSON object");
        let keys: Vec<&str> = v
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let setup = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(json::Value::as_f64),
            Some(0.5127)
        );
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
        assert!(!result_line(&sample()).contains('\n'));
    }

    #[test]
    fn records_carry_the_notes_and_exact_counts() {
        let v = json::parse(&record(&sample())).expect("one JSON object");
        assert_eq!(
            v.get("mode").and_then(json::Value::as_str),
            Some("untraced")
        );
        assert!(v
            .get("notes")
            .and_then(|n| n.get("harness.pass_spread"))
            .is_some());
        assert_eq!(
            v.get("exact")
                .and_then(|e| e.get("script"))
                .and_then(json::Value::as_str),
            Some("00ff")
        );
    }
}
