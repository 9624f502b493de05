//! The four workloads and the dispatch from a name to a run.

pub mod client;
pub mod ingest_fleet;
pub mod ingest_grid;
pub mod serve_live;
pub mod serve_socket;
pub mod serving;

use crate::harness::{
    run_traced, run_untraced, tail_latency, Metric, Report, Rig, RunConfig, Workload,
};
use crate::layers;

/// Workload names, in report order.
pub const NAMES: [&str; 4] = ["serve_socket", "serve_live", "ingest_grid", "ingest_fleet"];

/// The per-layer metric names a traced run reports, in report order:
/// the list `BENCHMARK.json` is checked against.
pub const PER_LAYER: [&str; 54] = [
    "op_p99_us",
    "sim.advance_us_per_slot",
    "sim.synthetic_ns_per_event",
    "sensors.measure_us_per_slot",
    "sensors.probe_us",
    "sensors.probes",
    "forecast.bank_update_ns",
    "forecast.ewma_step_ns",
    "forecast.horizon_ns",
    "forecast.bank_bytes",
    "grid.memory_append_ns",
    "grid.service_observe_ns",
    "grid.wal_log_ns",
    "grid.wal_bytes_per_op",
    "grid.checkpoint_ms",
    "grid.snapshot_bytes",
    "grid.bytes_per_host",
    "grid.best_host_ns",
    "runtime.engine_ns_per_op",
    "runtime.allocs_per_round",
    "wire.encode_request_ns",
    "wire.decode_request_ns",
    "wire.encode_response_ns",
    "wire.decode_response_ns",
    "wire.reply_bytes_per_op",
    "server.dispatch_hit_ns",
    "server.dispatch_miss_ns",
    "server.cache_hit_ratio",
    "server.lock_wait_p50_ns",
    "server.lock_wait_p99_ns",
    "server.tick_hold_us",
    "server.inmem_ns_per_op",
    "server.socket_share",
    "server.allocs_per_op",
    "server.syscalls_per_op",
    "server.wakeups_per_op",
    "server.threaded_ops_per_s",
    "harness.null_ops_per_s",
    "harness.null_inmem_ns_per_op",
    "harness.late_p99_us",
    "harness.clock_read_ns",
    "harness.trace_overhead_share",
    "harness.pass_spread",
    "harness.calib_spin_ms",
    "share.sim",
    "share.sensors",
    "share.forecast",
    "share.grid",
    "share.runtime",
    "share.wire",
    "share.server",
    "share.transport",
    "trace.coverage",
    "trace.spans",
];

/// Exact counts among the per-layer metrics: two runs at one seed must
/// agree on them bit for bit.
const EXACT_LAYER_COUNTS: [&str; 5] = [
    "wire.reply_bytes_per_op",
    "grid.wal_bytes_per_op",
    "grid.snapshot_bytes",
    "runtime.allocs_per_round",
    "server.cache_hit_ratio",
];

/// Most spans written to `trace_<workload>.jsonl`; the rest stay in the
/// aggregates only.
const TRACE_FILE_SPANS: usize = 100_000;

/// The traced run: a quarter of the end-to-end passes (for the tail
/// latency, which is reported here and not gated), the workload's
/// pipeline hand-driven with spans, then the workload-independent layer
/// measurements.
fn traced<W: Workload, R: Rig>(cfg: &RunConfig) -> Report {
    let tail = tail_latency::<W>(cfg);
    let outcome = run_traced::<R>(cfg);
    let path = cfg.out_dir.join(format!("trace_{}.jsonl", R::NAME));
    if let Err(e) = std::fs::write(&path, outcome.tracer.to_jsonl(TRACE_FILE_SPANS)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    let mut measured = layers::measure(cfg);
    measured.extend(outcome.metrics);
    let (tail_ok, tail_attempted, tail_truncated) = match tail {
        Some((metric, attempted, truncated)) => {
            measured.push(metric);
            (true, attempted, truncated)
        }
        None => {
            measured.push(Metric::new("op_p99_us", f64::NAN, "us"));
            (false, 0, false)
        }
    };
    let mut exact = outcome.exact;
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|name| {
            let m = measured
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"))
                .clone();
            if EXACT_LAYER_COUNTS.contains(name) {
                exact.push((name.to_string(), format!("{}", m.value)));
            }
            m
        })
        .collect();
    Report {
        workload: R::NAME,
        traced: true,
        seed: cfg.seed,
        passes: outcome.passes,
        truncated: outcome.truncated || tail_truncated,
        attempted: outcome.attempted + tail_attempted,
        failed: 0,
        correct: outcome.correct && tail_ok,
        noisy: outcome.noisy,
        metrics,
        notes: outcome.notes,
        exact,
        series: Vec::new(),
    }
}

pub fn run(name: &str, trace: bool, cfg: &RunConfig) -> Report {
    match (name, trace) {
        ("serve_socket", false) => run_untraced::<serve_socket::ServeSocket>(cfg),
        ("serve_socket", true) => {
            traced::<serve_socket::ServeSocket, serve_socket::ServeSocketRig>(cfg)
        }
        ("serve_live", false) => run_untraced::<serve_live::ServeLive>(cfg),
        ("serve_live", true) => traced::<serve_live::ServeLive, serve_live::ServeLiveRig>(cfg),
        ("ingest_grid", false) => run_untraced::<ingest_grid::IngestGrid>(cfg),
        ("ingest_grid", true) => traced::<ingest_grid::IngestGrid, ingest_grid::IngestGridRig>(cfg),
        ("ingest_fleet", false) => run_untraced::<ingest_fleet::IngestFleet>(cfg),
        ("ingest_fleet", true) => {
            traced::<ingest_fleet::IngestFleet, ingest_fleet::IngestFleetRig>(cfg)
        }
        _ => unreachable!("workload names are checked when arguments are parsed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::END_TO_END;
    use crate::json::{self, Value};

    fn names(list: &Value) -> Vec<&str> {
        list.as_array()
            .expect("a list")
            .iter()
            .map(|item| item.get("name").and_then(Value::as_str).expect("a name"))
            .collect()
    }

    /// `BENCHMARK.json` is what a driver reads; the tables in this crate
    /// are what the binary reports. They must say the same thing.
    #[test]
    fn benchmark_json_agrees_with_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(doc.get("workloads").expect("workloads")), NAMES);
        assert_eq!(names(doc.get("per_layer").expect("per_layer")), PER_LAYER);
        let end_to_end = doc
            .get("end_to_end")
            .and_then(Value::as_array)
            .expect("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (listed, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(listed.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(listed.get("unit").and_then(Value::as_str), Some(unit));
            assert_eq!(
                listed.get("better").and_then(Value::as_str),
                Some(better.label())
            );
            assert_eq!(listed.get("bound").and_then(Value::as_f64), Some(bound));
        }
    }

    #[test]
    fn every_exact_layer_count_is_a_per_layer_metric() {
        for name in EXACT_LAYER_COUNTS {
            assert!(PER_LAYER.contains(&name), "{name}");
        }
    }
}
