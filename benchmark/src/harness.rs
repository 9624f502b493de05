//! The measurement protocol shared by every workload: a constant number
//! of fixed-work passes, times reported at a reference clock, the
//! quiet-decile estimator, bracketed set-up timing, noise gauges, and
//! the traced run's share arithmetic.

use crate::counters::{calib_spin_ms, peak_rss_mb, reset_peak_rss};
use crate::stats::{quantile, quiet_mean, select_setup, sort, Better, Spread};
use crate::trace::{self, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Most threads the benchmark keeps runnable at once: one client plus
/// one event loop or one ticker. Everything else is pinned to one
/// thread with `nws_runtime::set_threads(Some(1))`.
pub const RUNNABLE_THREADS: usize = 2;

/// A run whose slowest decile of passes took this many times its
/// fastest decile is flagged noisy (kept, not discarded).
pub const NOISY_PASS_SPREAD: f64 = 1.6;

/// What the calibration spin takes at the nominal clock of the VM the
/// bounds were measured on. That VM's clock moves in regimes lasting
/// minutes (the same instruction stream takes 6.4 ms in turbo episodes,
/// 8.1 ms most of the time, 10-11 ms while the sibling vCPU or the host
/// is busy) and offers no cycle counter, so the spin is the cycle
/// counter: every gated time is scaled to the clock at which the spins
/// beside it would have taken this long.
pub const CALIB_REF_MS: f64 = 8.1;

/// Machine speed around a measurement, from the calibration spins taken
/// just before and just after it: 1.0 at the reference clock, less when
/// the machine was slower. A time at the reference clock is the measured
/// time multiplied by this; a rate, divided.
pub fn clock(spin_before_ms: f64, spin_after_ms: f64) -> f64 {
    CALIB_REF_MS / ((spin_before_ms + spin_after_ms) / 2.0)
}

/// Refuses to measure on a machine that cannot run the benchmark's
/// threads side by side: a client time-sliced against the server it
/// measures reports the scheduler, not the server.
pub fn check_parallelism(nproc: usize) -> Result<(), String> {
    if nproc < RUNNABLE_THREADS {
        return Err(format!(
            "the benchmark keeps {RUNNABLE_THREADS} threads runnable (one client, one event loop \
             or ticker) but this machine offers {nproc}; refusing to report time-sliced numbers"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Run configuration and reports

#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Every script, arrival schedule and host seed derives from this.
    pub seed: u64,
    /// Upper cap on the wall time of one run's passes. The pass count is
    /// a constant; a run the cap cuts short is reported as truncated.
    pub seconds: f64,
    /// Pass count in place of each workload's constant.
    pub passes: Option<usize>,
    /// Tiny sizes for CI: same code paths, a fraction of the work.
    pub smoke: bool,
    /// Where checkpoints, traces and `runs.jsonl` go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    /// Picks a workload size: the full one, or the smoke one.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run of one workload in one mode found.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub passes: usize,
    /// The `--seconds` cap ended the run before its last pass.
    pub truncated: bool,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub noisy: bool,
    /// The metrics `BENCHMARK.json` names for this mode.
    pub metrics: Vec<Metric>,
    /// Noise gauges, the p10/p50/p90 of each per-pass figure, and the
    /// same figures as the wall clock read them (`raw.*`).
    pub notes: Vec<Metric>,
    /// Fingerprints and counts that must repeat bit for bit.
    pub exact: Vec<(String, String)>,
    /// Each per-pass figure in pass order, for `runs.jsonl`: what the
    /// quiet-decile means were taken over.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// The end-to-end metrics: name, unit, direction, bound. The single
/// source `BENCHMARK.json` is checked against.
///
/// Each bound is three times the widest run-to-run spread (IQR / median
/// over ten runs, a different seed each) the metric showed on this VM in
/// ordinary weather: 6-8 % for the times, 2.4 % for the peak. At 0.10,
/// the figure ISSUE 13 set out with, an A/A check of ten runs a set
/// called identical code noisy (`serve_live` `ops_per_s` spread 10.0 %
/// and 12.8 %, `ingest_fleet` `op_p50_us` 10.9 %): see "Bounds" in the
/// README.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "1/s", Better::Higher, 0.25),
    ("op_p50_us", "us", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.08),
];

// ---------------------------------------------------------------------------
// Untraced runs

/// What one pass measured. Failed ops are counted and left out of
/// every latency and throughput figure.
#[derive(Debug, Default)]
pub struct PassSample {
    /// Ops completed in the throughput phase, and its wall time.
    pub ops: u64,
    pub secs: f64,
    /// One latency per op of the latency phase, µs.
    pub lat_us: Vec<f64>,
    /// How late the open-loop generator sent each request, µs.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl PassSample {
    fn clear(&mut self) {
        self.ops = 0;
        self.secs = 0.0;
        self.lat_us.clear();
        self.late_us.clear();
        self.attempted = 0;
        self.failed = 0;
    }
}

/// One end-to-end workload.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Passes in one run: a constant of the benchmark, the same on
    /// every commit, sized so the passes take about 24 s at the seed
    /// commit.
    const PASSES: usize;
    /// Everything generated from the seed before the system is built:
    /// scripts and schedules. Not part of set-up time.
    type Inputs;
    /// What [`Workload::finish`] hands to [`Workload::check`].
    type Evidence;

    fn inputs(cfg: &RunConfig) -> Self::Inputs;

    /// Builds the system and warms it until the first op can run.
    fn setup(cfg: &RunConfig, inputs: &Self::Inputs) -> Self;

    /// Called once, untimed, on the instance the passes will run on.
    fn before_passes(&mut self, _inputs: &Self::Inputs) {}

    /// First half of a pass: fixed work, each op timed on its own into
    /// `sample.lat_us`.
    fn latency_phase(&mut self, inputs: &Self::Inputs, sample: &mut PassSample);

    /// Second half of a pass: fixed work timed as one block into
    /// `sample.ops` and `sample.secs`.
    fn throughput_phase(&mut self, inputs: &Self::Inputs, sample: &mut PassSample);

    /// One whole pass, for callers that time it themselves.
    fn pass(&mut self, inputs: &Self::Inputs, sample: &mut PassSample) {
        self.latency_phase(inputs, sample);
        self.throughput_phase(inputs, sample);
    }

    /// Called once, untimed, right after the first pass.
    fn after_first_pass(&mut self) {}

    /// Stops the system and returns what correctness is judged on.
    fn finish(self, inputs: &Self::Inputs) -> Self::Evidence;

    /// Judges the run against an independent, freshly set-up instance.
    fn check(
        fresh: Self,
        inputs: &Self::Inputs,
        evidence: &Self::Evidence,
        exact: &mut Vec<(String, String)>,
    ) -> Result<(), String>;
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

/// The quiet-decile mean of a per-pass series, with its p10/p50/p90
/// across passes added to the notes.
fn summarize(
    name: &str,
    unit: &'static str,
    better: Better,
    per_pass: &[f64],
    notes: &mut Vec<Metric>,
) -> Metric {
    let s = Spread::of(per_pass);
    for (tag, v) in [("p10", s.p10), ("p50", s.p50), ("p90", s.p90)] {
        notes.push(Metric::new(format!("{name}.{tag}"), v, unit));
    }
    Metric::new(name, quiet_mean(per_pass, better), unit)
}

/// The two noise gauges of a run, as metrics, and whether they flag it.
fn noise_gauges(pass_secs: &[f64], spins: &[f64]) -> ([Metric; 2], bool) {
    let s = Spread::of(pass_secs);
    let spread = s.p90 / s.p10;
    let gauges = [
        Metric::new("harness.pass_spread", spread, "ratio"),
        Metric::new("harness.calib_spin_ms", median(spins), "ms"),
    ];
    (gauges, spread > NOISY_PASS_SPREAD)
}

/// A per-pass figure as the wall clock read it and at the reference
/// clock.
#[derive(Debug, Default)]
struct Figure {
    raw: Vec<f64>,
    at_ref: Vec<f64>,
}

impl Figure {
    fn push_time(&mut self, raw: f64, clock: f64) {
        self.raw.push(raw);
        self.at_ref.push(raw * clock);
    }

    fn push_rate(&mut self, raw: f64, clock: f64) {
        self.raw.push(raw);
        self.at_ref.push(raw / clock);
    }
}

/// The per-pass figures of one run's passes, in pass order.
#[derive(Debug, Default)]
struct Passes {
    /// Wall time of each pass's two phases together.
    pass_secs: Vec<f64>,
    /// Every calibration spin: one before the first pass, then one
    /// after each phase.
    spins: Vec<f64>,
    ops_per_s: Figure,
    op_p50_us: Figure,
    op_p99_us: Figure,
    late_p99_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    truncated: bool,
}

/// Runs `count` end-to-end passes of `inst`, or as many as start within
/// `cap` seconds. The calibration spin runs before the first pass and
/// after each phase, so every phase has one on either side.
fn timed_passes<W: Workload>(inst: &mut W, inputs: &W::Inputs, count: usize, cap: f64) -> Passes {
    let started = Instant::now();
    let cap = Duration::from_secs_f64(cap);
    let mut p = Passes::default();
    let mut sample = PassSample::default();
    let mut spin_before = calib_spin_ms();
    p.spins.push(spin_before);
    for idx in 0..count.max(1) {
        if idx > 0 && started.elapsed() >= cap {
            p.truncated = true;
            break;
        }
        sample.clear();
        let t = Instant::now();
        inst.latency_phase(inputs, &mut sample);
        let lat_secs = t.elapsed().as_secs_f64();
        let spin_between = calib_spin_ms();
        let t = Instant::now();
        inst.throughput_phase(inputs, &mut sample);
        let thr_secs = t.elapsed().as_secs_f64();
        let spin_after = calib_spin_ms();
        p.pass_secs.push(lat_secs + thr_secs);
        p.spins.extend([spin_between, spin_after]);
        p.attempted += sample.attempted;
        p.failed += sample.failed;
        if sample.secs > 0.0 {
            let at = clock(spin_between, spin_after);
            p.ops_per_s.push_rate(sample.ops as f64 / sample.secs, at);
        }
        if !sample.lat_us.is_empty() {
            let at = clock(spin_before, spin_between);
            sort(&mut sample.lat_us);
            p.op_p50_us.push_time(quantile(&sample.lat_us, 0.50), at);
            p.op_p99_us.push_time(quantile(&sample.lat_us, 0.99), at);
        }
        if !sample.late_us.is_empty() {
            sort(&mut sample.late_us);
            p.late_p99_us.push(quantile(&sample.late_us, 0.99));
        }
        if idx == 0 {
            inst.after_first_pass();
        }
        spin_before = spin_after;
    }
    p
}

/// Times set-ups, each with a calibration spin on either side.
struct SetupTimer {
    last_spin: f64,
    raw: Vec<f64>,
    at_ref: Vec<f64>,
}

impl SetupTimer {
    fn new() -> Self {
        // The first spin of a process runs cold and reads long.
        calib_spin_ms();
        Self {
            last_spin: calib_spin_ms(),
            raw: Vec::new(),
            at_ref: Vec::new(),
        }
    }

    /// Takes the spin again after untimed work, so the next set-up has
    /// a fresh one before it.
    fn resume(&mut self) {
        self.last_spin = calib_spin_ms();
    }

    fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = setup();
        let secs = t.elapsed().as_secs_f64();
        let spin = calib_spin_ms();
        self.raw.push(secs);
        self.at_ref.push(secs * clock(self.last_spin, spin));
        self.last_spin = spin;
        out
    }
}

/// The untraced run: bracketed set-up, fixed-work passes, the
/// quiet-decile end-to-end metrics, and the correctness check.
pub fn run_untraced<W: Workload>(cfg: &RunConfig) -> Report {
    // The high-water mark is this run's, not the process's.
    reset_peak_rss();
    let inputs = W::inputs(cfg);
    // Three set-ups before the passes, the third kept. The previous
    // instance is dropped first: two are never alive together.
    let mut setups = SetupTimer::new();
    let mut inst = None;
    for _ in 0..3 {
        drop(inst.take());
        inst = Some(setups.time(|| W::setup(cfg, &inputs)));
    }
    let mut inst = inst.expect("three set-ups ran");
    inst.before_passes(&inputs);
    let count = cfg.passes.unwrap_or(W::PASSES);
    let p = timed_passes(&mut inst, &inputs, count, cfg.seconds);
    let rss = peak_rss_mb();
    let evidence = inst.finish(&inputs);

    // Three set-ups after the passes; the first doubles as the
    // independent instance the correctness check replays on.
    let mut exact = Vec::new();
    let mut correct = p.failed == 0;
    setups.resume();
    for i in 0..3 {
        let fresh = setups.time(|| W::setup(cfg, &inputs));
        if i == 0 {
            if let Err(why) = W::check(fresh, &inputs, &evidence, &mut exact) {
                eprintln!("{}: check failed: {why}", W::NAME);
                correct = false;
            }
            setups.resume();
        }
    }

    let mut metrics = vec![Metric::new("setup_s", select_setup(&setups.at_ref), "s")];
    let mut notes = vec![Metric::new("raw.setup_s", select_setup(&setups.raw), "s")];
    if p.ops_per_s.raw.is_empty() || p.op_p50_us.raw.is_empty() {
        // Every op failed: there is no figure to report, only the count.
        correct = false;
    } else {
        let n = &mut notes;
        let rate = Better::Higher;
        let time = Better::Lower;
        metrics.push(summarize("ops_per_s", "1/s", rate, &p.ops_per_s.at_ref, n));
        metrics.push(summarize("op_p50_us", "us", time, &p.op_p50_us.at_ref, n));
        // The tail is reported, not gated: see `op_p99_us` in the README.
        let tail = summarize("op_p99_us", "us", time, &p.op_p99_us.at_ref, n);
        notes.push(tail);
        // What the wall clock read, whatever the machine's clock was.
        let unseen = &mut Vec::new();
        notes.push(summarize(
            "raw.ops_per_s",
            "1/s",
            rate,
            &p.ops_per_s.raw,
            unseen,
        ));
        notes.push(summarize(
            "raw.op_p50_us",
            "us",
            time,
            &p.op_p50_us.raw,
            unseen,
        ));
        notes.push(summarize(
            "raw.op_p99_us",
            "us",
            time,
            &p.op_p99_us.raw,
            unseen,
        ));
    }
    metrics.push(Metric::new("peak_rss_mb", rss, "MB"));
    if !p.late_p99_us.is_empty() {
        notes.push(Metric::new(
            "harness.late_p99_us",
            median(&p.late_p99_us),
            "us",
        ));
    }
    notes.push(Metric::new("harness.pass_s.p50", median(&p.pass_secs), "s"));
    let (gauges, noisy) = noise_gauges(&p.pass_secs, &p.spins);
    notes.extend(gauges);
    Report {
        workload: W::NAME,
        traced: false,
        seed: cfg.seed,
        passes: p.pass_secs.len(),
        truncated: p.truncated,
        attempted: p.attempted,
        failed: p.failed,
        correct,
        noisy,
        metrics,
        notes,
        exact,
        series: vec![
            ("pass_s", p.pass_secs),
            ("calib_spin_ms", p.spins),
            ("ops_per_s", p.ops_per_s.at_ref),
            ("op_p50_us", p.op_p50_us.at_ref),
            ("op_p99_us", p.op_p99_us.at_ref),
            ("raw.ops_per_s", p.ops_per_s.raw),
            ("raw.op_p50_us", p.op_p50_us.raw),
            ("raw.op_p99_us", p.op_p99_us.raw),
            ("setup_s", setups.at_ref),
            ("raw.setup_s", setups.raw),
        ],
    }
}

/// The tail latency of the end-to-end passes, for the traced run's
/// report: one set-up, a quarter of the run's passes, the quiet-decile
/// mean of the per-pass p99. Returns the metric, the ops attempted and
/// whether the cap cut the passes short, or `None` if any op failed.
pub fn tail_latency<W: Workload>(cfg: &RunConfig) -> Option<(Metric, u64, bool)> {
    let inputs = W::inputs(cfg);
    let mut inst = W::setup(cfg, &inputs);
    inst.before_passes(&inputs);
    let count = cfg.passes.unwrap_or(W::PASSES).div_ceil(4);
    let p = timed_passes(&mut inst, &inputs, count, cfg.seconds);
    drop(inst.finish(&inputs));
    if p.failed > 0 || p.op_p99_us.at_ref.is_empty() {
        return None;
    }
    let tail = summarize(
        "op_p99_us",
        "us",
        Better::Lower,
        &p.op_p99_us.at_ref,
        &mut Vec::new(),
    );
    Some((tail, p.attempted, p.truncated))
}

// ---------------------------------------------------------------------------
// Traced runs

/// One workload's pipeline driven by hand from the benchmark, call by
/// call through the crates' public functions, with a span around each.
pub trait Rig: Sized {
    const NAME: &'static str;
    /// Pairs of plain and hand-driven passes in one traced run: a
    /// constant, sized to take about 12 s at the seed commit.
    const PASSES: usize;

    fn new(cfg: &RunConfig) -> Self;

    /// The computation the traced pass reproduces, run through the
    /// product's own entry points, untraced. Returns ops done.
    fn plain_pass(&mut self) -> u64;

    /// The same computation hand-driven with spans. Returns ops done.
    fn hand_pass(&mut self, tracer: &mut Tracer) -> u64;

    /// Whether the hand-driven pipeline computed what the product's
    /// own did (fingerprints or reply bytes), and exact counts to pin.
    fn same_computation(&mut self, exact: &mut Vec<(String, String)>) -> Result<(), String>;
}

/// What the traced passes of one workload found.
pub struct TraceOutcome {
    pub metrics: Vec<Metric>,
    pub notes: Vec<Metric>,
    pub exact: Vec<(String, String)>,
    pub passes: usize,
    pub truncated: bool,
    pub attempted: u64,
    pub correct: bool,
    pub noisy: bool,
    pub tracer: Tracer,
}

/// Layers a share is reported for, in report order.
pub const SHARE_LAYERS: [&str; 8] = [
    "sim",
    "sensors",
    "forecast",
    "grid",
    "runtime",
    "wire",
    "server",
    "transport",
];

/// Runs plain and hand-driven traced passes of the same work, turn and
/// turn about so both kinds see the same machine, and turns the spans
/// into per-layer shares. Shares and coverage are ratios of times taken
/// side by side, so nothing here is scaled to the reference clock.
///
/// Coverage is Σ self time over the quiet traced pass, divided by the
/// quiet plain pass time. What the spans do not cover — the engine's
/// own loop on the ingest side — is the remainder, reported as
/// `share.runtime`; shares are fractions of `max(plain pass, Σ self)`.
pub fn run_traced<R: Rig>(cfg: &RunConfig) -> TraceOutcome {
    let mut rig = R::new(cfg);
    let mut tracer = Tracer::new();
    let (mut plain_secs, mut hand_secs, mut spins) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain_ops, mut hand_ops, mut attempted) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let cap = Duration::from_secs_f64(cfg.seconds);
    let mut truncated = false;
    for idx in 0..cfg.passes.unwrap_or(R::PASSES).max(1) {
        if idx > 0 && started.elapsed() >= cap {
            truncated = true;
            break;
        }
        spins.push(calib_spin_ms());
        let t = Instant::now();
        plain_ops = rig.plain_pass();
        plain_secs.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        hand_ops = rig.hand_pass(&mut tracer);
        hand_secs.push(t.elapsed().as_secs_f64());
        attempted += plain_ops + hand_ops;
    }

    let mut exact = Vec::new();
    let mut correct = plain_ops == hand_ops;
    if let Err(why) = rig.same_computation(&mut exact) {
        eprintln!("{}: traced run diverged: {why}", R::NAME);
        correct = false;
    }

    let plain = Spread::of(&plain_secs).p25;
    let hand = Spread::of(&hand_secs).p25;
    let by_name = tracer.self_time_by_name();
    let by_layer = trace::by_layer(&by_name);
    let passes = hand_secs.len() as f64;
    // Mean Σ self per traced pass, scaled to the quiet traced pass so a
    // slow regime during tracing does not inflate coverage.
    let hand_mean = hand_secs.iter().sum::<f64>() / passes;
    let scale = hand / hand_mean / passes / 1e9;
    let covered: f64 = by_layer.values().map(|&ns| ns as f64 * scale).sum();
    let whole = plain.max(covered);
    let mut metrics = Vec::new();
    for layer in SHARE_LAYERS {
        let mut own = by_layer.get(layer).map_or(0.0, |&ns| ns as f64 * scale);
        if layer == "runtime" {
            own += whole - covered;
        }
        metrics.push(Metric::new(format!("share.{layer}"), own / whole, "ratio"));
    }
    metrics.push(Metric::new("trace.coverage", covered / plain, "ratio"));
    metrics.push(Metric::new("trace.spans", tracer.len() as f64, "count"));
    metrics.push(Metric::new(
        "harness.trace_overhead_share",
        1.0 - plain / hand,
        "ratio",
    ));
    let mut notes = vec![
        Metric::new("trace.plain_pass_s", plain, "s"),
        Metric::new("trace.hand_pass_s", hand, "s"),
    ];
    for (name, ns) in by_name {
        notes.push(Metric::new(
            format!("self.{name}"),
            ns as f64 * scale / whole,
            "ratio",
        ));
    }
    // Plain and traced passes differ in length by the tracing overhead;
    // judge noise on each kind against its own quiet pass.
    let rel: Vec<f64> = plain_secs
        .iter()
        .map(|s| s / plain)
        .chain(hand_secs.iter().map(|s| s / hand))
        .collect();
    let (gauges, noisy) = noise_gauges(&rel, &spins);
    metrics.extend(gauges);
    TraceOutcome {
        metrics,
        notes,
        exact,
        passes: plain_secs.len() + hand_secs.len(),
        truncated,
        attempted,
        correct,
        noisy,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_with_too_few_cores_are_refused() {
        assert!(check_parallelism(1).is_err());
        assert!(check_parallelism(RUNNABLE_THREADS).is_ok());
        assert!(check_parallelism(64).is_ok());
        let why = check_parallelism(1).unwrap_err();
        assert!(
            why.contains("2 threads") && why.contains("offers 1"),
            "{why}"
        );
    }

    /// A workload whose phases only count calls.
    struct Counting {
        phases: Vec<&'static str>,
    }

    impl Workload for Counting {
        const NAME: &'static str = "counting";
        const PASSES: usize = 5;
        type Inputs = ();
        type Evidence = ();

        fn inputs(_cfg: &RunConfig) {}

        fn setup(_cfg: &RunConfig, _inputs: &()) -> Self {
            Self { phases: Vec::new() }
        }

        fn latency_phase(&mut self, _inputs: &(), sample: &mut PassSample) {
            self.phases.push("latency");
            sample.lat_us.extend([3.0, 1.0, 2.0]);
            sample.attempted += 3;
        }

        fn throughput_phase(&mut self, _inputs: &(), sample: &mut PassSample) {
            self.phases.push("throughput");
            sample.ops = 10;
            sample.secs = 0.5;
            sample.attempted += 10;
        }

        fn finish(self, _inputs: &()) {}

        fn check(_: Self, _: &(), _: &(), _: &mut Vec<(String, String)>) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn the_pass_count_is_a_constant_and_the_seconds_only_cap_it() {
        let mut inst = Counting { phases: Vec::new() };
        let p = timed_passes(&mut inst, &(), Counting::PASSES, 3600.0);
        assert_eq!(p.pass_secs.len(), 5);
        assert!(!p.truncated);
        assert_eq!(inst.phases.len(), 10);
        assert_eq!(&inst.phases[..2], ["latency", "throughput"]);
        // One spin before the first pass, one after each phase.
        assert_eq!(p.spins.len(), 11);
        assert_eq!(p.attempted, 65);
        assert_eq!(p.op_p50_us.raw, [2.0; 5]);
        assert_eq!(p.ops_per_s.raw, [20.0; 5]);

        // A cap already spent still lets the first pass run, then stops.
        let mut inst = Counting { phases: Vec::new() };
        let p = timed_passes(&mut inst, &(), Counting::PASSES, 0.0);
        assert_eq!(p.pass_secs.len(), 1);
        assert!(p.truncated);
    }

    #[test]
    fn times_and_rates_are_scaled_to_the_reference_clock() {
        // The spin took 5 % longer than at the reference clock on both
        // sides: the machine ran at 1/1.05 of it.
        let slow = clock(CALIB_REF_MS * 1.05, CALIB_REF_MS * 1.05);
        assert!((slow - 1.0 / 1.05).abs() < 1e-12);
        assert_eq!(clock(CALIB_REF_MS, CALIB_REF_MS), 1.0);
        let mut f = Figure::default();
        f.push_time(105.0, slow);
        f.push_rate(100.0, slow);
        assert!((f.at_ref[0] - 100.0).abs() < 1e-9);
        assert!((f.at_ref[1] - 105.0).abs() < 1e-9);
        assert_eq!(f.raw, [105.0, 100.0]);
    }
}
