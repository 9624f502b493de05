//! Load-trace recording and replay.
//!
//! The original NWS analyses (and the Dinda & O'Halloran study the paper
//! builds on) are *trace-driven*: host load is recorded once and replayed
//! through different sensors/forecasters. This module provides both halves:
//!
//! - [`record_load_trace`] samples a host's instantaneous run-queue length
//!   on a fixed interval into a [`LoadTrace`];
//! - [`TraceReplay`] is a [`Workload`] that reproduces a recorded trace on
//!   a fresh host by adjusting a pool of CPU-bound processes to match the
//!   recorded run-queue level at each sample;
//! - traces persist as `time,level` CSV via [`LoadTrace::save`] /
//!   [`LoadTrace::load`], so externally recorded data (e.g. from the
//!   `/proc` sensors) can drive the simulator too.
//!
//! Replay reproduces the *run-queue process*, not the exact per-process
//! interleaving: load averages, availability sensors, and forecasting
//! behaviour match the source host; individual pid histories do not.

use crate::host::Host;
use crate::kernel::Kernel;
use crate::process::{Pid, ProcessSpec};
use crate::workload::Workload;
use crate::Seconds;
use nws_timeseries::csv::{parse_series, series_to_csv, CsvError};
use nws_timeseries::Series;
use std::path::Path;

/// A recorded run-queue trace: `level[i]` is the runnable-process count at
/// `start + i * interval`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    /// Recording start time (seconds on the source host's clock).
    pub start: Seconds,
    /// Sampling interval (seconds).
    pub interval: Seconds,
    /// Sampled run-queue levels.
    pub levels: Vec<u32>,
}

impl LoadTrace {
    /// Trace length in samples.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// True for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Recording span in seconds.
    pub fn span(&self) -> Seconds {
        self.levels.len() as f64 * self.interval
    }

    /// Mean run-queue level.
    pub fn mean_level(&self) -> f64 {
        if self.levels.is_empty() {
            0.0
        } else {
            self.levels.iter().map(|&l| f64::from(l)).sum::<f64>() / self.levels.len() as f64
        }
    }

    /// Converts to a [`Series`] for analysis (ACF, Hurst, forecasting).
    pub fn to_series(&self, name: impl Into<String>) -> Series {
        Series::from_values(
            name,
            self.start,
            self.interval,
            self.levels.iter().map(|&l| f64::from(l)),
        )
        .expect("regular grid is strictly increasing")
    }

    /// Saves the trace as `time,level` CSV.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CsvError> {
        nws_timeseries::csv::write_series(&self.to_series("run-queue"), path)
    }

    /// Renders the trace as CSV text.
    pub fn to_csv(&self) -> String {
        series_to_csv(&self.to_series("run-queue"))
    }

    /// Loads a trace from `time,level` CSV written by [`LoadTrace::save`]
    /// (or by any external recorder with a regular sampling grid).
    ///
    /// # Errors
    ///
    /// Fails on unreadable/garbled CSV, an irregular grid, or negative
    /// levels.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CsvError> {
        Self::from_csv(&std::fs::read_to_string(path)?)
    }

    /// Parses a trace from CSV text (see [`LoadTrace::load`]).
    pub fn from_csv(text: &str) -> Result<Self, CsvError> {
        let series = parse_series(text)?;
        if series.len() < 2 {
            return Err(CsvError::Parse {
                line: 1,
                message: "a load trace needs at least two samples".into(),
            });
        }
        let times = series.times();
        let interval = times[1] - times[0];
        for w in times.windows(2) {
            if ((w[1] - w[0]) - interval).abs() > 1e-6 {
                return Err(CsvError::Parse {
                    line: 1,
                    message: format!("irregular sampling grid: {} vs {interval}", w[1] - w[0]),
                });
            }
        }
        let levels = series
            .values()
            .iter()
            .map(|&v| {
                if v < -1e-9 || v > u32::MAX as f64 {
                    Err(CsvError::Parse {
                        line: 1,
                        message: format!("bad run-queue level {v}"),
                    })
                } else {
                    Ok(v.round() as u32)
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            start: times[0],
            interval,
            levels,
        })
    }
}

/// Records `samples` run-queue samples from a live host, advancing it by
/// `interval` between samples.
pub fn record_load_trace(host: &mut Host, interval: Seconds, samples: usize) -> LoadTrace {
    assert!(interval > 0.0, "interval must be positive");
    let start = host.now();
    let mut levels = Vec::with_capacity(samples);
    for _ in 0..samples {
        levels.push(host.runnable_count() as u32);
        host.advance(interval);
    }
    LoadTrace {
        start,
        interval,
        levels,
    }
}

/// Replays a [`LoadTrace`] as a workload: at each sample instant, exactly
/// `level` pool processes are runnable.
#[derive(Debug)]
pub struct TraceReplay {
    name: String,
    trace: LoadTrace,
    /// The trace's highest level: the size of the process pool.
    max_level: u32,
    pool: Vec<Pid>,
    cursor: usize,
    next_update: Seconds,
    /// What to do past the end of the trace: hold the last level (`true`)
    /// or go idle (`false`).
    hold_last: bool,
}

impl TraceReplay {
    /// Creates a replay starting at simulation time zero.
    pub fn new(name: impl Into<String>, trace: LoadTrace) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        Self {
            name: name.into(),
            max_level: trace.levels.iter().copied().max().unwrap_or(0),
            trace,
            pool: Vec::new(),
            cursor: 0,
            next_update: 0.0,
            hold_last: false,
        }
    }

    /// Holds the final level forever instead of going idle at trace end.
    pub fn hold_last_level(mut self) -> Self {
        self.hold_last = true;
        self
    }
}

impl Workload for TraceReplay {
    fn name(&self) -> &str {
        &self.name
    }

    fn next_due(&self, kernel: &Kernel) -> Seconds {
        if self.pool.is_empty() && self.max_level > 0 {
            kernel.now()
        } else {
            self.next_update
        }
    }

    fn on_tick(&mut self, kernel: &mut Kernel) {
        if self.pool.is_empty() {
            for i in 0..self.max_level {
                self.pool.push(
                    kernel.spawn(
                        ProcessSpec::cpu_bound(format!("{}-replay{i}", self.name)).sleeping(),
                    ),
                );
            }
        }
        let now = kernel.now();
        if now < self.next_update {
            return;
        }
        let level = if self.cursor < self.trace.levels.len() {
            let l = self.trace.levels[self.cursor];
            self.cursor += 1;
            l
        } else if self.hold_last {
            *self.trace.levels.last().expect("non-empty trace")
        } else {
            0
        };
        for (i, &pid) in self.pool.iter().enumerate() {
            kernel.set_runnable(pid, (i as u32) < level);
        }
        self.next_update = now + self.trace.interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::HostProfile;

    fn sample_trace() -> LoadTrace {
        LoadTrace {
            start: 0.0,
            interval: 5.0,
            levels: vec![0, 1, 2, 2, 1, 0, 3, 3, 3, 0],
        }
    }

    #[test]
    fn trace_basics() {
        let t = sample_trace();
        assert_eq!(t.len(), 10);
        assert_eq!(t.span(), 50.0);
        assert!((t.mean_level() - 1.5).abs() < 1e-12);
        let s = t.to_series("q");
        assert_eq!(s.len(), 10);
        assert_eq!(s.values()[6], 3.0);
    }

    #[test]
    fn csv_round_trip() {
        let t = sample_trace();
        let text = t.to_csv();
        let back = LoadTrace::from_csv(&text).expect("parses");
        assert_eq!(back, t);
    }

    #[test]
    fn from_csv_rejects_bad_grids_and_levels() {
        assert!(LoadTrace::from_csv("time,v\n0,1\n").is_err()); // 1 sample
        assert!(LoadTrace::from_csv("time,v\n0,1\n5,1\n12,1\n").is_err()); // irregular
        assert!(LoadTrace::from_csv("time,v\n0,-3\n5,1\n").is_err()); // negative
    }

    #[test]
    fn record_from_live_host() {
        let mut host = HostProfile::Thing2.build(5);
        host.advance(1800.0);
        let trace = record_load_trace(&mut host, 5.0, 120);
        assert_eq!(trace.len(), 120);
        assert!(trace.mean_level() > 0.05, "thing2 should show load");
        assert!(trace.levels.iter().all(|&l| l < 50));
    }

    #[test]
    fn replay_reproduces_mean_load() {
        // Record from a profile host, replay onto a clean one, compare
        // the resulting load averages.
        let mut source = HostProfile::Thing2.build(5);
        source.advance(1800.0);
        let trace = record_load_trace(&mut source, 5.0, 720); // 1 hour
        let mean_level = trace.mean_level();

        let mut sink = Host::new("replay-box", 1);
        sink.add_workload(Box::new(TraceReplay::new("t2", trace)));
        sink.advance(3600.0);
        let replayed = sink.load_average().fifteen_minute();
        assert!(
            (replayed - mean_level).abs() < 0.35 * mean_level.max(0.5),
            "replayed load {replayed} vs recorded mean {mean_level}"
        );
    }

    #[test]
    fn replay_goes_idle_or_holds_at_end() {
        let trace = LoadTrace {
            start: 0.0,
            interval: 1.0,
            levels: vec![2, 2, 2],
        };
        let mut idle_host = Host::new("idle-end", 1);
        idle_host.add_workload(Box::new(TraceReplay::new("t", trace.clone())));
        idle_host.advance(30.0);
        assert_eq!(idle_host.runnable_count(), 0);

        let mut hold_host = Host::new("hold-end", 1);
        hold_host.add_workload(Box::new(TraceReplay::new("t", trace).hold_last_level()));
        hold_host.advance(30.0);
        assert_eq!(hold_host.runnable_count(), 2);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn replaying_empty_trace_panics() {
        TraceReplay::new(
            "t",
            LoadTrace {
                start: 0.0,
                interval: 1.0,
                levels: vec![],
            },
        );
    }
}
