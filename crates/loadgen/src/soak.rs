//! Sustained-soak runs: latency *over time*, not just in aggregate.
//!
//! A single whole-run histogram answers "how fast is the server" but
//! hides "is it getting slower" — cache churn, queue buildup, or a
//! journal that grows without bound all show up as a latency trend,
//! and a trend averages away in one histogram. The soak runner drives
//! the same open-loop schedule as [`crate::runner::open_loop`] but
//! buckets every completion into fixed time windows, producing a
//! p50/p99 series a sweep can graph and a regression check can gate
//! on.
//!
//! Windows are keyed by each request's **virtual arrival time** on the
//! schedule, not its completion time. That keeps the per-window
//! request population deterministic for a fixed schedule (worker
//! timing can't migrate a request between windows), so two runs of the
//! same soak disagree only in the measured latencies — never in which
//! rows exist or how many requests each row covers.

use crate::arrivals::ArrivalSchedule;
use crate::histogram::LatencyHistogram;
use nws_server::Transport;
use nws_wire::{Request, Response};
use std::time::{Duration, Instant};

/// One time window of a soak run: the latency distribution of every
/// request whose virtual arrival fell inside it.
#[derive(Debug)]
pub struct SoakWindow {
    /// Window index (0-based; window `i` covers virtual time
    /// `[i·window, (i+1)·window)`).
    pub index: u32,
    /// Requests completed in this window.
    pub completed: u64,
    /// Typed error responses plus transport failures in this window.
    pub errors: u64,
    /// The window's latency distribution (from virtual arrival).
    pub hist: LatencyHistogram,
}

/// What a soak run produced: the per-window series plus the usual
/// aggregate.
#[derive(Debug)]
pub struct SoakOutcome {
    /// The latency-over-time series, one row per window, in order.
    /// Every window the schedule touches is present, even if all its
    /// requests failed.
    pub windows: Vec<SoakWindow>,
    /// Width of each window.
    pub window: Duration,
    /// Requests completed across the whole run.
    pub completed: u64,
    /// Errors across the whole run.
    pub errors: u64,
    /// Wall clock from start to the last completion.
    pub elapsed: Duration,
    /// Whole-run latency distribution (the union of the windows).
    pub hist: LatencyHistogram,
}

/// Runs the schedule open-loop (same charging rules as
/// [`crate::runner::open_loop`], which is this with a single window)
/// and buckets latencies into fixed-width windows by virtual arrival
/// time.
pub fn soak<T: Transport + Send>(
    transports: Vec<T>,
    schedule: &ArrivalSchedule,
    requests: &[Request],
    window: Duration,
) -> SoakOutcome {
    assert!(!transports.is_empty(), "need at least one worker");
    assert!(
        requests.len() >= schedule.len(),
        "fewer requests than arrivals"
    );
    assert!(window > Duration::ZERO, "window must be positive");
    let workers = transports.len();
    let n_windows = schedule
        .offsets()
        .last()
        .map_or(0, |&last| (last / window.as_secs_f64()) as usize + 1);
    let start = Instant::now();
    type WorkerResult = (Vec<(LatencyHistogram, u64, u64)>, Duration);
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(w, mut t)| {
                scope.spawn(move || {
                    let mut windows: Vec<(LatencyHistogram, u64, u64)> = (0..n_windows)
                        .map(|_| (LatencyHistogram::new(), 0, 0))
                        .collect();
                    let mut last_done = Duration::ZERO;
                    for i in (w..schedule.len()).step_by(workers) {
                        let due_secs = schedule.offsets()[i];
                        let due = Duration::from_secs_f64(due_secs);
                        let wi = ((due_secs / window.as_secs_f64()) as usize).min(n_windows - 1);
                        let now = start.elapsed();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let cell = &mut windows[wi];
                        match t.call(&requests[i]) {
                            Ok(resp) => {
                                cell.1 += 1;
                                if matches!(resp, Response::Error(_)) {
                                    cell.2 += 1;
                                }
                            }
                            Err(_) => {
                                // The connection is broken; this worker
                                // can contribute nothing further.
                                cell.2 += 1;
                                break;
                            }
                        }
                        last_done = start.elapsed();
                        cell.0.record(last_done.saturating_sub(due));
                    }
                    (windows, last_done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop worker panicked"))
            .collect()
    });
    let mut windows: Vec<SoakWindow> = (0..n_windows)
        .map(|i| SoakWindow {
            index: i as u32,
            completed: 0,
            errors: 0,
            hist: LatencyHistogram::new(),
        })
        .collect();
    let mut elapsed = Duration::ZERO;
    for (per_window, last) in results {
        for (i, (h, c, e)) in per_window.iter().enumerate() {
            windows[i].hist.merge(h);
            windows[i].completed += c;
            windows[i].errors += e;
        }
        elapsed = elapsed.max(last);
    }
    let mut hist = LatencyHistogram::new();
    let mut completed = 0;
    let mut errors = 0;
    for wdw in &windows {
        hist.merge(&wdw.hist);
        completed += wdw.completed;
        errors += wdw.errors;
    }
    SoakOutcome {
        windows,
        window,
        completed,
        errors,
        elapsed,
        hist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::InterArrival;
    use crate::mix::{MixRatios, RequestStream};
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_server::{GridState, InMemoryTransport};
    use nws_sim::HostProfile;
    use std::sync::{Arc, Mutex};

    fn warm_state() -> Arc<Mutex<GridState>> {
        let mut grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Thing2],
            13,
            GridMonitorConfig::default(),
        );
        grid.run_steps(40);
        Arc::new(Mutex::new(GridState::new(grid)))
    }

    #[test]
    fn windows_partition_the_run_exactly() {
        let state = warm_state();
        let n = 300;
        // ~3000 rps over 300 requests ≈ 100 ms of schedule; 20 ms
        // windows give a handful of rows.
        let schedule = ArrivalSchedule::generate(InterArrival::poisson(3000.0), 7, n);
        let transports: Vec<_> = (0..3)
            .map(|_| InMemoryTransport::new(Arc::clone(&state)))
            .collect();
        let hosts = vec!["thing1".to_string(), "thing2".to_string()];
        let requests = RequestStream::new(17, &hosts, MixRatios::default(), 8, 3).take(n);
        let out = soak(transports, &schedule, &requests, Duration::from_millis(20));
        assert_eq!(out.completed, n as u64);
        assert_eq!(out.errors, 0);
        assert!(out.windows.len() >= 2, "schedule spans several windows");
        let sum: u64 = out.windows.iter().map(|w| w.completed).sum();
        assert_eq!(sum, out.completed, "every request lands in one window");
        assert_eq!(out.hist.count(), n as u64);
        for (i, w) in out.windows.iter().enumerate() {
            assert_eq!(w.index as usize, i);
        }
    }

    #[test]
    fn window_populations_are_schedule_deterministic() {
        let state = warm_state();
        let n = 200;
        let schedule = ArrivalSchedule::generate(InterArrival::poisson(5000.0), 11, n);
        let hosts = vec!["thing1".to_string(), "thing2".to_string()];
        let mut runs = Vec::new();
        for _ in 0..2 {
            let transports: Vec<_> = (0..2)
                .map(|_| InMemoryTransport::new(Arc::clone(&state)))
                .collect();
            let requests = RequestStream::new(17, &hosts, MixRatios::default(), 8, 3).take(n);
            let out = soak(transports, &schedule, &requests, Duration::from_millis(10));
            runs.push(
                out.windows
                    .iter()
                    .map(|w| (w.index, w.completed))
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(
            runs[0], runs[1],
            "window membership depends only on the schedule"
        );
    }
}
