//! Open-loop and closed-loop drivers over any [`Transport`].
//!
//! The open-loop runner is the point of the crate: each request is
//! charged from its **virtual arrival time** on the precomputed
//! schedule, not from the moment a worker got around to sending it.
//! If the server (or the worker pool) falls behind, the backlog shows
//! up as latency — coordinated omission cannot hide it. The
//! closed-loop runner measures the old way (send, wait, repeat) for
//! comparison: the gap between the two curves *is* the omitted delay.

use crate::arrivals::{ArrivalSchedule, InterArrival};
use crate::histogram::LatencyHistogram;
use crate::soak::{soak, SoakOutcome};
use nws_server::Transport;
use nws_wire::{Request, Response};
use std::time::{Duration, Instant};

/// What one load run measured.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Requests completed (responses decoded, of any variant).
    pub completed: u64,
    /// Typed error responses plus transport failures.
    pub errors: u64,
    /// Wall clock from start to the last completion.
    pub elapsed: Duration,
    /// Latency distribution (open loop: from virtual arrival;
    /// closed loop: from send).
    pub hist: LatencyHistogram,
}

impl LoadOutcome {
    /// Completed requests per wall-clock second.
    pub fn achieved_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs the schedule open-loop across `transports` (one worker per
/// transport, arrivals dealt round-robin). `requests` must be at least
/// as long as the schedule; request `i` fires at schedule offset `i`.
///
/// Latency for request `i` is `completion − (start + offset_i)`: the
/// time a client that *asked at the scheduled moment* would have
/// waited, including any time the request spent queued behind a slow
/// worker or server.
pub fn open_loop<T: Transport + Send>(
    transports: Vec<T>,
    schedule: &ArrivalSchedule,
    requests: &[Request],
) -> LoadOutcome {
    // One window as wide as time itself: the soak runner's worker loop
    // is this runner's, and its whole-run totals are the outcome.
    let SoakOutcome {
        completed,
        errors,
        elapsed,
        hist,
        ..
    } = soak(transports, schedule, requests, Duration::MAX);
    LoadOutcome {
        completed,
        errors,
        elapsed,
        hist,
    }
}

/// Runs `requests` closed-loop: worker `w` of `W` issues requests
/// `w, w+W, w+2W, …` back-to-back, measuring each from its own send.
/// This is the self-throttling baseline the open-loop runner exists to
/// correct.
pub fn closed_loop<T: Transport + Send>(transports: Vec<T>, requests: &[Request]) -> LoadOutcome {
    assert!(!transports.is_empty(), "need at least one worker");
    let workers = transports.len();
    let start = Instant::now();
    let results: Vec<(LatencyHistogram, u64, u64, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(w, mut t)| {
                scope.spawn(move || {
                    let mut hist = LatencyHistogram::new();
                    let mut completed = 0u64;
                    let mut errors = 0u64;
                    let mut last_done = Duration::ZERO;
                    for req in requests.iter().skip(w).step_by(workers) {
                        let sent = Instant::now();
                        match t.call(req) {
                            Ok(resp) => {
                                completed += 1;
                                if matches!(resp, Response::Error(_)) {
                                    errors += 1;
                                }
                            }
                            Err(_) => {
                                errors += 1;
                                break;
                            }
                        }
                        hist.record(sent.elapsed());
                        last_done = start.elapsed();
                    }
                    (hist, completed, errors, last_done)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let mut hist = LatencyHistogram::new();
    let mut completed = 0;
    let mut errors = 0;
    let mut elapsed = Duration::ZERO;
    for (h, c, e, last) in results {
        hist.merge(&h);
        completed += c;
        errors += e;
        elapsed = elapsed.max(last);
    }
    LoadOutcome {
        completed,
        errors,
        elapsed,
        hist,
    }
}

/// Tunables for [`max_sustainable_rps`].
#[derive(Debug, Clone, Copy)]
pub struct RateSearch {
    /// Lowest candidate rate, requests per second.
    pub lo_rps: f64,
    /// Highest candidate rate, requests per second.
    pub hi_rps: f64,
    /// Bisection steps (each one full probe run).
    pub iterations: u32,
    /// Requests per probe run.
    pub requests: usize,
    /// A rate is unsustainable once open-loop p99 exceeds this.
    pub p99_cap: Duration,
    /// …or once achieved throughput drops below this fraction of
    /// offered (the server is shedding or lagging the schedule).
    pub min_goodput: f64,
}

/// One probed rate during the search.
#[derive(Debug, Clone, Copy)]
pub struct RateProbe {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Achieved rate, requests per second.
    pub achieved_rps: f64,
    /// Open-loop p99 at this rate, nanoseconds.
    pub p99_ns: u64,
    /// Whether the rate met both sustainability conditions.
    pub sustainable: bool,
}

/// Geometric bisection for the highest offered rate the server
/// sustains: open-loop probes with Poisson arrivals, fresh transports
/// per probe from `connect`, requests from `make_requests` (called
/// with the probe size). Returns the best sustainable rate found
/// (0 if even `lo_rps` fails) and every probe for the record.
pub fn max_sustainable_rps<T: Transport + Send>(
    mut connect: impl FnMut(usize) -> T,
    workers: usize,
    seed: u64,
    mut make_requests: impl FnMut(usize) -> Vec<Request>,
    search: RateSearch,
) -> (f64, Vec<RateProbe>) {
    assert!(search.lo_rps > 0.0 && search.hi_rps > search.lo_rps);
    let mut lo = search.lo_rps;
    let mut hi = search.hi_rps;
    let mut best = 0.0f64;
    let mut probes = Vec::new();
    for iter in 0..search.iterations {
        // Geometric midpoint: the candidate range spans decades.
        let mid = (lo * hi).sqrt();
        let schedule = ArrivalSchedule::generate(
            InterArrival::poisson(mid),
            seed ^ u64::from(iter),
            search.requests,
        );
        let requests = make_requests(search.requests);
        let transports: Vec<T> = (0..workers).map(&mut connect).collect();
        let outcome = open_loop(transports, &schedule, &requests);
        let p99 = outcome.hist.p99();
        let sustainable = outcome.errors == 0
            && outcome.achieved_rps() >= search.min_goodput * mid
            && Duration::from_nanos(p99) <= search.p99_cap;
        probes.push(RateProbe {
            offered_rps: mid,
            achieved_rps: outcome.achieved_rps(),
            p99_ns: p99,
            sustainable,
        });
        if sustainable {
            best = best.max(mid);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (best, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn mixed_requests(n: usize) -> Vec<Request> {
        let hosts = vec!["thing1".to_string(), "thing2".to_string()];
        RequestStream::new(17, &hosts, MixRatios::default(), 8, 3).take(n)
    }

    #[test]
    fn open_loop_completes_every_arrival() {
        let state = warm_state();
        let schedule = ArrivalSchedule::generate(InterArrival::poisson(2000.0), 1, 200);
        let transports: Vec<_> = (0..4)
            .map(|_| InMemoryTransport::new(Arc::clone(&state)))
            .collect();
        let out = open_loop(transports, &schedule, &mixed_requests(200));
        assert_eq!(out.completed, 200);
        assert_eq!(out.errors, 0);
        assert_eq!(out.hist.count(), 200);
        assert!(out.achieved_rps() > 0.0);
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let state = warm_state();
        let transports: Vec<_> = (0..4)
            .map(|_| InMemoryTransport::new(Arc::clone(&state)))
            .collect();
        let out = closed_loop(transports, &mixed_requests(400));
        assert_eq!(out.completed, 400);
        assert_eq!(out.errors, 0);
    }

    #[test]
    fn open_loop_charges_queueing_delay_to_latency() {
        // One worker, arrivals every 1 ms, but each call holds the state
        // lock ~0 — instead make the schedule impossibly fast so the
        // worker lags it: latency must dwarf per-call service time.
        let state = warm_state();
        let n = 500;
        let schedule = ArrivalSchedule::generate(InterArrival::poisson(1e9), 2, n);
        let transports = vec![InMemoryTransport::new(Arc::clone(&state))];
        let out = open_loop(transports, &schedule, &mixed_requests(n));
        assert_eq!(out.completed, n as u64);
        // The last arrival was due ~instantly; serving n requests takes
        // real time, so high percentiles carry the backlog.
        assert!(
            out.hist.p999() >= out.hist.p50(),
            "p999 {} < p50 {}",
            out.hist.p999(),
            out.hist.p50()
        );
        assert!(out.hist.max_ns() as f64 >= out.elapsed.as_nanos() as f64 * 0.5);
    }

    #[test]
    fn rate_search_finds_a_sustainable_rate_in_memory() {
        let state = warm_state();
        let (best, probes) = max_sustainable_rps(
            |_| InMemoryTransport::new(Arc::clone(&state)),
            2,
            23,
            mixed_requests,
            RateSearch {
                lo_rps: 50.0,
                hi_rps: 50_000.0,
                iterations: 3,
                requests: 150,
                p99_cap: Duration::from_millis(250),
                min_goodput: 0.5,
            },
        );
        assert_eq!(probes.len(), 3);
        // In-memory dispatch easily clears tiny rates, so the search
        // must land on something positive.
        assert!(best > 0.0, "probes: {probes:?}");
    }
}
