//! Shared fixtures for the integration suites: the seeded reference
//! scenario and the golden fingerprints recorded from the pre-refactor
//! pipeline (commit d1793fb). `tests/engine.rs` pins engine
//! configurations to these bits; `tests/durability.rs` pins crash
//! recovery and replication to the same run.
#![allow(dead_code)]

use nws::faults::{FaultPlan, FaultRates};
use nws::grid::{GridMonitor, GridMonitorConfig, Metric};
use nws::runtime::Fnv1a;
use nws::server::{GridState, InMemoryTransport, Transport};
use nws::sim::HostProfile;
use nws::wire::Request;
use std::sync::{Arc, Mutex};

pub const SEED: u64 = 4242;
pub const STEPS: u64 = 120;

/// The pre-refactor pipeline's fingerprints, recorded at commit d1793fb
/// (lockstep `for host { measure; publish }` loops, manual tick
/// interleaving, no engine). Every engine configuration must keep
/// reproducing these exact bits. The two fault fingerprints were
/// re-recorded once, when a rebooted host stopped spawning at boot every
/// session and job arrival its outage had scheduled. The clean served
/// fingerprint was re-recorded once, when the placement rule began
/// sending an exact tie to the first host registered instead of the
/// last. The two state fingerprints were re-recorded once, when the
/// archive stopped forecasting the raw load average (`cpu.load1`): each
/// host's fourth forecast line now reads `cold`, while every stored bit
/// and both served fingerprints stayed as they were.
pub const GOLDEN_CLEAN_STATE: u64 = 0x9526_4465_7d47_881e;
pub const GOLDEN_CLEAN_SERVED: u64 = 0xed56_0a6e_2eb9_3e69;
pub const GOLDEN_FAULT_STATE: u64 = 0x35cf_76de_03d9_28c7;
pub const GOLDEN_FAULT_SERVED: u64 = 0xe01f_b8cb_9086_9436;

/// Hashes every retained measurement bit, gap timestamp, drop count, and
/// a forecast-CSV line per series, plus the fleet fault stats.
pub fn grid_fingerprint(gm: &GridMonitor) -> u64 {
    let mut h = Fnv1a::new();
    let now = gm.now();
    h.word(now.to_bits());
    for p in HostProfile::all() {
        for metric in Metric::all() {
            let id = gm.registry().lookup(p.name(), metric).expect("registered");
            h.word(gm.memory().len(id) as u64);
            gm.memory().with_series(id, |times, values| {
                for (t, &v) in times.zip(values) {
                    h.word(t.to_bits());
                    h.word(v.to_bits());
                }
            });
            for g in gm.memory().gaps(id) {
                h.word(g.to_bits());
            }
            h.word(gm.memory().dropped(id));
            // One forecast-CSV line per series, hashed bit-for-bit.
            let line = match gm.forecasts().forecast(id) {
                None => format!("{},{:?},cold\n", p.name(), metric),
                Some(a) => {
                    let staleness = gm.archive().staleness(id, now).expect("a forecast was fed");
                    let iv = a.interval.as_ref().map_or_else(
                        || "-".to_string(),
                        |iv| format!("{:016x}:{:016x}", iv.lo.to_bits(), iv.hi.to_bits()),
                    );
                    format!(
                        "{},{:?},{:016x},{},{},{:016x},{:016x},{}\n",
                        p.name(),
                        metric,
                        a.forecast.value.to_bits(),
                        a.forecast.method,
                        a.observations,
                        staleness.to_bits(),
                        a.confidence.to_bits(),
                        iv
                    )
                }
            };
            h.bytes(line.as_bytes());
        }
    }
    let st = gm.fault_stats();
    for v in [
        st.slots,
        st.delivered,
        st.gaps,
        st.outage_slots,
        st.reboots,
        st.probe_attempts_failed,
        st.probes_abandoned,
        st.fallback_cross,
        st.delayed,
        st.late_delivered,
        st.late_dropped,
    ] {
        h.word(v);
    }
    h.finish()
}

/// The fixed request script served against every scenario.
pub fn request_script() -> Vec<Request> {
    let hosts: Vec<String> = HostProfile::all()
        .iter()
        .map(|p| p.name().to_string())
        .collect();
    let mut seq = vec![Request::Snapshot, Request::BestHost];
    for h in &hosts {
        seq.push(Request::Forecast { host: h.clone() });
        seq.push(Request::SeriesTail {
            host: h.clone(),
            n: 24,
        });
    }
    seq.push(Request::Batch(
        hosts
            .iter()
            .map(|h| Request::Forecast { host: h.clone() })
            .collect(),
    ));
    seq.push(Request::Stats);
    seq
}

/// Hashes the exact wire bytes the serving layer emits for the script,
/// served from a state no request has touched yet.
pub fn served_fingerprint(state: Arc<Mutex<GridState>>) -> u64 {
    let mut t = InMemoryTransport::new(state);
    let mut h = Fnv1a::new();
    for req in request_script() {
        let (_, bytes) = t.call_raw(&req).expect("dispatch");
        h.word(bytes.len() as u64);
        h.bytes(&bytes);
    }
    h.finish()
}

/// How one scenario fans out and batches the engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineSetup {
    pub threads: usize,
    pub batch_slots: usize,
}

impl EngineSetup {
    pub const REFERENCE: EngineSetup = EngineSetup {
        threads: 1,
        batch_slots: 64,
    };
}

pub fn build_grid(faulted: bool, setup: EngineSetup) -> GridMonitor {
    let plan = if faulted {
        FaultPlan::seeded(17, FaultRates::uniform(0.12))
    } else {
        FaultPlan::none()
    };
    let config = GridMonitorConfig {
        batch_slots: setup.batch_slots,
        ..GridMonitorConfig::default()
    };
    GridMonitor::with_faults(&HostProfile::all(), SEED, config, plan)
}

/// Runs one scenario under a setup: (state fingerprint, served bytes
/// fingerprint).
pub fn scenario(setup: EngineSetup, faulted: bool) -> (u64, u64) {
    nws::runtime::set_threads(Some(setup.threads));
    let mut gm = build_grid(faulted, setup);
    gm.run_steps(STEPS);
    nws::runtime::set_threads(None);
    let state = grid_fingerprint(&gm);
    let served = served_fingerprint(Arc::new(Mutex::new(GridState::new(gm))));
    (state, served)
}

/// The full equivalence matrix: threads {1, 4} × batch window
/// {1, 16, 64}, each run clean and faulted.
pub fn setups() -> Vec<EngineSetup> {
    let mut out = Vec::new();
    for threads in [1, 4] {
        for batch_slots in [1, 16, 64] {
            out.push(EngineSetup {
                threads,
                batch_slots,
            });
        }
    }
    out
}
