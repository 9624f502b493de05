//! `ingest_fleet`: 1,024 synthetic hosts, a full 1999 predictor panel
//! on each, no sensors and no WAL.
//!
//! The simulator here is a ~20 ns AR(1) draw, so the predictor bank,
//! the engine and the memory commit are the op — a forecaster or engine
//! change moves this workload and a sim-kernel change must not. It is
//! also the only workload whose working set (19 MB) exceeds L2, so
//! per-host state size shows in both `peak_rss_mb` and `ops_per_s`.
//!
//! The fleet is 1,024 hosts and not the 4,096 the workload was first
//! sized at because of what shares the machine: at 4,096 hosts the
//! 81 MB of bank state is re-read once every 5.5 ms, slowly enough that
//! neighbours filling the shared last-level cache push it out to DRAM —
//! whole runs then went at half speed with the calibration spin flat,
//! five in a row in one A/A set. At 1,024 hosts every line is re-read
//! within 1.3 ms and stays resident: run side by side for 77 minutes,
//! the small fleet's pass time did not move (+0.6 %) through an episode
//! in which the large fleet's rose 19 % (README, "Why 1,024 hosts").
//!
//! One pass is 300 slots: 100 individually timed `run_steps(1)` rounds
//! (each followed by the `best_host()` read a scheduler would make),
//! then `run_steps(200)` as a block. An op is one host-slot. Both phase
//! lengths are multiples of 25 because the panel's AR member refits
//! every 25th observation, on every host in the same slot, and that
//! round takes twice as long as the others: with a phase length that is
//! not a multiple, `op_p99_us` flipped between a plain and a refit round
//! from pass to pass. With 100 timed rounds there are exactly four, and
//! `op_p99_us` is a refit round.

use crate::harness::{PassSample, Rig, RunConfig, Workload};
use crate::trace::{stamp, Tracer, ROOT};
use nws_forecast::{PanelSpec, PredictorBank};
use nws_grid::{FleetConfig, FleetMonitor, FleetPanel, Memory, MemoryConfig, ResourceId};
use nws_runtime::Cadence;
use nws_sim::SyntheticHost;
use std::time::Instant;

const RETAIN: usize = 64;
const RACK: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    hosts: usize,
    /// At least `RETAIN`, and past the longest predictor window (the
    /// AR member fits on 120 points), so every ring and window is full;
    /// 400 at full size, so that one set-up takes half a second.
    warm_slots: u64,
    lat_rounds: u64,
    thr_slots: u64,
}

fn sizes(cfg: &RunConfig) -> Sizes {
    Sizes {
        hosts: cfg.size(1_024, 256),
        warm_slots: cfg.size(400, 128) as u64,
        lat_rounds: cfg.size(100, 25) as u64,
        thr_slots: cfg.size(200, 25) as u64,
    }
}

fn fleet_config(cfg: &RunConfig, sizes: Sizes) -> FleetConfig {
    FleetConfig {
        hosts: sizes.hosts,
        rack_size: RACK,
        retain: RETAIN,
        seed: cfg.seed,
        panel: FleetPanel::Bank(PanelSpec::Nws1999),
        ..FleetConfig::default()
    }
}

pub struct IngestFleet {
    sizes: Sizes,
    config: FleetConfig,
    fleet: FleetMonitor,
    first_pass: Option<u64>,
}

impl Workload for IngestFleet {
    const NAME: &'static str = "ingest_fleet";
    const PASSES: usize = 56;
    type Inputs = ();
    /// `FleetMonitor::fingerprint()` after the first pass.
    type Evidence = u64;

    fn inputs(_cfg: &RunConfig) {}

    fn setup(cfg: &RunConfig, _inputs: &()) -> Self {
        let sizes = sizes(cfg);
        let config = fleet_config(cfg, sizes);
        let mut fleet = FleetMonitor::new(config);
        fleet.run_steps(sizes.warm_slots);
        Self {
            sizes,
            config,
            fleet,
            first_pass: None,
        }
    }

    fn latency_phase(&mut self, _inputs: &(), sample: &mut PassSample) {
        for _ in 0..self.sizes.lat_rounds {
            let t = Instant::now();
            self.fleet.run_steps(1);
            std::hint::black_box(self.fleet.best_host());
            sample.lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        sample.attempted += self.sizes.lat_rounds * self.sizes.hosts as u64;
    }

    fn throughput_phase(&mut self, _inputs: &(), sample: &mut PassSample) {
        let hosts = self.sizes.hosts as u64;
        let t = Instant::now();
        self.fleet.run_steps(self.sizes.thr_slots);
        std::hint::black_box(self.fleet.best_host());
        sample.secs = t.elapsed().as_secs_f64();
        sample.ops = self.sizes.thr_slots * hosts;
        sample.attempted += self.sizes.thr_slots * hosts;
    }

    fn after_first_pass(&mut self) {
        self.first_pass = Some(self.fleet.fingerprint());
    }

    fn finish(self, _inputs: &()) -> u64 {
        self.first_pass.expect("at least one pass ran")
    }

    fn check(
        fresh: Self,
        _inputs: &(),
        first_pass: &u64,
        exact: &mut Vec<(String, String)>,
    ) -> Result<(), String> {
        exact.push((
            "fleet_after_first_pass".into(),
            format!("{first_pass:016x}"),
        ));
        // The batch window is fixed at construction, so the replay is
        // a fleet of its own; `fresh` only lends its configuration.
        let sizes = fresh.sizes;
        let config = FleetConfig {
            batch_slots: 1,
            ..fresh.config
        };
        drop(fresh);
        let mut replay = FleetMonitor::new(config);
        replay.run_steps(sizes.warm_slots + sizes.lat_rounds + sizes.thr_slots);
        if replay.fingerprint() != *first_pass {
            return Err("a second fleet at batch_slots = 1 diverged over the first pass".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The traced rig

/// The fleet's per-host pipeline rebuilt from public pieces: the same
/// synthetic hosts, one `PredictorBank` each, the same memory. The
/// rack/region tournament is private to `nws-grid`, so its time lands
/// in the remainder with the engine's loop.
struct Hand {
    hosts: Vec<SyntheticHost>,
    banks: Vec<PredictorBank>,
    forecasts: Vec<f64>,
    memory: Memory,
    values: Vec<f64>,
    slot: u64,
}

impl Hand {
    fn new(config: &FleetConfig) -> Self {
        Self {
            hosts: (0..config.hosts as u64)
                .map(|i| SyntheticHost::new(i, config.seed))
                .collect(),
            banks: (0..config.hosts)
                .map(|_| PanelSpec::Nws1999.build())
                .collect(),
            forecasts: vec![0.0; config.hosts],
            memory: Memory::new(MemoryConfig {
                retain: config.retain,
            }),
            values: vec![0.0; RACK],
            slot: 0,
        }
    }

    /// One slot, a rack at a time: draw the rack's 64 availabilities,
    /// append them, update the 64 banks — the monitor's per-host order
    /// coarsened just enough that a span is microseconds, not a clock
    /// read.
    fn slot(&mut self, tr: Option<(&mut Tracer, &Names)>) {
        let time = Cadence::PAPER.slot_time(self.slot);
        let mut tr = tr;
        let slot_start = stamp(&tr);
        let root = tr
            .as_mut()
            .map(|(t, n)| t.open(n.op, ROOT, self.slot as u32, slot_start));
        for rack_start in (0..self.hosts.len()).step_by(RACK) {
            let rack = rack_start..(rack_start + RACK).min(self.hosts.len());
            let t0 = stamp(&tr);
            for (v, host) in self.values.iter_mut().zip(&mut self.hosts[rack.clone()]) {
                *v = host.step();
            }
            let t1 = stamp(&tr);
            for (i, v) in rack.clone().zip(&self.values) {
                self.memory.append(ResourceId(i as u64), time, *v);
            }
            let t2 = stamp(&tr);
            for (i, v) in rack.clone().zip(&self.values) {
                let bank = &mut self.banks[i];
                bank.update(*v);
                self.forecasts[i] = bank
                    .predicted_value()
                    .expect("a bank that just observed can predict");
            }
            if let (Some((tracer, n)), Some(root)) = (tr.as_mut(), root) {
                let t3 = tracer.now();
                let op = self.slot as u32;
                tracer.record(n.step, root, op, t0, t1);
                tracer.record(n.append, root, op, t1, t2);
                tracer.record(n.update, root, op, t2, t3);
            }
        }
        if let (Some((tracer, _)), Some(root)) = (tr.as_mut(), root) {
            let end = tracer.now();
            tracer.close(root, end);
        }
        self.slot += 1;
    }
}

struct Names {
    op: u16,
    step: u16,
    append: u16,
    update: u16,
}

pub struct IngestFleetRig {
    plain: IngestFleet,
    hand: Hand,
    names: Option<Names>,
}

/// FNV-1a over every host's forecast bits — what the hand-driven
/// pipeline and the monitor must agree on.
fn forecast_hash(forecasts: impl Iterator<Item = f64>) -> u64 {
    let mut bytes = Vec::new();
    for f in forecasts {
        bytes.extend_from_slice(&f.to_bits().to_le_bytes());
    }
    nws_loadgen::fnv1a(&bytes)
}

impl Rig for IngestFleetRig {
    const NAME: &'static str = "ingest_fleet";
    const PASSES: usize = 14;

    fn new(cfg: &RunConfig) -> Self {
        let plain = IngestFleet::setup(cfg, &());
        let mut hand = Hand::new(&plain.config);
        for _ in 0..plain.sizes.warm_slots {
            hand.slot(None);
        }
        Self {
            plain,
            hand,
            names: None,
        }
    }

    fn plain_pass(&mut self) -> u64 {
        let mut sample = PassSample::default();
        self.plain.pass(&(), &mut sample);
        sample.attempted
    }

    fn hand_pass(&mut self, tracer: &mut Tracer) -> u64 {
        let names = self.names.get_or_insert_with(|| Names {
            op: tracer.name("harness.slot"),
            step: tracer.name("sim.synthetic_step"),
            append: tracer.name("grid.memory_append"),
            update: tracer.name("forecast.bank_update"),
        });
        let slots = self.plain.sizes.lat_rounds + self.plain.sizes.thr_slots;
        for _ in 0..slots {
            self.hand.slot(Some((tracer, names)));
        }
        slots * self.plain.sizes.hosts as u64
    }

    fn same_computation(&mut self, exact: &mut Vec<(String, String)>) -> Result<(), String> {
        let behind = self.plain.fleet.slots().abs_diff(self.hand.slot);
        if self.plain.fleet.slots() < self.hand.slot {
            self.plain.fleet.run_steps(behind);
        } else {
            for _ in 0..behind {
                self.hand.slot(None);
            }
        }
        let hosts = self.plain.sizes.hosts;
        let plain = forecast_hash((0..hosts).map(|i| self.plain.fleet.forecast(i)));
        let hand = forecast_hash(self.hand.forecasts.iter().copied());
        exact.push(("forecasts_at_trace_end".into(), format!("{plain:016x}")));
        if plain != hand {
            return Err(format!(
                "hand-driven forecasts {hand:016x} differ from the fleet's {plain:016x}"
            ));
        }
        Ok(())
    }
}
