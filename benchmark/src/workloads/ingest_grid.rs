//! `ingest_grid`: the full simulator tick → sensors → forecaster bank →
//! memory → WAL path on the six simulated UCSD hosts.
//!
//! One pass is one simulated day (8,640 slots): 1,440 individually
//! timed `step()` calls — the staleness a reader can observe between a
//! simulator tick and its committed forecast — then `run_steps(7,200)`
//! plus a checkpoint into the out-dir, timed as a block. An op is one
//! host-slot: one host measured once, four readings appended, four
//! forecasts updated. The 100 ms kernel tick inside `nws-sim` is the
//! suspected cost here, so an event-driven sim advance or a WAL change
//! moves this workload and leaves `ingest_fleet` flat.

use crate::harness::{PassSample, Rig, RunConfig, Workload};
use crate::trace::{stamp, Tracer, ROOT};
use nws_grid::{
    recover_memory_rotated, GridMonitor, Memory, MemoryConfig, Metric as Series, Registry,
    ResourceId, SnapshotStore, Wal, WalRecord,
};
use nws_runtime::Cadence;
use nws_sensors::{HybridSensor, LoadAvgSensor, VmstatSensor};
use nws_sim::{Host, HostProfile};
use std::path::PathBuf;
use std::time::Instant;

/// One simulated day on the 10 s cadence: the memory's retention, so a
/// warm-up of this length fills every ring.
pub const DAY_SLOTS: usize = 8_640;
const HOSTS: u64 = 6;

#[derive(Debug, Clone, Copy)]
struct Sizes {
    warm_slots: u64,
    lat_slots: u64,
    thr_slots: u64,
}

fn sizes(cfg: &RunConfig) -> Sizes {
    Sizes {
        warm_slots: cfg.size(DAY_SLOTS, 720) as u64,
        lat_slots: cfg.size(1_440, 120) as u64,
        thr_slots: cfg.size(7_200, 600) as u64,
    }
}

fn snapshot_dir(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join("ingest_grid_snapshots")
}

/// A snapshot store of its own for each instance: stale snapshots of an
/// earlier instance would win `load_newest` by sequence number.
fn fresh_store(cfg: &RunConfig) -> SnapshotStore {
    let dir = snapshot_dir(cfg);
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::new(dir, 2).expect("snapshot directory under the out-dir")
}

pub struct IngestGrid {
    sizes: Sizes,
    grid: GridMonitor,
    store: SnapshotStore,
    checkpoints: u64,
    first_pass: Option<u64>,
}

impl IngestGrid {
    fn checkpoint(&mut self) {
        self.grid
            .checkpoint(&self.store, self.checkpoints)
            .expect("checkpoint into the out-dir");
        self.checkpoints += 1;
    }
}

pub struct Evidence {
    first_pass: u64,
    /// Recovery from the last snapshot plus the retained WAL reproduced
    /// the live memory.
    recovered: Result<(), String>,
}

impl Workload for IngestGrid {
    const NAME: &'static str = "ingest_grid";
    const PASSES: usize = 64;
    type Inputs = ();
    type Evidence = Evidence;

    fn inputs(_cfg: &RunConfig) {}

    fn setup(cfg: &RunConfig, _inputs: &()) -> Self {
        let sizes = sizes(cfg);
        let mut grid = GridMonitor::ucsd(cfg.seed);
        grid.attach_journal(Wal::new());
        let mut this = Self {
            sizes,
            grid,
            store: fresh_store(cfg),
            checkpoints: 0,
            first_pass: None,
        };
        this.grid.run_steps(sizes.warm_slots);
        this.checkpoint();
        this
    }

    fn latency_phase(&mut self, _inputs: &(), sample: &mut PassSample) {
        for _ in 0..self.sizes.lat_slots {
            let t = Instant::now();
            self.grid.step();
            sample.lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        sample.attempted += self.sizes.lat_slots * HOSTS;
    }

    fn throughput_phase(&mut self, _inputs: &(), sample: &mut PassSample) {
        let t = Instant::now();
        self.grid.run_steps(self.sizes.thr_slots);
        self.checkpoint();
        sample.secs = t.elapsed().as_secs_f64();
        sample.ops = self.sizes.thr_slots * HOSTS;
        sample.attempted += self.sizes.thr_slots * HOSTS;
    }

    fn after_first_pass(&mut self) {
        self.first_pass = Some(self.grid.memory().fingerprint());
    }

    fn finish(mut self, _inputs: &()) -> Evidence {
        // Leave a WAL suffix past the last checkpoint, so recovery has
        // both a snapshot to load and records to replay.
        self.grid.run_steps(100);
        let live = self.grid.memory().fingerprint();
        let wal = self.grid.journal().expect("journal attached at set-up");
        let recovered = match self.store.load_newest() {
            Ok(Some((_, snapshot))) => {
                let (memory, report) = recover_memory_rotated(
                    MemoryConfig::default(),
                    Some(&snapshot),
                    wal.bytes(),
                    wal.start_offset(),
                    |_| {},
                );
                if report.snapshot_error.is_some() || report.tail_error.is_some() {
                    Err(format!("recovery was not clean: {report:?}"))
                } else if report.replayed == 0 {
                    Err("recovery replayed no WAL suffix".to_string())
                } else if memory.fingerprint() != live {
                    Err("recovered memory differs from the live one".to_string())
                } else {
                    Ok(())
                }
            }
            Ok(None) => Err("no snapshot in the out-dir".to_string()),
            Err(e) => Err(format!("cannot load the snapshot: {e}")),
        };
        Evidence {
            first_pass: self.first_pass.expect("at least one pass ran"),
            recovered,
        }
    }

    fn check(
        mut fresh: Self,
        _inputs: &(),
        evidence: &Evidence,
        exact: &mut Vec<(String, String)>,
    ) -> Result<(), String> {
        exact.push((
            "memory_after_first_pass".into(),
            format!("{:016x}", evidence.first_pass),
        ));
        evidence.recovered.clone()?;
        // The same day again on an independent instance, through one
        // `run_steps` call and another batch window.
        fresh.grid.set_batch_slots(7);
        fresh
            .grid
            .run_steps(fresh.sizes.lat_slots + fresh.sizes.thr_slots);
        if fresh.grid.memory().fingerprint() != evidence.first_pass {
            return Err("a second instance at batch_slots = 7 diverged over the first pass".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The traced rig

struct HandHost {
    host: Host,
    load: LoadAvgSensor,
    vmstat: VmstatSensor,
    hybrid: HybridSensor,
    ids: [ResourceId; 4],
    /// This slot's measurement time and readings, between the stages.
    t: f64,
    values: [f64; 4],
}

/// The monitor's pipeline rebuilt from the crates' public pieces: the
/// same hosts (same seed derivation), sensors, memory and forecast
/// service, with an explicit WAL beside the memory so `Wal::log` can be
/// timed on its own.
struct Hand {
    hosts: Vec<HandHost>,
    memory: Memory,
    service: nws_grid::ForecastService,
    wal: Wal,
    slot: u64,
    checkpoints: u64,
}

/// FNV-1a over a host name — how `GridMonitor` derives host seeds.
fn name_hash(name: &str) -> u64 {
    nws_loadgen::fnv1a(name.as_bytes())
}

impl Hand {
    fn new(seed: u64) -> Self {
        let mut registry = Registry::new();
        let hosts = HostProfile::all()
            .iter()
            .map(|p| HandHost {
                host: p.build(name_hash(p.name()) ^ seed),
                load: LoadAvgSensor::new(),
                vmstat: VmstatSensor::new(),
                hybrid: HybridSensor::default(),
                ids: [
                    registry.register(p.name(), Series::CpuAvailabilityLoad),
                    registry.register(p.name(), Series::CpuAvailabilityVmstat),
                    registry.register(p.name(), Series::CpuAvailabilityHybrid),
                    registry.register(p.name(), Series::LoadAverage),
                ],
                t: 0.0,
                values: [0.0; 4],
            })
            .collect();
        Self {
            hosts,
            memory: Memory::new(MemoryConfig::default()),
            service: nws_grid::ForecastService::new(0.9),
            wal: Wal::new(),
            slot: 0,
            checkpoints: 0,
        }
    }

    /// One slot in the monitor's order, a stage at a time across the
    /// six hosts (each host still sees advance → passive readings →
    /// hybrid/probe → load average, and each series append → observe →
    /// log), with one clock read between stages.
    fn slot(&mut self, tr: Option<(&mut Tracer, &Names)>) {
        let cadence = Cadence::PAPER;
        let period = cadence.measurement_period;
        let probe_slot = self.slot.is_multiple_of(cadence.probe_every());
        let target = (self.slot + 1) as f64 * period;
        let t0 = stamp(&tr);
        for h in &mut self.hosts {
            h.host.advance_to(target);
            h.t = h.host.now();
        }
        let t1 = stamp(&tr);
        for h in &mut self.hosts {
            h.values[0] = h.load.measure(&h.host);
            h.values[1] = h.vmstat.measure(&h.host);
            if !probe_slot {
                h.values[2] = h
                    .hybrid
                    .measure_degraded(&h.host, false, false)
                    .expect("no source is dropped")
                    .0;
            }
        }
        let t2 = stamp(&tr);
        if probe_slot {
            for h in &mut self.hosts {
                h.values[2] = h
                    .hybrid
                    .measure_with_probe_retries(&mut h.host, 0, target + period)
                    .0;
            }
        }
        let t3 = stamp(&tr);
        for h in &mut self.hosts {
            h.values[3] = h.host.load_average().one_minute();
            for (id, v) in h.ids.iter().zip(h.values) {
                let stored = self.memory.append(*id, h.t, v).is_stored();
                debug_assert!(stored);
            }
        }
        let t4 = stamp(&tr);
        for h in &self.hosts {
            for (id, v) in h.ids.iter().zip(h.values) {
                self.service.observe(*id, h.t, v);
            }
        }
        let t5 = stamp(&tr);
        for h in &self.hosts {
            for (id, v) in h.ids.iter().zip(h.values) {
                self.wal.log(&WalRecord::Append {
                    id: *id,
                    time: h.t,
                    value: v,
                });
            }
        }
        let t6 = stamp(&tr);
        if let Some((tracer, n)) = tr {
            let op = self.slot as u32;
            let root = tracer.record(n.op, ROOT, op, t0, t6);
            tracer.record(n.advance, root, op, t0, t1);
            tracer.record(n.measure, root, op, t1, t2);
            if probe_slot {
                tracer.record(n.probe, root, op, t2, t3);
            }
            tracer.record(n.append, root, op, t3, t4);
            tracer.record(n.observe, root, op, t4, t5);
            tracer.record(n.wal_log, root, op, t5, t6);
        }
        self.slot += 1;
    }

    fn checkpoint(&mut self, store: &SnapshotStore, tr: Option<(&mut Tracer, &Names)>) {
        let t0 = stamp(&tr);
        // `Memory::checkpoint` with the journal held beside the memory:
        // write the snapshot, then rotate the log it covers.
        let snapshot = self.memory.snapshot_bytes_at(self.wal.len() as u64);
        store
            .save(self.checkpoints, &snapshot)
            .expect("snapshot into the out-dir");
        self.wal
            .rotate(self.wal.len())
            .expect("in-memory rotation cannot fail");
        self.checkpoints += 1;
        if let Some((tracer, n)) = tr {
            let t1 = tracer.now();
            tracer.record(n.checkpoint, ROOT, self.slot as u32, t0, t1);
        }
    }
}

struct Names {
    op: u16,
    advance: u16,
    measure: u16,
    probe: u16,
    append: u16,
    observe: u16,
    wal_log: u16,
    checkpoint: u16,
}

pub struct IngestGridRig {
    plain: IngestGrid,
    hand: Hand,
    hand_store: SnapshotStore,
    names: Option<Names>,
    plain_passes: u64,
    hand_passes: u64,
}

impl Rig for IngestGridRig {
    const NAME: &'static str = "ingest_grid";
    const PASSES: usize = 18;

    fn new(cfg: &RunConfig) -> Self {
        let plain = IngestGrid::setup(cfg, &());
        let mut hand = Hand::new(cfg.seed);
        let hand_store = SnapshotStore::new(cfg.out_dir.join("ingest_grid_hand_snapshots"), 2)
            .expect("snapshot directory under the out-dir");
        for _ in 0..plain.sizes.warm_slots {
            hand.slot(None);
        }
        hand.checkpoint(&hand_store, None);
        Self {
            plain,
            hand,
            hand_store,
            names: None,
            plain_passes: 0,
            hand_passes: 0,
        }
    }

    fn plain_pass(&mut self) -> u64 {
        let mut sample = PassSample::default();
        self.plain.pass(&(), &mut sample);
        self.plain_passes += 1;
        sample.attempted
    }

    fn hand_pass(&mut self, tracer: &mut Tracer) -> u64 {
        let names = self.names.get_or_insert_with(|| Names {
            op: tracer.name("harness.slot"),
            advance: tracer.name("sim.advance_to"),
            measure: tracer.name("sensors.measure"),
            probe: tracer.name("sensors.probe"),
            append: tracer.name("grid.memory_append"),
            observe: tracer.name("forecast.service_observe"),
            wal_log: tracer.name("grid.wal_log"),
            checkpoint: tracer.name("grid.checkpoint"),
        });
        let slots = self.plain.sizes.lat_slots + self.plain.sizes.thr_slots;
        for _ in 0..slots {
            self.hand.slot(Some((tracer, names)));
        }
        self.hand
            .checkpoint(&self.hand_store, Some((tracer, names)));
        self.hand_passes += 1;
        slots * HOSTS
    }

    fn same_computation(&mut self, exact: &mut Vec<(String, String)>) -> Result<(), String> {
        // Bring both pipelines to the same slot, then compare memories.
        let slots = self.plain.sizes.lat_slots + self.plain.sizes.thr_slots;
        while self.plain_passes < self.hand_passes {
            self.plain.grid.run_steps(slots);
            self.plain_passes += 1;
        }
        while self.hand_passes < self.plain_passes {
            for _ in 0..slots {
                self.hand.slot(None);
            }
            self.hand_passes += 1;
        }
        let plain = self.plain.grid.memory().fingerprint();
        let hand = self.hand.memory.fingerprint();
        exact.push(("memory_at_trace_end".into(), format!("{plain:016x}")));
        if plain != hand {
            return Err(format!(
                "hand-driven memory {hand:016x} differs from the monitor's {plain:016x}"
            ));
        }
        Ok(())
    }
}
