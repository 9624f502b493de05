//! The deterministic discrete-event engine behind the NWS pipeline.
//!
//! One dataflow drives the whole reproduction — periodic sensor readings
//! feed a memory, forecasters, and consumers — and this module is the
//! single place its timing, batching, and ordering live. An [`Engine`]
//! owns a set of per-shard [`Source`]s (one per monitored host) and the
//! count of slots run so far — the only simulated time there is. The slot
//! grid is the paper's ([`Cadence::PAPER`]) for every engine: slot `s`
//! stands for time [`Cadence::slot_time`]`(s)`, and a caller holding
//! seconds converts them with [`Cadence::slots_in`]. Each measurement
//! slot, every source produces one event; a [`Stage`] commits the events
//! into shared state (memory, forecast service, serving caches).
//!
//! # Event ordering and tie-breaking
//!
//! Events are totally ordered by `(slot, shard index)`: all of slot `s`
//! commits before anything of slot `s + 1`, and within a slot shards
//! commit in registration order. The order is a property of the engine,
//! never of thread scheduling — production may fan out across threads
//! ([`parallel_zip_mut`]), but commits always replay the canonical
//! order, so runs are bit-identical at any thread count.
//!
//! A stage whose commits are shard-local ([`Stage::SHARD_LOCAL`]) opts
//! out of the cross-shard half of that order: within each round its
//! commits run shard-major — shard 0's slots of the batch in slot order,
//! then shard 1's — so one shard's commit state (a predictor bank, a
//! memory column) stays in cache for up to `batch_slots` consecutive
//! commits. Each shard still sees its own slots in order, and since no
//! commit reads another shard's state, the result is the same state the
//! canonical order yields. The choice is a compile-time constant, so the
//! slot-major loop of every other stage is unchanged.
//!
//! # Bounded batches, pooled buffers
//!
//! Production is buffered at most [`EngineConfig::batch_slots`] slots
//! ahead of the commit stage — the engine's event queues are bounded by
//! `batch_slots × shards` and the commit barrier at the end of each
//! round provides backpressure: no source can run further ahead than one
//! batch window. For a shard-local stage the window is also the run of
//! consecutive commits one shard gets.
//!
//! The buffers themselves are one bank of engine-owned, per-shard event
//! arenas: each round the producers fill them in place (via
//! [`parallel_zip_mut`]) and, past that barrier, the commit loop reads
//! them — slot-major, or shard-major for a shard-local stage. The two
//! halves of a round are never live at once, so one bank serves both.
//! Arenas are cleared — never dropped — between rounds, so once warmed
//! to `batch_slots` capacity a steady-state round performs no allocation
//! at all. The sequential path needs no arenas in either order: it
//! commits each event as it is produced.
//!
//! # The determinism contract
//!
//! Batching is transparent (any `batch_slots`, any thread count, same
//! bits) because of a split the traits encode: [`Source::produce`] may
//! touch only shard-local *measurement* state, and while
//! [`Stage::commit`] may mutate shard-local *delivery* state (retry
//! queues, statistics), `produce` must never read what `commit` writes.
//! The grid monitor's hosts honor this: sensing reads the host simulator
//! and fault stream; committing writes the delay lines and fault stats.
//! A [`Stage::SHARD_LOCAL`] stage adds one more promise — a commit
//! writes only its shard's state, plus counters whose final value does
//! not depend on order — and in return its batch size moves which
//! commits interleave, never the bits. The grid's `Archive` is a stage
//! for both monitors and makes the promise for one of them: for the
//! fleet's sources, whose archive has no journal, a commit writes only
//! its host's series and forecaster row; for the grid's hosts it does
//! not, as its WAL bytes and revision order are slot-major.
//!
//! [`parallel_zip_mut`]: crate::parallel_zip_mut

/// The shared tick configuration of the paper's measurement protocol.
///
/// Every layer used to carry its own copy of these constants; the engine
/// owns them now and the sensor/grid/sim layers consume this one struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cadence {
    /// Seconds between passive measurements (paper: 10 s).
    pub measurement_period: f64,
    /// Seconds between active hybrid probes (paper: 60 s).
    pub probe_period: f64,
    /// Active probe duration (paper: 1.5 s — "the shortest probe
    /// duration that is useful"; overhead 1.5/60 = 2.5%).
    pub probe_duration: f64,
    /// Probe readings the hybrid's bias correction is smoothed over.
    pub bias_window: usize,
}

impl Cadence {
    /// The paper's schedule: 10 s measurements, 60 s probes of 1.5 s,
    /// bias smoothed across a 5-probe window.
    pub const PAPER: Cadence = Cadence {
        measurement_period: 10.0,
        probe_period: 60.0,
        probe_duration: 1.5,
        bias_window: 5,
    };

    /// Measurement slots between probe slots (paper: 6).
    pub fn probe_every(&self) -> u64 {
        (self.probe_period / self.measurement_period)
            .round()
            .max(1.0) as u64
    }

    /// Nominal timestamp of a slot index on this cadence's grid.
    pub fn slot_time(&self, slot: u64) -> f64 {
        slot as f64 * self.measurement_period
    }

    /// Whole measurement periods in `seconds` (rounded down): the one
    /// rule turning a span of simulated time into slots. The inverse of
    /// [`Cadence::slot_time`] on the grid.
    pub fn slots_in(&self, seconds: f64) -> u64 {
        (seconds / self.measurement_period).floor() as u64
    }

    /// EWMA gain spreading a probe-bias correction across
    /// [`Cadence::bias_window`] probes (the paper cadence yields 0.3:
    /// ~83% of a correction's weight lands inside the window).
    pub const fn bias_gain(&self) -> f64 {
        1.5 / self.bias_window as f64
    }
}

/// A per-shard event producer: one monitored host — any unit whose
/// measurement state is independent of every other shard's.
///
/// `produce` is called once per slot, in slot order, and must depend
/// only on this shard's own state (see the module-level determinism
/// contract).
pub trait Source: Send {
    /// What one slot of this shard yields.
    type Event: Send;

    /// Advances the shard to `slot` and produces its event.
    fn produce(&mut self, slot: u64) -> Self::Event;
}

/// The ordered commit side of the pipeline: stores, forecasters, sinks.
///
/// `commit` observes the canonical event order — slot-major, shard
/// registration order within a slot — regardless of how production was
/// parallelized; a stage that sets [`Stage::SHARD_LOCAL`] observes the
/// shard-major order within each round instead. It receives the
/// producing shard mutably so delivery state that lives with the shard
/// (delay lines, per-shard statistics) can be updated at commit time.
pub trait Stage<S: Source> {
    /// Commits of different shards touch disjoint state, so any
    /// interleaving that keeps each shard's slots in order yields the
    /// same state.
    ///
    /// A stage that sets it is committed shard-major within each round:
    /// shard 0's slots of the batch in order, then shard 1's, and so on,
    /// so one shard's commit state stays in cache for the whole batch.
    /// The default, `false`, keeps the canonical slot-major order — what
    /// a stage with a shared log (a WAL, a revision sequence) needs.
    const SHARD_LOCAL: bool = false;

    /// Absorbs one shard's event for one slot.
    fn commit(&mut self, shard: usize, source: &mut S, slot: u64, event: &S::Event);
}

/// Engine tuning.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Most slots a source may be produced ahead of the commit stage;
    /// bounds the event queues at `batch_slots × shards` events.
    pub batch_slots: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { batch_slots: 64 }
    }
}

/// The deterministic event engine: sources + slot counter, on the
/// [`Cadence::PAPER`] slot grid.
pub struct Engine<S: Source> {
    config: EngineConfig,
    sources: Vec<S>,
    /// Slots run so far: the simulated clock.
    slot: u64,
    /// One arena of up to `batch_slots` events per shard: the producers
    /// fill them, then the commit loop reads them. Persistent across
    /// rounds; cleared, never dropped.
    arenas: Vec<Vec<S::Event>>,
}

impl<S: Source> Engine<S> {
    /// An engine over the given shards at slot 0.
    pub fn new(sources: Vec<S>, config: EngineConfig) -> Self {
        assert!(config.batch_slots > 0, "batch window must hold a slot");
        Self {
            config,
            sources,
            slot: 0,
            arenas: Vec::new(),
        }
    }

    /// Slots completed so far.
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Registered shards, in commit order.
    pub fn sources(&self) -> &[S] {
        &self.sources
    }

    /// Changes the batch window for subsequent runs.
    pub fn set_batch_slots(&mut self, batch_slots: usize) {
        assert!(batch_slots > 0, "batch window must hold a slot");
        self.config.batch_slots = batch_slots;
    }

    /// Runs `slots` measurement slots through the pipeline in rounds of
    /// at most `batch_slots`, committing every event in canonical order
    /// — or, for a [`Stage::SHARD_LOCAL`] stage, shard-major within each
    /// round.
    pub fn run<St: Stage<S>>(&mut self, slots: u64, stage: &mut St) {
        let mut remaining = slots;
        while remaining > 0 {
            let take = remaining.min(self.config.batch_slots as u64);
            self.round(take, stage);
            remaining -= take;
        }
    }

    /// One bounded batch: produce up to `take` slots per shard, then
    /// drain the buffered events slot-major in shard order, or
    /// shard-major when the stage is [`Stage::SHARD_LOCAL`].
    fn round<St: Stage<S>>(&mut self, take: u64, stage: &mut St) {
        let start = self.slot;
        if crate::threads() <= 1 || self.sources.len() <= 1 {
            // Sequential: produce and commit each event in order
            // directly — the reference interleaving the parallel path
            // must reproduce. No arena is needed.
            if St::SHARD_LOCAL {
                for (shard, src) in self.sources.iter_mut().enumerate() {
                    for slot in start..start + take {
                        let ev = src.produce(slot);
                        stage.commit(shard, src, slot, &ev);
                    }
                }
            } else {
                for slot in start..start + take {
                    for (shard, src) in self.sources.iter_mut().enumerate() {
                        let ev = src.produce(slot);
                        stage.commit(shard, src, slot, &ev);
                    }
                }
            }
            self.slot = start + take;
            return;
        }
        // Parallel: each shard produces its whole batch into its own
        // arena on a worker thread (shard state is independent by
        // contract), then the buffered events commit in exactly the
        // sequential order. The arenas are persistent, so a warmed round
        // allocates nothing.
        if self.arenas.len() < self.sources.len() {
            self.arenas.resize_with(self.sources.len(), Vec::new);
        }
        crate::parallel_zip_mut(&mut self.sources, &mut self.arenas, |_, src, arena| {
            arena.clear();
            arena.extend((0..take).map(|i| src.produce(start + i)));
        });
        if St::SHARD_LOCAL {
            for (shard, (src, arena)) in self.sources.iter_mut().zip(&self.arenas).enumerate() {
                for (slot, ev) in (start..).zip(arena) {
                    stage.commit(shard, src, slot, ev);
                }
            }
        } else {
            for i in 0..take {
                for (shard, src) in self.sources.iter_mut().enumerate() {
                    stage.commit(shard, src, start + i, &self.arenas[shard][i as usize]);
                }
            }
        }
        self.slot = start + take;
    }
}

impl<S: Source> std::fmt::Debug for Engine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("shards", &self.sources.len())
            .field("slot", &self.slot)
            .field("batch_slots", &self.config.batch_slots)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy shard: a seeded counter whose event mixes the slot index
    /// into shard-local state.
    struct Counter {
        seed: u64,
        state: u64,
    }

    impl Source for Counter {
        type Event = u64;
        fn produce(&mut self, slot: u64) -> u64 {
            self.state = self
                .state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(self.seed ^ slot);
            self.state
        }
    }

    const SHARDS: usize = 5;
    const SLOTS: u64 = 100;

    /// Collects the committed event order, folds values into a hash, and
    /// keeps each shard's events in the order they were committed. The
    /// per-shard streams are what `SHARD_LOCAL` promises to preserve.
    #[derive(Default)]
    struct Collector<const SHARD_LOCAL: bool> {
        order: Vec<(u64, usize)>,
        hash: u64,
        streams: [Vec<u64>; SHARDS],
    }

    impl<const L: bool> Stage<Counter> for Collector<L> {
        const SHARD_LOCAL: bool = L;

        fn commit(&mut self, shard: usize, _src: &mut Counter, slot: u64, event: &u64) {
            self.order.push((slot, shard));
            self.hash = self.hash.wrapping_mul(0x100000001B3) ^ event;
            self.streams[shard].push(*event);
        }
    }

    fn run_stage<const L: bool>(threads: usize, batch_slots: usize) -> Collector<L> {
        crate::set_threads(Some(threads));
        let sources: Vec<Counter> = (0..SHARDS as u64)
            .map(|i| Counter { seed: i, state: i })
            .collect();
        let mut engine = Engine::new(sources, EngineConfig { batch_slots });
        let mut stage = Collector::default();
        engine.run(SLOTS, &mut stage);
        crate::set_threads(None);
        assert_eq!(engine.slot(), SLOTS);
        stage
    }

    fn run_engine(threads: usize, batch_slots: usize) -> (Vec<(u64, usize)>, u64) {
        let stage = run_stage::<false>(threads, batch_slots);
        (stage.order, stage.hash)
    }

    #[test]
    fn commit_order_is_slot_major_shard_order() {
        let (order, _) = run_engine(4, 16);
        let expect: Vec<(u64, usize)> = (0..100u64)
            .flat_map(|s| (0..5).map(move |h| (s, h)))
            .collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn identical_across_threads_and_batches() {
        let reference = run_engine(1, 64);
        for threads in [1, 4] {
            for batch in [1, 16, 64] {
                assert_eq!(
                    run_engine(threads, batch),
                    reference,
                    "threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn shard_local_stage_commits_shard_major_within_each_round() {
        let reference = run_stage::<false>(1, 64).streams;
        for threads in [1, 4] {
            for batch in [1, 16, 64] {
                let stage = run_stage::<true>(threads, batch);
                // Rounds of `batch` slots (the last one short); inside a
                // round, every slot of shard 0, then of shard 1, ...
                let expect: Vec<(u64, usize)> = (0..SLOTS)
                    .step_by(batch)
                    .flat_map(|start| {
                        let end = (start + batch as u64).min(SLOTS);
                        (0..SHARDS).flat_map(move |h| (start..end).map(move |s| (s, h)))
                    })
                    .collect();
                assert_eq!(stage.order, expect, "threads={threads} batch={batch}");
                assert_eq!(
                    stage.streams, reference,
                    "threads={threads} batch={batch}: a shard's events changed"
                );
            }
        }
    }

    #[test]
    fn run_splits_into_bounded_rounds() {
        // 100 slots at batch 16: no production runs more than 16 slots
        // ahead of the commit stage. Observable as the same output plus
        // the slot counter landing exactly on the requested total.
        let (order, _) = run_engine(2, 16);
        assert_eq!(order.len(), 500);
    }

    #[test]
    fn cadence_derives_the_paper_schedule() {
        let c = Cadence::PAPER;
        assert_eq!(c.probe_every(), 6);
        assert_eq!(c.slot_time(12), 120.0);
        assert_eq!(c.bias_gain(), 0.3);
    }

    #[test]
    fn slots_in_inverts_slot_time_and_rounds_down() {
        let c = Cadence::PAPER;
        for k in [0, 1, 6, 12, 8_640, 1 << 40] {
            let t = c.slot_time(k);
            assert_eq!(c.slots_in(t), k, "k={k}");
            if k >= 1 {
                // 1 µs short of the boundary, or one ulp where 1 µs is
                // below the float's resolution (k = 2^40).
                let short = (t - 1e-6).min(t.next_down());
                assert_eq!(c.slots_in(short), k - 1, "k={k}");
            }
        }
        assert_eq!(c.slots_in(9.99), 0);
    }

    #[test]
    #[should_panic(expected = "batch window")]
    fn zero_batch_window_is_rejected() {
        let _ = Engine::new(Vec::<Counter>::new(), EngineConfig { batch_slots: 0 });
    }
}
