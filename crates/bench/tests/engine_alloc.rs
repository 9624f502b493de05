//! Steady-state allocation regression tests for the engine hot loop.
//!
//! The engine's pooled event arenas and the runtime's resident worker
//! pool promise that once buffers reach capacity, a round allocates
//! nothing — at any thread count and any batch size. These tests pin
//! that promise with the counting allocator, and pin bit-identity of
//! the committed stream across the whole thread × batch matrix so the
//! zero-alloc paths cannot drift from the canonical sequential path.
//!
//! Everything runs inside one `#[test]` because the thread setting is
//! process-global and the allocator counters are shared; the default
//! parallel test runner would otherwise interleave configurations.

use nws_bench::alloc_counter::{self, CountingAllocator};
use nws_runtime::engine::{Engine, EngineConfig, Source, Stage};
use nws_runtime::StepClock;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A seeded LCG shard, cheap enough that allocator activity — not event
/// generation — dominates anything the engine does per round.
struct Lcg {
    seed: u64,
    state: u64,
}

impl Source for Lcg {
    type Event = u64;
    fn produce(&mut self, slot: u64) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(self.seed ^ slot);
        self.state
    }
}

/// Folds every committed event into an order-sensitive hash without
/// storing anything, so commits themselves cannot allocate.
struct Fold {
    hash: u64,
    events: u64,
}

impl Stage<Lcg> for Fold {
    fn commit(&mut self, shard: usize, _src: &mut Lcg, slot: u64, event: &u64) {
        self.hash = self
            .hash
            .wrapping_mul(0x0000_0100_0000_01B3)
            .wrapping_add(event ^ slot ^ shard as u64);
        self.events += 1;
    }
}

const SHARDS: u64 = 8;
const WARMUP_SLOTS: u64 = 128;
const MEASURE_SLOTS: u64 = 256;

/// Runs one (threads, batch) cell: warm up, then count allocations over
/// a measured window. Returns the stream hash and the alloc count.
fn run_cell(threads: usize, batch_slots: usize) -> (u64, u64) {
    nws_runtime::set_threads(Some(threads));
    let sources: Vec<Lcg> = (0..SHARDS).map(|i| Lcg { seed: i, state: i }).collect();
    let config = EngineConfig { batch_slots };
    let mut engine = Engine::with_clock(sources, config, Box::new(StepClock::new(10.0)));
    let mut stage = Fold { hash: 0, events: 0 };
    engine.run(WARMUP_SLOTS, &mut stage);
    let ((), steady) = alloc_counter::measure(|| {
        engine.run(MEASURE_SLOTS, &mut stage);
    });
    nws_runtime::set_threads(None);
    assert_eq!(
        stage.events,
        (WARMUP_SLOTS + MEASURE_SLOTS) * SHARDS,
        "every slot × shard committed exactly once"
    );
    (stage.hash, steady.calls)
}

#[test]
fn steady_state_rounds_allocate_nothing_and_agree_across_configs() {
    let mut reference: Option<u64> = None;
    for threads in [1usize, 4] {
        for batch_slots in [1usize, 64] {
            let (hash, steady_allocs) = run_cell(threads, batch_slots);
            assert_eq!(
                steady_allocs, 0,
                "threads={threads} batch={batch_slots}: steady-state rounds must not allocate"
            );
            match reference {
                None => reference = Some(hash),
                Some(expected) => assert_eq!(
                    hash, expected,
                    "threads={threads} batch={batch_slots}: committed stream diverged"
                ),
            }
        }
    }
}
