//! Allocation and size pins for the flat predictor bank.
//!
//! A `Nws1999` bank is a handful of flat blocks over a layout shared by
//! every bank of the spec: building one is a few allocator calls and
//! about 9 KB (the boxed-panel bank it replaced made ~100 calls for
//! ~16 KB), and once built it never allocates — not on an observation,
//! not on an AR refit round, not across a gap.
//!
//! One `#[test]`, because the allocator counters are process-global.

use nws_bench::alloc_counter::{self, CountingAllocator};
use nws_forecast::PanelSpec;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_1999_bank_is_few_blocks_and_never_allocates_once_built() {
    // The first bank of a spec also resolves the shared layout and name
    // table; every later one only takes its own blocks.
    let first = PanelSpec::Nws1999.build();
    let (mut bank, built) = alloc_counter::measure(|| PanelSpec::Nws1999.build());
    assert!(
        built.calls <= 4,
        "building a bank made {} allocator calls",
        built.calls
    );
    // Nothing is freed while building, so bytes requested are bytes held.
    assert!(built.bytes <= 10_240, "a bank holds {} bytes", built.bytes);
    eprintln!(
        "a Nws1999 bank: {} allocator calls, {} bytes",
        built.calls, built.bytes
    );
    let (_, cloned) = alloc_counter::measure(|| first.clone());
    assert_eq!(cloned, built, "a clone takes the same blocks");

    // Warm past the longest window, then 1,000 observations — 40 AR refit
    // rounds (one every 25) — with a gap in the middle.
    let level = |i: u64| 0.5 + 0.4 * ((i as f64) * 0.37).sin();
    for i in 0..200 {
        bank.observe(level(i));
    }
    let ((), steady) = alloc_counter::measure(|| {
        for i in 200..1_200 {
            if i == 700 {
                bank.note_gap();
            }
            bank.observe(level(i));
            std::hint::black_box(bank.predicted_value());
        }
    });
    assert_eq!(steady.calls, 0, "warm observations allocated");
    assert_eq!(bank.observations(), 1_200);
}
