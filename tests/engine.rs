//! Engine determinism and golden equivalence.
//!
//! The event-engine refactor must be invisible in the data: the same
//! seeded scenario produces bit-identical Memory series, forecast CSV
//! lines, and served wire bytes as the pre-refactor lockstep loops. The
//! goldens (in `tests/common`) were recorded from the pre-refactor
//! pipeline (commit d1793fb) and pin that equivalence; every engine
//! configuration — thread counts and batch sizes — must keep reproducing
//! them, and so must a server whose ticks are paced in seconds that do
//! not divide the measurement period.

mod common;

use common::*;
use nws::server::{GridState, TickDriver};
use std::sync::{Arc, Mutex};

#[test]
fn engine_reproduces_prerefactor_grid_bit_for_bit() {
    for setup in setups() {
        let (state, served) = scenario(setup, false);
        assert_eq!(state, GOLDEN_CLEAN_STATE, "{setup:?}");
        assert_eq!(served, GOLDEN_CLEAN_SERVED, "{setup:?}");
    }
}

#[test]
fn engine_reproduces_prerefactor_faulted_grid_bit_for_bit() {
    for setup in setups() {
        let (state, served) = scenario(setup, true);
        assert_eq!(state, GOLDEN_FAULT_STATE, "{setup:?}");
        assert_eq!(served, GOLDEN_FAULT_SERVED, "{setup:?}");
    }
}

/// A server ticked in 7 s steps, which do NOT divide the 10 s period,
/// still lands on the same slots and bits: seconds only decide when a
/// slot is due, the slot count is the clock.
#[test]
fn coarse_step_clock_does_not_change_the_bits() {
    let setup = EngineSetup {
        threads: 2,
        batch_slots: 16,
    };
    nws::runtime::set_threads(Some(setup.threads));
    let state = GridState::new(build_grid(true, setup));
    let mut driver = TickDriver::virtual_time(Arc::new(Mutex::new(state)));
    while driver.ticked() < STEPS {
        driver.advance(7.0);
    }
    nws::runtime::set_threads(None);
    assert_eq!(driver.ticked(), STEPS);
    let fingerprint = grid_fingerprint(driver.state().lock().expect("state").grid());
    assert_eq!(fingerprint, GOLDEN_FAULT_STATE);
    assert_eq!(
        served_fingerprint(Arc::clone(driver.state())),
        GOLDEN_FAULT_SERVED
    );
}

/// Recording harness: prints the fingerprints the goldens above pin.
/// Run with `cargo test --test engine -- --ignored --nocapture goldens`.
#[test]
#[ignore]
fn print_goldens() {
    let (clean_state, clean_served) = scenario(EngineSetup::REFERENCE, false);
    let (fault_state, fault_served) = scenario(EngineSetup::REFERENCE, true);
    println!("GOLDEN_CLEAN_STATE: {clean_state:#018x}");
    println!("GOLDEN_CLEAN_SERVED: {clean_served:#018x}");
    println!("GOLDEN_FAULT_STATE: {fault_state:#018x}");
    println!("GOLDEN_FAULT_SERVED: {fault_served:#018x}");
}
