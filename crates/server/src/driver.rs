//! Engine-scheduled sensor ticks for a running server.
//!
//! Before this module, callers interleaved `state.tick(1)` with request
//! dispatch by hand — the serving loop owned the measurement schedule.
//! [`TickDriver`] moves that schedule onto the paper's [`Cadence`]: the
//! driver sums the simulated time it is advanced by in whole
//! microseconds, turns the total into whole measurement slots with
//! [`Cadence::slots_in`], and runs the ones not yet delivered through
//! the grid (each tick bumps the revision counters, so the
//! [`QueryCache`](crate::QueryCache) invalidates precisely at slot
//! boundaries). An integer clock cannot drift: ten advances of 0.1 s
//! reach exactly one second, where a summed `f64` falls short of it.
//! Advancing by one measurement period at a time reproduces the manual
//! `tick(1)`-per-round loops bit for bit.

use crate::state::GridState;
use nws_runtime::Cadence;
use std::sync::{Arc, Mutex};

/// Schedules sensor ticks against shared server state on the slot grid.
pub struct TickDriver {
    state: Arc<Mutex<GridState>>,
    /// Simulated microseconds the driver has been advanced by.
    now_us: u64,
    /// Slots already delivered to the grid.
    ticked: u64,
    /// The state lock was found poisoned: no slot is delivered again.
    halted: bool,
}

impl TickDriver {
    /// A driver over shared state, starting at simulated time 0 with no
    /// slots delivered.
    pub fn virtual_time(state: Arc<Mutex<GridState>>) -> Self {
        Self {
            state,
            now_us: 0,
            ticked: 0,
            halted: false,
        }
    }

    /// The shared state this driver ticks.
    pub fn state(&self) -> &Arc<Mutex<GridState>> {
        &self.state
    }

    /// Slots delivered so far.
    pub fn ticked(&self) -> u64 {
        self.ticked
    }

    /// Whether the driver has stopped ticking: it found the state lock
    /// poisoned (a thread panicked holding it, so the state may be half
    /// updated), and from then on [`TickDriver::advance`] delivers
    /// nothing.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Advances simulated time by `seconds`, rounded to the driver's
    /// 1 µs resolution, and runs every measurement slot that came due,
    /// in one batch (the state lock is taken once). Returns how many
    /// slots were delivered. Time never runs backwards: a negative or
    /// non-finite `seconds` advances nothing. A poisoned state lock
    /// halts the driver ([`TickDriver::halted`]): that call and every
    /// later one deliver nothing and return 0.
    pub fn advance(&mut self, seconds: f64) -> u64 {
        let us = (seconds * 1e6).round();
        if self.halted || !(us.is_finite() && us > 0.0) {
            return 0;
        }
        self.now_us = self.now_us.saturating_add(us as u64);
        let due = Cadence::PAPER.slots_in(self.now_us as f64 / 1e6);
        let steps = due.saturating_sub(self.ticked);
        if steps > 0 {
            let Ok(mut state) = self.state.lock() else {
                self.halted = true;
                return 0;
            };
            state.tick(steps);
            self.ticked += steps;
        }
        steps
    }
}

impl std::fmt::Debug for TickDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickDriver")
            .field("ticked", &self.ticked)
            .field("now_us", &self.now_us)
            .field("halted", &self.halted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_sim::HostProfile;

    fn shared_state() -> Arc<Mutex<GridState>> {
        let grid = GridMonitor::new(
            &[HostProfile::Thing1, HostProfile::Gremlin],
            7,
            GridMonitorConfig::default(),
        );
        Arc::new(Mutex::new(GridState::new(grid)))
    }

    #[test]
    fn due_slots_follow_the_cadence_grid() {
        let state = shared_state();
        let mut d = TickDriver::virtual_time(Arc::clone(&state));
        assert_eq!(d.advance(35.0), 3, "35 s on a 10 s grid = 3 due slots");
        assert_eq!(d.advance(5.0), 1, "40 s total crosses the 4th boundary");
        assert_eq!(d.advance(-30.0), 0, "time never runs backwards");
        assert_eq!(d.advance(9.0), 0, "49 s: the 5th boundary is not due");
        assert_eq!(d.ticked(), 4);
        assert_eq!(state.lock().expect("state").grid().slots(), 4);
    }

    #[test]
    fn matches_manual_tick_loop_bit_for_bit() {
        // The driver-paced grid must be indistinguishable from the old
        // manual `tick(1)` loop — same slots, same archive revision, same
        // memory.
        let a = shared_state();
        let mut d = TickDriver::virtual_time(Arc::clone(&a));
        for _ in 0..12 {
            d.advance(10.0);
        }
        let b = shared_state();
        for _ in 0..12 {
            b.lock().expect("state").tick(1);
        }
        let (ga, gb) = (a.lock().expect("state"), b.lock().expect("state"));
        assert_eq!(ga.grid().slots(), gb.grid().slots());
        let (a, b) = (ga.grid().archive(), gb.grid().archive());
        assert_eq!(a.revision(), b.revision());
        assert_eq!(a.memory().fingerprint(), b.memory().fingerprint());
    }

    #[test]
    fn fractional_paces_do_not_drift_and_bad_input_advances_nothing() {
        let run = |pace: f64, calls: usize| {
            let mut d = TickDriver::virtual_time(shared_state());
            (0..calls).map(|_| d.advance(pace)).sum::<u64>()
        };
        assert_eq!(run(0.1, 100), 1, "100 × 0.1 s is one whole period");
        assert_eq!(run(0.1, 1_200), 12, "1,200 × 0.1 s is twelve");
        assert_eq!(run(0.25, 40), 1, "40 × 0.25 s is one");
        for bad in [f64::INFINITY, f64::NAN, -1.0] {
            let mut d = TickDriver::virtual_time(shared_state());
            assert_eq!(d.advance(bad), 0, "advance({bad})");
            assert_eq!(d.advance(10.0), 1, "the clock is intact after {bad}");
        }
    }

    #[test]
    fn a_poisoned_state_lock_halts_the_driver_instead_of_panicking() {
        let state = shared_state();
        let mut d = TickDriver::virtual_time(Arc::clone(&state));
        assert_eq!(d.advance(20.0), 2);
        let held = Arc::clone(&state);
        let poisoner = std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("a thread dies holding the state lock");
        });
        assert!(poisoner.join().is_err());
        assert!(state.is_poisoned());
        assert!(!d.halted());
        assert_eq!(d.advance(5.0), 0, "no slot due yet: the lock is not taken");
        assert!(!d.halted());
        assert_eq!(
            d.advance(10.0),
            0,
            "a slot came due and the lock is poisoned"
        );
        assert!(d.halted());
        assert_eq!(d.advance(100.0), 0, "a halted driver stays halted");
        assert_eq!(d.ticked(), 2);
        let grid = state.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(grid.grid().slots(), 2);
    }
}
