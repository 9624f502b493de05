//! Engine-scheduled sensor ticks for a running server.
//!
//! Before this module, callers interleaved `state.tick(1)` with request
//! dispatch by hand — the serving loop owned the measurement schedule.
//! [`TickDriver`] moves that schedule onto the engine's [`Clock`] and
//! the paper's [`Cadence`]: the driver watches clock time, computes how
//! many measurement slots have come due on the 10 s grid, and runs
//! exactly those through the grid (each tick bumps the revision counters,
//! so the [`QueryCache`](crate::QueryCache) invalidates precisely at
//! slot boundaries). Under a [`VirtualClock`] this reproduces the manual
//! `tick(1)`-per-round loops bit for bit.

use crate::state::GridState;
use nws_runtime::{Cadence, Clock, VirtualClock};
use std::sync::{Arc, Mutex};

/// Schedules sensor ticks against shared server state from a clock.
pub struct TickDriver {
    state: Arc<Mutex<GridState>>,
    clock: Box<dyn Clock>,
    /// Slots already delivered to the grid.
    ticked: u64,
}

impl TickDriver {
    /// A driver over shared state, paced by the given clock on the
    /// paper's slot grid. The clock starts at its own origin; slots
    /// before its current position are considered already delivered.
    pub fn new(state: Arc<Mutex<GridState>>, clock: Box<dyn Clock>) -> Self {
        let ticked = (clock.now() / Cadence::PAPER.measurement_period).floor() as u64;
        Self {
            state,
            clock,
            ticked,
        }
    }

    /// A virtual-time driver — the common simulation/test/bench
    /// configuration.
    pub fn virtual_time(state: Arc<Mutex<GridState>>) -> Self {
        Self::new(state, Box::new(VirtualClock::new()))
    }

    /// The shared state this driver ticks.
    pub fn state(&self) -> &Arc<Mutex<GridState>> {
        &self.state
    }

    /// Slots delivered so far.
    pub fn ticked(&self) -> u64 {
        self.ticked
    }

    /// Moves the clock to absolute time `t` and runs every measurement
    /// slot that came due, in one batch (the state lock is taken once).
    /// Returns how many slots were delivered.
    pub fn advance_to(&mut self, t: f64) -> u64 {
        self.clock.advance_to(t);
        let due = (self.clock.now() / Cadence::PAPER.measurement_period).floor() as u64;
        let steps = due.saturating_sub(self.ticked);
        if steps > 0 {
            self.state.lock().expect("state").tick(steps);
            self.ticked = due;
        }
        steps
    }

    /// Advances the clock by `seconds` and delivers the due slots.
    pub fn advance(&mut self, seconds: f64) -> u64 {
        let t = self.clock.now() + seconds;
        self.advance_to(t)
    }
}

impl std::fmt::Debug for TickDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickDriver")
            .field("ticked", &self.ticked)
            .field("clock_now", &self.clock.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_grid::{GridMonitor, GridMonitorConfig};
    use nws_runtime::StepClock;
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
        assert_eq!(d.ticked(), 4);
        assert_eq!(state.lock().expect("state").grid().slots(), 4);
    }

    #[test]
    fn matches_manual_tick_loop_bit_for_bit() {
        // The driver-paced grid must be indistinguishable from the old
        // manual `tick(1)` loop — same slots, same revision.
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
        assert_eq!(ga.grid().revision(), gb.grid().revision());
    }

    #[test]
    fn step_clock_quantizes_but_lands_on_the_same_slots() {
        let state = shared_state();
        let mut d = TickDriver::new(Arc::clone(&state), Box::new(StepClock::new(2.0)));
        d.advance_to(60.0);
        assert_eq!(d.ticked(), 6);
        assert_eq!(state.lock().expect("state").grid().slots(), 6);
    }
}
