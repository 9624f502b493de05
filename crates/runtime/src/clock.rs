//! Swappable time sources for the event engine.
//!
//! The engine computes every slot's timestamp from the [`Cadence`] — the
//! clock never feeds values into the measurement path, so two runs under
//! different clocks produce bit-identical events. What a clock controls
//! is *pacing*: how `now` gets from one requested time to the next. Both
//! clocks here are virtual and never sleep.
//!
//! - [`VirtualClock`] jumps instantly — simulation, tests, benchmarks.
//! - [`StepClock`] moves in fixed quanta, modeling a discrete scheduler
//!   tick; with a quantum dividing the measurement period it lands on
//!   exactly the same slot times as the virtual clock.
//!
//! [`Cadence`]: crate::engine::Cadence

/// A monotonic time source the engine advances slot by slot.
///
/// `advance_to` is called with each slot's nominal timestamp (simulated
/// seconds); `now` reports the clock's current position. Implementations
/// must be monotone: `advance_to` never moves time backwards.
pub trait Clock: Send {
    /// Current position in simulated seconds.
    fn now(&self) -> f64;

    /// Advances to (at least) `t` simulated seconds.
    fn advance_to(&mut self, t: f64);
}

/// Virtual time: `advance_to` jumps instantly. The default for
/// simulation, tests, and benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualClock {
    now: f64,
}

impl VirtualClock {
    /// A virtual clock starting at t = 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> f64 {
        self.now
    }

    fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }
}

/// Quantized virtual time: advances in fixed `quantum`-second ticks to
/// the first tick at or past the target, like a discrete scheduler.
#[derive(Debug, Clone, Copy)]
pub struct StepClock {
    now: f64,
    quantum: f64,
    ticks: u64,
}

impl StepClock {
    /// A step clock starting at t = 0.
    ///
    /// # Panics
    ///
    /// Panics unless `quantum` is positive and finite.
    pub fn new(quantum: f64) -> Self {
        assert!(
            quantum.is_finite() && quantum > 0.0,
            "step quantum must be positive and finite: {quantum}"
        );
        Self {
            now: 0.0,
            quantum,
            ticks: 0,
        }
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

impl Clock for StepClock {
    fn now(&self) -> f64 {
        self.now
    }

    fn advance_to(&mut self, t: f64) {
        while self.now < t {
            self.ticks += 1;
            self.now = self.ticks as f64 * self.quantum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_jumps_and_is_monotone() {
        let mut c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance_to(30.0);
        assert_eq!(c.now(), 30.0);
        c.advance_to(10.0); // never backwards
        assert_eq!(c.now(), 30.0);
    }

    #[test]
    fn step_clock_lands_on_quantum_multiples() {
        let mut c = StepClock::new(10.0);
        c.advance_to(10.0);
        assert_eq!(c.now(), 10.0);
        assert_eq!(c.ticks(), 1);
        c.advance_to(25.0); // rounds up to the next tick
        assert_eq!(c.now(), 30.0);
        assert_eq!(c.ticks(), 3);
        c.advance_to(30.0); // already there
        assert_eq!(c.ticks(), 3);
    }

    #[test]
    fn step_clock_matches_virtual_on_the_slot_grid() {
        let mut s = StepClock::new(10.0);
        let mut v = VirtualClock::new();
        for slot in 1..=50u64 {
            let t = slot as f64 * 10.0;
            s.advance_to(t);
            v.advance_to(t);
            assert_eq!(s.now().to_bits(), v.now().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn step_clock_rejects_bad_quantum() {
        let _ = StepClock::new(0.0);
    }
}
