//! The `vmstat` sensor (the paper's Eq. 2).

use crate::HostView;
use nws_sim::Accounting;

/// One interval's worth of `vmstat`-style readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmstatReading {
    /// Fraction of the interval the CPU was idle.
    pub idle: f64,
    /// Fraction spent in user mode.
    pub user: f64,
    /// Fraction spent in system mode.
    pub sys: f64,
    /// Smoothed run-queue length ("a smoothed average of the number of
    /// running processes over the previous set of measurements").
    pub smoothed_rp: f64,
}

/// The paper's Eq. 2: availability from occupancy fractions.
///
/// `avail = idle + user/(rp+1) + w·sys/(rp+1)` with weighting `w = user`.
///
/// A new full-priority process is entitled to all idle time and a fair
/// `1/(rp+1)` share of the user time. System time is only fairly shareable
/// to the extent the machine is doing user work — "in our experience, the
/// percentage of system time that is shared fairly is directly proportional
/// to the percentage of user time, hence the `w` factor" (a gateway host
/// doing pure packet-interrupt work shares none of it).
///
/// The result is clamped into `[0, 1]`; a reading with a field that is
/// NaN or infinite reads 0.0, as a non-finite load does in Eq. 1.
pub fn availability_from_vmstat(reading: &VmstatReading) -> f64 {
    let fields = [reading.idle, reading.user, reading.sys, reading.smoothed_rp];
    if !fields.iter().all(|f| f.is_finite()) {
        return 0.0;
    }
    let rp = reading.smoothed_rp.max(0.0);
    let share = 1.0 / (rp + 1.0);
    let w = reading.user.clamp(0.0, 1.0);
    (reading.idle + reading.user * share + w * reading.sys * share).clamp(0.0, 1.0)
}

/// The `vmstat`-based sensor.
///
/// Stateful: it differences the kernel's cumulative user/sys/idle counters
/// between calls and maintains an exponentially smoothed run-queue length.
#[derive(Debug, Clone)]
pub struct VmstatSensor {
    prev: Option<Accounting>,
    smoothed_rp: f64,
    /// EWMA gain for the run-queue smoothing.
    alpha: f64,
    /// EWMA gain for the occupancy-fraction smoothing. One 10-second
    /// interval of user/sys/idle fractions is far noisier than the
    /// kernel's one-minute load average; the NWS sensor smooths "over the
    /// previous set of measurements" so the two methods see comparable
    /// horizons.
    beta: f64,
    /// The smoothed occupancy split the last measurement reported.
    smoothed: Option<VmstatReading>,
}

impl Default for VmstatSensor {
    fn default() -> Self {
        Self::new()
    }
}

impl VmstatSensor {
    /// Creates the sensor with the default smoothing gains.
    pub fn new() -> Self {
        Self::with_gains(0.3, 0.25)
    }

    /// Creates the sensor with explicit run-queue (`alpha`) and occupancy
    /// (`beta`) EWMA gains.
    ///
    /// # Panics
    ///
    /// Panics unless both gains are in `(0, 1]`.
    pub fn with_gains(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0,1]");
        Self {
            prev: None,
            smoothed_rp: 0.0,
            alpha,
            beta,
            smoothed: None,
        }
    }

    /// Forgets all differencing and smoothing state, as after a host
    /// reboot: the kernel's cumulative counters restarted from zero, so
    /// differencing across the boot would report nonsense (negative
    /// intervals).
    pub fn reset(&mut self) {
        self.prev = None;
        self.smoothed_rp = 0.0;
        self.smoothed = None;
    }

    /// Takes one availability measurement.
    ///
    /// The first call primes the counters and reports availability from the
    /// instantaneous run queue only (there is no interval to difference
    /// yet).
    pub fn measure<C: HostView + ?Sized>(&mut self, host: &C) -> f64 {
        let acct = host.accounting();
        let rp_now = host.run_queue();
        self.smoothed_rp = match self.prev {
            None => rp_now,
            Some(_) => self.smoothed_rp + self.alpha * (rp_now - self.smoothed_rp),
        };
        let reading = match self.prev {
            Some(prev) => {
                let d = acct.since(&prev);
                let total = d.total();
                if total <= 0.0 {
                    // Zero-length interval: reuse the last occupancy split.
                    self.smoothed.unwrap_or(VmstatReading {
                        idle: 1.0,
                        user: 0.0,
                        sys: 0.0,
                        smoothed_rp: self.smoothed_rp,
                    })
                } else {
                    VmstatReading {
                        idle: (d.idle / total).clamp(0.0, 1.0),
                        user: (d.user / total).clamp(0.0, 1.0),
                        sys: (d.sys / total).clamp(0.0, 1.0),
                        smoothed_rp: self.smoothed_rp,
                    }
                }
            }
            None => VmstatReading {
                // Prime: assume the split implied by the run queue.
                idle: if rp_now > 0.0 { 0.0 } else { 1.0 },
                user: if rp_now > 0.0 { 1.0 } else { 0.0 },
                sys: 0.0,
                smoothed_rp: self.smoothed_rp,
            },
        };
        self.prev = Some(acct);
        let mut reading = reading;
        reading.smoothed_rp = self.smoothed_rp;
        // Occupancy smoothing across intervals.
        let sm = match self.smoothed {
            None => reading,
            Some(prev_sm) => VmstatReading {
                idle: prev_sm.idle + self.beta * (reading.idle - prev_sm.idle),
                user: prev_sm.user + self.beta * (reading.user - prev_sm.user),
                sys: prev_sm.sys + self.beta * (reading.sys - prev_sm.sys),
                smoothed_rp: self.smoothed_rp,
            },
        };
        self.smoothed = Some(sm);
        availability_from_vmstat(&sm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_sim::{Host, ProcessSpec};
    use proptest::prelude::*;

    fn reading(idle: f64, user: f64, sys: f64, rp: f64) -> VmstatReading {
        VmstatReading {
            idle,
            user,
            sys,
            smoothed_rp: rp,
        }
    }

    #[test]
    fn idle_machine_is_fully_available() {
        assert_eq!(availability_from_vmstat(&reading(1.0, 0.0, 0.0, 0.0)), 1.0);
    }

    #[test]
    fn one_user_hog_gives_half() {
        let a = availability_from_vmstat(&reading(0.0, 1.0, 0.0, 1.0));
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn system_time_weighted_by_user_fraction() {
        // Pure gateway: all sys, no user → none of the sys time is counted
        // as shareable.
        let a = availability_from_vmstat(&reading(0.0, 0.0, 1.0, 0.0));
        assert_eq!(a, 0.0);
        // Mixed: user work implies syscall time is user-driven and fairly
        // shared.
        let mixed = availability_from_vmstat(&reading(0.0, 0.8, 0.2, 1.0));
        assert!((mixed - (0.8 / 2.0 + 0.8 * 0.2 / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn result_is_clamped() {
        let a = availability_from_vmstat(&reading(0.9, 0.9, 0.9, 0.0));
        assert_eq!(a, 1.0);
        let b = availability_from_vmstat(&reading(-0.5, 0.0, 0.0, 2.0));
        assert_eq!(b, 0.0);
    }

    #[test]
    fn sensor_differences_intervals() {
        let mut host = Host::new("h", 1);
        let mut s = VmstatSensor::new();
        host.advance(60.0);
        let first = s.measure(&host); // priming call, idle machine
        assert!((first - 1.0).abs() < 1e-9);
        // Now saturate with one hog; the smoothed occupancy converges on
        // the all-user split over a few intervals.
        host.kernel_mut().spawn(ProcessSpec::cpu_bound("hog"));
        let mut a = 1.0;
        for _ in 0..20 {
            host.advance(10.0);
            a = s.measure(&host);
        }
        let r = s.smoothed.unwrap();
        assert!(r.idle < 0.05, "idle = {}", r.idle);
        assert!(r.user > 0.9, "user = {}", r.user);
        assert!((r.smoothed_rp - 1.0).abs() < 0.05, "rp = {}", r.smoothed_rp);
        assert!((a - 0.5).abs() < 0.05, "avail = {a}");
    }

    #[test]
    fn rp_smoothing_converges() {
        let mut host = Host::new("h", 1);
        host.kernel_mut().spawn(ProcessSpec::cpu_bound("a"));
        host.kernel_mut().spawn(ProcessSpec::cpu_bound("b"));
        let mut s = VmstatSensor::new();
        for _ in 0..30 {
            host.advance(10.0);
            s.measure(&host);
        }
        let r = s.smoothed.unwrap();
        assert!((r.smoothed_rp - 2.0).abs() < 0.05, "rp = {}", r.smoothed_rp);
        // Two hogs: a new process gets 1/3 of the user time.
        let a = availability_from_vmstat(&r);
        assert!((a - 1.0 / 3.0).abs() < 0.05, "avail = {a}");
    }

    #[test]
    fn both_sensors_converge_after_a_load_step() {
        // The two methods smooth over comparable horizons; after a hog
        // appears, both should settle near the fair-share availability of
        // 0.5 within a few minutes.
        let mut host = Host::new("h", 1);
        let mut vs = VmstatSensor::new();
        let mut ls = crate::loadavg_sensor::LoadAvgSensor::new();
        host.advance(120.0);
        vs.measure(&host);
        host.kernel_mut().spawn(ProcessSpec::cpu_bound("hog"));
        let mut v = 1.0;
        let mut l = 1.0;
        for _ in 0..18 {
            host.advance(10.0);
            v = vs.measure(&host);
            l = ls.measure(&host);
        }
        assert!((v - 0.5).abs() < 0.05, "vmstat settled at {v}");
        assert!((l - 0.5).abs() < 0.05, "loadavg settled at {l}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_panics() {
        VmstatSensor::with_gains(0.0, 0.25);
    }

    /// NaN, ±∞, negatives, zeros, subnormals, huge values, the unit
    /// interval and any bits.
    fn edge_values() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-1.0),
            Just(-f64::MIN_POSITIVE),
            Just(-0.0),
            Just(0.0),
            Just(5e-324),
            Just(f64::MIN_POSITIVE),
            Just(1e300),
            Just(f64::MAX),
            0.0..=1.0,
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    proptest! {
        /// Eq. 1 and Eq. 2 read any value into `[0, 1]`, and a sensor
        /// built with any gains either panics as documented or measures
        /// into `[0, 1]`.
        #[test]
        fn equations_and_gains_read_into_the_unit_interval_or_panic_as_documented(
            idle in edge_values(),
            user in edge_values(),
            sys in edge_values(),
            rp in edge_values(),
        ) {
            let unit = 0.0..=1.0;
            let load = crate::availability_from_load(idle);
            prop_assert!(unit.contains(&load), "Eq. 1 of {idle}: {load}");
            let a = availability_from_vmstat(&reading(idle, user, sys, rp));
            prop_assert!(unit.contains(&a), "Eq. 2 of {idle} {user} {sys} {rp}: {a}");
            let (alpha, beta) = (user, sys);
            let valid = |g: f64| g > 0.0 && g <= 1.0;
            match std::panic::catch_unwind(|| VmstatSensor::with_gains(alpha, beta)) {
                Err(panic) => {
                    let msg = panic.downcast_ref::<&str>().copied().unwrap_or("");
                    let gain = if valid(alpha) { "beta" } else { "alpha" };
                    prop_assert!(!(valid(alpha) && valid(beta)), "refused {alpha} {beta}");
                    prop_assert!(msg == format!("{gain} must be in (0,1]"), "{msg}");
                }
                Ok(mut s) => {
                    prop_assert!(valid(alpha) && valid(beta), "accepted {alpha} {beta}");
                    let mut host = Host::new("h", 1);
                    host.kernel_mut().spawn(ProcessSpec::cpu_bound("hog"));
                    for _ in 0..3 {
                        host.advance(10.0);
                        let v = s.measure(&host);
                        prop_assert!(unit.contains(&v), "gains {alpha} {beta}: {v}");
                    }
                }
            }
        }
    }
}
