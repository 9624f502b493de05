//! The Unix load average sensor (the paper's Eq. 1). The paper measured
//! one-CPU hosts, where `load` competitors share a single processor; a
//! [`HostView`] reports the load per CPU, so the same holds on more.

use crate::HostView;

/// Converts a 1-minute load average into a CPU availability fraction.
///
/// The paper's Eq. 1: a newly created full-priority process joins a run
/// queue of (on average) `load` competitors and can expect a fair
/// `1 / (load + 1)` share of the time slices. The result is clamped into
/// `[0, 1]`.
///
/// # Examples
///
/// ```
/// use nws_sensors::availability_from_load;
///
/// assert_eq!(availability_from_load(0.0), 1.0); // idle machine
/// assert_eq!(availability_from_load(1.0), 0.5); // one competitor
/// assert_eq!(availability_from_load(3.0), 0.25);
/// ```
pub fn availability_from_load(load: f64) -> f64 {
    if !load.is_finite() || load < 0.0 {
        return 0.0;
    }
    (1.0 / (load + 1.0)).clamp(0.0, 1.0)
}

/// The `uptime`-based sensor: reads the kernel's 1-minute load average.
///
/// Stateless and non-intrusive — "almost all Unix systems gather and report
/// load average values", and reading them requires no special privileges.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadAvgSensor;

impl LoadAvgSensor {
    /// Creates the sensor.
    pub fn new() -> Self {
        Self
    }

    /// Takes one availability measurement.
    pub fn measure<C: HostView + ?Sized>(&mut self, host: &C) -> f64 {
        availability_from_load(host.load_one_minute())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nws_sim::{HostProfile, ProcessSpec};

    #[test]
    fn formula_matches_equation_one() {
        assert_eq!(availability_from_load(0.0), 1.0);
        assert_eq!(availability_from_load(1.0), 0.5);
        assert_eq!(availability_from_load(3.0), 0.25);
    }

    #[test]
    fn garbage_loads_clamp_to_zero() {
        assert_eq!(availability_from_load(f64::NAN), 0.0);
        assert_eq!(availability_from_load(-1.0), 0.0);
        assert_eq!(availability_from_load(f64::INFINITY), 0.0);
    }

    #[test]
    fn idle_host_reads_fully_available() {
        let mut host = nws_sim::Host::new("idle", 1);
        host.advance(120.0);
        let mut s = LoadAvgSensor::new();
        assert!((s.measure(&host) - 1.0).abs() < 0.01);
    }

    #[test]
    fn loaded_host_reads_half_available() {
        let mut host = nws_sim::Host::new("busy", 1);
        host.kernel_mut().spawn(ProcessSpec::cpu_bound("hog"));
        host.advance(900.0);
        let mut s = LoadAvgSensor::new();
        let a = s.measure(&host);
        assert!((a - 0.5).abs() < 0.03, "avail = {a}");
    }

    #[test]
    fn smoothing_lag_is_visible_after_load_departs() {
        // The 1-minute average lags: just after a hog exits, the sensor
        // still reports a busy machine — one of the paper's error sources.
        let mut host = nws_sim::Host::new("lag", 1);
        let pid = host.kernel_mut().spawn(ProcessSpec::cpu_bound("hog"));
        host.advance(900.0);
        host.kernel_mut().kill(pid);
        host.advance(10.0);
        let mut s = LoadAvgSensor::new();
        let a = s.measure(&host);
        assert!(a < 0.65, "sensor forgot the load too quickly: {a}");
    }

    #[test]
    fn profile_host_measurement_is_in_unit_interval() {
        let mut host = HostProfile::Thing2.build(3);
        host.advance(1800.0);
        let mut s = LoadAvgSensor::new();
        for _ in 0..10 {
            host.advance(10.0);
            let a = s.measure(&host);
            assert!((0.0..=1.0).contains(&a));
        }
    }
}
