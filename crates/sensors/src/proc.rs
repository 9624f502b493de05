//! A live Linux host as a [`HostView`], read from `/proc`.
//!
//! The paper's sensors run unprivileged on real Unix systems via `uptime`
//! and `vmstat`; on modern Linux the same quantities come from
//! `/proc/loadavg` and `/proc/stat`. A [`Sample`] reads both files at one
//! instant and is fed to the same [`LoadAvgSensor`](crate::LoadAvgSensor)
//! and [`VmstatSensor`](crate::VmstatSensor) that measure the simulator,
//! so a live host goes through the same Eq. 1 and Eq. 2 and the same
//! smoothing. As `vmstat` reports it, niced time is user time: a `nice`
//! soaker costs Eq. 2 availability here as it did on the paper's hosts.
//! The paper's hosts had one CPU; a `Sample` reports the load average and
//! the run queue per CPU, so both equations measure a share of one CPU.
//! The parsers are pure functions, testable on any platform.

use crate::HostView;
use nws_sim::Accounting;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Errors reading or parsing `/proc` files.
#[derive(Debug)]
pub enum ProcError {
    /// Underlying I/O failure (e.g. not on Linux).
    Io(io::Error),
    /// The file contents did not parse.
    Parse(String),
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::Io(e) => write!(f, "io error: {e}"),
            ProcError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for ProcError {}

impl From<io::Error> for ProcError {
    fn from(e: io::Error) -> Self {
        ProcError::Io(e)
    }
}

/// Parses the 1-minute load average out of `/proc/loadavg`,
/// e.g. `"0.52 0.58 0.59 1/467 12345"`. A load that is not a finite,
/// non-negative number is a parse error.
pub fn parse_loadavg(text: &str) -> Result<f64, ProcError> {
    let field = text
        .split_whitespace()
        .next()
        .ok_or_else(|| ProcError::Parse("missing 1-min load".into()))?;
    let load = field
        .parse::<f64>()
        .map_err(|e| ProcError::Parse(format!("bad 1-min load: {e}")))?;
    if !(load.is_finite() && load >= 0.0) {
        return Err(ProcError::Parse(format!("bad 1-min load: {field}")));
    }
    Ok(load)
}

/// Jiffies per second as `/proc/stat` reports them (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Parses `/proc/stat`: the aggregate `cpu` line as cumulative seconds,
/// the run queue (`procs_running` less the process reading it), and the
/// CPU count (the `cpuN` lines; none counts as one).
///
/// User and nice jiffies are user time; system, irq and softirq are sys
/// time; idle and iowait are idle time. Steal is left out. Fields whose
/// sum overflows a `u64` are a parse error.
pub fn parse_stat_cpu(text: &str) -> Result<(Accounting, usize, usize), ProcError> {
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu ") || *l == "cpu")
        .ok_or_else(|| ProcError::Parse("no aggregate cpu line".into()))?;
    let nums: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| {
            f.parse::<u64>()
                .map_err(|e| ProcError::Parse(format!("bad cpu field {f:?}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if nums.len() < 4 {
        return Err(ProcError::Parse(format!(
            "cpu line has only {} fields, need >= 4",
            nums.len()
        )));
    }
    let secs = |fields: &[usize]| {
        (fields.iter())
            .try_fold(0u64, |sum, &i| {
                sum.checked_add(nums.get(i).copied().unwrap_or(0))
            })
            .map(|jiffies| jiffies as f64 / USER_HZ)
            .ok_or_else(|| ProcError::Parse(format!("cpu fields {fields:?} overflow")))
    };
    let running: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("procs_running "))
        .ok_or_else(|| ProcError::Parse("no procs_running line".into()))?
        .trim()
        .parse()
        .map_err(|e| ProcError::Parse(format!("bad procs_running: {e}")))?;
    let accounting = Accounting {
        user: secs(&[0, 1])?,
        sys: secs(&[2, 5, 6])?,
        idle: secs(&[3, 4])?,
    };
    let cpus = (text.lines())
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    Ok((accounting, running.saturating_sub(1), cpus.max(1)))
}

/// What a live Linux host shows a passive sensor at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The 1-minute load average per CPU.
    load: f64,
    accounting: Accounting,
    /// Runnable tasks per CPU, not counting the reader.
    run_queue: f64,
}

impl Sample {
    /// Reads `/proc/stat` and `/proc/loadavg`.
    pub fn read() -> Result<Self, ProcError> {
        Self::read_from("/proc/stat", "/proc/loadavg")
    }

    /// Reads the given files in their place (for fixtures or containers).
    pub fn read_from(stat: impl AsRef<Path>, loadavg: impl AsRef<Path>) -> Result<Self, ProcError> {
        let (accounting, runnable, cpus) = parse_stat_cpu(&fs::read_to_string(stat)?)?;
        let load = parse_loadavg(&fs::read_to_string(loadavg)?)?;
        Ok(Self {
            load: load / cpus as f64,
            accounting,
            run_queue: runnable as f64 / cpus as f64,
        })
    }
}

impl HostView for Sample {
    fn load_one_minute(&self) -> f64 {
        self.load
    }
    fn accounting(&self) -> Accounting {
        self.accounting
    }
    fn run_queue(&self) -> f64 {
        self.run_queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoadAvgSensor, VmstatSensor};
    use std::path::PathBuf;

    /// Writes a `/proc/stat` and `/proc/loadavg` pair into a directory of
    /// the test's own and returns their paths.
    fn fixture(name: &str, stat: &str, loadavg: &str) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("nws-proc-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let (st, la) = (dir.join("stat"), dir.join("loadavg"));
        fs::write(&st, stat).unwrap();
        fs::write(&la, loadavg).unwrap();
        (st, la)
    }

    #[test]
    fn parse_loadavg_typical_line() {
        assert_eq!(parse_loadavg("0.52 0.58 0.59 1/467 12345\n").unwrap(), 0.52);
    }

    #[test]
    fn parse_loadavg_rejects_garbage() {
        assert!(parse_loadavg("").is_err());
        assert!(parse_loadavg("a b c 1/2 3").is_err());
    }

    #[test]
    fn stat_fields_map_onto_user_sys_idle() {
        // user nice system idle iowait irq softirq steal guest guest_nice
        let text = "cpu  100 20 30 800 40 5 6 7 0 0\ncpu0 50 10 15 400 20 2 3 0 0 0\n\
                    procs_running 3\n";
        let (acct, runnable, cpus) = parse_stat_cpu(text).unwrap();
        assert_eq!(acct.user, 1.2, "nice is user time");
        assert_eq!(acct.sys, 0.41, "irq and softirq are sys time");
        assert_eq!(acct.idle, 8.4, "iowait is idle time");
        assert_eq!(acct.total(), 10.01, "steal is left out");
        assert_eq!(runnable, 2, "the reader is not in the run queue");
        assert_eq!(cpus, 1, "one cpuN line");
        let (_, alone, cpus) = parse_stat_cpu("cpu 1 0 0 1\nprocs_running 1\n").unwrap();
        assert_eq!(alone, 0);
        assert_eq!(cpus, 1, "no cpuN line counts as one CPU");
        let (_, none, _) = parse_stat_cpu("cpu 1 0 0 1\nprocs_running 0\n").unwrap();
        assert_eq!(none, 0);
        assert!(matches!(
            parse_stat_cpu("cpu 1 0 0 1\nprocs_blocked 0\n"),
            Err(ProcError::Parse(_))
        ));
    }

    #[test]
    fn parse_stat_requires_cpu_line() {
        assert!(parse_stat_cpu("intr 1 2 3\nprocs_running 1\n").is_err());
        assert!(parse_stat_cpu("cpu 1 2\nprocs_running 1\n").is_err());
    }

    #[test]
    fn sensors_from_fixture_files() {
        let (st, la) = fixture(
            "sensors",
            "cpu 0 0 0 0 0 0 0 0 0 0\nprocs_running 2\n",
            "1.00 0.80 0.60 2/100 999\n",
        );
        let first = Sample::read_from(&st, &la).unwrap();
        assert_eq!(LoadAvgSensor::new().measure(&first), 0.5);
        // Unsmoothed, so each interval's Eq. 2 reading shows whole.
        let mut vm = VmstatSensor::with_gains(1.0, 1.0);
        vm.measure(&first);
        // user 0.5, sys 0.1, idle 0.4, rp 1 → 0.4 + 0.5/2 + 0.5·0.1/2.
        fs::write(&st, "cpu 500 0 100 400 0 0 0 0 0 0\nprocs_running 2\n").unwrap();
        let v = vm.measure(&Sample::read_from(&st, &la).unwrap());
        assert!((v - 0.675).abs() < 1e-9, "v = {v}");
        // A fully idle interval with only the reader running.
        fs::write(&st, "cpu 500 0 100 1400 0 0 0 0 0 0\nprocs_running 1\n").unwrap();
        let v2 = vm.measure(&Sample::read_from(&st, &la).unwrap());
        assert_eq!(v2, 1.0);
        assert!(matches!(
            Sample::read_from(st.with_file_name("absent"), &la),
            Err(ProcError::Io(_))
        ));
        let _ = fs::remove_dir_all(st.parent().unwrap());
    }

    #[test]
    fn overflowing_cpu_fields_are_a_parse_error() {
        // user + nice overflows a u64; each field alone parses.
        let (st, la) = fixture(
            "overflow",
            "cpu 18446744073709551615 1 0 0 0 0 0 0 0 0\nprocs_running 1\n",
            "0.00 0.00 0.00 1/100 999\n",
        );
        let err = Sample::read_from(&st, &la).unwrap_err();
        assert!(
            matches!(err, ProcError::Parse(ref m) if m.contains("overflow")),
            "{err}"
        );
        let _ = fs::remove_dir_all(st.parent().unwrap());
    }

    #[test]
    fn a_load_that_is_not_a_finite_non_negative_number_is_a_parse_error() {
        let stat = "cpu 1 0 0 1\nprocs_running 1\n";
        for load in [
            "nan", "NaN", "inf", "-inf", "infinity", "-0.5", "-1e300", "1e999",
        ] {
            let (st, la) = fixture("bad-load", stat, &format!("{load} 0.00 0.00 1/100 999\n"));
            let err = Sample::read_from(&st, &la).unwrap_err();
            assert!(matches!(err, ProcError::Parse(_)), "{load}: {err}");
        }
        let (st, la) = fixture("bad-load", stat, "-0 0.00 0.00 1/100 999\n");
        assert_eq!(
            LoadAvgSensor::new().measure(&Sample::read_from(&st, &la).unwrap()),
            1.0
        );
        let _ = fs::remove_dir_all(st.parent().unwrap());
    }

    #[test]
    fn a_nice_spinner_costs_vmstat_availability() {
        // Only nice jiffies move: one `nice +19` spinner beside the reader.
        let (st, la) = fixture(
            "nice",
            "cpu 0 100 0 0 0 0 0 0 0 0\nprocs_running 2\n",
            "1.00 1.00 1.00 2/100 999\n",
        );
        let (mut load, mut vm) = (LoadAvgSensor::new(), VmstatSensor::new());
        let first = Sample::read_from(&st, &la).unwrap();
        assert_eq!(load.measure(&first), 0.5);
        assert_eq!(vm.measure(&first), 0.5);
        fs::write(&st, "cpu 0 1100 0 0 0 0 0 0 0 0\nprocs_running 2\n").unwrap();
        assert_eq!(vm.measure(&Sample::read_from(&st, &la).unwrap()), 0.5);
        let _ = fs::remove_dir_all(st.parent().unwrap());
    }

    #[test]
    fn a_two_cpu_host_reads_a_share_of_one_cpu() {
        // Both CPUs busy in user time, two tasks beside the reader, load
        // 2: one competitor per CPU, so each equation reads 0.5.
        let (st, la) = fixture(
            "two-cpu",
            "cpu 0 0 0 0 0 0 0 0 0 0\ncpu0 0 0 0 0 0 0 0 0 0 0\n\
             cpu1 0 0 0 0 0 0 0 0 0 0\nprocs_running 3\n",
            "2.00 2.00 2.00 3/100 999\n",
        );
        let first = Sample::read_from(&st, &la).unwrap();
        assert_eq!(LoadAvgSensor::new().measure(&first), 0.5);
        let mut vm = VmstatSensor::with_gains(1.0, 1.0);
        assert_eq!(vm.measure(&first), 0.5);
        fs::write(
            &st,
            "cpu 200 0 0 0 0 0 0 0 0 0\ncpu0 100 0 0 0 0 0 0 0 0 0\n\
             cpu1 100 0 0 0 0 0 0 0 0 0\nprocs_running 3\n",
        )
        .unwrap();
        assert_eq!(vm.measure(&Sample::read_from(&st, &la).unwrap()), 0.5);
        let _ = fs::remove_dir_all(st.parent().unwrap());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_proc_files_are_readable() {
        let first = Sample::read().unwrap();
        let mut vm = VmstatSensor::new();
        for s in [first, Sample::read().unwrap()] {
            assert!((0.0..=1.0).contains(&LoadAvgSensor::new().measure(&s)));
            assert!((0.0..=1.0).contains(&vm.measure(&s)));
        }
    }
}
