//! Live-host sensing through `/proc` (Linux).
//!
//! The paper's sensors run unprivileged on real Unix systems via `uptime`
//! and `vmstat`; on modern Linux the same quantities come from
//! `/proc/loadavg` and `/proc/stat`. The parsers here are pure functions
//! (testable on any platform); [`ProcLoadAvgSensor`] and
//! [`ProcVmstatSensor`] wire them to the live files so the library can
//! monitor the machine it runs on with the exact Eq. 1 / Eq. 2 formulas
//! used against the simulator.

use crate::loadavg_sensor::availability_from_load;
use crate::vmstat_sensor::{availability_from_vmstat, VmstatReading};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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

/// Parsed `/proc/loadavg`: the three load averages and the run-queue
/// snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadAvgInfo {
    /// 1-minute load average.
    pub one: f64,
    /// 5-minute load average.
    pub five: f64,
    /// 15-minute load average.
    pub fifteen: f64,
    /// Currently runnable entities (the numerator of the 4th field).
    pub running: u64,
    /// Total scheduling entities (the denominator of the 4th field).
    pub total: u64,
}

/// Parses the contents of `/proc/loadavg`,
/// e.g. `"0.52 0.58 0.59 1/467 12345"`.
pub fn parse_loadavg(text: &str) -> Result<LoadAvgInfo, ProcError> {
    let mut fields = text.split_whitespace();
    let mut next_f64 = |what: &str| -> Result<f64, ProcError> {
        fields
            .next()
            .ok_or_else(|| ProcError::Parse(format!("missing {what}")))?
            .parse::<f64>()
            .map_err(|e| ProcError::Parse(format!("bad {what}: {e}")))
    };
    let one = next_f64("1-min load")?;
    let five = next_f64("5-min load")?;
    let fifteen = next_f64("15-min load")?;
    let ratio = fields
        .next()
        .ok_or_else(|| ProcError::Parse("missing run-queue field".into()))?;
    let (run, tot) = ratio
        .split_once('/')
        .ok_or_else(|| ProcError::Parse(format!("bad run-queue field {ratio:?}")))?;
    let running = run
        .parse::<u64>()
        .map_err(|e| ProcError::Parse(format!("bad running count: {e}")))?;
    let total = tot
        .parse::<u64>()
        .map_err(|e| ProcError::Parse(format!("bad total count: {e}")))?;
    Ok(LoadAvgInfo {
        one,
        five,
        fifteen,
        running,
        total,
    })
}

/// Cumulative jiffy counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuJiffies {
    /// Normal-priority user time.
    pub user: u64,
    /// Niced user time.
    pub nice: u64,
    /// Kernel time.
    pub system: u64,
    /// Idle time.
    pub idle: u64,
    /// I/O wait (counted as idle for availability purposes).
    pub iowait: u64,
    /// Hardware interrupt time (counted as system).
    pub irq: u64,
    /// Software interrupt time (counted as system).
    pub softirq: u64,
}

impl CpuJiffies {
    /// Total jiffies across all accounted states.
    pub fn total(&self) -> u64 {
        self.user + self.nice + self.system + self.idle + self.iowait + self.irq + self.softirq
    }

    /// Field-wise saturating difference `self − earlier`.
    pub fn since(&self, earlier: &CpuJiffies) -> CpuJiffies {
        CpuJiffies {
            user: self.user.saturating_sub(earlier.user),
            nice: self.nice.saturating_sub(earlier.nice),
            system: self.system.saturating_sub(earlier.system),
            idle: self.idle.saturating_sub(earlier.idle),
            iowait: self.iowait.saturating_sub(earlier.iowait),
            irq: self.irq.saturating_sub(earlier.irq),
            softirq: self.softirq.saturating_sub(earlier.softirq),
        }
    }
}

/// Parses the aggregate `cpu` line out of `/proc/stat` text.
pub fn parse_stat_cpu(text: &str) -> Result<CpuJiffies, ProcError> {
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
    let get = |i: usize| nums.get(i).copied().unwrap_or(0);
    Ok(CpuJiffies {
        user: get(0),
        nice: get(1),
        system: get(2),
        idle: get(3),
        iowait: get(4),
        irq: get(5),
        softirq: get(6),
    })
}

/// Eq. 1 applied to a live Linux host via `/proc/loadavg`.
#[derive(Debug, Clone)]
pub struct ProcLoadAvgSensor {
    path: PathBuf,
}

impl Default for ProcLoadAvgSensor {
    fn default() -> Self {
        Self::new()
    }
}

impl ProcLoadAvgSensor {
    /// Creates a sensor reading the standard `/proc/loadavg`.
    pub fn new() -> Self {
        Self {
            path: PathBuf::from("/proc/loadavg"),
        }
    }

    /// Creates a sensor reading a custom path (for tests or containers).
    pub fn with_path(path: impl AsRef<Path>) -> Self {
        Self {
            path: path.as_ref().to_path_buf(),
        }
    }

    /// Reads the raw load averages.
    pub fn read(&self) -> Result<LoadAvgInfo, ProcError> {
        parse_loadavg(&fs::read_to_string(&self.path)?)
    }

    /// Takes one Eq. 1 availability measurement.
    pub fn measure(&self) -> Result<f64, ProcError> {
        Ok(availability_from_load(self.read()?.one))
    }
}

/// Eq. 2 applied to a live Linux host via `/proc/stat` + `/proc/loadavg`.
///
/// Niced user time is treated as *available* occupancy (a full-priority
/// process preempts it), which is exactly the correction the paper's hybrid
/// bias performs on the simulator. The run-queue term uses the smoothed
/// count of running entities from `/proc/loadavg` excluding niced load —
/// on a live host we approximate `rp` by the 1-minute load average, the
/// closest unprivileged equivalent.
#[derive(Debug, Clone, Default)]
pub struct ProcVmstatSensor {
    stat_path: Option<PathBuf>,
    loadavg_path: Option<PathBuf>,
    prev: Option<CpuJiffies>,
}

impl ProcVmstatSensor {
    /// Creates a sensor reading the standard `/proc` files.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the file locations (for tests or containers).
    pub fn with_paths(stat: impl AsRef<Path>, loadavg: impl AsRef<Path>) -> Self {
        Self {
            stat_path: Some(stat.as_ref().to_path_buf()),
            loadavg_path: Some(loadavg.as_ref().to_path_buf()),
            prev: None,
        }
    }

    fn stat_path(&self) -> &Path {
        self.stat_path
            .as_deref()
            .unwrap_or_else(|| Path::new("/proc/stat"))
    }

    fn loadavg_path(&self) -> &Path {
        self.loadavg_path
            .as_deref()
            .unwrap_or_else(|| Path::new("/proc/loadavg"))
    }

    /// Takes one Eq. 2 availability measurement. The first call primes the
    /// jiffy counters and measures occupancy since boot.
    pub fn measure(&mut self) -> Result<f64, ProcError> {
        let now = parse_stat_cpu(&fs::read_to_string(self.stat_path())?)?;
        let la = parse_loadavg(&fs::read_to_string(self.loadavg_path())?)?;
        let base = self.prev.unwrap_or_default();
        let d = now.since(&base);
        self.prev = Some(now);
        let total = d.total();
        if total == 0 {
            return Ok(1.0);
        }
        let tf = total as f64;
        let reading = VmstatReading {
            // nice + iowait time is obtainable by a full-priority process.
            idle: (d.idle + d.iowait + d.nice) as f64 / tf,
            user: d.user as f64 / tf,
            sys: (d.system + d.irq + d.softirq) as f64 / tf,
            smoothed_rp: la.one,
        };
        Ok(availability_from_vmstat(&reading))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_loadavg_typical_line() {
        let info = parse_loadavg("0.52 0.58 0.59 1/467 12345\n").unwrap();
        assert_eq!(info.one, 0.52);
        assert_eq!(info.five, 0.58);
        assert_eq!(info.fifteen, 0.59);
        assert_eq!(info.running, 1);
        assert_eq!(info.total, 467);
    }

    #[test]
    fn parse_loadavg_rejects_garbage() {
        assert!(parse_loadavg("").is_err());
        assert!(parse_loadavg("a b c 1/2 3").is_err());
        assert!(parse_loadavg("0.1 0.2 0.3 nope 5").is_err());
        assert!(parse_loadavg("0.1 0.2").is_err());
    }

    #[test]
    fn parse_stat_cpu_line() {
        let text = "cpu  100 20 30 800 40 5 6 0 0 0\ncpu0 50 10 15 400 20 2 3 0 0 0\n";
        let j = parse_stat_cpu(text).unwrap();
        assert_eq!(j.user, 100);
        assert_eq!(j.nice, 20);
        assert_eq!(j.system, 30);
        assert_eq!(j.idle, 800);
        assert_eq!(j.iowait, 40);
        assert_eq!(j.irq, 5);
        assert_eq!(j.softirq, 6);
        assert_eq!(j.total(), 1001);
    }

    #[test]
    fn parse_stat_requires_cpu_line() {
        assert!(parse_stat_cpu("intr 1 2 3\n").is_err());
        assert!(parse_stat_cpu("cpu 1 2\n").is_err());
    }

    #[test]
    fn jiffy_differencing() {
        let a = CpuJiffies {
            user: 100,
            idle: 900,
            ..Default::default()
        };
        let b = CpuJiffies {
            user: 150,
            idle: 950,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.user, 50);
        assert_eq!(d.idle, 50);
        // Counter reset (reboot): saturates instead of underflowing.
        let r = a.since(&b);
        assert_eq!(r.user, 0);
    }

    #[test]
    fn sensors_from_fixture_files() {
        let dir = std::env::temp_dir().join("nws-proc-fixture");
        std::fs::create_dir_all(&dir).unwrap();
        let la = dir.join("loadavg");
        let st = dir.join("stat");
        std::fs::write(&la, "1.00 0.80 0.60 2/100 999\n").unwrap();
        std::fs::write(&st, "cpu 500 0 100 400 0 0 0 0 0 0\n").unwrap();

        let load_sensor = ProcLoadAvgSensor::with_path(&la);
        let avail = load_sensor.measure().unwrap();
        assert!((avail - 0.5).abs() < 1e-9);

        let mut vm = ProcVmstatSensor::with_paths(&st, &la);
        // First call measures since boot: user 0.5, sys 0.1, idle 0.4,
        // rp = 1.0 → avail = 0.4 + 0.5/2 + 0.5*0.1/2 = 0.675.
        let v = vm.measure().unwrap();
        assert!((v - 0.675).abs() < 1e-9, "v = {v}");

        // Second interval fully idle.
        std::fs::write(&st, "cpu 500 0 100 1400 0 0 0 0 0 0\n").unwrap();
        let v2 = vm.measure().unwrap();
        assert!(v2 > 0.95, "v2 = {v2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_proc_files_are_readable() {
        let s = ProcLoadAvgSensor::new();
        let a = s.measure().unwrap();
        assert!((0.0..=1.0).contains(&a));
        let mut vm = ProcVmstatSensor::new();
        let v = vm.measure().unwrap();
        assert!((0.0..=1.0).contains(&v));
    }
}
