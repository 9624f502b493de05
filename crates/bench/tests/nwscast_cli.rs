//! `nwscast --coverage` through the built binary: a value outside
//! (0, 1) is a usage error (exit 2), never a panic.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A four-point `time,value` CSV in the temp directory.
fn four_points() -> PathBuf {
    let path = std::env::temp_dir().join(format!("nwscast-cli-{}.csv", std::process::id()));
    std::fs::write(&path, "time,avail\n0,0.5\n10,0.25\n20,1.0\n30,0.75\n")
        .expect("temp dir is writable");
    path
}

/// Runs `nwscast <csv> --coverage <value>`; returns the exit code and
/// stderr.
fn nwscast(csv: &Path, coverage: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_nwscast"))
        .arg(csv)
        .args(["--coverage", coverage])
        .output()
        .expect("nwscast runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().expect("nwscast exited"), stderr)
}

#[test]
fn coverage_outside_the_unit_interval_is_a_usage_error() {
    let csv = four_points();
    for bad in ["0", "1", "1.5", "nan", "ninety"] {
        let (code, stderr) = nwscast(&csv, bad);
        assert_eq!(code, 2, "--coverage {bad}: {stderr}");
        assert!(
            stderr.starts_with("error: --coverage needs a fraction"),
            "--coverage {bad}: {stderr}"
        );
    }
    let (code, stderr) = nwscast(&csv, "0.9");
    assert_eq!(code, 0, "--coverage 0.9: {stderr}");
    let _ = std::fs::remove_file(csv);
}
