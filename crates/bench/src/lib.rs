//! The `repro` harness as a library: one module per experiment family
//! and the helpers that place artifacts. `bin/repro.rs` is a thin `main`
//! over it.
//!
//! `repro` regenerates the paper's tables and figures and the
//! seed-determined CSVs. It writes only under the results directory, and
//! every file it writes there is a pure function of `(seed, tier)`;
//! timing the system is `benchmark/`'s job.

#![deny(clippy::undocumented_unsafe_blocks, unsafe_op_in_unsafe_fn)]

use std::fs;
use std::path::{Path, PathBuf};

pub mod alloc_counter;
pub mod cli;
pub mod durability;
pub mod extensions;
pub mod fleet;
pub mod paper;

/// Resolves the `results/` output directory (created on demand).
///
/// Uses `NWS_RESULTS_DIR` when set, else `results/` under the current
/// working directory.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("NWS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
    }
    dir
}

/// Writes a text artifact under the results directory, reporting the path.
pub fn write_artifact(name: &str, contents: &str) {
    let path = results_dir().join(name);
    match fs::write(&path, contents) {
        Ok(()) => println!("  wrote {}", display_relative(&path)),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

fn display_relative(path: &Path) -> String {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok())
        .unwrap_or(path)
        .display()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable_and_writable() {
        let tmp = std::env::temp_dir().join("nws-bench-results-test");
        std::env::set_var("NWS_RESULTS_DIR", &tmp);
        write_artifact("probe.txt", "hello");
        assert_eq!(
            std::fs::read_to_string(tmp.join("probe.txt")).unwrap(),
            "hello"
        );
        std::env::remove_var("NWS_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(&tmp);
    }
}
