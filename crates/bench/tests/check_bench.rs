//! `repro check-bench` against the tracked benchmark artifacts and
//! broken copies of them: the exit code and the path it names.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every tracked `BENCH_*.json` at the repository root.
fn tracked() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("repository root is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    assert!(files.len() >= 2, "tracked artifacts: {files:?}");
    files
}

/// Runs `repro check-bench`; returns the exit code and stdout + stderr.
fn check(baseline: &Path, candidate: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("check-bench")
        .arg(baseline)
        .arg(candidate)
        .output()
        .expect("repro runs");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code().expect("repro exited"), text.into_owned())
}

/// A copy of `original`, edited, in the temp directory. The edit must
/// change the text.
fn broken_copy(original: &Path, tag: &str, edit: impl FnOnce(&str) -> String) -> PathBuf {
    let text = std::fs::read_to_string(original).expect("tracked artifact is readable");
    let edited = edit(&text);
    assert_ne!(
        edited,
        text,
        "{tag}: the edit missed {}",
        original.display()
    );
    let name = original.file_name().unwrap().to_string_lossy();
    let path =
        std::env::temp_dir().join(format!("check-bench-{}-{tag}-{name}", std::process::id()));
    std::fs::write(&path, edited).expect("temp dir is writable");
    path
}

#[test]
fn each_tracked_artifact_matches_itself() {
    for file in tracked() {
        let (code, text) = check(&file, &file);
        assert_eq!(code, 0, "{}: {text}", file.display());
        assert!(text.starts_with("schema ok: "), "{text}");
    }
}

#[test]
fn a_removed_key_or_a_changed_kind_is_named() {
    for file in tracked() {
        // The top-level `threads` line, whatever machine wrote it.
        let removed = broken_copy(&file, "removed", |text| {
            text.lines()
                .filter(|line| !line.starts_with("  \"threads\": "))
                .map(|line| format!("{line}\n"))
                .collect()
        });
        let (code, text) = check(&file, &removed);
        assert_eq!(code, 1, "{text}");
        assert_eq!(
            text,
            format!("missing from {}: $.threads (number)\n", removed.display())
        );

        let retyped = broken_copy(&file, "retyped", |text| {
            text.replacen("\"tier\": \"full\"", "\"tier\": 1", 1)
        });
        let (code, text) = check(&file, &retyped);
        assert_eq!(code, 1, "{text}");
        assert_eq!(
            text,
            format!(
                "missing from {}: $.tier (string)\nnot in {}: $.tier (number)\n",
                retyped.display(),
                file.display()
            )
        );
        for path in [removed, retyped] {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[test]
fn a_required_section_lost_on_both_sides_is_named() {
    for (name, section) in [
        ("BENCH_perf.json", "forecast_quality"),
        ("BENCH_serve.json", "churn"),
    ] {
        let file = tracked()
            .into_iter()
            .find(|f| f.ends_with(name))
            .expect("tracked artifact");
        let dropped = broken_copy(&file, "dropped", |text| {
            text.replacen(
                &format!("\"{section}\":"),
                &format!("\"{section}_old\":"),
                1,
            )
        });
        // Both sides lost it, so there is no structural drift to catch.
        let (code, text) = check(&dropped, &dropped);
        assert_eq!(code, 1, "{text}");
        assert_eq!(
            text,
            format!(
                "{}: missing required sections: {section}\n",
                dropped.display()
            )
        );
        let _ = std::fs::remove_file(dropped);
    }
}

#[test]
fn a_bad_command_line_or_an_unreadable_file_exits_1() {
    let file = &tracked()[0];
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["check-bench", "only-one.json"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: repro check-bench"));

    let missing = Path::new("no-such-artifact.json");
    let (code, text) = check(file, missing);
    assert_eq!(code, 1);
    assert!(text.starts_with("no-such-artifact.json: "), "{text}");

    let garbage = broken_copy(file, "garbage", |text| format!("{{{text}"));
    let (code, text) = check(file, &garbage);
    assert_eq!(code, 1);
    assert!(
        text.starts_with(&format!("{}: ", garbage.display())),
        "{text}"
    );
    let _ = std::fs::remove_file(garbage);
}
