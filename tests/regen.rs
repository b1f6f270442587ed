//! The `stream-gpu regen` manifest: it covers every committed artifact,
//! its check mode names drift without writing, and its entries render
//! the committed bytes.

use std::path::{Path, PathBuf};
use std::process::Command;

use stream_gpu::regen::{self, MANIFEST};

/// Committed artifacts `regen` deliberately does not own, with why.
const EXCEPTIONS: &[(&str, &str)] = &[
    (
        "results/bench_device.txt",
        "written by the benchmark harness under benchmark/, in CI's test job",
    ),
    (
        "results/ablation_ilp.txt",
        "manual: the swp-bench `ablation_ilp` binary's exact ILP runs under a wall-clock budget",
    ),
    (
        "results/ilp_report.txt",
        "manual: the swp-bench `ilp_report` binary takes hours",
    ),
];

/// Files in `dir` whose names start with `prefix` and end with `suffix`,
/// as repository-relative paths.
fn committed(dir: &str, prefix: &str, suffix: &str) -> Vec<String> {
    let listing = std::fs::read_dir(if dir.is_empty() { "." } else { dir })
        .unwrap_or_else(|e| panic!("list {dir:?}: {e}"));
    let mut found: Vec<String> = listing
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with(prefix) && name.ends_with(suffix))
        .map(|name| {
            if dir.is_empty() {
                name
            } else {
                format!("{dir}/{name}")
            }
        })
        .collect();
    found.sort();
    found
}

/// A scratch repository root holding one copy of `results/table1.txt`
/// with its byte at `offset` replaced by `byte`.
fn corrupted_root(name: &str, offset: usize, byte: u8) -> PathBuf {
    let root = std::env::temp_dir().join(format!("stream_gpu_regen_{name}_{}", std::process::id()));
    std::fs::create_dir_all(root.join("results")).unwrap();
    let mut bytes = std::fs::read("results/table1.txt").unwrap();
    assert_ne!(bytes[offset], byte, "the corruption must change a byte");
    bytes[offset] = byte;
    std::fs::write(root.join("results/table1.txt"), bytes).unwrap();
    root
}

#[test]
fn manifest_covers_every_committed_artifact() {
    let mut files = committed("results", "", ".txt");
    files.extend(committed("", "BENCH_", ".json"));
    files.extend(committed("datasets", "", ".json"));
    files.extend(committed("models", "", ".json"));
    assert!(files.len() >= MANIFEST.len(), "scan found {files:?}");
    for file in &files {
        let owned = MANIFEST.iter().any(|e| e.path == file);
        let excepted = EXCEPTIONS.iter().any(|(path, _)| path == file);
        assert!(
            owned != excepted,
            "{file}: must be a manifest path or an exception, not {}",
            if owned { "both" } else { "neither" }
        );
    }
    for entry in MANIFEST {
        assert!(
            Path::new(entry.path).is_file(),
            "{}: manifest path is not committed",
            entry.path
        );
    }
    for (path, _) in EXCEPTIONS {
        assert!(Path::new(path).is_file(), "{path}: stale exception");
    }
}

#[test]
fn table1_entry_is_byte_identical_to_the_committed_file() {
    let entry = MANIFEST
        .iter()
        .find(|e| e.path == "results/table1.txt")
        .unwrap();
    let fresh = (entry.generate)(&regen::Inputs::default()).unwrap();
    assert_eq!(fresh, std::fs::read_to_string(entry.path).unwrap());
    let drifted = regen::run(Path::new("."), &[entry], true).unwrap();
    assert!(drifted.is_empty(), "{drifted:?}");
}

#[test]
fn check_mode_names_the_first_differing_line_and_writes_nothing() {
    // Byte 65 is on line 3, the table header.
    let root = corrupted_root("check", 65, b'#');
    let before = std::fs::read(root.join("results/table1.txt")).unwrap();
    let only = regen::select(&["results/table1.txt".to_string()]).unwrap();

    let drifted = regen::run(&root, &only, true).unwrap();
    assert_eq!(drifted.len(), 1, "{drifted:?}");
    assert_eq!(drifted[0].path, "results/table1.txt");
    assert!(drifted[0].detail.starts_with("line 3:"), "{drifted:?}");
    assert!(drifted[0].detail.contains('#'), "{drifted:?}");
    let after = std::fs::read(root.join("results/table1.txt")).unwrap();
    assert_eq!(before, after, "--check must write nothing");

    // Write mode repairs exactly that file, and then nothing differs.
    let repaired = regen::run(&root, &only, false).unwrap();
    assert_eq!(repaired.len(), 1);
    assert_eq!(
        std::fs::read(root.join("results/table1.txt")).unwrap(),
        std::fs::read("results/table1.txt").unwrap()
    );
    assert!(regen::run(&root, &only, true).unwrap().is_empty());
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn unknown_paths_are_rejected_with_the_manifest() {
    let err = regen::select(&["results/table3.txt".to_string()]).unwrap_err();
    assert!(err.contains("results/table3.txt"), "{err}");
    for entry in MANIFEST {
        assert!(err.contains(entry.path), "{err}");
    }
    let all = regen::select(&[]).unwrap();
    assert_eq!(all.len(), MANIFEST.len(), "no path selects every entry");
}

#[test]
fn the_cli_exits_nonzero_and_names_the_drifted_file() {
    let root = corrupted_root("cli", 300, b'!');
    let out = Command::new(env!("CARGO_BIN_EXE_stream-gpu"))
        .args(["regen", "--check", "results/table1.txt"])
        .current_dir(&root)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("results/table1.txt has drifted"),
        "{stderr}"
    );
    assert!(stderr.contains("line "), "{stderr}");
    assert!(stderr.contains("regen results/table1.txt"), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_stream-gpu"))
        .args(["regen", "--check", "results/table3.txt"])
        .current_dir(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&root).unwrap();
}
