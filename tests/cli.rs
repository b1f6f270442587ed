//! The `stream-gpu` command line rejects what it cannot parse before it
//! starts any work.

use std::process::Command;

#[test]
fn fleet_chaos_rejects_a_malformed_seed_with_the_usage_text() {
    let dir = std::env::temp_dir().join(format!("stream_gpu_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for seed in ["0xF1EE70OB", "4058935307x", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_stream-gpu"))
            .args(["fleet-chaos", "--seed", seed, "--devices", "4"])
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--seed {seed:?}: {stderr}");
        assert!(
            stderr.contains("bad fleet-chaos argument --seed"),
            "{stderr}"
        );
        assert!(stderr.contains("USAGE:"), "{stderr}");
        assert!(stderr.contains("0x hex"), "{stderr}");
    }
    assert!(
        !dir.join("FLEET_chaos.json").exists(),
        "a rejected command line must not start a run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
