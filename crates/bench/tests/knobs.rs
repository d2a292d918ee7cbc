//! Knob boundaries of the experiment binaries: a malformed knob stops the
//! run with status 2 and names the variable, rather than running with a
//! default.

use std::process::Command;

#[test]
fn malformed_jobs_knob_exits_2() {
    // From a temp dir with no manifest dir, a run that went ahead would
    // write its artifacts there rather than into the repository's results.
    let dir = std::env::temp_dir().join(format!("amnt-jobs-knob-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .current_dir(&dir)
        .env_remove("CARGO_MANIFEST_DIR")
        .env("AMNT_FAULT_OPS", "0")
        .env("AMNT_JOBS", "two")
        .output()
        .expect("spawn fault_sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("AMNT_JOBS"),
        "stderr does not name AMNT_JOBS: {stderr}"
    );
}
