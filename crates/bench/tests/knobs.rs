//! Knob boundaries of the experiment binaries: a malformed knob, or an
//! `AMNT_*` name that is no knob, stops the run with status 2 and names
//! the variable, rather than running with a default.

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

#[test]
fn misspelt_knob_exits_2_and_names_the_nearest_knob() {
    // `AMNT_FAULT_OP=10` used to be ignored, running the default sweep.
    let dir = std::env::temp_dir().join(format!("amnt-knob-name-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fault_sweep"))
        .current_dir(&dir)
        .env_remove("CARGO_MANIFEST_DIR")
        .env("AMNT_FAULT_OP", "10")
        .output()
        .expect("spawn fault_sweep");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("AMNT_FAULT_OP is not a knob") && stderr.contains("AMNT_FAULT_OPS"),
        "stderr does not name the unknown knob and AMNT_FAULT_OPS: {stderr}"
    );
}
