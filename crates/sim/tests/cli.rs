//! The `simulate` command line reports I/O failures instead of panicking:
//! it names the path on stderr and exits with status 2, as it does for
//! bad arguments. Its output depends on its arguments alone, never on the
//! environment.

use std::process::{Command, Output};

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .output()
        .expect("spawn simulate")
}

fn assert_rejected(out: &Output, path: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains(path),
        "stderr does not name {path}: {stderr}"
    );
}

#[test]
fn unwritable_trace_path_exits_2() {
    let path = "/nonexistent/dir/x.trace";
    let out = simulate(&[
        "--bench",
        "xz",
        "--accesses",
        "100",
        "--warmup",
        "10",
        "--record",
        path,
    ]);
    assert_rejected(&out, path);
}

#[test]
fn unwritable_stats_path_exits_2() {
    let path = "/nonexistent/dir/stats.txt";
    let out = simulate(&[
        "--bench",
        "xz",
        "--accesses",
        "2000",
        "--warmup",
        "200",
        "--stats-out",
        path,
    ]);
    assert_rejected(&out, path);
    // The run itself completed and reported before the write failed.
    assert!(String::from_utf8_lossy(&out.stdout).contains("cycles/access"));
}

#[test]
fn output_ignores_the_environment() {
    let args = ["--bench", "lbm", "--accesses", "2000", "--warmup", "200"];
    let run = |set: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_simulate"));
        cmd.args(args)
            .env_remove("AMNT_PREFETCH")
            .env_remove("AMNT_VERIFY_QUEUE");
        if set {
            cmd.env("AMNT_PREFETCH", "1").env("AMNT_VERIFY_QUEUE", "0");
        }
        let out = cmd.output().expect("spawn simulate");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let plain = run(false);
    assert!(plain.contains("cycles/access"), "{plain}");
    assert_eq!(run(true), plain);
}
