//! Helpers shared by amnt-core's test binaries.

/// The workload size `AMNT_FAULT_OPS` sets for the crash tests. Unset runs
/// 24 ops (debug-friendly; the `fault_sweep` bench bin runs the 100-op
/// acceptance sweep). A value that is not a non-negative integer fails the
/// test with the message the `fault_sweep` bin exits on.
pub fn fault_ops() -> usize {
    let Some(v) = std::env::var_os("AMNT_FAULT_OPS") else {
        return 24;
    };
    let v = v.to_string_lossy();
    v.parse()
        .unwrap_or_else(|_| panic!("AMNT_FAULT_OPS={v:?} is not a non-negative integer"))
}
