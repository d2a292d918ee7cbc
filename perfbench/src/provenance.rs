//! What a run measured under: the environment guard and the settings echo.

use crate::workloads::{machine_config, protocol, secure_config, Sizes, Workload};
use amnt_core::ProtocolKind;

/// Engine knobs read from the environment by some of the engine's config
/// loaders. The benchmark builds every config itself and refuses to run
/// while any of them is set, so no stray variable changes what is measured.
pub const REFUSED_ENV: [&str; 3] = ["AMNT_VERIFY_QUEUE", "AMNT_PREFETCH", "AMNT_TRACE"];

/// The refused variables that are set.
pub fn refused_env() -> Vec<&'static str> {
    REFUSED_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// CPU features compiled in, which `-C target-cpu` would change.
fn target_features() -> String {
    let features = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("aes", cfg!(target_feature = "aes")),
        ("sha", cfg!(target_feature = "sha")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = features
        .iter()
        .filter(|(_, on)| *on)
        .map(|(f, _)| *f)
        .collect();
    if on.is_empty() {
        "baseline".into()
    } else {
        on.join(",")
    }
}

/// One line per group of effective settings for `workload`.
pub fn settings(workload: Workload, seed: u64, sizes: &Sizes) -> Vec<String> {
    let secure = secure_config(workload.capacity());
    let (level, interval, history) = match protocol() {
        ProtocolKind::Amnt(c) => (c.subtree_level, c.interval_writes, c.history_entries),
        _ => unreachable!("the benchmark runs AMNT"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustflags = env!("PERFBENCH_RUSTFLAGS");
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpus = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or("unknown", str::trim);
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online").unwrap_or_default();
    let mut lines = vec![
        format!(
            "engine: protocol={} subtree_level={level} interval_writes={interval} \
             history_entries={history} verify_queue={} prefetch={} \
             trusted_ancestor_caching={} parallel_path_fetch={}",
            protocol().name(),
            secure.verify_queue,
            if secure.subtree_prefetch { "on" } else { "off" },
            secure.trusted_ancestor_caching,
            secure.parallel_path_fetch,
        ),
        format!(
            "capacity: data={} B metadata_cache={} B/{}-way pcm_read={} pcm_write={} \
             hash={} cycles wpq={}x{}",
            secure.data_capacity,
            secure.metadata_cache.size_bytes,
            secure.metadata_cache.ways,
            secure.timing.pcm_read,
            secure.timing.pcm_write,
            secure.timing.hash,
            secure.write_queue.banks,
            secure.write_queue.depth,
        ),
    ];
    if workload == Workload::SimXz {
        let m = machine_config(false);
        lines.push(format!(
            "machine: cores={} l1d={} B l2={} B l3=none alloc=standard aging=none",
            m.cores, m.l1d.size_bytes, m.l2.size_bytes
        ));
    }
    lines.push(format!("sizes: {sizes:?}"));
    lines.push(format!(
        "host: seed={seed} nproc={nproc} cpus_allowed={cpus} cpus_online={} profile={} \
         target_features={} rustflags=[{}]",
        online.trim(),
        env!("PERFBENCH_PROFILE"),
        target_features(),
        if rustflags.is_empty() {
            "none"
        } else {
            rustflags
        },
    ));
    lines
}

/// The process's peak resident set (`VmHWM`) in megabytes; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
