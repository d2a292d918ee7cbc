//! The parallel experiment executor: a zero-dependency scoped-thread job
//! pool with **deterministic, index-ordered result collection**.
//!
//! Every experiment binary fans its independent simulation jobs through
//! [`run_jobs_with`], usually by way of a [`Grid`](crate::Grid) at
//! [`worker_count`] workers. Workers pull jobs from a shared atomic
//! cursor, so cores stay busy regardless of per-job runtime skew, and each
//! result lands in the output slot of its submission index — the
//! caller-visible order is a pure function of the submitted job list,
//! never of scheduling. Since every job owns its seeds and machine state,
//! `AMNT_JOBS=64` and `AMNT_JOBS=1` produce byte-identical artifacts (see
//! the determinism test in `tests/determinism.rs`).
//!
//! This module is the workspace's **only** place where threads are
//! spawned; `clippy.toml` disallows `thread::spawn`, `thread::scope` and
//! `thread::Builder` everywhere else, so all parallelism stays behind this
//! API.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for [`run_jobs_with`]: `AMNT_JOBS` if set and nonzero,
/// else the host's available parallelism. `AMNT_JOBS` is read by
/// [`count_knob`](crate::count_knob): a malformed value exits with status 2.
pub fn worker_count() -> usize {
    match crate::count_knob("AMNT_JOBS", 0, 0) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

/// Runs `jobs` on `workers` scoped threads, returning results in
/// submission order.
///
/// The worker count only changes *when* each job runs, never *what* it
/// computes or where its result lands; with `workers <= 1` the jobs run
/// inline on the calling thread. A panicking job propagates the panic to
/// the caller after the pool unwinds (experiment binaries treat a failed
/// run as fatal, exactly as the old serial loops did).
pub fn run_jobs_with<T, F>(workers: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    // Each job and each result slot is owned by exactly one worker (the one
    // that wins the `next` fetch_add for its index), so the mutexes are
    // uncontended; they exist to hand ownership across the scope safely
    // without unsafe code.
    let pending: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // The one sanctioned thread pool: results land by submission index.
    #[allow(clippy::disallowed_methods)]
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = pending[i].lock().ok().and_then(|mut g| g.take());
                if let Some(job) = job {
                    let value = job();
                    if let Ok(mut slot) = slots[i].lock() {
                        *slot = Some(value);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .ok()
                .flatten()
                .expect("every job index was claimed and completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_at_any_worker_count() {
        for workers in [1usize, 2, 3, 8, 33] {
            let jobs: Vec<_> = (0..32u64)
                .map(|i| {
                    move || {
                        // Skew job runtimes so completion order scrambles.
                        let mut acc = i;
                        for _ in 0..((i % 7) * 1000) {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        std::hint::black_box(acc);
                        i * 10
                    }
                })
                .collect();
            let out = run_jobs_with(workers, jobs);
            assert_eq!(
                out,
                (0..32u64).map(|i| i * 10).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_and_single_job_lists_work() {
        let empty: Vec<fn() -> u8> = Vec::new();
        assert!(run_jobs_with(4, empty).is_empty());
        assert_eq!(run_jobs_with(4, vec![|| 7u8]), vec![7]);
    }

    #[test]
    fn worker_count_is_at_least_one() {
        assert!(worker_count() >= 1);
    }
}
