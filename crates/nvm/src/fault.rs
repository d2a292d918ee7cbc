//! Fault injection: power failures at device-write granularity.
//!
//! A [`FaultPlan`] armed on an [`Nvm`](crate::Nvm) is consulted once per
//! *device-write ordinal* — every [`write_bytes`](crate::Nvm::write_bytes)
//! call, except that writes inside an atomic group (see
//! [`begin_atomic`](crate::Nvm::begin_atomic)) share one ordinal — and
//! decides whether the write applies, tears, or is the one the power failure
//! lands on. Once the plan cuts power, every subsequent access fails with
//! [`NvmError::PowerFailure`](crate::NvmError::PowerFailure) until
//! [`crate::Nvm::crash`] power-cycles the device; the fail-stop behaviour
//! guarantees a crashed operation cannot silently keep mutating the media.
//!
//! A plan lasts one power cycle: crash after the *k*-th device write
//! (cleanly or tearing the in-flight line), and/or drop the last *n*
//! journaled writes — the write-pending-queue tail — at the crash itself.
//! Every crash disarms it; a plan armed on the crashed device faults the
//! next power cycle's writes, recovery's among them, from ordinal 0.

/// Protocol attribution of one device write, for crash-point
/// classification. Most device writes are issued by the persistence
/// protocol in its mandated order; metadata-cache eviction writebacks are
/// not — they persist tree nodes whenever cache pressure dictates, out of
/// protocol order, which is exactly the hazard lazy (leaf-style)
/// persistence claims to bound. The controller tags each write with its
/// class (see [`crate::Nvm::set_write_class`]) so sweeps can enumerate
/// eviction-writeback crash points as their own class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WriteClass {
    /// A write issued by the persistence protocol in protocol order.
    #[default]
    Protocol,
    /// A metadata-cache eviction writeback (out of protocol order).
    Eviction,
}

/// Which half of a 64-byte line survives a torn write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornHalf {
    /// The first 32 bytes of each touched line persist; the rest keeps its
    /// previous contents.
    First,
    /// The last 32 bytes of each touched line persist.
    Last,
}

/// What the device should do with one device write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Apply the write normally.
    Apply,
    /// Apply only the surviving half of each touched 64-byte line, then cut
    /// power (the write itself reports a power failure).
    Torn(TornHalf),
    /// Cut power before the write applies; nothing persists.
    PowerOff,
}

/// How the write at the crash ordinal is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashWriteMode {
    /// The in-flight write is wholly lost.
    Clean,
    /// The in-flight write tears: the given half of each touched line lands.
    Torn(TornHalf),
}

/// One power cycle's faults (see the module docs).
///
/// Determinism contract: every decision depends only on the write ordinal,
/// never on addresses, contents, or host state, so the same workload
/// replayed against the same plan crashes at the same points with
/// byte-identical media.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash ordinal: the first `crash_after` device writes apply, then the
    /// next one is where power fails (per `mode`). `None` never cuts power —
    /// useful for counting ordinals and for pure WPQ-tail-drop crashes.
    pub crash_after: Option<u64>,
    /// Fate of the write at the crash ordinal.
    pub mode: CrashWriteMode,
    /// WPQ tail to drop when [`crate::Nvm::crash`] runs.
    pub drop_wpq_tail: usize,
}

impl FaultPlan {
    /// Never faults; just counts device-write ordinals.
    pub fn count_only() -> Self {
        FaultPlan {
            crash_after: None,
            mode: CrashWriteMode::Clean,
            drop_wpq_tail: 0,
        }
    }

    /// Power fails cleanly after `k` device writes (the `k+1`-th is lost).
    pub fn crash_after(k: u64) -> Self {
        FaultPlan {
            crash_after: Some(k),
            mode: CrashWriteMode::Clean,
            drop_wpq_tail: 0,
        }
    }

    /// Power fails after `k` device writes, tearing the `k+1`-th so only
    /// `half` of each touched 64-byte line lands.
    pub fn torn_after(k: u64, half: TornHalf) -> Self {
        FaultPlan {
            crash_after: Some(k),
            mode: CrashWriteMode::Torn(half),
            drop_wpq_tail: 0,
        }
    }

    /// Never cuts power mid-write, but drops the last `n` journaled writes
    /// when the crash comes (an ADR/flush failure).
    pub fn drop_tail(n: usize) -> Self {
        FaultPlan {
            crash_after: None,
            mode: CrashWriteMode::Clean,
            drop_wpq_tail: n,
        }
    }

    /// The fate of the write with ordinal `seq`.
    pub(crate) fn action(&self, seq: u64) -> FaultAction {
        match self.crash_after {
            Some(k) if seq > k => FaultAction::PowerOff,
            Some(k) if seq == k => match self.mode {
                CrashWriteMode::Clean => FaultAction::PowerOff,
                CrashWriteMode::Torn(half) => FaultAction::Torn(half),
            },
            _ => FaultAction::Apply,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_ordinal() {
        let p = FaultPlan::crash_after(2);
        assert_eq!(p.action(0), FaultAction::Apply);
        assert_eq!(p.action(1), FaultAction::Apply);
        assert_eq!(p.action(2), FaultAction::PowerOff);
        assert_eq!(p.action(3), FaultAction::PowerOff);
    }

    #[test]
    fn torn_plan_tears_exactly_the_crash_ordinal() {
        let p = FaultPlan::torn_after(1, TornHalf::Last);
        assert_eq!(p.action(0), FaultAction::Apply);
        assert_eq!(p.action(1), FaultAction::Torn(TornHalf::Last));
    }

    #[test]
    fn count_only_never_faults() {
        let p = FaultPlan::count_only();
        for seq in 0..1000 {
            assert_eq!(p.action(seq), FaultAction::Apply);
        }
        assert_eq!(p.drop_wpq_tail, 0);
    }

    #[test]
    fn drop_tail_reports_its_crash_faults() {
        let p = FaultPlan::drop_tail(3);
        assert_eq!(p.action(0), FaultAction::Apply);
        assert_eq!(p.drop_wpq_tail, 3);
    }
}
