//! Controller configuration (the paper's Table 1 defaults).

use amnt_cache::CacheConfig;

/// Latency parameters, in core cycles, for the secure-memory engine.
///
/// Defaults assume a 2 GHz core and the paper's DDR-based PCM timings
/// (305 ns read / 391 ns write — Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTiming {
    /// PCM media read latency.
    pub pcm_read: u64,
    /// PCM media write latency.
    pub pcm_write: u64,
    /// Metadata cache access latency (Table 1: 2 cycles).
    pub metadata_cache: u64,
    /// One HMAC computation through the (pipelined) hash engine.
    pub hash: u64,
    /// AES pad generation latency (overlapped with the data fetch).
    pub aes: u64,
}

impl Default for MemTiming {
    fn default() -> Self {
        MemTiming {
            pcm_read: 610,
            pcm_write: 782,
            metadata_cache: 2,
            hash: 40,
            aes: 24,
        }
    }
}

/// Memory-controller write-path model: banked media with a bounded persist
/// queue. Bank conflicts delay accesses; a full queue back-pressures the
/// core. This is what makes write-through persistence protocols expensive
/// for write-intensive workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteQueueConfig {
    /// Independent PCM banks (accesses to different banks overlap).
    pub banks: usize,
    /// Maximum in-flight writes before the controller stalls the core.
    pub depth: usize,
}

impl Default for WriteQueueConfig {
    fn default() -> Self {
        WriteQueueConfig {
            banks: 8,
            depth: 32,
        }
    }
}

/// Full secure-memory configuration.
///
/// # Examples
///
/// ```
/// use amnt_core::SecureMemoryConfig;
///
/// let cfg = SecureMemoryConfig::paper_default();
/// assert_eq!(cfg.metadata_cache.size_bytes, 64 * 1024);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SecureMemoryConfig {
    /// Bytes of protected data (the BMT is sized from this).
    pub data_capacity: u64,
    /// Metadata cache geometry (Table 1: 64 kB).
    pub metadata_cache: CacheConfig,
    /// Latency parameters.
    pub timing: MemTiming,
    /// Write-path model.
    pub write_queue: WriteQueueConfig,
    /// Whether metadata-cache-resident nodes act as roots of trust,
    /// terminating verification walks early (the standard optimisation,
    /// paper §2.1). Disable to measure its value: every verification then
    /// walks to an on-chip register.
    pub trusted_ancestor_caching: bool,
    /// Whether a verification walk's node fetches issue in parallel (their
    /// addresses are all known up front; only the hash chain is dependent).
    /// Off by default: the serialized model matches miss-handling-limited
    /// hardware and the paper's sensitivity to metadata fetch counts.
    pub parallel_path_fetch: bool,
    /// On-chip encryption key for counter-mode encryption.
    pub encryption_key: [u8; 16],
    /// On-chip integrity (HMAC) key.
    pub integrity_key: [u8; 32],
    /// Capacity of the lazy MAC-verify queue: leaf (data-MAC) checks are
    /// deferred and drained in batches through the multi-lane hash engine
    /// ([`amnt_crypto::mac64_batch`]). `0` verifies eagerly (the scalar
    /// path). The queue is always flushed before any commit, crash
    /// classification, or epoch boundary — no unverified read can influence
    /// persisted state — and it is a *host-side* batching optimisation:
    /// simulated timing, stats, and artifacts are byte-identical at any
    /// queue depth (pinned by the bench determinism test).
    pub verify_queue: usize,
    /// Prefetch the next sequential block's counter and HMAC lines (and,
    /// transitively, their subtree path into the trusted-ancestor cache) on
    /// detected sequential access. Off by default: prefetching perturbs
    /// metadata-cache contents and therefore simulated artifacts; it is an
    /// opt-in study knob that only code setting this field turns on.
    pub subtree_prefetch: bool,
}

impl SecureMemoryConfig {
    /// The paper's Table 1 configuration with an 8 GiB PCM device.
    pub fn paper_default() -> Self {
        Self::with_capacity(8 * 1024 * 1024 * 1024)
    }

    /// Table 1 parameters over `data_capacity` bytes of protected data
    /// (useful for fast small-memory tests).
    pub fn with_capacity(data_capacity: u64) -> Self {
        SecureMemoryConfig {
            data_capacity,
            metadata_cache: CacheConfig::new(64 * 1024, 8, 64),
            timing: MemTiming::default(),
            write_queue: WriteQueueConfig::default(),
            trusted_ancestor_caching: true,
            parallel_path_fetch: false,
            encryption_key: *b"midsummer-ctr-k!",
            integrity_key: *b"midsummer-integrity-hmac-key-32b",
            verify_queue: 8,
            subtree_prefetch: false,
        }
    }

    /// Shrinks the metadata cache (stress configurations / tests).
    pub fn with_metadata_cache_bytes(mut self, bytes: usize) -> Self {
        self.metadata_cache = CacheConfig::new(bytes, 8.min(bytes / 64), 64);
        self
    }
}
