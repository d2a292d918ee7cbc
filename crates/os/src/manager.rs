//! Virtual memory management: per-process page tables with on-demand
//! physical allocation, page reclamation, system aging (fragmentation), and
//! the AMNT++ allocation policy.

use crate::buddy::{AllocError, BuddyAllocator};
use amnt_nvm::FrameMap;
use amnt_prng::Rng;
use std::collections::HashMap;

/// Bytes per page.
pub const PAGE_SIZE: u64 = 4096;

/// Physical page allocation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// The stock buddy allocator.
    Standard,
    /// AMNT++ (paper §5): reclamation-time free-list restructuring that
    /// biases allocations into the most-populous subtree region.
    AmntPlus {
        /// Pages covered by one subtree region (`coverage_bytes / 4096`).
        pages_per_region: u64,
        /// Frees between restructure passes (reclamation batching).
        restructure_period: u64,
    },
}

/// A process identifier.
pub type Pid = u32;

/// The machine's physical memory manager.
///
/// # Examples
///
/// ```
/// use amnt_os::{AllocPolicy, MemoryManager};
///
/// let mut mm = MemoryManager::new(1024, AllocPolicy::Standard);
/// let pa = mm.translate(1, 0x1234)?;
/// assert_eq!(pa % 4096, 0x234);
/// // Same page translates stably.
/// assert_eq!(mm.translate(1, 0x1000)?, pa - 0x234);
/// # Ok::<(), amnt_os::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryManager {
    buddy: BuddyAllocator,
    policy: AllocPolicy,
    /// Per process, virtual page number -> physical frame number.
    page_tables: HashMap<Pid, FrameMap<u64>>,
    frees_since_restructure: u64,
}

impl MemoryManager {
    /// Creates a manager over `total_pages` physical pages.
    pub fn new(total_pages: u64, policy: AllocPolicy) -> Self {
        MemoryManager {
            buddy: BuddyAllocator::new(total_pages),
            policy,
            page_tables: HashMap::new(),
            frees_since_restructure: 0,
        }
    }

    /// The active allocation policy.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Modelled OS instructions retired by the allocator (Table 2).
    pub fn instructions(&self) -> u64 {
        self.buddy.instructions()
    }

    /// AMNT++ restructure passes run so far.
    pub fn restructures(&self) -> u64 {
        self.buddy.restructures()
    }

    /// Free physical pages remaining.
    pub fn free_pages(&self) -> u64 {
        self.buddy.free_pages_count()
    }

    /// Translates `(pid, vaddr)` to a physical address, allocating the page
    /// on first touch.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when physical memory is exhausted.
    pub fn translate(&mut self, pid: Pid, vaddr: u64) -> Result<u64, AllocError> {
        let vpn = vaddr / PAGE_SIZE;
        let table = self.page_tables.entry(pid).or_default();
        if let Some(&pfn) = table.get(vpn) {
            return Ok(pfn * PAGE_SIZE + vaddr % PAGE_SIZE);
        }
        let pfn = match self.policy {
            AllocPolicy::Standard => self.buddy.alloc_pages(0)?,
            AllocPolicy::AmntPlus {
                pages_per_region, ..
            } => {
                let preferred = self.buddy.preferred_region();
                self.buddy
                    .alloc_pages_biased(0, |p| p / pages_per_region, preferred)?
            }
        };
        *self
            .page_tables
            .get_mut(&pid)
            .expect("created above")
            .get_or_insert_default(vpn) = pfn;
        Ok(pfn * PAGE_SIZE + vaddr % PAGE_SIZE)
    }

    /// Physical pages resident for `pid`.
    pub fn resident_pages(&self, pid: Pid) -> usize {
        self.page_tables.get(&pid).map_or(0, |t| t.len())
    }

    /// The physical frame numbers resident for `pid`, ascending
    /// (diagnostics).
    pub fn resident_frames(&self, pid: Pid) -> Vec<u64> {
        let mut frames: Vec<u64> = self
            .page_tables
            .get(&pid)
            .map(|t| t.iter().map(|(_, &pfn)| pfn).collect())
            .unwrap_or_default();
        frames.sort_unstable();
        frames
    }

    /// Unmaps one virtual page, reclaiming its frame.
    pub fn unmap(&mut self, pid: Pid, vpn: u64) {
        if let Some(pfn) = self.page_tables.get_mut(&pid).and_then(|t| t.remove(vpn)) {
            self.reclaim(pfn);
        }
    }

    /// Tears down a process, reclaiming every frame in ascending virtual
    /// page order. The buddy free lists are LIFO, so the release order
    /// decides every later allocation.
    pub fn release_process(&mut self, pid: Pid) {
        if let Some(table) = self.page_tables.remove(&pid) {
            for (_, &pfn) in table.iter() {
                self.reclaim(pfn);
            }
        }
    }

    /// Runs the AMNT++ restructure immediately (no-op under the standard
    /// policy). On a long-running AMNT++ machine the free lists are already
    /// biased when a process launches; callers invoke this after aging.
    pub fn restructure_now(&mut self) {
        if let AllocPolicy::AmntPlus {
            pages_per_region, ..
        } = self.policy
        {
            self.buddy.restructure(|p| p / pages_per_region);
        }
    }

    /// Frees `pfn` and runs the AMNT++ restructure on the configured
    /// reclamation cadence (off the allocation critical path, §5).
    fn reclaim(&mut self, pfn: u64) {
        self.buddy.free_pages(pfn);
        if let AllocPolicy::AmntPlus {
            pages_per_region,
            restructure_period,
        } = self.policy
        {
            self.frees_since_restructure += 1;
            if self.frees_since_restructure >= restructure_period {
                self.frees_since_restructure = 0;
                self.buddy.restructure(|p| p / pages_per_region);
            }
        }
    }

    /// Ages the system: allocates `occupancy` of all pages to a background
    /// "boot + daemons" process, then frees a random `churn` fraction of
    /// them. The release order is only *locally* shuffled (within 8 MiB
    /// windows): Linux free lists stay roughly address-ordered at large
    /// scale, so future allocations remain compact while being fragmented
    /// and interleaved at page granularity — the environment AMNT++'s
    /// reordering targets.
    pub fn age(&mut self, seed: u64, occupancy: f64, churn: f64) {
        const SHUFFLE_WINDOW: usize = 2048; // pages: 8 MiB

        // Survivors (the "daemons") hold *clustered* runs of pages — long-
        // lived kernel and daemon memory is contiguous-ish — so the released
        // remainder coalesces into sizable chunks instead of isolated
        // singles (which would otherwise dominate the order-0 lists and
        // scatter every later allocation across the whole aged zone).
        const SURVIVOR_RUN: u64 = 16; // pages: 64 KiB clusters
        let total = self.buddy.total_pages();
        let mut left = ((total as f64) * occupancy.clamp(0.0, 1.0)) as u64;
        let churn = churn.clamp(0.0, 1.0);
        let mut rng = Rng::seed_from_u64(seed);
        // Each run's fate is drawn as soon as it is allocated, so survivors
        // go straight to the background map and only released pages are
        // kept. Nothing is freed until every page is allocated.
        let mut release = Vec::new();
        let mut background = FrameMap::default();
        let mut run = Vec::with_capacity(SURVIVOR_RUN as usize);
        while left > 0 {
            let want = left.min(SURVIVOR_RUN);
            run.clear();
            run.extend((0..want).map_while(|_| self.buddy.alloc_pages(0).ok()));
            if run.is_empty() {
                break;
            }
            if rng.gen_bool(churn) {
                release.extend_from_slice(&run);
            } else {
                for &pfn in &run {
                    *background.get_or_insert_default(background.len() as u64) = pfn;
                }
            }
            if (run.len() as u64) < want {
                break; // memory ran out inside this run
            }
            left -= want;
        }
        for window in release.chunks_mut(SHUFFLE_WINDOW) {
            rng.shuffle(window);
        }
        for pfn in release {
            // Aging happens before measurement: free directly, without
            // charging AMNT++ restructures for boot-time churn.
            self.buddy.free_pages(pfn);
        }
        // Pin the remainder under a reserved pid so it stays resident.
        self.page_tables.insert(Pid::MAX, background);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_is_stable_per_page() {
        let mut mm = MemoryManager::new(256, AllocPolicy::Standard);
        let a = mm.translate(1, 0x1000).unwrap();
        let b = mm.translate(1, 0x1FFF).unwrap();
        assert_eq!(a / PAGE_SIZE, b / PAGE_SIZE);
        assert_eq!(b % PAGE_SIZE, 0xFFF);
    }

    #[test]
    fn processes_have_disjoint_frames() {
        let mut mm = MemoryManager::new(256, AllocPolicy::Standard);
        let a = mm.translate(1, 0x1000).unwrap();
        let b = mm.translate(2, 0x1000).unwrap();
        assert_ne!(a / PAGE_SIZE, b / PAGE_SIZE, "same vaddr, different pid");
    }

    #[test]
    fn unmap_then_retranslate_may_move() {
        let mut mm = MemoryManager::new(256, AllocPolicy::Standard);
        let a = mm.translate(1, 0).unwrap();
        mm.unmap(1, 0);
        assert_eq!(mm.resident_pages(1), 0);
        let _b = mm.translate(1, 0).unwrap();
        assert_eq!(mm.resident_pages(1), 1);
        let _ = a;
    }

    #[test]
    fn release_process_returns_frames() {
        let mut mm = MemoryManager::new(64, AllocPolicy::Standard);
        for vpn in 0..64u64 {
            mm.translate(7, vpn * PAGE_SIZE).unwrap();
        }
        assert!(mm.translate(8, 0).is_err());
        mm.release_process(7);
        assert!(mm.translate(8, 0).is_ok());
    }

    #[test]
    fn release_order_repeats_across_runs() {
        // Identical histories release in the same (ascending virtual page)
        // order, so every later allocation repeats too.
        let run = || {
            let mut mm = MemoryManager::new(4096, AllocPolicy::Standard);
            for page in 0..1000u64 {
                mm.translate(7, page * PAGE_SIZE).unwrap();
                mm.translate(8, page * PAGE_SIZE).unwrap();
            }
            let resident = mm.resident_frames(7);
            mm.release_process(7);
            let next: Vec<u64> = (0..1000u64)
                .map(|page| mm.translate(9, page * PAGE_SIZE).unwrap())
                .collect();
            (resident, next)
        };
        let (resident, next) = run();
        assert!(
            resident.windows(2).all(|w| w[0] < w[1]),
            "resident frames ascend"
        );
        assert_eq!((resident, next), run());
    }

    #[test]
    fn aging_fragments_the_free_lists() {
        let mut mm = MemoryManager::new(4096, AllocPolicy::Standard);
        mm.age(42, 0.9, 0.5);
        let free = mm.free_pages();
        assert!(free > 1500 && free < 2600, "free {free}");
        // The survivors' clustered runs pin holes through the zone, so free
        // memory cannot fully coalesce: many mid-order chunks remain.
        let chunks: Vec<(u64, u32)> = {
            // Borrow the buddy through a fresh scan of allocations.
            let mut mm2 = MemoryManager::new(4096, AllocPolicy::Standard);
            mm2.age(42, 0.9, 0.5);
            let mut got = Vec::new();
            while let Ok(pfn) = mm2.translate(9, got.len() as u64 * PAGE_SIZE) {
                got.push(pfn);
                if got.len() > 4096 {
                    break;
                }
            }
            got.iter().map(|&p| (p, 0)).collect()
        };
        // Allocation order jumps around the aged zone (window shuffling):
        // the first 64 frames are not one ascending run.
        let frames: Vec<u64> = chunks
            .iter()
            .take(64)
            .map(|&(p, _)| p / PAGE_SIZE)
            .collect();
        let ascending_run = frames.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(
            !ascending_run,
            "aged allocator handed out one perfect run: {frames:?}"
        );
    }

    #[test]
    fn amnt_plus_consolidates_allocations_into_regions() {
        let pages_per_region = 256;
        let run = |policy: AllocPolicy| {
            let mut mm = MemoryManager::new(8192, policy);
            mm.age(7, 0.9, 0.5);
            // Churn phase: reclamation traffic triggers the AMNT++
            // restructure passes.
            for i in 0..200u64 {
                mm.translate(3, i * PAGE_SIZE).unwrap();
            }
            for i in 0..200u64 {
                mm.unmap(3, i);
            }
            // Measurement phase: interleaved multiprogram allocation. The
            // bias holds while the winner region still has free chunks, so
            // measure a window smaller than one region's free supply.
            let mut regions = std::collections::HashSet::new();
            for i in 0..40u64 {
                let pid = (i % 2) as Pid + 1;
                let pa = mm.translate(pid, i / 2 * PAGE_SIZE).unwrap();
                regions.insert(pa / PAGE_SIZE / pages_per_region);
            }
            regions.len()
        };
        let standard = run(AllocPolicy::Standard);
        let biased = run(AllocPolicy::AmntPlus {
            pages_per_region,
            restructure_period: 16,
        });
        assert!(
            biased < standard,
            "AMNT++ should span fewer regions: {biased} vs {standard}"
        );
    }

    #[test]
    fn amnt_plus_costs_instructions() {
        let mut std_mm = MemoryManager::new(2048, AllocPolicy::Standard);
        let mut pp = MemoryManager::new(
            2048,
            AllocPolicy::AmntPlus {
                pages_per_region: 128,
                restructure_period: 4,
            },
        );
        for mm in [&mut std_mm, &mut pp] {
            mm.age(3, 0.8, 0.5);
            for i in 0..200u64 {
                mm.translate(1, i * PAGE_SIZE).unwrap();
                if i % 3 == 0 {
                    mm.unmap(1, i);
                }
            }
        }
        assert!(pp.instructions() > std_mm.instructions());
        assert!(pp.restructures() > 0);
        // The overhead stays small relative to total allocator work
        // (Table 2 reports ~1-2% of *application* instructions; here we
        // only check it is a modest multiple of the allocator baseline).
        assert!(pp.instructions() < std_mm.instructions() * 4);
    }

    /// Aging as first written: allocate every page, then draw each 16-page
    /// run's fate over the whole list. [`MemoryManager::age`] streams the
    /// same draws and must leave the same machine behind.
    fn age_allocating_everything_first(
        mm: &mut MemoryManager,
        seed: u64,
        occupancy: f64,
        churn: f64,
    ) {
        let take = ((mm.buddy.total_pages() as f64) * occupancy) as u64;
        let mut rng = Rng::seed_from_u64(seed);
        let held: Vec<u64> = (0..take)
            .map_while(|_| mm.buddy.alloc_pages(0).ok())
            .collect();
        let mut release = Vec::new();
        let mut background = FrameMap::default();
        for run in held.chunks(16) {
            if rng.gen_bool(churn) {
                release.extend_from_slice(run);
            } else {
                for &pfn in run {
                    *background.get_or_insert_default(background.len() as u64) = pfn;
                }
            }
        }
        for window in release.chunks_mut(2048) {
            rng.shuffle(window);
        }
        for pfn in release {
            mm.buddy.free_pages(pfn);
        }
        mm.page_tables.insert(Pid::MAX, background);
    }

    #[test]
    fn streaming_aging_matches_allocating_everything_first() {
        // (pages, pages mapped before aging, occupancy, churn): partial
        // last runs, memory running out inside a run, and both extremes of
        // churn.
        for (pages, premapped, occupancy, churn) in [
            (4096, 0, 0.9, 0.5),
            (4099, 0, 0.8, 0.6),
            (5000, 7, 1.0, 0.3),
            (8192, 0, 0.37, 1.0),
            (512, 3, 0.5, 0.0),
        ] {
            let aged = |streaming: bool| {
                let mut mm = MemoryManager::new(pages, AllocPolicy::Standard);
                for page in 0..premapped {
                    mm.translate(1, page * PAGE_SIZE).unwrap();
                }
                if streaming {
                    mm.age(11, occupancy, churn);
                } else {
                    age_allocating_everything_first(&mut mm, 11, occupancy, churn);
                }
                let background: Vec<(u64, u64)> = mm.page_tables[&Pid::MAX]
                    .iter()
                    .map(|(vpn, &pfn)| (vpn, pfn))
                    .collect();
                // Every later allocation, until memory runs out.
                let next: Vec<u64> = (0..)
                    .map_while(|page| mm.translate(2, page * PAGE_SIZE).ok())
                    .collect();
                (background, next)
            };
            let (background, next) = aged(true);
            assert!(!next.is_empty());
            assert_eq!(
                (background, next),
                aged(false),
                "{pages} pages, {premapped} premapped, occupancy {occupancy}, churn {churn}"
            );
        }
    }
}
