//! A binary buddy physical-page allocator, modelled on Linux's
//! `free_area[]` design (paper §5).
//!
//! Physical memory is carved into chunks of 2^order pages. Each order has a
//! free list; allocation pops the list head, splitting a larger chunk when
//! the exact order is empty; freeing coalesces buddies back up. The AMNT++
//! modification is [`BuddyAllocator::restructure`]: at page-reclamation time
//! the free lists are reordered so chunks belonging to the most-populous
//! subtree region sit at the head — biasing future allocations into one
//! region without slowing the allocation fast path.

use amnt_nvm::FrameMap;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Maximum chunk order (Linux uses 11: 2^10 pages max with MAX_ORDER 11).
pub const MAX_ORDER: u32 = 11;

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No chunk of the requested (or any larger) order is free.
    OutOfMemory {
        /// The requested order.
        order: u32,
    },
    /// Requested order exceeds [`MAX_ORDER`].
    OrderTooLarge {
        /// The requested order.
        order: u32,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { order } => {
                write!(f, "no free chunk of order {order} or above")
            }
            AllocError::OrderTooLarge { order } => {
                write!(f, "order {order} exceeds MAX_ORDER {MAX_ORDER}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Modelled instruction costs of allocator operations (for the paper's
/// Table 2 instruction-overhead accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrModel {
    /// Fast-path instructions per allocation.
    pub alloc: u64,
    /// Instructions per chunk split.
    pub split: u64,
    /// Fast-path instructions per free.
    pub free: u64,
    /// Instructions per buddy merge.
    pub merge: u64,
    /// Instructions per chunk examined during an AMNT++ restructure scan.
    pub scan_per_chunk: u64,
}

impl Default for InstrModel {
    fn default() -> Self {
        InstrModel {
            alloc: 60,
            split: 25,
            free: 55,
            merge: 30,
            scan_per_chunk: 6,
        }
    }
}

/// The buddy allocator.
///
/// # Examples
///
/// ```
/// use amnt_os::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(1024);
/// let a = buddy.alloc_pages(0)?;
/// let b = buddy.alloc_pages(0)?;
/// assert_ne!(a, b);
/// buddy.free_pages(a);
/// buddy.free_pages(b);
/// assert_eq!(buddy.free_pages_count(), 1024);
/// # Ok::<(), amnt_os::AllocError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    total_pages: u64,
    /// `free_area[order]` = deque of chunk start PFNs.
    free_area: Vec<VecDeque<u64>>,
    /// Fast membership test: PFN -> order, for chunks on the free lists.
    free_index: HashMap<u64, u32>,
    /// Live allocations: start PFN -> order (a `u8` holds [`MAX_ORDER`]).
    allocated: FrameMap<u8>,
    instr_model: InstrModel,
    instructions: u64,
    restructures: u64,
    /// Winner region of the last restructure (hysteresis).
    last_winner: Option<u64>,
}

impl BuddyAllocator {
    /// Creates an allocator over `total_pages` pages, seeded with the
    /// largest chunks that fit.
    pub fn new(total_pages: u64) -> Self {
        let mut a = BuddyAllocator {
            total_pages,
            free_area: (0..=MAX_ORDER).map(|_| VecDeque::new()).collect(),
            free_index: HashMap::new(),
            allocated: FrameMap::default(),
            instr_model: InstrModel::default(),
            instructions: 0,
            restructures: 0,
            last_winner: None,
        };
        let mut pfn = 0;
        while pfn < total_pages {
            let mut order = MAX_ORDER;
            while order > 0 && (pfn % (1 << order) != 0 || pfn + (1 << order) > total_pages) {
                order -= 1;
            }
            a.push_free(pfn, order);
            pfn += 1 << order;
        }
        a
    }

    /// Total pages managed.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Pages currently free.
    pub fn free_pages_count(&self) -> u64 {
        self.free_area
            .iter()
            .enumerate()
            .map(|(order, list)| (list.len() as u64) << order)
            .sum()
    }

    /// Modelled instructions retired by the allocator so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// How many AMNT++ restructure passes have run.
    pub fn restructures(&self) -> u64 {
        self.restructures
    }

    fn push_free(&mut self, pfn: u64, order: u32) {
        self.free_area[order as usize].push_back(pfn);
        self.free_index.insert(pfn, order);
    }

    fn take_free(&mut self, pfn: u64, order: u32) -> bool {
        if self.free_index.get(&pfn) == Some(&order) {
            if let Some(pos) = self.free_area[order as usize]
                .iter()
                .position(|&p| p == pfn)
            {
                self.free_area[order as usize].remove(pos);
                self.free_index.remove(&pfn);
                return true;
            }
        }
        false
    }

    /// Allocates a chunk of 2^order pages; returns its first PFN.
    ///
    /// # Errors
    ///
    /// [`AllocError::OrderTooLarge`] or [`AllocError::OutOfMemory`].
    pub fn alloc_pages(&mut self, order: u32) -> Result<u64, AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        self.instructions += self.instr_model.alloc;
        // The smallest populated order >= requested.
        (order..=MAX_ORDER)
            .find(|&from| !self.free_area[from as usize].is_empty())
            .and_then(|from| self.take_head(from, order))
            .ok_or(AllocError::OutOfMemory { order })
    }

    /// Pops the head chunk of order `from`, splits it down to `order`
    /// (returning the upper halves to the free lists) and records it as
    /// allocated. `None` if that list is empty.
    fn take_head(&mut self, from: u32, order: u32) -> Option<u64> {
        let pfn = self.free_area[from as usize].pop_front()?;
        self.free_index.remove(&pfn);
        let mut cur = from;
        while cur > order {
            cur -= 1;
            self.instructions += self.instr_model.split;
            self.push_free(pfn + (1 << cur), cur);
        }
        *self.allocated.get_or_insert_default(pfn) = order as u8;
        Some(pfn)
    }

    /// Like [`Self::alloc_pages`], but prefers a chunk from
    /// `preferred_region` (as mapped by `region_of`): among the free lists
    /// at or above the requested order, the first whose *head* chunk lies in
    /// the preferred region is used; otherwise the normal lowest-order head
    /// is taken. Combined with [`Self::restructure`] (which moves the
    /// preferred region's chunks to every list head), this keeps AMNT++
    /// allocations inside one subtree region while remaining O(orders):
    /// only list heads are examined.
    ///
    /// # Errors
    ///
    /// [`AllocError::OrderTooLarge`] or [`AllocError::OutOfMemory`].
    pub fn alloc_pages_biased<F: Fn(u64) -> u64>(
        &mut self,
        order: u32,
        region_of: F,
        preferred_region: Option<u64>,
    ) -> Result<u64, AllocError> {
        if order > MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        if let Some(region) = preferred_region {
            let chosen = (order..=MAX_ORDER).find(|&from| {
                self.free_area[from as usize]
                    .front()
                    .is_some_and(|&head| region_of(head) == region)
            });
            if let Some(from) = chosen {
                self.instructions += self.instr_model.alloc;
                return self
                    .take_head(from, order)
                    .ok_or(AllocError::OutOfMemory { order });
            }
        }
        self.alloc_pages(order)
    }

    /// The winner region of the most recent [`Self::restructure`], if any.
    pub fn preferred_region(&self) -> Option<u64> {
        self.last_winner
    }

    /// Frees the chunk starting at `pfn`, coalescing buddies.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` is not the start of a live allocation (a
    /// double-free or wild free — a kernel bug in the modelled world).
    pub fn free_pages(&mut self, pfn: u64) {
        let mut order = self
            .allocated
            .remove(pfn)
            .map(u32::from)
            .unwrap_or_else(|| panic!("free of unallocated pfn {pfn}"));
        self.instructions += self.instr_model.free;
        let mut pfn = pfn;
        while order < MAX_ORDER {
            let buddy = pfn ^ (1 << order);
            if buddy + (1 << order) > self.total_pages || !self.take_free(buddy, order) {
                break;
            }
            self.instructions += self.instr_model.merge;
            pfn = pfn.min(buddy);
            order += 1;
        }
        self.push_free(pfn, order);
    }

    /// Iterates over every free chunk as `(pfn, order)`.
    pub fn free_chunks(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.free_area
            .iter()
            .enumerate()
            .flat_map(|(order, list)| list.iter().map(move |&pfn| (pfn, order as u32)))
    }

    /// The AMNT++ reclamation-time restructure (paper §5): for each order's
    /// free list, counts free chunks per subtree region (`region_of` maps a
    /// PFN to its region), picks the most-populous region, and rebuilds the
    /// list with that region's chunks at the head. Runs off the allocation
    /// critical path; its cost is charged to the instruction counter.
    pub fn restructure<F: Fn(u64) -> u64>(&mut self, region_of: F) {
        self.restructures += 1;
        // First pass (paper §5): scan every list, counting free chunks per
        // subtree region, and pick the single most-populous region.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        let mut total_chunks = 0u64;
        for list in &self.free_area {
            total_chunks += list.len() as u64;
            for &pfn in list.iter() {
                *counts.entry(region_of(pfn)).or_insert(0) += 1;
            }
        }
        self.instructions += self.instr_model.scan_per_chunk * total_chunks;
        let incumbent_count = self
            .last_winner
            .and_then(|w| counts.get(&w).copied())
            .unwrap_or(0);
        let best = match counts
            .iter()
            .max_by_key(|&(&region, &n)| (n, std::cmp::Reverse(region)))
        {
            Some((&region, &n)) => (region, n),
            None => return,
        };
        // Hysteresis: keep the incumbent winner while it still has real
        // supply, so allocations stay consolidated in one region instead of
        // ping-ponging between statistically indistinguishable candidates.
        const MIN_INCUMBENT_CHUNKS: usize = 1;
        let winner = match self.last_winner {
            Some(w) if incumbent_count >= MIN_INCUMBENT_CHUNKS => w,
            _ => best.0,
        };
        self.last_winner = Some(winner);
        // Second pass: stable-partition each list so the winner region's
        // chunks lead (built aside in a temporary biased list, then swapped
        // in — off the allocation critical path).
        for order in 0..=MAX_ORDER as usize {
            let list = &mut self.free_area[order];
            if list.len() < 2 {
                continue;
            }
            let mut biased: VecDeque<u64> = VecDeque::with_capacity(list.len());
            let mut rest: VecDeque<u64> = VecDeque::new();
            for &pfn in list.iter() {
                if region_of(pfn) == winner {
                    biased.push_back(pfn);
                } else {
                    rest.push_back(pfn);
                }
            }
            biased.append(&mut rest);
            *list = biased;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_allocator_has_everything_free() {
        let b = BuddyAllocator::new(4096);
        assert_eq!(b.free_pages_count(), 4096);
    }

    #[test]
    fn alloc_free_roundtrip_restores_capacity() {
        let mut b = BuddyAllocator::new(1024);
        let pfns: Vec<u64> = (0..100).map(|_| b.alloc_pages(0).unwrap()).collect();
        assert_eq!(b.free_pages_count(), 1024 - 100);
        for pfn in pfns {
            b.free_pages(pfn);
        }
        assert_eq!(b.free_pages_count(), 1024);
        // Full coalescing: one max-order chunk again (1024 = 2^10).
        assert_eq!(b.free_chunks().count(), 1);
    }

    #[test]
    fn allocations_are_disjoint() {
        let mut b = BuddyAllocator::new(256);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..256 {
            let pfn = b.alloc_pages(0).unwrap();
            assert!(seen.insert(pfn), "pfn {pfn} handed out twice");
        }
        assert!(matches!(
            b.alloc_pages(0),
            Err(AllocError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn higher_order_allocations_are_aligned() {
        let mut b = BuddyAllocator::new(1024);
        for order in [0u32, 1, 3, 5] {
            let pfn = b.alloc_pages(order).unwrap();
            assert_eq!(pfn % (1 << order), 0, "order-{order} chunk misaligned");
            b.free_pages(pfn);
        }
    }

    #[test]
    fn order_too_large_rejected() {
        let mut b = BuddyAllocator::new(1024);
        assert!(matches!(
            b.alloc_pages(MAX_ORDER + 1),
            Err(AllocError::OrderTooLarge { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn double_free_panics() {
        let mut b = BuddyAllocator::new(64);
        let pfn = b.alloc_pages(0).unwrap();
        b.free_pages(pfn);
        b.free_pages(pfn);
    }

    #[test]
    fn non_power_of_two_capacity_is_fully_usable() {
        let mut b = BuddyAllocator::new(1000);
        assert_eq!(b.free_pages_count(), 1000);
        let mut n = 0;
        while b.alloc_pages(0).is_ok() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn split_and_merge_cost_instructions() {
        let mut b = BuddyAllocator::new(1024);
        let before = b.instructions();
        let pfn = b.alloc_pages(0).unwrap(); // splits from order 10
        assert!(b.instructions() > before + 60);
        b.free_pages(pfn); // merges all the way back
        assert!(b.instructions() > before + 60 + 55 + 10 * 30 - 1);
    }

    #[test]
    fn restructure_biases_list_heads() {
        let mut b = BuddyAllocator::new(1024);
        // Allocate everything, then free non-buddy singles (so nothing
        // coalesces): every 4th page in most regions, every 2nd page in
        // region 3 — making region 3 the most populous at order 0.
        let region_of = |pfn: u64| pfn / 64;
        let pfns: Vec<u64> = (0..1024).map(|_| b.alloc_pages(0).unwrap()).collect();
        for &pfn in &pfns {
            let free = if region_of(pfn) == 3 {
                pfn % 2 == 0
            } else {
                pfn % 4 == 0
            };
            if free {
                b.free_pages(pfn);
            }
        }
        b.restructure(region_of);
        // Subsequent order-0 allocations must come from region 3 first.
        for _ in 0..16 {
            let pfn = b.alloc_pages(0).unwrap();
            assert_eq!(region_of(pfn), 3, "allocation not biased into region 3");
        }
        assert_eq!(b.restructures(), 1);
    }

    #[test]
    fn restructure_preserves_content() {
        let mut b = BuddyAllocator::new(512);
        let pfns: Vec<u64> = (0..512).map(|_| b.alloc_pages(0).unwrap()).collect();
        for &p in pfns.iter().step_by(3) {
            b.free_pages(p);
        }
        let before = b.free_pages_count();
        let mut chunks_before: Vec<(u64, u32)> = b.free_chunks().collect();
        b.restructure(|pfn| pfn / 128);
        assert_eq!(b.free_pages_count(), before);
        let mut chunks_after: Vec<(u64, u32)> = b.free_chunks().collect();
        chunks_before.sort_unstable();
        chunks_after.sort_unstable();
        assert_eq!(chunks_before, chunks_after, "restructure must only reorder");
    }
}
