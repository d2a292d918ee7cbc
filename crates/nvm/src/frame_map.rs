//! An ordered sparse map over frame indices, stored in 64-slot groups.
//!
//! The device stores a touched frame's written lines, the controller's wear
//! ledger counts writes per frame, and the OS model maps a process's
//! virtual page numbers to physical frames and records each allocated
//! chunk's order by its first frame. All are sparse over memory of up to
//! terabytes, and all are enumerated in ascending order. A map with one
//! B-tree entry per frame would pay a share of a node per frame; a
//! [`FrameMap`] keeps one entry per 64 consecutive frames, a presence mask
//! plus the present values in frame order, with no spare capacity. A
//! frame's 64 lines have the same shape one level down, so [`Slots`] stores
//! both.

use std::collections::BTreeMap;
use std::ops::Range;

/// Slots per group: one bit of a `u64` mask each.
const GROUP: u64 = u64::BITS as u64;

/// Bit `index` of a `u64` mask (`index < 64`).
fn bit(index: u32) -> u64 {
    1u64.wrapping_shl(index)
}

/// Up to 64 values at slot indices `0..64`, stored without slack: bit `i`
/// of `present` is set once slot `i` holds a value, and `values` holds the
/// present values in slot order, exactly one per set bit.
#[derive(Debug, Clone)]
pub(crate) struct Slots<T> {
    present: u64,
    values: Box<[T]>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            present: 0,
            values: Box::default(),
        }
    }
}

impl<T> Slots<T> {
    /// Position in `values` that slot `index` has, or would have once
    /// filled: the number of present slots below it.
    fn rank(&self, index: u32) -> usize {
        (self.present & bit(index).wrapping_sub(1)).count_ones() as usize
    }

    /// Whether slot `index` holds a value.
    pub(crate) fn contains(&self, index: u32) -> bool {
        self.present & bit(index) != 0
    }

    /// The value in slot `index`, if present.
    pub(crate) fn get(&self, index: u32) -> Option<&T> {
        if !self.contains(index) {
            return None;
        }
        self.values.get(self.rank(index))
    }

    /// The value in slot `index`, filled with `fill()` first if the slot is
    /// empty. A fill grows the storage by exactly one value, moving at most
    /// the 63 others.
    pub(crate) fn get_or_insert_with(&mut self, index: u32, fill: impl FnOnce() -> T) -> &mut T {
        let rank = self.rank(index);
        if !self.contains(index) {
            let mut values = std::mem::take(&mut self.values).into_vec();
            values.reserve_exact(1);
            values.insert(rank, fill());
            self.values = values.into_boxed_slice();
            self.present |= bit(index);
        }
        // A present slot ranks below the number of present values.
        debug_assert!(rank < self.values.len());
        &mut self.values[rank]
    }

    /// Empties slot `index`, returning its value if it held one. The
    /// storage shrinks by exactly that value, moving at most the 63 others.
    pub(crate) fn remove(&mut self, index: u32) -> Option<T> {
        if !self.contains(index) {
            return None;
        }
        let rank = self.rank(index);
        let mut values = std::mem::take(&mut self.values).into_vec();
        // A present slot ranks below the number of present values.
        debug_assert!(rank < values.len());
        let value = values.remove(rank);
        self.values = values.into_boxed_slice();
        self.present &= !bit(index);
        Some(value)
    }

    /// Whether `values` holds exactly one value per present slot.
    #[cfg(test)]
    pub(crate) fn fits(&self) -> bool {
        self.values.len() == self.present.count_ones() as usize
    }

    /// Present `(slot index, value)` pairs in ascending slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let mut rest = self.present;
        self.values.iter().map(move |value| {
            let index = rest.trailing_zeros();
            rest &= rest.wrapping_sub(1);
            (index, value)
        })
    }
}

/// An ordered sparse map from frame index to `T`.
///
/// Each B-tree entry covers the 64 frames `64 * g .. 64 * g + 64` and holds
/// only the frames present among them, so a run of touched frames costs one
/// entry, and a lookup searches up to 64 times fewer entries than a map with
/// one entry per frame. Enumeration is in ascending frame order regardless
/// of insertion order.
///
/// ```
/// use amnt_nvm::FrameMap;
///
/// let mut wear: FrameMap<u64> = FrameMap::default();
/// *wear.get_or_insert_default(70) += 2;
/// *wear.get_or_insert_default(3) += 1;
/// assert_eq!(wear.get(70), Some(&2));
/// assert_eq!(wear.iter().collect::<Vec<_>>(), [(3, &1), (70, &2)]);
/// assert_eq!(wear.range(4..71).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FrameMap<T> {
    groups: BTreeMap<u64, Slots<T>>,
    len: usize,
}

impl<T> Default for FrameMap<T> {
    fn default() -> Self {
        FrameMap {
            groups: BTreeMap::new(),
            len: 0,
        }
    }
}

/// The group key and the slot within its group of frame `index`.
fn split(index: u64) -> (u64, u32) {
    (index / GROUP, (index % GROUP) as u32)
}

/// Flattens `(group key, group)` entries into `(frame index, value)` pairs.
fn frames<'a, T: 'a>(
    groups: impl Iterator<Item = (&'a u64, &'a Slots<T>)>,
) -> impl Iterator<Item = (u64, &'a T)> {
    groups.flat_map(|(&group, slots)| {
        slots
            .iter()
            .map(move |(slot, value)| (group * GROUP + u64::from(slot), value))
    })
}

impl<T> FrameMap<T> {
    /// Number of frames present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no frame is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether frame `index` is present.
    pub fn contains(&self, index: u64) -> bool {
        let (group, slot) = split(index);
        self.groups
            .get(&group)
            .is_some_and(|slots| slots.contains(slot))
    }

    /// Frame `index`'s value, if present.
    pub fn get(&self, index: u64) -> Option<&T> {
        let (group, slot) = split(index);
        self.groups.get(&group).and_then(|slots| slots.get(slot))
    }

    /// Frame `index`'s value, inserted as `T::default()` first if absent.
    pub fn get_or_insert_default(&mut self, index: u64) -> &mut T
    where
        T: Default,
    {
        let (group, slot) = split(index);
        let slots = self.groups.entry(group).or_default();
        if !slots.contains(slot) {
            self.len += 1;
        }
        slots.get_or_insert_with(slot, T::default)
    }

    /// Removes frame `index`, returning its value if it was present. Its
    /// group shrinks to fit the frames left, and a group left empty is
    /// dropped.
    pub fn remove(&mut self, index: u64) -> Option<T> {
        let (group, slot) = split(index);
        let slots = self.groups.get_mut(&group)?;
        let value = slots.remove(slot)?;
        if slots.present == 0 {
            self.groups.remove(&group);
        }
        self.len -= 1;
        Some(value)
    }

    /// Present `(frame index, value)` pairs in ascending frame order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        frames(self.groups.iter())
    }

    /// Present `(frame index, value)` pairs with the index in `range`, in
    /// ascending frame order. An empty or reversed range yields nothing.
    pub fn range(&self, range: Range<u64>) -> impl Iterator<Item = (u64, &T)> + '_ {
        let groups = if range.is_empty() {
            0..0
        } else {
            range.start / GROUP..(range.end - 1) / GROUP + 1
        };
        frames(self.groups.range(groups)).filter(move |(index, _)| range.contains(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnt_prng::Rng;

    /// Frame indices on group boundaries, the top frame of a 2 TiB device
    /// and the top frame of the 64-bit address space.
    const EDGES: [u64; 8] = [0, 63, 64, 65, 127, 128, (1 << 29) - 1, u64::MAX / 4096];

    fn draw_index(rng: &mut Rng) -> u64 {
        let edge = EDGES[rng.gen_range_usize(0..EDGES.len())];
        match rng.gen_range(0..4) {
            0 => edge,
            1 => edge
                .saturating_add(rng.gen_range(0..3))
                .saturating_sub(rng.gen_range(0..3)),
            2 => rng.gen_range(0..512),
            _ => rng.gen_range(0..1 << 29),
        }
    }

    /// A range that is empty, reversed, inside one group, or across groups.
    fn draw_range(rng: &mut Rng) -> Range<u64> {
        let a = draw_index(rng);
        match rng.gen_range(0..4) {
            0 => a..a,
            1 => a..a.saturating_sub(rng.gen_range(1..100)),
            2 => {
                let base = a / GROUP * GROUP;
                let lo = base + rng.gen_range(0..GROUP);
                lo..base + rng.gen_range(lo - base..GROUP + 1)
            }
            _ => a..a.saturating_add(rng.gen_range(GROUP..GROUP * 8)),
        }
    }

    /// Checks every observable of `map` against `reference`.
    fn check(map: &FrameMap<u64>, reference: &BTreeMap<u64, u64>, rng: &mut Rng, step: &str) {
        assert_eq!(
            (map.len(), map.is_empty()),
            (reference.len(), reference.is_empty()),
            "{step}"
        );
        assert!(
            map.iter()
                .map(|(i, &v)| (i, v))
                .eq(reference.iter().map(|(&i, &v)| (i, v))),
            "{step}: iter"
        );
        for (group, slots) in &map.groups {
            assert!(slots.fits(), "{step}: group {group} fit");
            assert_ne!(slots.present, 0, "{step}: group {group} left empty");
        }
        for _ in 0..4 {
            let range = draw_range(rng);
            let want = reference
                .iter()
                .filter(|(i, _)| range.contains(i))
                .map(|(&i, &v)| (i, v));
            assert!(
                map.range(range.clone()).map(|(i, &v)| (i, v)).eq(want),
                "{step}: range {range:?}"
            );
        }
    }

    #[test]
    fn frame_map_matches_a_btree_map_reference() {
        let mut rng = Rng::seed_from_u64(0xF4A3E);
        for round in 0..8 {
            let mut map = FrameMap::default();
            let mut reference = BTreeMap::new();
            for op in 0..400 {
                let step = format!("round {round} op {op}");
                let index = draw_index(&mut rng);
                match rng.gen_range(0..4) {
                    0 => {
                        let add = rng.gen_range(1..10);
                        *map.get_or_insert_default(index) += add;
                        *reference.entry(index).or_insert(0) += add;
                    }
                    1 => assert_eq!(map.get(index), reference.get(&index), "{step}: get {index}"),
                    2 => assert_eq!(
                        map.contains(index),
                        reference.contains_key(&index),
                        "{step}: contains {index}"
                    ),
                    _ => {
                        // Half the removals hit a present frame.
                        let present = reference.len();
                        let index = if present > 0 && rng.gen_bool(0.5) {
                            let nth = rng.gen_range_usize(0..present);
                            reference.keys().nth(nth).copied().unwrap_or(index)
                        } else {
                            index
                        };
                        assert_eq!(
                            map.remove(index),
                            reference.remove(&index),
                            "{step}: remove {index}"
                        );
                    }
                }
                check(&map, &reference, &mut rng, &step);
            }
        }
    }

    #[test]
    fn edge_indices_land_in_the_right_groups() {
        let mut map = FrameMap::default();
        for (n, &index) in EDGES.iter().enumerate() {
            *map.get_or_insert_default(index) = n as u64;
        }
        assert_eq!(map.len(), EDGES.len());
        assert_eq!(map.iter().map(|(i, _)| i).collect::<Vec<_>>(), EDGES);
        // 0 and 63 share group 0; 64, 65 and 127 share group 1.
        assert_eq!(
            map.groups.keys().copied().collect::<Vec<_>>(),
            [0, 1, 2, ((1 << 29) - 1) / 64, u64::MAX / 4096 / 64]
        );
        assert_eq!(
            map.range(63..65).map(|(i, _)| i).collect::<Vec<_>>(),
            [63, 64]
        );
        assert_eq!(
            map.range(65..128).map(|(i, _)| i).collect::<Vec<_>>(),
            [65, 127]
        );
        assert_eq!(map.range(u64::MAX / 4096..u64::MAX).count(), 1);
        assert_eq!(
            map.range(Range {
                start: 128,
                end: 64
            })
            .count(),
            0,
            "reversed"
        );
        assert_eq!(map.range(64..64).count(), 0, "empty");
        assert!(!map.contains(1) && map.get(66).is_none());
    }
}
