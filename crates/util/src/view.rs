//! Flat, arena-backed storage for gossip views, and partial-selection ranking.
//!
//! Every gossip protocol in this workspace keeps one bounded *view* (a small
//! ordered set of [`Descriptor`](crate::descriptor::Descriptor)s) per
//! simulated node. Storing those views as
//! `Vec<Option<Vec<Descriptor<_>>>>` costs one heap allocation per node plus a
//! pointer chase per access, which dominates the simulator's hot path at large
//! network sizes. [`ViewArena`] instead packs all views into one contiguous
//! allocation with a fixed-capacity slot per node, so reading a view is a single
//! bounded slice index and writing one never allocates.
//!
//! [`rank_top_by`] is the companion CPU optimisation: merge buffers only ever
//! need their best `keep` elements in order, so instead of sorting the whole
//! buffer it partitions with `select_nth_unstable_by` and sorts just the front.
//! For buffers already within capacity it skips sorting entirely when they are
//! already ordered (the common case for views re-normalised every cycle).

use std::cmp::Ordering;

/// Contiguous storage of bounded per-node views: one `capacity`-sized slot per
/// node in a single allocation, plus a live-length and an occupancy flag per
/// slot.
///
/// The element type is generic: protocols store either full
/// [`Descriptor`](crate::descriptor::Descriptor)s or, on the simulator's hot
/// path, eight-byte [`PackedDescriptor`](crate::descriptor::PackedDescriptor)s
/// so a million 30-entry views fit in ~240 MB instead of ~720 MB.
///
/// An *unoccupied* slot models "this node holds no view" (dead or never
/// initialised) and is distinct from an occupied slot of length zero.
///
/// # Example
///
/// ```rust
/// use bss_util::descriptor::PackedDescriptor;
/// use bss_util::view::ViewArena;
///
/// let mut arena: ViewArena<PackedDescriptor> = ViewArena::new(4);
/// assert!(arena.get(7).is_none());
/// arena.set(7, &[PackedDescriptor::new(9, 0)]);
/// assert_eq!(arena.get(7).unwrap().len(), 1);
/// arena.clear(7);
/// assert!(arena.get(7).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct ViewArena<E> {
    capacity: usize,
    entries: Vec<E>,
    lens: Vec<u32>,
    occupied: Vec<bool>,
    occupied_count: usize,
}

impl<E: Copy + Default> ViewArena<E> {
    /// Creates an empty arena whose slots hold at most `capacity` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        ViewArena {
            capacity,
            entries: Vec::new(),
            lens: Vec::new(),
            occupied: Vec::new(),
            occupied_count: 0,
        }
    }

    /// Number of occupied slots.
    pub fn occupied_count(&self) -> usize {
        self.occupied_count
    }

    /// Whether `slot` is occupied (holds a view, possibly empty).
    pub fn is_occupied(&self, slot: usize) -> bool {
        self.occupied.get(slot).copied().unwrap_or(false)
    }

    /// The view stored in `slot`, or `None` when the slot is unoccupied or out
    /// of range.
    #[inline]
    pub fn get(&self, slot: usize) -> Option<&[E]> {
        if !self.is_occupied(slot) {
            return None;
        }
        let start = slot * self.capacity;
        Some(&self.entries[start..start + self.lens[slot] as usize])
    }

    /// Stores `view` in `slot`, growing the arena as needed and marking the
    /// slot occupied.
    ///
    /// # Panics
    ///
    /// Panics if `view` exceeds the per-slot capacity.
    pub fn set(&mut self, slot: usize, view: &[E]) {
        assert!(
            view.len() <= self.capacity,
            "view of {} entries exceeds slot capacity {}",
            view.len(),
            self.capacity
        );
        self.ensure(slot);
        let start = slot * self.capacity;
        self.entries[start..start + view.len()].copy_from_slice(view);
        self.lens[slot] = view.len() as u32;
        if !self.occupied[slot] {
            self.occupied[slot] = true;
            self.occupied_count += 1;
        }
    }

    /// Marks `slot` unoccupied (a no-op for slots the arena never addressed).
    pub fn clear(&mut self, slot: usize) {
        if slot < self.occupied.len() && self.occupied[slot] {
            self.occupied[slot] = false;
            self.lens[slot] = 0;
            self.occupied_count -= 1;
        }
    }

    fn ensure(&mut self, slot: usize) {
        if slot >= self.lens.len() {
            let slots = slot + 1;
            self.entries.resize(slots * self.capacity, E::default());
            self.lens.resize(slots, 0);
            self.occupied.resize(slots, false);
        }
    }
}

/// Keeps the best `keep` elements of `items` in sorted order (according to
/// `cmp`, ascending) and discards the rest.
///
/// Produces exactly the result of `items.sort_by(cmp); items.truncate(keep)`
/// whenever `cmp` is a strict total order over the buffer (no two elements
/// compare equal — the callers guarantee this by breaking ties on the unique
/// node identifier), but does O(len + keep·log keep) work instead of
/// O(len·log len), and skips sorting entirely when the buffer is already
/// within `keep` and ordered.
pub fn rank_top_by<T, F>(items: &mut Vec<T>, keep: usize, mut cmp: F)
where
    F: FnMut(&T, &T) -> Ordering,
{
    if items.len() > keep {
        if keep == 0 {
            items.clear();
            return;
        }
        // Partition so the best `keep` elements occupy the front, then order
        // just that prefix.
        items.select_nth_unstable_by(keep - 1, &mut cmp);
        items[..keep].sort_unstable_by(&mut cmp);
        items.truncate(keep);
    } else if !is_sorted_by(items, &mut cmp) {
        items.sort_unstable_by(&mut cmp);
    }
}

/// Whether `items` is already sorted ascending under `cmp`.
fn is_sorted_by<T, F>(items: &[T], cmp: &mut F) -> bool
where
    F: FnMut(&T, &T) -> Ordering,
{
    items
        .windows(2)
        .all(|pair| cmp(&pair[0], &pair[1]) != Ordering::Greater)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptor;
    use crate::id::NodeId;

    fn d(id: u64, ts: u64) -> Descriptor<u32> {
        Descriptor::new(NodeId::new(id), id as u32, ts)
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _: ViewArena<Descriptor<u32>> = ViewArena::new(0);
    }

    #[test]
    fn unoccupied_slots_are_distinct_from_empty_views() {
        let mut arena: ViewArena<Descriptor<u32>> = ViewArena::new(3);
        assert!(arena.get(0).is_none());
        assert!(!arena.is_occupied(0));
        arena.set(0, &[]);
        assert!(arena.is_occupied(0));
        assert_eq!(arena.get(0), Some(&[][..]));
        assert_eq!(arena.occupied_count(), 1);
    }

    #[test]
    fn set_get_clear_roundtrip_and_growth() {
        let mut arena: ViewArena<Descriptor<u32>> = ViewArena::new(2);
        arena.set(5, &[d(1, 10), d(2, 20)]);
        assert_eq!(arena.lens.len(), 6);
        assert_eq!(arena.get(5).unwrap(), &[d(1, 10), d(2, 20)]);
        // Intermediate slots exist but are unoccupied.
        assert!(arena.get(3).is_none());
        // Overwrite with a shorter view.
        arena.set(5, &[d(9, 1)]);
        assert_eq!(arena.get(5).unwrap(), &[d(9, 1)]);
        assert_eq!(arena.occupied_count(), 1);
        arena.clear(5);
        assert!(arena.get(5).is_none());
        assert_eq!(arena.occupied_count(), 0);
        // Clearing out-of-range or already-clear slots is a no-op.
        arena.clear(5);
        arena.clear(100);
        assert_eq!(arena.occupied_count(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversized_views_are_rejected() {
        let mut arena: ViewArena<Descriptor<u32>> = ViewArena::new(1);
        arena.set(0, &[d(1, 0), d(2, 0)]);
    }

    fn freshest_first(a: &Descriptor<u32>, b: &Descriptor<u32>) -> Ordering {
        b.timestamp()
            .cmp(&a.timestamp())
            .then_with(|| a.id().cmp(&b.id()))
    }

    #[test]
    fn rank_top_matches_full_sort_and_truncate() {
        let mut buffer = vec![d(3, 5), d(1, 9), d(4, 1), d(2, 9), d(5, 7)];
        let mut expected = buffer.clone();
        expected.sort_by(freshest_first);
        expected.truncate(3);
        rank_top_by(&mut buffer, 3, freshest_first);
        assert_eq!(buffer, expected);
    }

    #[test]
    fn rank_top_sorts_small_unsorted_buffers_in_place() {
        let mut buffer = vec![d(2, 1), d(1, 5)];
        rank_top_by(&mut buffer, 10, freshest_first);
        assert_eq!(buffer, vec![d(1, 5), d(2, 1)]);
    }

    #[test]
    fn rank_top_keep_zero_empties_the_buffer() {
        let mut buffer = vec![d(1, 1), d(2, 2)];
        rank_top_by(&mut buffer, 0, freshest_first);
        assert!(buffer.is_empty());
    }

    #[test]
    fn rank_top_on_empty_and_exact_capacity() {
        let mut empty: Vec<Descriptor<u32>> = Vec::new();
        rank_top_by(&mut empty, 4, freshest_first);
        assert!(empty.is_empty());
        let mut exact = vec![d(1, 3), d(2, 2), d(3, 1)];
        rank_top_by(&mut exact, 3, freshest_first);
        assert_eq!(exact, vec![d(1, 3), d(2, 2), d(3, 1)]);
    }
}
