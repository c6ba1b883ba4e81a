//! The prefix routing table: `UPDATEPREFIXTABLE` and the `(i, j, k)` slot layout.
//!
//! "The prefix table of a given node contains up to k IDs for all pairs (i, j),
//! where i is the length (in digits) of the longest common prefix of the ID and the
//! node's own ID, and j is the first differing digit" (§4). This is exactly the
//! routing table of Pastry, Kademlia (per-bucket view), Tapestry and Bamboo, which
//! is why bootstrapping it bootstraps all those substrates at once.
//!
//! Storage is a flat arena: all descriptors live in one contiguous vector
//! ordered by slot, with a per-slot offset index. Iterating the table — which
//! the message-composition hot path does twice per exchange — is a linear walk
//! over one allocation instead of a pointer chase through nested row/cell
//! vectors, and a table costs two allocations total regardless of how many
//! slots fill up.

use bss_util::descriptor::{Address, Descriptor};
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;

/// A prefix routing table under construction.
///
/// `UPDATEPREFIXTABLE` "takes a set of node descriptors and fills in any missing
/// table entries from this set": entries are only ever *added* (up to `k` per
/// slot), never replaced, which makes the table monotonically improving during the
/// bootstrap.
///
/// # Example
///
/// ```rust
/// use bss_core::prefix_table::PrefixTable;
/// use bss_util::descriptor::Descriptor;
/// use bss_util::geometry::TableGeometry;
/// use bss_util::id::NodeId;
///
/// let geometry = TableGeometry::new(4, 3).unwrap();
/// let own = NodeId::new(0xAB00_0000_0000_0000);
/// let mut table: PrefixTable<u32> = PrefixTable::new(own, geometry);
///
/// // A node sharing one digit, differing with digit 0xC, lands in slot (1, 0xC).
/// let other = Descriptor::new(NodeId::new(0xAC00_0000_0000_0000), 7, 0);
/// table.update([other]);
/// assert_eq!(table.slot(1, 0xC).len(), 1);
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTable<A> {
    own_id: NodeId,
    geometry: TableGeometry,
    /// All stored descriptors, ordered by slot `(row, column)` and, within a
    /// slot, by insertion order.
    store: Vec<Descriptor<A>>,
    /// Per-slot start offsets into `store`: slot `s` holds
    /// `store[offsets[s]..offsets[s + 1]]`. Length `rows * columns + 1`.
    offsets: Vec<u32>,
}

impl<A: Address> PrefixTable<A> {
    /// Creates an empty table for the node with identifier `own_id`.
    pub fn new(own_id: NodeId, geometry: TableGeometry) -> Self {
        PrefixTable {
            own_id,
            geometry,
            store: Vec::new(),
            offsets: vec![0; geometry.rows() * geometry.columns() + 1],
        }
    }

    /// The linear index of slot `(row, column)`.
    #[inline]
    fn slot_index(&self, row: usize, column: u8) -> usize {
        row * self.geometry.columns() + column as usize
    }

    /// The table geometry (`b`, `k`).
    pub(crate) fn geometry(&self) -> TableGeometry {
        self.geometry
    }

    /// Total number of descriptors stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the table holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The descriptors stored in slot `(row, column)` (empty when none).
    ///
    /// # Panics
    ///
    /// Panics if `row` or `column` is outside the geometry.
    pub fn slot(&self, row: usize, column: u8) -> &[Descriptor<A>] {
        assert!(row < self.geometry.rows(), "row {row} out of range");
        assert!(
            (column as usize) < self.geometry.columns(),
            "column {column} out of range"
        );
        let slot = self.slot_index(row, column);
        &self.store[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Whether a descriptor with this identifier is stored anywhere in the table.
    pub fn contains(&self, id: NodeId) -> bool {
        match self.geometry.slot_of(self.own_id, id) {
            None => false,
            Some((row, column)) => self.slot(row, column).iter().any(|d| d.id() == id),
        }
    }

    /// `UPDATEPREFIXTABLE`: for every incoming descriptor, if the slot it belongs
    /// to still has free capacity and does not already contain that identifier,
    /// store it. Returns the number of descriptors actually inserted.
    pub fn update(&mut self, incoming: impl IntoIterator<Item = Descriptor<A>>) -> usize {
        let mut inserted = 0;
        for descriptor in incoming {
            if self.insert(descriptor) {
                inserted += 1;
            }
        }
        inserted
    }

    /// Inserts a single descriptor if its slot has room; returns whether it was
    /// stored.
    pub(crate) fn insert(&mut self, descriptor: Descriptor<A>) -> bool {
        let Some((row, column)) = self.geometry.slot_of(self.own_id, descriptor.id()) else {
            return false; // own descriptor
        };
        let capacity = self.geometry.entries_per_slot();
        let slot = self.slot_index(row, column);
        let (start, end) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
        if end - start >= capacity
            || self.store[start..end]
                .iter()
                .any(|d| d.id() == descriptor.id())
        {
            return false;
        }
        // Append at the end of the slot's range (preserving insertion order)
        // and shift every later slot's offset.
        self.store.insert(end, descriptor);
        for offset in &mut self.offsets[slot + 1..] {
            *offset += 1;
        }
        true
    }

    /// `UPDATEPREFIXTABLE` under descriptor aging: like [`PrefixTable::update`],
    /// but an incoming descriptor whose identifier is already stored *refreshes*
    /// the stored copy to the fresher of the two. The plain update never touches
    /// existing entries (the table is add-only during a detector-free
    /// bootstrap); with a failure detector the stored timestamps are the
    /// detector's evidence, so they must track the freshest sighting or a live
    /// node's entry would expire at its insertion age. Returns the number of
    /// descriptors newly inserted (refreshes do not count).
    pub(crate) fn update_refreshing(
        &mut self,
        incoming: impl IntoIterator<Item = Descriptor<A>>,
    ) -> usize {
        let mut inserted = 0;
        for descriptor in incoming {
            let Some((row, column)) = self.geometry.slot_of(self.own_id, descriptor.id()) else {
                continue;
            };
            let slot = self.slot_index(row, column);
            let (start, end) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
            if let Some(existing) = self.store[start..end]
                .iter_mut()
                .find(|d| d.id() == descriptor.id())
            {
                *existing = existing.fresher_of(descriptor);
            } else if self.insert(descriptor) {
                inserted += 1;
            }
        }
        inserted
    }

    /// Evicts every descriptor whose timestamp lags `now` by more than
    /// `max_age` cycles (the failure-detecting half of descriptor aging).
    ///
    /// One in-place compaction pass over the flat store — no allocation — with
    /// the per-slot offsets rebuilt as it goes. Returns the number of
    /// descriptors removed.
    pub(crate) fn evict_expired(&mut self, now: u64, max_age: u64) -> usize {
        let mut write = 0usize;
        for slot in 0..self.offsets.len() - 1 {
            let (start, end) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
            self.offsets[slot] = write as u32;
            for read in start..end {
                let descriptor = self.store[read];
                if !descriptor.is_expired(now, max_age) {
                    self.store[write] = descriptor;
                    write += 1;
                }
            }
        }
        let removed = self.store.len() - write;
        *self.offsets.last_mut().expect("offsets never empty") = write as u32;
        self.store.truncate(write);
        removed
    }

    /// Raw view of the flat storage for the packed node store: the descriptor
    /// arena (slot order) and the per-slot offsets.
    pub(crate) fn raw_parts(&self) -> (&[Descriptor<A>], &[u32]) {
        (&self.store, &self.offsets)
    }

    /// Rebuilds the table in place from raw parts (the inverse of
    /// [`PrefixTable::raw_parts`]), reusing the existing allocations. The
    /// geometry is left untouched — the packed store only round-trips between
    /// nodes running identical parameters.
    pub(crate) fn restore_from(
        &mut self,
        own_id: NodeId,
        entries: impl IntoIterator<Item = Descriptor<A>>,
        offsets: impl IntoIterator<Item = u32>,
    ) {
        self.own_id = own_id;
        self.store.clear();
        self.store.extend(entries);
        self.offsets.clear();
        self.offsets.extend(offsets);
        debug_assert_eq!(
            self.offsets.len(),
            self.geometry.rows() * self.geometry.columns() + 1,
            "offset table shape must match the geometry"
        );
    }

    /// Iterates over every stored descriptor, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &Descriptor<A>> {
        self.store.iter()
    }

    /// Every stored descriptor as one slice, in slot order — the flat arena
    /// makes this a free view (mirroring `LeafSet::as_slice`).
    pub(crate) fn as_slice(&self) -> &[Descriptor<A>] {
        &self.store
    }

    /// Collects every stored descriptor into a vector.
    pub fn to_vec(&self) -> Vec<Descriptor<A>> {
        self.store.clone()
    }

    /// Number of non-empty slots.
    pub fn occupied_slots(&self) -> usize {
        self.offsets
            .windows(2)
            .filter(|pair| pair[1] > pair[0])
            .count()
    }

    /// The deepest row (longest common prefix) that currently holds an entry, if
    /// any. In a uniformly random network this hovers around `log_{2^b}(n)`.
    pub fn deepest_occupied_row(&self) -> Option<usize> {
        let columns = self.geometry.columns();
        (0..self.geometry.rows()).rev().find(|&row| {
            let start = self.offsets[row * columns] as usize;
            let end = self.offsets[(row + 1) * columns] as usize;
            end > start
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geometry() -> TableGeometry {
        TableGeometry::new(4, 3).unwrap()
    }

    fn own() -> NodeId {
        NodeId::new(0x1234_5678_0000_0000)
    }

    fn d(id: u64, addr: u32) -> Descriptor<u32> {
        Descriptor::new(NodeId::new(id), addr, 0)
    }

    #[test]
    fn entries_land_in_the_defined_slot() {
        let mut table = PrefixTable::new(own(), geometry());
        // Shares "123" then differs with digit 0x9.
        let descriptor = d(0x1239_0000_0000_0000, 1);
        assert_eq!(table.update([descriptor]), 1);
        assert_eq!(table.slot(3, 0x9), &[descriptor]);
        assert!(table.contains(descriptor.id()));
        assert_eq!(table.len(), 1);
        assert_eq!(table.occupied_slots(), 1);
        assert_eq!(table.deepest_occupied_row(), Some(3));
        assert_eq!(table.geometry().bits_per_digit(), 4);
        assert_eq!(table.own_id, own());
    }

    #[test]
    fn slot_capacity_is_respected() {
        let mut table = PrefixTable::new(own(), geometry());
        // Four different nodes all belonging to slot (0, 0xF).
        let candidates = [
            d(0xF000_0000_0000_0001, 1),
            d(0xF000_0000_0000_0002, 2),
            d(0xF000_0000_0000_0003, 3),
            d(0xF000_0000_0000_0004, 4),
        ];
        let inserted = table.update(candidates);
        assert_eq!(inserted, 3, "only k = 3 descriptors fit in one slot");
        assert_eq!(table.slot(0, 0xF).len(), 3);
        assert!(
            !table.insert(d(0xF000_0000_0000_0009, 9)),
            "the slot is full"
        );
        assert!(table.slot(0, 0x2).is_empty());
    }

    #[test]
    fn duplicates_and_own_id_are_ignored() {
        let mut table = PrefixTable::new(own(), geometry());
        let descriptor = d(0xAAAA_0000_0000_0000, 1);
        assert_eq!(table.update([descriptor, descriptor]), 1);
        assert_eq!(table.len(), 1);
        // Same identifier, different address: still a duplicate.
        assert!(!table.insert(Descriptor::new(descriptor.id(), 99u32, 5)));
        // The node's own identifier is never stored.
        assert!(!table.insert(Descriptor::new(own(), 1u32, 0)));
        assert!(!table.contains(own()));
    }

    #[test]
    fn update_refreshing_keeps_freshest_and_counts_only_insertions() {
        let mut table = PrefixTable::new(own(), geometry());
        let old = Descriptor::new(NodeId::new(0xAAAA_0000_0000_0000), 1u32, 3);
        assert_eq!(table.update_refreshing([old]), 1);
        // A fresher sighting of the same node refreshes in place.
        let fresh = Descriptor::new(old.id(), 2u32, 9);
        assert_eq!(table.update_refreshing([fresh]), 0);
        let stored = table.slot(0, 0xA)[0];
        assert_eq!(stored.timestamp(), 9);
        assert_eq!(stored.address(), 2);
        // A staler sighting does not regress the stored copy.
        let stale = Descriptor::new(old.id(), 7u32, 1);
        assert_eq!(table.update_refreshing([stale]), 0);
        assert_eq!(table.slot(0, 0xA)[0].timestamp(), 9);
        assert_eq!(table.len(), 1);
        // Capacity discipline is unchanged for genuinely new identifiers.
        let more = [
            Descriptor::new(NodeId::new(0xAAAA_0000_0000_0001), 3u32, 5),
            Descriptor::new(NodeId::new(0xAAAA_0000_0000_0002), 4u32, 5),
            Descriptor::new(NodeId::new(0xAAAA_0000_0000_0003), 5u32, 5),
        ];
        assert_eq!(table.update_refreshing(more), 2, "slot capacity is k = 3");
    }

    #[test]
    fn evict_expired_compacts_the_store_and_offsets() {
        let mut table = PrefixTable::new(own(), geometry());
        let entries = [
            Descriptor::new(NodeId::new(0xF000_0000_0000_0001), 1u32, 2), // stale
            Descriptor::new(NodeId::new(0xF000_0000_0000_0002), 2u32, 19), // fresh
            Descriptor::new(NodeId::new(0x1239_0000_0000_0000), 3u32, 1), // stale, row 3
            Descriptor::new(NodeId::new(0xAAAA_0000_0000_0000), 4u32, 20), // fresh
        ];
        assert_eq!(table.update(entries), 4);
        // now = 20, max_age = 10: timestamps 1 and 2 expire.
        assert_eq!(table.evict_expired(20, 10), 2);
        assert_eq!(table.len(), 2);
        assert!(!table.contains(NodeId::new(0xF000_0000_0000_0001)));
        assert!(table.contains(NodeId::new(0xF000_0000_0000_0002)));
        assert!(!table.contains(NodeId::new(0x1239_0000_0000_0000)));
        assert!(table.contains(NodeId::new(0xAAAA_0000_0000_0000)));
        // Slot lookups still work against the rebuilt offsets.
        assert_eq!(table.slot(0, 0xF).len(), 1);
        assert_eq!(table.slot(3, 0x9).len(), 0);
        assert_eq!(table.slot(0, 0xA).len(), 1);
        // The vacated slot accepts new entries again.
        assert!(table.insert(Descriptor::new(
            NodeId::new(0x1239_0000_0000_0001),
            9u32,
            20
        )));
        assert_eq!(table.evict_expired(20, 10), 0, "nothing stale remains");
    }

    #[test]
    fn iteration_covers_every_entry() {
        let mut table = PrefixTable::new(own(), geometry());
        let descriptors = [
            d(0xF000_0000_0000_0000, 1),
            d(0x1300_0000_0000_0000, 2),
            d(0x1235_0000_0000_0000, 3),
        ];
        table.update(descriptors);
        assert_eq!(table.len(), 3);
        let collected = table.to_vec();
        assert_eq!(collected.len(), 3);
        for descriptor in descriptors {
            assert!(collected.contains(&descriptor));
        }
        assert!(!table.is_empty());
    }

    #[test]
    fn empty_table_accessors() {
        let table: PrefixTable<u32> = PrefixTable::new(own(), geometry());
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.occupied_slots(), 0);
        assert!(table.deepest_occupied_row().is_none());
        assert!(table.slot(0, 0).is_empty());
        assert!(table.to_vec().is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_row_bounds_are_checked() {
        let table: PrefixTable<u32> = PrefixTable::new(own(), geometry());
        let _ = table.slot(16, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_column_bounds_are_checked() {
        let table: PrefixTable<u32> = PrefixTable::new(own(), geometry());
        let _ = table.slot(0, 16);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn descriptor() -> impl Strategy<Value = Descriptor<u32>> {
            (any::<u64>(), any::<u32>(), any::<u64>())
                .prop_map(|(id, addr, ts)| Descriptor::new(NodeId::new(id), addr, ts))
        }

        proptest! {
            #[test]
            fn every_entry_sits_in_its_defined_slot_and_k_is_never_exceeded(
                own in any::<u64>(),
                bits in prop::sample::select(vec![1u8, 2, 4]),
                entries_per_slot in 1usize..4,
                incoming in prop::collection::vec(descriptor(), 0..160),
            ) {
                let own = NodeId::new(own);
                let geometry = TableGeometry::new(bits, entries_per_slot).unwrap();
                let mut table = PrefixTable::new(own, geometry);
                let inserted = table.update(incoming.iter().copied());

                prop_assert!(inserted <= incoming.len());
                prop_assert_eq!(table.len(), table.iter().count());
                prop_assert!(!table.contains(own));

                for row in 0..geometry.rows() {
                    for column in 0..geometry.columns() as u8 {
                        let slot = table.slot(row, column);
                        prop_assert!(
                            slot.len() <= entries_per_slot,
                            "slot ({row}, {column}) holds {} > k = {entries_per_slot}",
                            slot.len(),
                        );
                        for stored in slot {
                            // The slot that stores a descriptor is exactly the
                            // (prefix-length, digit) pair its identifier defines.
                            prop_assert_eq!(
                                geometry.slot_of(own, stored.id()),
                                Some((row, column)),
                                "descriptor {:?} misfiled in slot ({row}, {column})",
                                stored.id(),
                            );
                        }
                        // No identifier is stored twice within a slot.
                        let unique: std::collections::HashSet<NodeId> =
                            slot.iter().map(|d| d.id()).collect();
                        prop_assert_eq!(unique.len(), slot.len());
                    }
                }
            }

            #[test]
            fn update_only_adds_and_replay_is_a_no_op(
                own in any::<u64>(),
                first_wave in prop::collection::vec(descriptor(), 0..80),
                second_wave in prop::collection::vec(descriptor(), 0..80),
            ) {
                let own = NodeId::new(own);
                let geometry = TableGeometry::paper_default();
                let mut table = PrefixTable::new(own, geometry);
                table.update(first_wave.iter().copied());
                let before = table.to_vec();

                // Monotone: a later update never evicts an earlier entry.
                table.update(second_wave.iter().copied());
                for earlier in &before {
                    prop_assert!(table.contains(earlier.id()));
                }

                // Replaying everything already stored inserts nothing.
                let replayed = table.update(table.to_vec());
                prop_assert_eq!(replayed, 0);
            }
        }
    }

    #[test]
    fn works_with_binary_digits() {
        let geometry = TableGeometry::new(1, 1).unwrap();
        let own = NodeId::new(0);
        let mut table: PrefixTable<u32> = PrefixTable::new(own, geometry);
        // With b = 1 every other node's slot column is always 1.
        let descriptor = Descriptor::new(NodeId::new(u64::MAX), 1u32, 0);
        assert!(table.insert(descriptor));
        assert_eq!(table.slot(0, 1).len(), 1);
        let deep = Descriptor::new(NodeId::new(1), 2u32, 0);
        assert!(table.insert(deep));
        assert_eq!(table.slot(63, 1).len(), 1);
        assert_eq!(table.deepest_occupied_row(), Some(63));
    }
}
