//! The leaf set: a node's `c` nearest neighbours on the identifier ring.
//!
//! The paper's `UPDATELEAFSET` (§4) "merges the set given as a parameter and the
//! current leaf set, and then sorts this set according to distance from the node's
//! own ID in the ring of all possible IDs. [...] in an effort to collect an equal
//! amount of successors and predecessors, the method attempts to keep an equal
//! number (c/2) of closest successors and predecessors. If there are not enough
//! successors or predecessors, then the leaf set is filled with the closest
//! elements in the other direction."
//!
//! [`LeafSet`] implements exactly that, and keeps each side closest first, so
//! `SELECTPEER` (order by distance from the own identifier) merges the two
//! sides instead of sorting; `CREATEMESSAGE` ranks by distance from the peer's
//! identifier.

use bss_util::descriptor::{Address, Descriptor};
use bss_util::id::NodeId;

/// A balanced set of ring neighbours maintained by `UPDATELEAFSET`.
///
/// # Example
///
/// ```rust
/// use bss_core::leafset::LeafSet;
/// use bss_util::descriptor::Descriptor;
/// use bss_util::id::NodeId;
///
/// let mut leaf_set: LeafSet<u32> = LeafSet::new(NodeId::new(1000), 4);
/// leaf_set.update([
///     Descriptor::new(NodeId::new(1010), 1, 0),
///     Descriptor::new(NodeId::new(1020), 2, 0),
///     Descriptor::new(NodeId::new(990), 3, 0),
///     Descriptor::new(NodeId::new(980), 4, 0),
///     Descriptor::new(NodeId::new(5000), 5, 0),
/// ]);
/// // Two closest successors and two closest predecessors are kept.
/// assert_eq!(leaf_set.len(), 4);
/// assert!(leaf_set.contains(NodeId::new(1010)));
/// assert!(leaf_set.contains(NodeId::new(990)));
/// assert!(!leaf_set.contains(NodeId::new(5000)));
/// ```
#[derive(Debug, Clone)]
pub struct LeafSet<A> {
    own_id: NodeId,
    capacity: usize,
    /// Flat single-buffer storage (mirroring `PrefixTable`'s flattened layout):
    /// the first [`LeafSet::split`] entries are the successors — nodes closer in
    /// the increasing (clockwise) direction, sorted by clockwise distance,
    /// closest first — and the rest are the predecessors, sorted by
    /// counter-clockwise distance, closest first.
    entries: Vec<Descriptor<A>>,
    /// Number of successors at the front of `entries`.
    split: usize,
}

/// Caller-owned working memory for [`LeafSet::update_with`].
///
/// One instance per driver (or per worker thread) is enough: the buffers grow
/// to the largest merge they have seen and are reused from then on, so
/// `UPDATELEAFSET` — which runs once per received message and, together with
/// message composition, is the hot path of a simulation — stops allocating
/// after the first few calls.
#[derive(Debug, Clone)]
pub struct MergeScratch<A> {
    merged: Vec<Descriptor<A>>,
    successors: Vec<Descriptor<A>>,
    predecessors: Vec<Descriptor<A>>,
    /// The descriptors of a message the verifier accepted, when it rejected
    /// some (`crate::node::receive_verified`).
    pub(crate) accepted: Vec<Descriptor<A>>,
}

impl<A> Default for MergeScratch<A> {
    fn default() -> Self {
        MergeScratch {
            merged: Vec::new(),
            successors: Vec::new(),
            predecessors: Vec::new(),
            accepted: Vec::new(),
        }
    }
}

impl<A: Address> LeafSet<A> {
    /// Creates an empty leaf set for the node with identifier `own_id` and total
    /// capacity `capacity` (the paper's `c`; half is reserved for successors and
    /// half for predecessors).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or odd.
    pub fn new(own_id: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "leaf set capacity must be positive");
        assert!(capacity % 2 == 0, "leaf set capacity must be even");
        LeafSet {
            own_id,
            capacity,
            entries: Vec::with_capacity(capacity),
            split: 0,
        }
    }

    /// Number of descriptors currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the leaf set holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current successors, closest first.
    pub fn successors(&self) -> &[Descriptor<A>] {
        &self.entries[..self.split]
    }

    /// The current predecessors, closest first.
    pub fn predecessors(&self) -> &[Descriptor<A>] {
        &self.entries[self.split..]
    }

    /// Iterates over all descriptors (successors first, then predecessors).
    pub fn iter(&self) -> impl Iterator<Item = &Descriptor<A>> {
        self.entries.iter()
    }

    /// All descriptors as one slice (successors first, then predecessors) —
    /// the flat storage makes this a free view, so hot paths can borrow the
    /// content without copying it out via [`LeafSet::to_vec`].
    pub(crate) fn as_slice(&self) -> &[Descriptor<A>] {
        &self.entries
    }

    /// Collects all descriptors into a vector.
    pub fn to_vec(&self) -> Vec<Descriptor<A>> {
        self.iter().copied().collect()
    }

    /// Whether a descriptor with the given identifier is present.
    pub fn contains(&self, id: NodeId) -> bool {
        self.iter().any(|d| d.id() == id)
    }

    /// `UPDATELEAFSET`: merges `incoming` with the current content and keeps the
    /// `c/2` closest successors and `c/2` closest predecessors, spilling into the
    /// other direction when one side has too few candidates.
    ///
    /// Descriptors equal to the own identifier are ignored; duplicates keep the
    /// freshest timestamp.
    ///
    /// Returns whether the *membership* of the leaf set changed (timestamp-only
    /// refreshes of already-present identifiers do not count) — the signal the
    /// incremental convergence tracker uses to decide which nodes to re-measure.
    ///
    /// This convenience wrapper allocates a fresh [`MergeScratch`] per call;
    /// hot paths should thread a reusable one through
    /// [`LeafSet::update_with`] instead.
    pub fn update(&mut self, incoming: impl IntoIterator<Item = Descriptor<A>>) -> bool {
        self.update_with(incoming, &mut MergeScratch::default())
    }

    /// [`LeafSet::update`] with caller-owned working memory — the variant
    /// every driver uses on the hot path. Once the scratch buffers have grown
    /// to a message's size the call does not allocate: they and the leaf
    /// set's own flat storage are reused.
    ///
    /// The cost tracks what the message can change. In a full leaf set, a side
    /// that holds at least `c/2` entries keeps `min(c/2 + the other side's
    /// shortfall, candidates)` of them, and merging can only shrink a
    /// shortfall — so that side can never keep a descriptor farther away than
    /// its current farthest entry. Incoming descriptors are filtered against
    /// that directed-distance bound per side (`u64::MAX` for a side it does
    /// not apply to, so there is one path) before the merge proper, which then
    /// runs over the current content plus the few candidates that can still
    /// enter instead of over the whole message. The comparison is `<=`
    /// because a directed distance identifies an identifier: a fresher copy of
    /// the farthest entry itself must still refresh its timestamp.
    pub fn update_with(
        &mut self,
        incoming: impl IntoIterator<Item = Descriptor<A>>,
        scratch: &mut MergeScratch<A>,
    ) -> bool {
        let own = self.own_id;
        let half = self.capacity / 2;
        let full = self.entries.len() == self.capacity;
        let successor_bound = match self.successors().last() {
            Some(farthest) if full && self.successors().len() >= half => {
                own.clockwise_distance(farthest.id())
            }
            _ => u64::MAX,
        };
        let predecessor_bound = match self.predecessors().last() {
            Some(farthest) if full && self.predecessors().len() >= half => {
                farthest.id().clockwise_distance(own)
            }
            _ => u64::MAX,
        };

        // Merge: current content plus the incoming descriptors that can enter.
        let merged = &mut scratch.merged;
        merged.clear();
        merged.extend_from_slice(&self.entries);
        merged.extend(incoming.into_iter().filter(|d| {
            let clockwise = own.clockwise_distance(d.id());
            let counter_clockwise = clockwise.wrapping_neg();
            if clockwise <= counter_clockwise {
                clockwise != 0 && clockwise <= successor_bound
            } else {
                counter_clockwise <= predecessor_bound
            }
        }));
        if merged.len() == self.entries.len() {
            // Nothing can enter or refresh: the set already is its own merge.
            return false;
        }
        bss_util::descriptor::dedup_freshest(merged);

        // Classify into successors and predecessors.
        let successors = &mut scratch.successors;
        let predecessors = &mut scratch.predecessors;
        successors.clear();
        predecessors.clear();
        for &descriptor in merged.iter() {
            if own.is_successor(descriptor.id()) {
                successors.push(descriptor);
            } else {
                predecessors.push(descriptor);
            }
        }
        // Keep c/2 of each; spill over when one side is short. The quotas depend
        // on the candidate counts only, so each side is ranked (partial
        // selection) no deeper than it is kept.
        let succ_short = half.saturating_sub(successors.len());
        let pred_short = half.saturating_sub(predecessors.len());
        let succ_keep = (half + pred_short).min(successors.len());
        bss_util::view::rank_top_by(successors, succ_keep, |a, b| {
            own.clockwise_distance(a.id())
                .cmp(&own.clockwise_distance(b.id()))
        });
        bss_util::view::rank_top_by(predecessors, half + succ_short, |a, b| {
            a.id()
                .clockwise_distance(own)
                .cmp(&b.id().clockwise_distance(own))
        });

        // Membership comparison: identifiers are unique after the dedup and a
        // directed distance identifies one, so the kept orderings are
        // deterministic and equal membership means equal id sequences.
        let same_ids = |kept: &[Descriptor<A>], current: &[Descriptor<A>]| {
            kept.len() == current.len()
                && kept
                    .iter()
                    .zip(current.iter())
                    .all(|(a, b)| a.id() == b.id())
        };
        let changed = !same_ids(successors, self.successors())
            || !same_ids(predecessors, self.predecessors());

        // Write back into the flat buffer: successors first, then predecessors.
        self.entries.clear();
        self.entries.extend_from_slice(successors);
        self.entries.extend_from_slice(predecessors);
        self.split = succ_keep;
        debug_assert!(self.sides_are_sorted(), "SELECTPEER walks sorted sides");
        changed
    }

    /// Whether each side holds only its own direction, closest first — the
    /// layout `SELECTPEER` merges instead of sorting.
    fn sides_are_sorted(&self) -> bool {
        let own = self.own_id;
        let (successors, predecessors) = (self.successors(), self.predecessors());
        successors.iter().all(|d| own.is_successor(d.id()))
            && predecessors.iter().all(|d| !own.is_successor(d.id()))
            && successors
                .windows(2)
                .all(|w| own.clockwise_distance(w[0].id()) < own.clockwise_distance(w[1].id()))
            && predecessors
                .windows(2)
                .all(|w| w[0].id().clockwise_distance(own) < w[1].id().clockwise_distance(own))
    }

    /// Evicts every descriptor whose timestamp lags `now` by more than
    /// `max_age` cycles (the failure-detecting half of descriptor aging; see
    /// [`BootstrapParams::descriptor_max_age`](bss_util::config::BootstrapParams)).
    ///
    /// Runs fully in place on the flat storage — no allocation — preserving
    /// each side's distance ordering and adjusting the successor/predecessor
    /// split. Returns whether anything was removed.
    pub(crate) fn evict_expired(&mut self, now: u64, max_age: u64) -> bool {
        let before = self.entries.len();
        let mut write = 0usize;
        let mut surviving_successors = 0usize;
        for read in 0..before {
            let descriptor = self.entries[read];
            if descriptor.is_expired(now, max_age) {
                continue;
            }
            if read < self.split {
                surviving_successors += 1;
            }
            self.entries[write] = descriptor;
            write += 1;
        }
        self.entries.truncate(write);
        self.split = surviving_successors;
        write != before
    }

    /// Raw view of the flat storage for the packed node store: the entry
    /// sequence (successors first, then predecessors) and the successor split.
    pub(crate) fn raw_parts(&self) -> (&[Descriptor<A>], usize) {
        (&self.entries, self.split)
    }

    /// Rebuilds the leaf set in place from raw parts (the inverse of
    /// [`LeafSet::raw_parts`]) for the node `own_id` with room for `capacity`
    /// entries, reusing the existing allocation.
    pub(crate) fn restore_from(
        &mut self,
        own_id: NodeId,
        capacity: usize,
        entries: impl IntoIterator<Item = Descriptor<A>>,
        split: usize,
    ) {
        self.own_id = own_id;
        self.capacity = capacity;
        self.entries.clear();
        self.entries.extend(entries);
        debug_assert!(split <= self.entries.len(), "split beyond entry count");
        self.split = split;
        debug_assert!(self.sides_are_sorted(), "SELECTPEER walks sorted sides");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(id: u64, addr: u32) -> Descriptor<u32> {
        Descriptor::new(NodeId::new(id), addr, 0)
    }

    fn ids<A: Address>(set: &LeafSet<A>) -> Vec<u64> {
        set.iter().map(|x| x.id().raw()).collect()
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_capacity_is_rejected() {
        let _: LeafSet<u32> = LeafSet::new(NodeId::new(0), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _: LeafSet<u32> = LeafSet::new(NodeId::new(0), 0);
    }

    #[test]
    fn keeps_balanced_closest_neighbours() {
        let mut set = LeafSet::new(NodeId::new(1000), 4);
        set.update([
            d(1001, 1),
            d(1002, 2),
            d(1003, 3),
            d(999, 4),
            d(998, 5),
            d(997, 6),
        ]);
        assert_eq!(set.len(), 4);
        let mut kept = ids(&set);
        kept.sort_unstable();
        assert_eq!(kept, vec![998, 999, 1001, 1002]);
        assert_eq!(set.successors().len(), 2);
        assert_eq!(set.predecessors().len(), 2);
        assert_eq!(set.successors().first().unwrap().id().raw(), 1001);
        assert_eq!(set.predecessors().first().unwrap().id().raw(), 999);
    }

    #[test]
    fn spills_into_other_direction_when_one_side_is_short() {
        // Only successors available: all four slots fill with successors.
        let mut set = LeafSet::new(NodeId::new(0), 4);
        set.update([d(1, 1), d(2, 2), d(3, 3), d(4, 4), d(5, 5)]);
        assert_eq!(set.len(), 4);
        let mut kept = ids(&set);
        kept.sort_unstable();
        assert_eq!(kept, vec![1, 2, 3, 4]);

        // Mixed but unbalanced: one predecessor and many successors.
        let mut set = LeafSet::new(NodeId::new(100), 4);
        set.update([d(99, 1), d(101, 2), d(102, 3), d(103, 4), d(104, 5)]);
        let mut kept = ids(&set);
        kept.sort_unstable();
        assert_eq!(kept, vec![99, 101, 102, 103]);
    }

    #[test]
    fn update_is_monotone_improvement() {
        let mut set = LeafSet::new(NodeId::new(1000), 4);
        set.update([d(2000, 1), d(3000, 2), d(50, 3), d(100, 4)]);
        assert_eq!(set.len(), 4);
        // Better candidates displace worse ones.
        set.update([d(1001, 5), d(999, 6)]);
        assert!(set.contains(NodeId::new(1001)));
        assert!(set.contains(NodeId::new(999)));
        assert_eq!(set.len(), 4);
        // The displaced far-away successors are gone.
        assert!(!set.contains(NodeId::new(3000)));
    }

    #[test]
    fn ignores_own_identifier_and_duplicates() {
        let mut set = LeafSet::new(NodeId::new(42), 4);
        set.update([d(42, 1), d(43, 2), d(43, 3), d(44, 4)]);
        assert!(!set.contains(NodeId::new(42)));
        assert_eq!(set.len(), 2);
        // The freshest duplicate wins.
        let mut set = LeafSet::new(NodeId::new(42), 4);
        set.update([
            Descriptor::new(NodeId::new(43), 2u32, 1),
            Descriptor::new(NodeId::new(43), 9u32, 5),
        ]);
        let entry = set.iter().next().unwrap();
        assert_eq!(entry.address(), 9);
        assert_eq!(entry.timestamp(), 5);
    }

    #[test]
    fn wrap_around_neighbours_are_classified_correctly() {
        let mut set = LeafSet::new(NodeId::new(u64::MAX - 1), 4);
        set.update([d(0, 1), d(1, 2), d(u64::MAX - 3, 3), d(u64::MAX - 2, 4)]);
        assert_eq!(set.successors().len(), 2);
        assert_eq!(set.predecessors().len(), 2);
        // Identifiers 0 and 1 wrap around and are the closest successors.
        assert_eq!(set.successors().first().unwrap().id().raw(), 0);
        assert_eq!(set.predecessors().first().unwrap().id().raw(), u64::MAX - 2);
    }

    #[test]
    fn wrap_around_closest_successor_is_across_zero() {
        let mut set = LeafSet::new(NodeId::new(u64::MAX - 1), 4);
        set.update([d(5, 1), d(0, 2), d(u64::MAX - 10, 3)]);
        assert_eq!(set.successors().first().unwrap().id().raw(), 0);
        assert_eq!(
            set.predecessors().first().unwrap().id().raw(),
            u64::MAX - 10
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The naive `UPDATELEAFSET`: merge everything, dedup keeping the
        /// freshest, fully sort each side, keep with spill — two owned side
        /// vectors, fresh allocations per call. `state` holds the resulting
        /// content (successors then predecessors); returns the
        /// membership-change flag.
        fn reference_update(
            state: &mut Vec<Descriptor<u32>>,
            own: NodeId,
            capacity: usize,
            incoming: &[Descriptor<u32>],
        ) -> bool {
            let mut merged: Vec<Descriptor<u32>> = state.clone();
            merged.extend(incoming.iter().copied().filter(|d| d.id() != own));
            if merged.is_empty() {
                return false;
            }
            bss_util::descriptor::dedup_freshest(&mut merged);
            let mut successors: Vec<Descriptor<u32>> = Vec::new();
            let mut predecessors: Vec<Descriptor<u32>> = Vec::new();
            for descriptor in merged {
                if own.is_successor(descriptor.id()) {
                    successors.push(descriptor);
                } else {
                    predecessors.push(descriptor);
                }
            }
            successors.sort_by(|a, b| {
                own.clockwise_distance(a.id())
                    .cmp(&own.clockwise_distance(b.id()))
                    .then_with(|| a.id().cmp(&b.id()))
            });
            predecessors.sort_by(|a, b| {
                a.id()
                    .clockwise_distance(own)
                    .cmp(&b.id().clockwise_distance(own))
                    .then_with(|| a.id().cmp(&b.id()))
            });
            let half = capacity / 2;
            let succ_short = half.saturating_sub(successors.len());
            let pred_short = half.saturating_sub(predecessors.len());
            successors.truncate((half + pred_short).min(successors.len()));
            predecessors.truncate((half + succ_short).min(predecessors.len()));
            let mut kept = successors;
            kept.append(&mut predecessors);
            let changed = kept.len() != state.len()
                || kept.iter().zip(state.iter()).any(|(a, b)| a.id() != b.id());
            *state = kept;
            changed
        }

        fn descriptor() -> impl Strategy<Value = Descriptor<u32>> {
            (any::<u64>(), any::<u32>(), any::<u64>())
                .prop_map(|(id, addr, ts)| Descriptor::new(NodeId::new(id), addr, ts))
        }

        proptest! {
            #[test]
            fn successors_and_predecessors_stay_balanced(
                own in any::<u64>(),
                capacity in prop::sample::select(vec![2usize, 4, 8, 20]),
                incoming in prop::collection::vec(descriptor(), 0..96),
            ) {
                let own = NodeId::new(own);
                let mut set = LeafSet::new(own, capacity);
                set.update(incoming.iter().copied());
                let half = capacity / 2;

                prop_assert!(set.len() <= capacity);
                // A side may only exceed its c/2 share by spilling into space
                // the other side could not fill.
                prop_assert!(
                    set.successors().len() <= half + half.saturating_sub(set.predecessors().len()),
                    "successors over quota: {} successors, {} predecessors, c = {capacity}",
                    set.successors().len(),
                    set.predecessors().len(),
                );
                prop_assert!(
                    set.predecessors().len() <= half + half.saturating_sub(set.successors().len()),
                    "predecessors over quota: {} successors, {} predecessors, c = {capacity}",
                    set.successors().len(),
                    set.predecessors().len(),
                );
                // Every entry is classified into the right direction.
                for entry in set.successors() {
                    prop_assert!(own.is_successor(entry.id()));
                }
                for entry in set.predecessors() {
                    prop_assert!(!own.is_successor(entry.id()));
                }
            }

            #[test]
            fn both_orderings_follow_the_ring_metric(
                own in any::<u64>(),
                incoming in prop::collection::vec(descriptor(), 1..64),
            ) {
                let own = NodeId::new(own);
                let mut set = LeafSet::new(own, 8);
                set.update(incoming.iter().copied());

                // Directed orderings: each side sorted by its own direction,
                // closest first.
                for pair in set.successors().windows(2) {
                    prop_assert!(
                        own.clockwise_distance(pair[0].id()) <= own.clockwise_distance(pair[1].id())
                    );
                }
                for pair in set.predecessors().windows(2) {
                    prop_assert!(
                        pair[0].id().clockwise_distance(own) <= pair[1].id().clockwise_distance(own)
                    );
                }
            }

            #[test]
            fn scratch_threaded_update_matches_the_reference(
                own in any::<u64>(),
                capacity in prop::sample::select(vec![2usize, 4, 8, 20]),
                batches in prop::collection::vec(
                    prop::collection::vec(descriptor(), 0..48),
                    1..6,
                ),
            ) {
                // `update_with` over a single reused scratch must behave exactly
                // like the pre-flattening implementation (kept below as
                // `reference_update`) across arbitrary batch sequences —
                // including the returned membership-change flag.
                let own = NodeId::new(own);
                let mut fast = LeafSet::new(own, capacity);
                let mut scratch = MergeScratch::default();
                let mut reference: Vec<Descriptor<u32>> = Vec::new();
                for batch in &batches {
                    let changed = fast.update_with(batch.iter().copied(), &mut scratch);
                    let ref_changed =
                        reference_update(&mut reference, own, capacity, batch);
                    prop_assert_eq!(changed, ref_changed);
                    prop_assert_eq!(fast.to_vec(), reference.clone());
                }
            }

            #[test]
            fn bounded_update_matches_the_naive_reference(
                own in any::<u64>(),
                capacity in prop::sample::select(vec![2usize, 4, 8, 20]),
                // 0: both sides, 1: successors only, 2: predecessors only.
                skew in 0u8..3,
                start in prop::collection::vec((0u64..=80, 0u64..4), 0..40),
                batches in prop::collection::vec(
                    prop::collection::vec((0u64..=90, 0u64..8, any::<u32>()), 0..24),
                    1..5,
                ),
                strangers in prop::collection::vec(descriptor(), 0..4),
            ) {
                // Identifiers clustered around the own one, so that full sets
                // with tight directed-distance bounds — and short, one-sided
                // and below-capacity sets, where a bound must not apply —
                // are all common; every batch additionally carries the cases
                // the bound is least obviously right for.
                let own = NodeId::new(own);
                let near = |offset: u64, centre: u64| {
                    let distance = offset.abs_diff(centre);
                    let signed = match skew {
                        1 => distance as i64,
                        2 => -(distance as i64),
                        _ => offset as i64 - centre as i64,
                    };
                    NodeId::new(own.raw().wrapping_add(signed as u64))
                };
                let mut fast = LeafSet::new(own, capacity);
                let mut scratch = MergeScratch::default();
                let mut reference: Vec<Descriptor<u32>> = Vec::new();
                let mut incoming: Vec<Descriptor<u32>> = start
                    .iter()
                    .map(|&(offset, ts)| Descriptor::new(near(offset, 40), offset as u32, ts))
                    .collect();
                for batch in std::iter::once(&Vec::new()).chain(&batches) {
                    incoming.extend(
                        batch
                            .iter()
                            .map(|&(offset, ts, addr)| Descriptor::new(near(offset, 45), addr, ts)),
                    );
                    let farthest = [
                        reference.iter().rfind(|d| own.is_successor(d.id())),
                        reference.iter().rfind(|d| !own.is_successor(d.id())),
                    ];
                    for (side, entry) in farthest.into_iter().enumerate() {
                        let Some(entry) = entry else { continue };
                        // A fresher copy of the farthest entry itself ...
                        let fresher = entry.timestamp().saturating_add(1);
                        incoming.push(Descriptor::new(entry.id(), 1234, fresher));
                        // ... and the identifiers one unit beyond and inside it.
                        let outward = if side == 0 { 1 } else { u64::MAX };
                        for step in [outward, outward.wrapping_neg()] {
                            let id = NodeId::new(entry.id().raw().wrapping_add(step));
                            incoming.push(Descriptor::new(id, 4321, 3));
                        }
                    }

                    let changed = fast.update_with(incoming.iter().copied(), &mut scratch);
                    let ref_changed = reference_update(&mut reference, own, capacity, &incoming);
                    prop_assert_eq!(changed, ref_changed);
                    // Membership, order, addresses and timestamps ...
                    prop_assert_eq!(fast.to_vec(), reference.clone());
                    // ... and where the successors end.
                    let ref_split = reference.iter().filter(|d| own.is_successor(d.id())).count();
                    prop_assert_eq!(fast.successors().len(), ref_split);

                    // Every later batch also carries strangers and the own id.
                    incoming.clear();
                    incoming.extend(strangers.iter().copied());
                    incoming.push(Descriptor::new(own, 7, 99));
                }
            }

            #[test]
            fn update_is_idempotent(
                own in any::<u64>(),
                capacity in prop::sample::select(vec![2usize, 4, 8, 20]),
                incoming in prop::collection::vec(descriptor(), 0..96),
            ) {
                let own = NodeId::new(own);
                let mut once = LeafSet::new(own, capacity);
                once.update(incoming.iter().copied());

                // Replaying the same batch must not change the result.
                let mut twice = once.clone();
                twice.update(incoming.iter().copied());
                prop_assert_eq!(twice.to_vec(), once.to_vec());

                // Feeding the set its own content back is a no-op too.
                let mut refed = once.clone();
                refed.update(once.to_vec());
                prop_assert_eq!(refed.to_vec(), once.to_vec());
            }
        }
    }

    #[test]
    fn evict_expired_drops_stale_entries_and_keeps_the_split_consistent() {
        let mut set = LeafSet::new(NodeId::new(1000), 6);
        let fresh = |id: u64, addr: u32| Descriptor::new(NodeId::new(id), addr, 20);
        let stale = |id: u64, addr: u32| Descriptor::new(NodeId::new(id), addr, 5);
        set.update([
            fresh(1001, 1),
            stale(1002, 2),
            fresh(1003, 3),
            stale(999, 4),
            fresh(998, 5),
        ]);
        assert_eq!(set.successors().len(), 3);
        assert_eq!(set.predecessors().len(), 2);

        // now = 20, max_age = 10: the timestamp-5 entries expire.
        assert!(set.evict_expired(20, 10));
        let mut kept = ids(&set);
        kept.sort_unstable();
        assert_eq!(kept, vec![998, 1001, 1003]);
        assert_eq!(
            set.successors().len(),
            2,
            "split tracks surviving successors"
        );
        assert_eq!(set.predecessors().len(), 1);
        // Sides stay ordered closest-first after the in-place compaction.
        assert_eq!(set.successors().first().unwrap().id().raw(), 1001);
        assert_eq!(set.predecessors().first().unwrap().id().raw(), 998);

        // Nothing left to evict: reports no change.
        assert!(!set.evict_expired(20, 10));
        // A generous bound keeps everything.
        let mut untouched = LeafSet::new(NodeId::new(1000), 4);
        untouched.update([stale(1001, 1)]);
        assert!(!untouched.evict_expired(20, 100));
        assert_eq!(untouched.len(), 1);
    }

    #[test]
    fn empty_update_and_empty_set_accessors() {
        let mut set: LeafSet<u32> = LeafSet::new(NodeId::new(5), 4);
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        set.update(std::iter::empty());
        assert!(set.is_empty());
        assert!(set.successors().is_empty());
        assert!(set.predecessors().is_empty());
        assert_eq!(set.capacity, 4);
        assert_eq!(set.own_id, NodeId::new(5));
        assert!(set.to_vec().is_empty());
    }
}
