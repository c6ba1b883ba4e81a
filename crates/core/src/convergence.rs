//! The convergence oracle: what would *perfect* tables look like?
//!
//! Whether a node's leaf set and prefix table are perfect "cannot be decided
//! locally" (§5) — it depends on the actual set of identifiers present in the
//! network. The [`ConvergenceOracle`] is given that global set and computes, for
//! any node:
//!
//! * the **perfect leaf set** — the `c/2` identifiers immediately following and the
//!   `c/2` immediately preceding the node on the sorted ring (or simply all other
//!   nodes when the network is smaller than `c + 1`), and
//! * the number of **fillable prefix-table slots** — for every `(row, column)`
//!   slot, `min(k, number of live identifiers with that prefix relation)`; "the
//!   entries may be less than k if there are not enough node IDs with the desired
//!   prefix and digit among the participating nodes" (§4).
//!
//! The per-cycle quantity plotted in Figures 3 and 4 — the proportion of missing
//! leaf-set and prefix-table entries over all nodes — is computed by comparing each
//! node's current state against these targets.

use crate::compact::CompactNode;
use crate::node::BootstrapNode;
use bss_sim::network::NodeIndex;
use bss_util::config::BootstrapParams;
use bss_util::descriptor::{Address, Descriptor};
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;

/// Global knowledge of the live identifier set, able to judge any node's tables.
#[derive(Debug, Clone)]
pub struct ConvergenceOracle {
    sorted_ids: Vec<NodeId>,
    geometry: TableGeometry,
    leaf_set_size: usize,
    entries_per_slot: usize,
}

/// One identifier's perfect leaf set as two directed distances (see
/// [`ConvergenceOracle::leaf_bounds`]).
#[derive(Debug, Clone, Copy)]
pub struct LeafBounds {
    own: NodeId,
    /// Clockwise distance from `own` to the farthest kept successor.
    successor_reach: u64,
    /// Counter-clockwise distance from `own` to the farthest kept predecessor.
    predecessor_reach: u64,
    /// Size of the perfect leaf set.
    total: usize,
}

impl LeafBounds {
    /// Whether `other`, a live identifier, is in the perfect leaf set: on the
    /// side the protocol classifies it on, no farther than that side reaches.
    #[inline]
    pub fn contains(&self, other: NodeId) -> bool {
        let clockwise = self.own.clockwise_distance(other);
        let counter_clockwise = clockwise.wrapping_neg();
        if clockwise <= counter_clockwise {
            clockwise != 0 && clockwise <= self.successor_reach
        } else {
            counter_clockwise <= self.predecessor_reach
        }
    }
}

/// Missing/total counts for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeConvergence {
    /// Perfect leaf-set entries the node does not yet have.
    pub leaf_missing: usize,
    /// Size of the node's perfect leaf set.
    pub leaf_total: usize,
    /// Fillable prefix-table entries the node does not yet have.
    pub prefix_missing: usize,
    /// Number of fillable prefix-table entries for this node.
    pub prefix_total: usize,
}

/// Missing/total counts aggregated over a whole network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkConvergence {
    /// Sum of [`NodeConvergence::leaf_missing`] over all measured nodes.
    pub leaf_missing: usize,
    /// Sum of [`NodeConvergence::leaf_total`] over all measured nodes.
    pub leaf_total: usize,
    /// Sum of [`NodeConvergence::prefix_missing`] over all measured nodes.
    pub prefix_missing: usize,
    /// Sum of [`NodeConvergence::prefix_total`] over all measured nodes.
    pub prefix_total: usize,
}

impl NetworkConvergence {
    /// Adds one node's counts to the aggregate.
    pub fn accumulate(&mut self, node: NodeConvergence) {
        self.leaf_missing += node.leaf_missing;
        self.leaf_total += node.leaf_total;
        self.prefix_missing += node.prefix_missing;
        self.prefix_total += node.prefix_total;
    }

    /// Removes one node's previously accumulated counts from the aggregate (the
    /// inverse of [`NetworkConvergence::accumulate`], used by the incremental
    /// tracker when a node's cached measurement is replaced).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `node` was never accumulated, i.e. the
    /// subtraction would underflow.
    pub(crate) fn retract(&mut self, node: NodeConvergence) {
        debug_assert!(
            self.leaf_missing >= node.leaf_missing
                && self.leaf_total >= node.leaf_total
                && self.prefix_missing >= node.prefix_missing
                && self.prefix_total >= node.prefix_total,
            "retracting counts that were never accumulated"
        );
        self.leaf_missing -= node.leaf_missing;
        self.leaf_total -= node.leaf_total;
        self.prefix_missing -= node.prefix_missing;
        self.prefix_total -= node.prefix_total;
    }

    /// Proportion of missing leaf-set entries (0 when nothing is expected).
    pub fn leaf_proportion(&self) -> f64 {
        if self.leaf_total == 0 {
            0.0
        } else {
            self.leaf_missing as f64 / self.leaf_total as f64
        }
    }

    /// Proportion of missing prefix-table entries (0 when nothing is expected).
    pub fn prefix_proportion(&self) -> f64 {
        if self.prefix_total == 0 {
            0.0
        } else {
            self.prefix_missing as f64 / self.prefix_total as f64
        }
    }

    /// Whether every measured node has perfect leaf sets *and* prefix tables — the
    /// paper's termination condition.
    pub fn is_perfect(&self) -> bool {
        self.leaf_missing == 0 && self.prefix_missing == 0
    }
}

/// Incremental convergence accounting: caches one [`NodeConvergence`] per node
/// and maintains their running sum, so a measurement pass only has to
/// re-measure the nodes whose tables actually changed since the previous pass
/// (the *dirty set* reported by the protocol driver).
///
/// Once the epidemic saturates, most exchanges stop changing tables, so the
/// dirty set — and with it the per-cycle observer cost — collapses from O(n)
/// table walks to a handful. The cached aggregate is exact: the sums it reports
/// are integer-identical to re-measuring every node against the same oracle.
///
/// Only valid while the oracle (the live identifier population) is unchanged;
/// under churn the caller must rebuild both the oracle and the tracker.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvergenceTracker {
    per_node: Vec<Option<NodeConvergence>>,
    aggregate: NetworkConvergence,
}

impl ConvergenceTracker {
    /// Creates an empty tracker (no node measured yet).
    pub(crate) fn new() -> Self {
        ConvergenceTracker::default()
    }

    /// The current aggregate over every cached node measurement.
    pub(crate) fn aggregate(&self) -> NetworkConvergence {
        self.aggregate
    }

    /// The cached measurement of the node at `index`, when it counts.
    pub(crate) fn cached(&self, index: usize) -> Option<NodeConvergence> {
        self.per_node.get(index).copied().flatten()
    }

    /// Every cached node measurement with the index of its node.
    pub(crate) fn per_node(&self) -> impl Iterator<Item = (usize, NodeConvergence)> + '_ {
        (0..self.per_node.len()).filter_map(|index| Some((index, self.cached(index)?)))
    }

    /// Replaces the cached measurement of the node at `index` (`None` when the
    /// node is dead or uninitialised and must no longer count), keeping the
    /// aggregate in sync.
    pub(crate) fn update_node(&mut self, index: usize, measured: Option<NodeConvergence>) {
        if index >= self.per_node.len() {
            self.per_node.resize(index + 1, None);
        }
        if let Some(previous) = self.per_node[index].take() {
            self.aggregate.retract(previous);
        }
        if let Some(current) = measured {
            self.aggregate.accumulate(current);
        }
        self.per_node[index] = measured;
    }
}

impl ConvergenceOracle {
    /// Builds an oracle from the set of live identifiers and the protocol
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid or `ids` contains duplicates.
    pub fn new(ids: impl IntoIterator<Item = NodeId>, params: &BootstrapParams) -> Self {
        params.validate().expect("invalid protocol parameters");
        let mut sorted_ids: Vec<NodeId> = ids.into_iter().collect();
        sorted_ids.sort_unstable();
        let before = sorted_ids.len();
        sorted_ids.dedup();
        assert_eq!(before, sorted_ids.len(), "duplicate identifiers");
        ConvergenceOracle {
            sorted_ids,
            geometry: params.geometry().expect("validated geometry"),
            leaf_set_size: params.leaf_set_size,
            entries_per_slot: params.entries_per_slot,
        }
    }

    /// The perfect leaf set of `id`: the fixed point of `UPDATELEAFSET` when every
    /// live identifier is known — the `c/2` closest *successors* (identifiers
    /// closer in the increasing ring direction) and the `c/2` closest
    /// *predecessors*, with one side spilling into the other when it has fewer than
    /// `c/2` candidates, exactly as the protocol's update rule behaves. When the
    /// network has at most `c + 1` nodes this is simply every other live
    /// identifier.
    ///
    /// For realistic populations (uniformly random identifiers, `n ≫ c`) this
    /// coincides with "the `c/2` identifiers immediately following and preceding
    /// the node on the sorted ring"; the two definitions only diverge when a
    /// node's ring neighbours are more than half the identifier space away, which
    /// can happen in tiny or highly clustered populations.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the live set.
    pub fn perfect_leaf_set(&self, id: NodeId) -> Vec<NodeId> {
        self.perfect_leaf_ids(id).collect()
    }

    /// [`ConvergenceOracle::perfect_leaf_set`] without the allocation:
    /// successors closest first, then predecessors closest first.
    fn perfect_leaf_ids(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (position, successors, predecessors) = self.leaf_walk(id);
        let n = self.sorted_ids.len();
        (1..=successors)
            .map(move |step| position + step)
            .chain((1..=predecessors).map(move |step| position + n - step))
            .map(|index| self.ring(index))
    }

    /// The same set as two directed distances: everything live between the
    /// farthest kept predecessor and the farthest kept successor, so a stored
    /// entry is tested with one comparison. Panics like
    /// [`ConvergenceOracle::perfect_leaf_set`].
    pub fn leaf_bounds(&self, id: NodeId) -> LeafBounds {
        let (position, successors, predecessors) = self.leaf_walk(id);
        let n = self.sorted_ids.len();
        // A side that keeps nobody reaches as far as `id` itself: distance 0.
        LeafBounds {
            own: id,
            successor_reach: id.clockwise_distance(self.ring(position + successors)),
            predecessor_reach: self
                .ring(position + n - predecessors)
                .clockwise_distance(id),
            total: successors + predecessors,
        }
    }

    /// The identifier at `index` of the sorted ring, for an index less than one
    /// turn past the end.
    fn ring(&self, index: usize) -> NodeId {
        let n = self.sorted_ids.len();
        self.sorted_ids[if index < n { index } else { index - n }]
    }

    /// The one walk behind both forms of the perfect leaf set: `id`'s position
    /// on the sorted ring and how many identifiers after and before it the set
    /// keeps.
    fn leaf_walk(&self, id: NodeId) -> (usize, usize, usize) {
        let position = self
            .sorted_ids
            .binary_search(&id)
            .expect("id not in the live identifier set");
        let n = self.sorted_ids.len();
        let reach = self.leaf_set_size.min(n - 1);
        // Forward, the identifiers the protocol classifies as successors
        // (clockwise distance no larger than counter-clockwise); backward, the
        // predecessors. The classification is monotone along either walk, so
        // the first failure ends it, and the two walks never meet.
        let successors = (1..=reach)
            .take_while(|step| id.is_successor(self.ring(position + step)))
            .count();
        let predecessors = (1..=reach)
            .take_while(|step| !id.is_successor(self.ring(position + n - step)))
            .count();
        // Keep c/2 per side, spilling into the other side when one is short —
        // mirroring LeafSet::update. With at most c other identifiers this
        // keeps them all.
        let half = self.leaf_set_size / 2;
        (
            position,
            (half + half.saturating_sub(predecessors)).min(successors),
            (half + half.saturating_sub(successors)).min(predecessors),
        )
    }

    /// The total number of fillable prefix-table entries for `id`: for every slot,
    /// `min(k, number of live identifiers whose longest common prefix with `id` has
    /// that length and whose next digit is the slot's column)`.
    pub fn fillable_prefix_entries(&self, id: NodeId) -> usize {
        let mut total = 0;
        self.for_each_fillable_slot(id, |_, _, live| {
            total += live.len().min(self.entries_per_slot)
        });
        total
    }

    /// Measures one node against the oracle.
    pub fn measure_node<A: Address>(&self, node: &BootstrapNode<A>) -> NodeConvergence {
        let id = node.id();

        // Leaf set: how many of the perfect entries are present?
        let mut leaf_total = 0;
        let leaf_missing = self
            .perfect_leaf_ids(id)
            .inspect(|_| leaf_total += 1)
            .filter(|&target| !node.leaf_set().contains(target))
            .count();

        // Prefix table: per slot, how many of the fillable entries are present and
        // still alive? A stored entry's slot is a function of its identifier, so
        // it is alive exactly when the slot's own live range holds it.
        let mut prefix_missing = 0;
        let mut prefix_total = 0;
        self.for_each_fillable_slot(id, |row, column, live| {
            let fillable = live.len().min(self.entries_per_slot);
            prefix_total += fillable;
            let live_entries = node
                .prefix_table()
                .slot(row, column)
                .iter()
                .filter(|d| live.binary_search(&d.id()).is_ok())
                .count();
            prefix_missing += fillable.saturating_sub(live_entries);
        });

        NodeConvergence {
            leaf_missing,
            leaf_total,
            prefix_missing,
            prefix_total,
        }
    }

    /// [`ConvergenceOracle::measure_node`] over the packed store in place, for
    /// an oracle built from the identifiers of the addresses `alive` accepts:
    /// an entry the registry vouches for is live exactly when its address is
    /// alive, a forged one when the identifier it advertised is, and a slot
    /// never holds more distinct live identifiers than it can be filled with,
    /// so what is missing is the total minus what is live. `prefix_total` is
    /// the node's count from an earlier measurement against this oracle.
    pub(crate) fn measure_packed(
        &self,
        node: NodeIndex,
        packed: &CompactNode,
        ids: &[NodeId],
        alive: impl Fn(u32) -> bool,
        prefix_total: Option<usize>,
    ) -> NodeConvergence {
        let id = ids[node.as_usize()];
        let bounds = self.leaf_bounds(id);
        let live_id = |id: NodeId| self.sorted_ids.binary_search(&id).is_ok();
        let live = |entry: &Descriptor<NodeIndex>| match entry.address().as_usize() {
            address if ids[address] == entry.id() => alive(address as u32),
            _ => live_id(entry.id()),
        };
        let in_bounds = |entry: &Descriptor<NodeIndex>| bounds.contains(entry.id()) && live(entry);
        let leaf_present = packed.leaf_descriptors(ids).filter(in_bounds).count();
        let prefix_present = packed.live_prefix_entries(&alive, live_id);
        let prefix_total = prefix_total.unwrap_or_else(|| self.fillable_prefix_entries(id));
        NodeConvergence {
            leaf_missing: bounds.total - leaf_present,
            leaf_total: bounds.total,
            prefix_missing: prefix_total - prefix_present,
            prefix_total,
        }
    }

    /// Calls `visit(row, column, live)` for every slot of `id`'s table that can
    /// hold at least one entry given the live identifier population; `live` is
    /// the sorted run of live identifiers belonging to that slot (non-empty),
    /// of which the slot can hold `min(k, live.len())`.
    ///
    /// The walk narrows a contiguous range of the sorted identifier array row by
    /// row (identifiers sharing a prefix are contiguous when sorted), so the cost
    /// per node is `O(filled_rows * columns * log n)` rather than `O(n)`.
    fn for_each_fillable_slot(&self, id: NodeId, mut visit: impl FnMut(usize, u8, &[NodeId])) {
        let bits = self.geometry.bits_per_digit();
        let columns = self.geometry.columns();
        // Range of identifiers sharing the first `row` digits with `id`.
        let mut low = 0usize;
        let mut high = self.sorted_ids.len();
        for row in 0..self.geometry.rows() {
            // If the current range contains only `id` itself (or nothing), no deeper
            // slot can be filled by anyone.
            if high.saturating_sub(low) <= 1 {
                break;
            }
            let own_digit = id.digit(row, bits);
            let mut next_low = low;
            let mut next_high = high;
            for column in 0..columns as u8 {
                let (slot_low, slot_high) = self.digit_range(low, high, id, row, column);
                if column == own_digit {
                    next_low = slot_low;
                    next_high = slot_high;
                    continue;
                }
                if slot_high > slot_low {
                    visit(row, column, &self.sorted_ids[slot_low..slot_high]);
                }
            }
            low = next_low;
            high = next_high;
        }
    }

    /// The sub-range of `sorted_ids[low..high]` whose digit at position `row`
    /// equals `column`, assuming all identifiers in `[low, high)` share the first
    /// `row` digits with `id`.
    fn digit_range(
        &self,
        low: usize,
        high: usize,
        id: NodeId,
        row: usize,
        column: u8,
    ) -> (usize, usize) {
        let bits = u32::from(self.geometry.bits_per_digit());
        let shift = 64 - bits * (row as u32 + 1);
        let prefix_mask = if row == 0 {
            0
        } else {
            !(u64::MAX >> (bits * row as u32))
        };
        let base = (id.raw() & prefix_mask) | (u64::from(column) << shift);
        let slice = &self.sorted_ids[low..high];
        let start = slice.partition_point(|candidate| candidate.raw() < base);
        let end = if shift == 0 {
            slice.partition_point(|candidate| candidate.raw() <= base)
        } else {
            let upper = base | (u64::MAX >> (64 - shift));
            slice.partition_point(|candidate| candidate.raw() <= upper)
        };
        (low + start, low + end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_util::descriptor::Descriptor;
    use std::collections::HashSet;

    fn params(c: usize, k: usize) -> BootstrapParams {
        BootstrapParams {
            leaf_set_size: c,
            entries_per_slot: k,
            ..BootstrapParams::paper_default()
        }
    }

    #[test]
    fn perfect_leaf_set_on_a_small_ring() {
        let ids: Vec<NodeId> = [10u64, 20, 30, 40, 50, 60].map(NodeId::new).into();
        let oracle = ConvergenceOracle::new(ids, &params(4, 3));
        let perfect = oracle.perfect_leaf_set(NodeId::new(30));
        let as_raw: HashSet<u64> = perfect.iter().map(|id| id.raw()).collect();
        assert_eq!(as_raw, HashSet::from([40, 50, 20, 10]));
        assert_eq!(perfect.len(), 4);
    }

    #[test]
    fn perfect_leaf_set_spills_when_one_direction_is_empty() {
        // All identifiers are clustered near zero, so from the largest node every
        // other node is "closer in the decreasing direction": the protocol's update
        // rule keeps predecessors only, spilling the successor half into them.
        let ids: Vec<NodeId> = [10u64, 20, 30, 40, 50, 60].map(NodeId::new).into();
        let oracle = ConvergenceOracle::new(ids, &params(4, 3));
        let perfect = oracle.perfect_leaf_set(NodeId::new(60));
        let as_raw: HashSet<u64> = perfect.iter().map(|id| id.raw()).collect();
        assert_eq!(as_raw, HashSet::from([50, 40, 30, 20]));
    }

    #[test]
    fn perfect_leaf_set_wraps_for_uniformly_spread_identifiers() {
        // Identifiers spread evenly over the whole ring: the largest node's
        // successors wrap around to the smallest identifiers.
        let step = u64::MAX / 8;
        let ids: Vec<NodeId> = (0..8u64).map(|i| NodeId::new(i * step)).collect();
        let oracle = ConvergenceOracle::new(ids.clone(), &params(4, 3));
        let top = ids[7];
        let perfect = oracle.perfect_leaf_set(top);
        let as_set: HashSet<NodeId> = perfect.iter().copied().collect();
        assert!(
            as_set.contains(&ids[0]),
            "first id is the wrap-around successor"
        );
        assert!(as_set.contains(&ids[1]));
        assert!(as_set.contains(&ids[6]));
        assert!(as_set.contains(&ids[5]));
        assert_eq!(perfect.len(), 4);
    }

    #[test]
    fn perfect_leaf_set_matches_the_protocols_fixed_point() {
        // Feeding a LeafSet every live identifier must yield exactly the oracle's
        // perfect set, for clustered and for random populations alike.
        use bss_util::rng::SimRng;
        let p = params(6, 3);
        let mut rng = SimRng::seed_from(7);
        let mut populations: Vec<Vec<NodeId>> = vec![[1u64, 2, 3, 5, 8, 13, 21, 34, 55, 89]
            .map(NodeId::new)
            .into()];
        populations.push(rng.distinct_u64(40).into_iter().map(NodeId::new).collect());
        for ids in populations {
            let oracle = ConvergenceOracle::new(ids.clone(), &p);
            for &me in &ids {
                let mut leaf_set: crate::leafset::LeafSet<u32> =
                    crate::leafset::LeafSet::new(me, p.leaf_set_size);
                leaf_set.update(ids.iter().map(|&other| Descriptor::new(other, 0u32, 0)));
                let achieved: HashSet<NodeId> = leaf_set.iter().map(|d| d.id()).collect();
                let perfect: HashSet<NodeId> = oracle.perfect_leaf_set(me).into_iter().collect();
                assert_eq!(achieved, perfect, "fixed point mismatch for {me}");
            }
        }
    }

    #[test]
    fn tiny_networks_expect_everyone() {
        let ids: Vec<NodeId> = [1u64, 2, 3].map(NodeId::new).into();
        let oracle = ConvergenceOracle::new(ids, &params(20, 3));
        let perfect = oracle.perfect_leaf_set(NodeId::new(2));
        assert_eq!(perfect.len(), 2);
        let lonely = ConvergenceOracle::new([NodeId::new(9)], &params(4, 3));
        assert!(lonely.perfect_leaf_set(NodeId::new(9)).is_empty());
    }

    #[test]
    #[should_panic(expected = "not in the live identifier set")]
    fn perfect_leaf_set_rejects_unknown_ids() {
        let oracle = ConvergenceOracle::new([NodeId::new(1)], &params(4, 3));
        let _ = oracle.perfect_leaf_set(NodeId::new(2));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_identifiers_are_rejected() {
        let _ = ConvergenceOracle::new([NodeId::new(1), NodeId::new(1)], &params(4, 3));
    }

    #[test]
    fn fillable_slots_match_a_brute_force_count() {
        // Small population, b = 4, k = 2: brute-force the expected counts.
        let raw_ids = [
            0x1111_0000_0000_0000u64,
            0x1122_0000_0000_0000,
            0x1133_0000_0000_0000,
            0x1134_0000_0000_0000,
            0x2222_0000_0000_0000,
            0x2223_0000_0000_0000,
            0xF000_0000_0000_0000,
        ];
        let ids: Vec<NodeId> = raw_ids.map(NodeId::new).into();
        let p = params(4, 2);
        let oracle = ConvergenceOracle::new(ids.clone(), &p);
        let geometry = p.geometry().unwrap();
        for &me in &ids {
            // Brute force: group all other ids by slot and cap at k.
            let mut per_slot: std::collections::HashMap<(usize, u8), usize> =
                std::collections::HashMap::new();
            for &other in &ids {
                if let Some(slot) = geometry.slot_of(me, other) {
                    *per_slot.entry(slot).or_default() += 1;
                }
            }
            let expected: usize = per_slot.values().map(|&count| count.min(2)).sum();
            assert_eq!(
                oracle.fillable_prefix_entries(me),
                expected,
                "fillable mismatch for {me}"
            );
        }
    }

    #[test]
    fn fillable_slots_against_brute_force_on_random_population() {
        use bss_util::rng::SimRng;
        let mut rng = SimRng::seed_from(99);
        let ids: Vec<NodeId> = rng.distinct_u64(200).into_iter().map(NodeId::new).collect();
        let p = params(20, 3);
        let geometry = p.geometry().unwrap();
        let oracle = ConvergenceOracle::new(ids.clone(), &p);
        for &me in ids.iter().take(20) {
            let mut per_slot: std::collections::HashMap<(usize, u8), usize> =
                std::collections::HashMap::new();
            for &other in &ids {
                if let Some(slot) = geometry.slot_of(me, other) {
                    *per_slot.entry(slot).or_default() += 1;
                }
            }
            let expected: usize = per_slot.values().map(|&count| count.min(3)).sum();
            assert_eq!(oracle.fillable_prefix_entries(me), expected);
        }
    }

    #[test]
    fn measure_node_reports_missing_and_perfect_states() {
        let ids: Vec<NodeId> = [100u64, 200, 300, 400, 500, 600].map(NodeId::new).into();
        let p = params(4, 3);
        let oracle = ConvergenceOracle::new(ids.clone(), &p);

        let own = Descriptor::new(NodeId::new(300), 2u32, 0);
        let mut node = BootstrapNode::new(own, &p).unwrap();
        let fresh = oracle.measure_node(&node);
        assert_eq!(fresh.leaf_total, 4);
        assert_eq!(fresh.leaf_missing, 4);
        assert_eq!(
            fresh.prefix_total,
            oracle.fillable_prefix_entries(NodeId::new(300))
        );
        assert_eq!(fresh.prefix_missing, fresh.prefix_total);

        // Feed the node everything: it becomes perfect.
        let all: Vec<Descriptor<u32>> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| Descriptor::new(id, i as u32, 0))
            .collect();
        node.receive(&all);
        let converged = oracle.measure_node(&node);
        assert_eq!(converged.leaf_missing, 0);
        assert_eq!(converged.prefix_missing, 0);

        let mut aggregate = NetworkConvergence::default();
        aggregate.accumulate(fresh);
        aggregate.accumulate(converged);
        assert!(!aggregate.is_perfect());
        assert!(aggregate.leaf_proportion() > 0.0 && aggregate.leaf_proportion() < 1.0);
        assert!(aggregate.prefix_proportion() > 0.0);
    }

    #[test]
    fn dead_entries_do_not_count_as_filled() {
        let live: Vec<NodeId> = [100u64, 200, 300, 400, 500, 600].map(NodeId::new).into();
        let p = params(4, 3);
        let oracle = ConvergenceOracle::new(live, &p);
        let own = Descriptor::new(NodeId::new(300), 0u32, 0);
        let mut node = BootstrapNode::new(own, &p).unwrap();
        // The node only knows a departed identifier (700 is not in the live set).
        node.receive(&[Descriptor::new(NodeId::new(700), 9u32, 0)]);
        let measured = oracle.measure_node(&node);
        assert_eq!(measured.prefix_missing, measured.prefix_total);
    }

    #[test]
    fn empty_aggregate_is_perfect_with_zero_proportions() {
        let aggregate = NetworkConvergence::default();
        assert!(aggregate.is_perfect());
        assert_eq!(aggregate.leaf_proportion(), 0.0);
        assert_eq!(aggregate.prefix_proportion(), 0.0);
    }
}
