//! The global node registry of a simulated network.
//!
//! A [`Network`] assigns each simulated node a dense [`NodeIndex`] (its "address"
//! inside the simulator), a unique [`NodeId`] and an alive/dead flag. Protocols
//! never inspect the registry directly for routing decisions — they only learn
//! about other nodes through descriptors they receive — but the registry is what
//! churn models mutate and what the convergence oracle reads to decide what the
//! *perfect* tables would be.

use bss_util::descriptor::{Descriptor, PackedDescriptor};
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use std::collections::HashMap;
use std::fmt;

/// Dense index identifying a node inside the simulator. Acts as the descriptor
/// address type for all simulated protocols.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeIndex(u32);

impl NodeIndex {
    /// Creates an index from its raw value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        NodeIndex(raw)
    }

    /// The raw index value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The index as a `usize`, for direct vector indexing.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u32> for NodeIndex {
    fn from(raw: u32) -> Self {
        NodeIndex(raw)
    }
}

/// A simulated node's registry entry.
#[derive(Clone, Copy, Debug)]
struct Entry {
    id: NodeId,
    alive: bool,
}

/// The registry of all nodes that ever existed in a simulation.
///
/// Nodes are never removed from the registry: a departed node keeps its index and
/// identifier but is marked dead, so stale descriptors pointing at it can still be
/// recognised. New joiners receive fresh indices.
#[derive(Clone, Debug)]
pub struct Network {
    entries: Vec<Entry>,
    by_id: HashMap<NodeId, NodeIndex>,
    alive_count: usize,
    /// Fenwick (binary indexed) tree over the alive flags, 1-based. Supports
    /// O(log n) rank ("how many alive nodes have a smaller index?") and select
    /// ("which index is the k-th alive node?") queries, which is what lets
    /// [`Network::sample_alive_excluding`] draw uniform samples without
    /// materialising the alive set.
    alive_tree: Vec<u32>,
}

impl Network {
    /// Creates a network of `size` alive nodes with distinct, uniformly random
    /// identifiers drawn from `rng`.
    pub fn with_random_ids(size: usize, rng: &mut SimRng) -> Self {
        let ids = rng.distinct_u64(size);
        Self::from_ids(ids.into_iter().map(NodeId::new))
    }

    /// Creates a network from an explicit list of identifiers (all alive).
    ///
    /// # Panics
    ///
    /// Panics if the identifiers are not pairwise distinct.
    pub(crate) fn from_ids(ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut network = Network::empty();
        for id in ids {
            network.add_node(id);
        }
        network
    }

    /// Creates an empty network.
    pub(crate) fn empty() -> Self {
        Network {
            entries: Vec::new(),
            by_id: HashMap::new(),
            alive_count: 0,
            alive_tree: vec![0],
        }
    }

    /// Adds a new alive node with the given identifier and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if a node with the same identifier already exists.
    pub(crate) fn add_node(&mut self, id: NodeId) -> NodeIndex {
        assert!(
            !self.by_id.contains_key(&id),
            "duplicate node identifier {id}"
        );
        let index = NodeIndex::new(self.entries.len() as u32);
        self.entries.push(Entry { id, alive: true });
        self.by_id.insert(id, index);
        self.alive_count += 1;
        self.alive_tree_push(1);
        index
    }

    /// Adds a new alive node with a random (previously unused) identifier.
    pub fn add_random_node(&mut self, rng: &mut SimRng) -> NodeIndex {
        loop {
            let id = NodeId::new(rng.next_u64());
            if !self.by_id.contains_key(&id) {
                return self.add_node(id);
            }
        }
    }

    /// Total number of registry entries (alive and dead).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of currently alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// The identifier of a node.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[inline]
    pub fn id(&self, node: NodeIndex) -> NodeId {
        self.entries[node.as_usize()].id
    }

    /// Whether a node is currently alive.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[inline]
    pub fn is_alive(&self, node: NodeIndex) -> bool {
        self.entries[node.as_usize()].alive
    }

    /// Marks a node dead. Returns `true` if the node was alive.
    pub fn kill(&mut self, node: NodeIndex) -> bool {
        let entry = &mut self.entries[node.as_usize()];
        if entry.alive {
            entry.alive = false;
            self.alive_count -= 1;
            self.alive_tree_update(node.as_usize(), -1);
            true
        } else {
            false
        }
    }

    /// Iterates over all indices, alive or dead.
    pub fn all_indices(&self) -> impl Iterator<Item = NodeIndex> + '_ {
        (0..self.entries.len() as u32).map(NodeIndex::new)
    }

    /// Iterates over the indices of alive nodes.
    pub fn alive_indices(&self) -> impl Iterator<Item = NodeIndex> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| NodeIndex::new(i as u32))
    }

    /// Collects the identifiers of alive nodes.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.entries
            .iter()
            .filter(|e| e.alive)
            .map(|e| e.id)
            .collect()
    }

    /// Builds the descriptor of a node with the supplied freshness timestamp.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn descriptor(&self, node: NodeIndex, timestamp: u64) -> Descriptor<NodeIndex> {
        Descriptor::new(self.id(node), node, timestamp)
    }

    /// Packs a simulator descriptor into its eight-byte form. The identifier
    /// is dropped — it is recoverable from the registry because every
    /// simulated descriptor is built via [`Network::descriptor`], so its
    /// identifier always equals the registry identifier of its address.
    #[inline]
    pub fn pack(descriptor: &Descriptor<NodeIndex>) -> PackedDescriptor {
        PackedDescriptor::new(descriptor.address().raw(), descriptor.timestamp())
    }

    /// Expands a packed descriptor back to the full form using the registry's
    /// identifier for its address.
    ///
    /// # Panics
    ///
    /// Panics if the packed address is out of range.
    #[inline]
    pub fn unpack(&self, packed: PackedDescriptor) -> Descriptor<NodeIndex> {
        let node = NodeIndex::new(packed.address());
        Descriptor::new(self.id(node), node, packed.timestamp())
    }

    /// Synchronises a dense identifier arena (`index -> identifier`) with the
    /// registry, extending `arena` with the entries added since the last call.
    /// Registry indices are stable and identifiers immutable, so an
    /// incremental extension is exact; a stale arena longer than the registry
    /// (a harness reusing protocol state against a fresh network) is rebuilt
    /// from scratch.
    pub fn sync_id_arena(&self, arena: &mut Vec<NodeId>) {
        if arena.len() > self.entries.len() {
            arena.clear();
        }
        arena.extend(self.entries[arena.len()..].iter().map(|e| e.id));
    }

    /// Draws up to `count` distinct, uniformly random alive nodes other than
    /// `exclude`, without materialising the alive set.
    ///
    /// This is the simulator's sampling hot path: the naive implementation
    /// (collect the alive indices, partial-Fisher–Yates over them) is O(n) per
    /// call and dominates large-network runs. This method produces the *exact*
    /// same node sequence while consuming the *exact* same `rng` stream — the
    /// partial Fisher–Yates runs over a sparse overlay of displaced positions,
    /// which only a position whose bit is set in a 256-bit mask of the
    /// displaced ones has to search, and positions are resolved to node
    /// indices through the Fenwick tree in O(log n) — so seeded traces are
    /// byte-identical to the naive version.
    pub fn sample_alive_excluding(
        &self,
        exclude: NodeIndex,
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<NodeIndex> {
        let excluded_alive = exclude.as_usize() < self.entries.len() && self.is_alive(exclude);
        let available = self.alive_count - usize::from(excluded_alive);
        let requested = count.min(available);
        if requested == 0 {
            return Vec::new();
        }
        if requested >= available {
            // Mirrors SimRng::sample's whole-slice shuffle fallback.
            let mut all: Vec<NodeIndex> = self
                .alive_indices()
                .filter(|&candidate| candidate != exclude)
                .collect();
            rng.shuffle(&mut all);
            return all;
        }
        let exclude_rank = if excluded_alive {
            self.alive_rank_below(exclude.as_usize())
        } else {
            usize::MAX
        };
        // Sparse partial Fisher–Yates: positions below `requested` live in a
        // dense array (they are read every iteration), displaced positions at
        // or above it in a small spill list (later entries shadow earlier
        // ones). Together they represent the virtual index array `0..available`
        // without materialising it. A 256-bit mask of the spilled positions
        // (by `j mod 256`) lets a position never displaced — almost every one:
        // `cr` draws out of thousands — skip the scan of the list.
        let mut dense: Vec<usize> = (0..requested).collect();
        let mut spill: Vec<(usize, usize)> = Vec::with_capacity(requested);
        let mut spilled = [0u64; 4];
        let mut out = Vec::with_capacity(requested);
        for i in 0..requested {
            let j = i + rng.index(available - i);
            let (word, bit) = ((j >> 6) & 3, 1u64 << (j & 63));
            let picked = if j < requested {
                dense[j]
            } else if spilled[word] & bit == 0 {
                j
            } else {
                spill
                    .iter()
                    .rev()
                    .find(|&&(key, _)| key == j)
                    .map(|&(_, value)| value)
                    .unwrap_or(j)
            };
            let at_i = dense[i];
            if j < requested {
                dense[j] = at_i;
            } else {
                spill.push((j, at_i));
                spilled[word] |= bit;
            }
            // Position -> global alive rank, skipping the excluded node.
            let rank = if excluded_alive && picked >= exclude_rank {
                picked + 1
            } else {
                picked
            };
            out.push(self.kth_alive(rank));
        }
        out
    }

    /// Number of alive nodes with an index strictly smaller than `index`.
    fn alive_rank_below(&self, index: usize) -> usize {
        if self.alive_count == self.entries.len() {
            return index; // nobody ever died: ranks are identities
        }
        let mut i = index;
        let mut sum = 0usize;
        while i > 0 {
            sum += self.alive_tree[i] as usize;
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// The index of the `k`-th alive node (0-based, ascending index order).
    ///
    /// # Panics
    ///
    /// Panics (with an out-of-range index) if fewer than `k + 1` nodes are alive.
    fn kth_alive(&self, k: usize) -> NodeIndex {
        let n = self.entries.len();
        if self.alive_count == n {
            assert!(k < n, "rank {k} exceeds the alive population");
            return NodeIndex::new(k as u32); // nobody ever died
        }
        let mut position = 0usize;
        let mut remaining = k + 1;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = position + step;
            if next <= n && (self.alive_tree[next] as usize) < remaining {
                position = next;
                remaining -= self.alive_tree[next] as usize;
            }
            step >>= 1;
        }
        assert!(position < n, "rank {k} exceeds the alive population");
        NodeIndex::new(position as u32)
    }

    /// Appends a new Fenwick slot holding `value` (the alive flag of the node
    /// that was just pushed onto `entries`).
    fn alive_tree_push(&mut self, value: u32) {
        // 1-based position of the new element; its tree node covers the range
        // (p - lowbit(p), p], i.e. the new element plus a suffix of the prefix.
        let p = self.entries.len();
        let low = p - (p & p.wrapping_neg());
        let covered = self.alive_rank_below(p - 1) - self.alive_rank_below(low);
        self.alive_tree.push(covered as u32 + value);
    }

    fn alive_tree_update(&mut self, index: usize, delta: i32) {
        let n = self.entries.len();
        let mut i = index + 1;
        while i <= n {
            self.alive_tree[i] = (self.alive_tree[i] as i64 + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_with_random_ids_is_reproducible() {
        let mut rng_a = SimRng::seed_from(5);
        let mut rng_b = SimRng::seed_from(5);
        let a = Network::with_random_ids(100, &mut rng_a);
        let b = Network::with_random_ids(100, &mut rng_b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.alive_count(), 100);
        for idx in a.all_indices() {
            assert_eq!(a.id(idx), b.id(idx));
        }
    }

    #[test]
    fn ids_are_unique_and_lookup_works() {
        let mut rng = SimRng::seed_from(6);
        let network = Network::with_random_ids(500, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for idx in network.all_indices() {
            let id = network.id(idx);
            assert!(seen.insert(id));
            assert_eq!(network.by_id.get(&id), Some(&idx));
        }
        assert_eq!(
            network.by_id.contains_key(&NodeId::new(0)),
            seen.contains(&NodeId::new(0))
        );
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_are_rejected() {
        let mut network = Network::empty();
        network.add_node(NodeId::new(7));
        network.add_node(NodeId::new(7));
    }

    #[test]
    fn kill_updates_counts() {
        let network_ids = [1u64, 2, 3].map(NodeId::new);
        let mut network = Network::from_ids(network_ids);
        let victim = NodeIndex::new(1);
        assert!(network.kill(victim));
        assert!(!network.kill(victim), "killing twice reports false");
        assert!(!network.is_alive(victim));
        assert_eq!(network.alive_count(), 2);
        assert_eq!(network.alive_ids().len(), 2);
    }

    #[test]
    fn alive_indices_skips_dead_nodes() {
        let mut network = Network::from_ids([10u64, 20, 30, 40].map(NodeId::new));
        network.kill(NodeIndex::new(0));
        network.kill(NodeIndex::new(2));
        let alive: Vec<_> = network.alive_indices().collect();
        assert_eq!(alive, vec![NodeIndex::new(1), NodeIndex::new(3)]);
        assert_eq!(network.all_indices().count(), 4);
    }

    #[test]
    fn descriptor_carries_id_address_and_timestamp() {
        let network = Network::from_ids([NodeId::new(99)]);
        let d = network.descriptor(NodeIndex::new(0), 12);
        assert_eq!(d.id(), NodeId::new(99));
        assert_eq!(d.address(), NodeIndex::new(0));
        assert_eq!(d.timestamp(), 12);
    }

    #[test]
    fn add_random_node_avoids_collisions() {
        let mut rng = SimRng::seed_from(11);
        let mut network = Network::with_random_ids(10, &mut rng);
        let before = network.len();
        let idx = network.add_random_node(&mut rng);
        assert_eq!(network.len(), before + 1);
        assert!(network.is_alive(idx));
    }

    #[test]
    fn node_index_display_and_conversions() {
        let idx: NodeIndex = 3u32.into();
        assert_eq!(idx.to_string(), "#3");
        assert_eq!(idx.raw(), 3);
        assert_eq!(idx.as_usize(), 3);
    }

    #[test]
    fn sample_alive_excluding_replays_the_naive_sampler_exactly() {
        // The Fenwick-backed fast path must consume the same RNG stream and
        // return the same nodes as "collect the alive set, partial
        // Fisher–Yates over it" — that is what keeps seeded traces
        // byte-identical after the hot-path optimisation.
        let mut seed_rng = SimRng::seed_from(77);
        let mut network = Network::with_random_ids(200, &mut seed_rng);
        for raw in [3u32, 50, 52, 120, 199] {
            network.kill(NodeIndex::new(raw));
        }
        let replay = |network: &Network, exclude: u32, count: usize| {
            let exclude = NodeIndex::new(exclude);
            let mut fast_rng = SimRng::seed_from(1000 + u64::from(exclude.raw()));
            let mut naive_rng = fast_rng.clone();
            let fast = network.sample_alive_excluding(exclude, count, &mut fast_rng);
            let alive: Vec<NodeIndex> = network
                .alive_indices()
                .filter(|&candidate| candidate != exclude)
                .collect();
            let naive = naive_rng.sample(&alive, count.min(alive.len()));
            assert_eq!(fast, naive, "exclude {exclude} count {count}");
            assert_eq!(fast_rng, naive_rng, "RNG streams diverged");
        };
        for (exclude, count) in [(0u32, 10), (51, 25), (3, 7), (199, 1), (10, 500)] {
            replay(&network, exclude, count);
        }
        // Hundreds of displaced positions, so many share a bit of the
        // sampler's 256-bit spill mask, and positions come back after a spill.
        let mut network = Network::with_random_ids(2_000, &mut seed_rng);
        for raw in (0..2_000u32).step_by(7) {
            network.kill(NodeIndex::new(raw));
        }
        let available = network.alive_count() - 1;
        for count in [600, 1_500, available - 1] {
            replay(&network, 1, count);
            replay(&network, 0, count);
        }
    }

    #[test]
    fn sample_alive_excluding_handles_tiny_populations() {
        let mut network = Network::from_ids([1u64, 2].map(NodeId::new));
        let mut rng = SimRng::seed_from(5);
        assert_eq!(
            network.sample_alive_excluding(NodeIndex::new(0), 4, &mut rng),
            vec![NodeIndex::new(1)]
        );
        network.kill(NodeIndex::new(1));
        assert!(network
            .sample_alive_excluding(NodeIndex::new(0), 4, &mut rng)
            .is_empty());
    }

    #[test]
    fn empty_network_reports_empty() {
        let network = Network::empty();
        assert!(network.is_empty());
        assert_eq!(network.len(), 0);
        assert_eq!(network.alive_count(), 0);
    }
}
