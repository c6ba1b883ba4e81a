//! Per-node protocol state: the active/passive thread logic of Fig. 2.
//!
//! A [`BootstrapNode`] owns one node's leaf set and prefix table and implements the
//! protocol's node-local operations: peer selection (`SELECTPEER`), message
//! composition (`CREATEMESSAGE`, delegated to [`crate::message`]) and state update
//! on receipt (`UPDATELEAFSET` + `UPDATEPREFIXTABLE`). It is deliberately free of
//! any simulator or network dependency — the same type is driven by the
//! cycle-driven simulator (`crate::protocol`), the event-driven simulator and the
//! UDP deployment in `bss-net`.

use crate::leafset::{LeafSet, MergeScratch};
use crate::message::{create_message_into, MessageScratch};
use crate::prefix_table::PrefixTable;
use bss_util::config::BootstrapParams;
use bss_util::descriptor::{Address, Descriptor};
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;

/// One node's bootstrapping-service state.
///
/// # Example
///
/// ```rust
/// use bss_core::node::BootstrapNode;
/// use bss_util::config::BootstrapParams;
/// use bss_util::descriptor::Descriptor;
/// use bss_util::id::NodeId;
/// use bss_util::rng::SimRng;
///
/// let params = BootstrapParams::paper_default();
/// let own = Descriptor::new(NodeId::new(42), 0u32, 0);
/// let mut node = BootstrapNode::new(own, &params).unwrap();
///
/// // Seed the leaf set with a few random contacts (the paper's start condition).
/// node.initialize([Descriptor::new(NodeId::new(99), 1u32, 0)]);
/// let mut rng = SimRng::seed_from(1);
/// let peer = node.select_peer_with(&mut rng, &mut Vec::new()).unwrap();
/// assert_eq!(peer.id(), NodeId::new(99));
/// ```
#[derive(Debug, Clone)]
pub struct BootstrapNode<A> {
    own: Descriptor<A>,
    params: BootstrapParams,
    leaf_set: LeafSet<A>,
    prefix_table: PrefixTable<A>,
    exchanges_initiated: u64,
    descriptors_received: u64,
}

impl<A: Address> BootstrapNode<A> {
    /// Creates the state for the node described by `own`.
    ///
    /// # Errors
    ///
    /// Returns the parameter-validation error when `params` is invalid.
    pub fn new(
        own: Descriptor<A>,
        params: &BootstrapParams,
    ) -> Result<Self, bss_util::config::InvalidParams> {
        params.validate()?;
        let geometry = params
            .geometry()
            .expect("geometry validated by params.validate()");
        Ok(BootstrapNode {
            own,
            params: *params,
            leaf_set: LeafSet::new(own.id(), params.leaf_set_size),
            prefix_table: PrefixTable::new(own.id(), geometry),
            exchanges_initiated: 0,
            descriptors_received: 0,
        })
    }

    /// The node's own descriptor.
    pub fn own_descriptor(&self) -> Descriptor<A> {
        self.own
    }

    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.own.id()
    }

    /// The protocol parameters this node runs with.
    pub fn params(&self) -> &BootstrapParams {
        &self.params
    }

    /// The table geometry.
    pub(crate) fn geometry(&self) -> TableGeometry {
        self.prefix_table.geometry()
    }

    /// The current leaf set.
    pub fn leaf_set(&self) -> &LeafSet<A> {
        &self.leaf_set
    }

    /// The current prefix table.
    pub fn prefix_table(&self) -> &PrefixTable<A> {
        &self.prefix_table
    }

    /// Number of exchanges this node has initiated (active-thread iterations).
    pub fn exchanges_initiated(&self) -> u64 {
        self.exchanges_initiated
    }

    /// Total number of descriptors received in messages so far.
    pub fn descriptors_received(&self) -> u64 {
        self.descriptors_received
    }

    /// Start-up: "all nodes use the peer sampling service to initialize their leaf
    /// sets with a set of random nodes, and clear their prefix table" (§4).
    pub fn initialize(&mut self, random_contacts: impl IntoIterator<Item = Descriptor<A>>) {
        self.leaf_set = LeafSet::new(self.own.id(), self.params.leaf_set_size);
        self.prefix_table = PrefixTable::new(self.own.id(), self.geometry());
        self.leaf_set.update(random_contacts);
    }

    /// `SELECTPEER`: orders the leaf set by ring distance from the own identifier
    /// and picks a random element from the first (closer) half. Returns `None`
    /// when the leaf set is empty.
    ///
    /// Nothing is sorted or copied: the pick walks the two sides the leaf set
    /// already keeps in distance order, no further than the drawn position —
    /// the element is identical to sorting the whole set. `_candidates` is
    /// unused; the argument stays only because callers outside the workspace
    /// still pass a buffer.
    pub fn select_peer_with(
        &self,
        rng: &mut SimRng,
        _candidates: &mut Vec<Descriptor<A>>,
    ) -> Option<Descriptor<A>> {
        let leaf = &self.leaf_set;
        let successors = leaf.successors().iter().copied();
        let predecessors = leaf.predecessors().iter().copied();
        select_peer_in(self.own.id(), leaf.len(), successors, predecessors, rng)
    }

    /// `CREATEMESSAGE`: composes the message to send to `peer_id`, mixing in
    /// the `cr` random samples obtained from the peer sampling service, and
    /// increments the exchange counter when `initiating` is true (the active
    /// thread). Working memory is the caller's; the message is returned as a
    /// freshly allocated vector, for drivers that hand it on by value (the
    /// wire codec).
    ///
    /// The composition is clock-aware: when descriptor aging is configured, the
    /// node first re-stamps its own descriptor with `now` — this is the
    /// heartbeat half of the failure detector: a live node keeps its
    /// circulating descriptor fresh by gossiping, so only departed nodes'
    /// descriptors ever expire. Without an aging bound the timestamp is left
    /// untouched, keeping the detector-free path byte-identical.
    pub fn create_message_at(
        &mut self,
        peer_id: NodeId,
        random_samples: &[Descriptor<A>],
        initiating: bool,
        now: u64,
        scratch: &mut MessageScratch<A>,
    ) -> Vec<Descriptor<A>> {
        if self.params.descriptor_max_age.is_some() {
            self.own = self.own.refreshed(now);
        }
        if initiating {
            self.exchanges_initiated += 1;
        }
        let mut message = Vec::new();
        create_message_into(
            scratch,
            self.own,
            &self.leaf_set,
            &self.prefix_table,
            random_samples,
            peer_id,
            self.params.leaf_set_size,
            &mut message,
        );
        message
    }

    /// Processes a received message: `UPDATELEAFSET` followed by
    /// `UPDATEPREFIXTABLE` (both the active and the passive thread do exactly
    /// this, Fig. 2).
    ///
    /// Returns whether the message changed the node's tables (leaf-set
    /// membership or prefix-table content) — timestamp-only refreshes do not
    /// count. The convergence tracker uses this to skip re-measuring nodes
    /// whose state is unchanged.
    pub fn receive(&mut self, descriptors: &[Descriptor<A>]) -> bool {
        self.receive_with(descriptors, &mut MergeScratch::default())
    }

    /// [`BootstrapNode::receive`] with caller-owned merge working memory — the
    /// variant the simulation drivers use on the hot path.
    pub(crate) fn receive_with(
        &mut self,
        descriptors: &[Descriptor<A>],
        scratch: &mut MergeScratch<A>,
    ) -> bool {
        self.descriptors_received += descriptors.len() as u64;
        let leaf_changed = self
            .leaf_set
            .update_with(descriptors.iter().copied(), scratch);
        let inserted = self.prefix_table.update(descriptors.iter().copied());
        leaf_changed || inserted > 0
    }

    /// The clock-aware `BootstrapNode::receive_with`: when
    /// `descriptor_max_age` is configured, the merge first evicts every stored
    /// descriptor whose timestamp lags `now` by more than the bound (leaf set
    /// and prefix table alike), rejects expired incoming descriptors, and
    /// refreshes the timestamps of already-known prefix-table entries from
    /// fresher sightings. All work runs on the caller-owned `scratch` and the
    /// structures' own flat storage.
    ///
    /// Without an aging bound this is exactly `receive_with`, leaving the
    /// detector-free simulation byte-identical.
    pub fn receive_at(
        &mut self,
        descriptors: &[Descriptor<A>],
        now: u64,
        scratch: &mut MergeScratch<A>,
    ) -> bool {
        let Some(max_age) = self.params.descriptor_max_age else {
            return self.receive_with(descriptors, scratch);
        };
        self.descriptors_received += descriptors.len() as u64;
        let leaf_evicted = self.leaf_set.evict_expired(now, max_age);
        let prefix_evicted = self.prefix_table.evict_expired(now, max_age) > 0;
        let accepted = descriptors
            .iter()
            .copied()
            .filter(|d| !d.is_expired(now, max_age));
        let leaf_changed = self.leaf_set.update_with(accepted.clone(), scratch);
        let inserted = self.prefix_table.update_refreshing(accepted);
        leaf_evicted || prefix_evicted || leaf_changed || inserted > 0
    }

    /// [`BootstrapNode::receive_at`] behind an authenticity check: descriptors
    /// failing `verify` are rejected before any merge, as if the message never
    /// contained them. This is the enforcement point of the
    /// [`descriptor_verifier`](BootstrapParams::descriptor_verifier)
    /// countermeasure; the caller supplies the check because only it can reach
    /// the identity registry the stamps are validated against. Counts every
    /// received descriptor (accepted or not), so traffic accounting matches
    /// the unverified path.
    pub fn receive_verified_at(
        &mut self,
        descriptors: &[Descriptor<A>],
        now: u64,
        scratch: &mut MergeScratch<A>,
        verify: impl Fn(&Descriptor<A>) -> bool,
    ) -> bool {
        let (changed, rejected) =
            receive_verified(descriptors, scratch, verify, |accepted, scratch| {
                self.receive_at(accepted, now, scratch)
            });
        self.descriptors_received += rejected;
        changed
    }

    /// Restores the identity header — own descriptor and activity counters —
    /// when rehydrating a node from the packed store; the tables are restored
    /// through their own raw accessors.
    pub(crate) fn restore_header(
        &mut self,
        own: Descriptor<A>,
        exchanges_initiated: u64,
        descriptors_received: u64,
    ) {
        self.own = own;
        self.exchanges_initiated = exchanges_initiated;
        self.descriptors_received = descriptors_received;
    }

    /// Mutable access to the leaf set for the packed store's restore path.
    pub(crate) fn leaf_set_mut(&mut self) -> &mut LeafSet<A> {
        &mut self.leaf_set
    }

    /// Mutable access to the prefix table for the packed store's restore path.
    pub(crate) fn prefix_table_mut(&mut self) -> &mut PrefixTable<A> {
        &mut self.prefix_table
    }
}

/// The authenticity check in front of a merge, for the fat node and the
/// packed store alike: runs `receive` over the descriptors `verify` accepts
/// and returns what it returned together with how many were rejected. When
/// any is, the accepted ones are filtered into `scratch`'s own buffer, so a
/// rejection allocates nothing once the buffer is warm.
pub(crate) fn receive_verified<A: Address>(
    descriptors: &[Descriptor<A>],
    scratch: &mut MergeScratch<A>,
    verify: impl Fn(&Descriptor<A>) -> bool,
    receive: impl FnOnce(&[Descriptor<A>], &mut MergeScratch<A>) -> bool,
) -> (bool, u64) {
    let rejected = descriptors.iter().filter(|d| !verify(d)).count();
    if rejected == 0 {
        return (receive(descriptors, scratch), 0);
    }
    let mut accepted = std::mem::take(&mut scratch.accepted);
    accepted.clear();
    accepted.extend(descriptors.iter().filter(|d| verify(d)).copied());
    let changed = receive(&accepted, scratch);
    scratch.accepted = accepted;
    (changed, rejected as u64)
}

/// `SELECTPEER` over a leaf set of `len` entries given as its two sides, each
/// closest first — the layout [`LeafSet`] stores, shared by the fat node and
/// the packed store: entry `k` of the closer half, ordered by `(ring distance
/// from own, id)`, for one uniform draw `k`. A side is sorted by ring
/// distance (a successor's is its clockwise distance, a predecessor's its
/// counter-clockwise one), so that order is the two-way merge of the sides,
/// walked `k + 1` steps; only the entries it compares are read. Consumes
/// exactly one RNG draw when `len > 0`, none otherwise.
pub(crate) fn select_peer_in<A: Address>(
    own: NodeId,
    len: usize,
    successors: impl Iterator<Item = Descriptor<A>>,
    predecessors: impl Iterator<Item = Descriptor<A>>,
    rng: &mut SimRng,
) -> Option<Descriptor<A>> {
    if len == 0 {
        return None;
    }
    let k = rng.index((len / 2).max(1));
    let key = |d: &Descriptor<A>| (own.ring_distance(d.id()), d.id());
    let (mut successors, mut predecessors) = (successors.peekable(), predecessors.peekable());
    let mut merged = std::iter::from_fn(|| match (successors.peek(), predecessors.peek()) {
        (Some(s), Some(p)) if key(p) < key(s) => predecessors.next(),
        (Some(_), _) => successors.next(),
        _ => predecessors.next(),
    });
    merged.nth(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn descriptor(id: u64, addr: u32) -> Descriptor<u32> {
        Descriptor::new(NodeId::new(id), addr, 0)
    }

    fn node(id: u64) -> BootstrapNode<u32> {
        let params = BootstrapParams {
            leaf_set_size: 4,
            random_samples: 4,
            ..BootstrapParams::paper_default()
        };
        BootstrapNode::new(descriptor(id, 0), &params).unwrap()
    }

    #[test]
    fn construction_validates_parameters() {
        let bad = BootstrapParams {
            leaf_set_size: 3,
            ..BootstrapParams::paper_default()
        };
        assert!(BootstrapNode::new(descriptor(1, 0), &bad).is_err());
        let good = BootstrapNode::new(descriptor(1, 0), &BootstrapParams::paper_default());
        assert!(good.is_ok());
    }

    #[test]
    fn initialize_seeds_leafset_and_clears_table() {
        let mut n = node(1000);
        n.receive(&[descriptor(0xF000_0000_0000_0000, 9)]);
        assert!(!n.prefix_table().is_empty());
        n.initialize([descriptor(1500, 1), descriptor(800, 2)]);
        assert_eq!(n.leaf_set().len(), 2);
        assert!(n.prefix_table().is_empty());
        assert_eq!(n.id(), NodeId::new(1000));
        assert_eq!(n.own_descriptor().address(), 0);
        assert_eq!(n.params().leaf_set_size, 4);
    }

    #[test]
    fn select_peer_prefers_the_closer_half() {
        let mut n = node(1000);
        n.initialize([
            descriptor(1001, 1),
            descriptor(999, 2),
            descriptor(5000, 3),
            descriptor(u64::MAX / 2, 4),
        ]);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let peer = n.select_peer_with(&mut rng, &mut Vec::new()).unwrap();
            // Only the two nearest identifiers (1001 and 999) are eligible.
            assert!(peer.id() == NodeId::new(1001) || peer.id() == NodeId::new(999));
        }
    }

    #[test]
    fn select_peer_on_empty_state_returns_none() {
        let n = node(7);
        let mut rng = SimRng::seed_from(1);
        assert!(n.select_peer_with(&mut rng, &mut Vec::new()).is_none());
    }

    #[test]
    fn select_peer_with_single_entry_returns_it() {
        let mut n = node(7);
        n.initialize([descriptor(9, 1)]);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(
            n.select_peer_with(&mut rng, &mut Vec::new()).unwrap().id(),
            NodeId::new(9)
        );
    }

    #[test]
    fn receive_updates_both_structures() {
        let mut n = node(0x1234_0000_0000_0000);
        let near = descriptor(0x1234_0000_0000_0005, 1);
        let far = descriptor(0xF000_0000_0000_0000, 2);
        n.receive(&[near, far]);
        assert!(n.leaf_set().contains(near.id()));
        assert!(n.leaf_set().contains(far.id()));
        assert!(n.prefix_table().contains(near.id()));
        assert!(n.prefix_table().contains(far.id()));
        assert_eq!(n.descriptors_received(), 2);
    }

    #[test]
    fn create_message_counts_initiated_exchanges() {
        let mut n = node(1000);
        n.initialize([descriptor(1001, 1)]);
        let scratch = &mut MessageScratch::default();
        let message =
            n.create_message_at(NodeId::new(2000), &[descriptor(3000, 2)], true, 0, scratch);
        assert!(!message.is_empty());
        assert_eq!(n.exchanges_initiated(), 1);
        let _ = n.create_message_at(NodeId::new(2000), &[], false, 0, scratch);
        assert_eq!(
            n.exchanges_initiated(),
            1,
            "passive replies are not counted"
        );
    }

    fn aged_node(id: u64, max_age: u64) -> BootstrapNode<u32> {
        let params = BootstrapParams {
            leaf_set_size: 4,
            random_samples: 4,
            descriptor_max_age: Some(max_age),
            ..BootstrapParams::paper_default()
        };
        BootstrapNode::new(descriptor(id, 0), &params).unwrap()
    }

    #[test]
    fn receive_at_without_aging_matches_receive() {
        let mut clocked = node(1000);
        let mut plain = node(1000);
        let incoming = [
            Descriptor::new(NodeId::new(1001), 1u32, 0),
            Descriptor::new(NodeId::new(0xF000_0000_0000_0000), 2u32, 0),
        ];
        let a = clocked.receive_at(&incoming, 99, &mut MergeScratch::default());
        let b = plain.receive(&incoming);
        assert_eq!(a, b);
        assert_eq!(clocked.leaf_set().to_vec(), plain.leaf_set().to_vec());
        assert_eq!(
            clocked.prefix_table().to_vec(),
            plain.prefix_table().to_vec()
        );
    }

    #[test]
    fn receive_at_rejects_and_evicts_expired_descriptors() {
        let mut n = aged_node(1000, 5);
        // Accepted at cycle 10: stamped 10.
        let near = Descriptor::new(NodeId::new(1001), 1u32, 10);
        let far = Descriptor::new(NodeId::new(0xF000_0000_0000_0000), 2u32, 10);
        assert!(n.receive_at(&[near, far], 10, &mut MergeScratch::default()));
        assert!(n.leaf_set().contains(near.id()));
        assert!(n.prefix_table().contains(far.id()));

        // An expired incoming descriptor is rejected outright.
        let stale = Descriptor::new(NodeId::new(999), 3u32, 2);
        assert!(!n.receive_at(&[stale], 10, &mut MergeScratch::default()));
        assert!(!n.leaf_set().contains(stale.id()));

        // Time passes without refreshes: the merge at cycle 16 evicts both
        // stored entries (age 6 > bound 5) even though the incoming batch is
        // empty of news.
        assert!(n.receive_at(&[], 16, &mut MergeScratch::default()));
        assert!(n.leaf_set().is_empty());
        assert!(n.prefix_table().is_empty());
    }

    #[test]
    fn receive_at_refreshes_prefix_timestamps_of_live_peers() {
        let mut n = aged_node(1000, 5);
        let peer = Descriptor::new(NodeId::new(0xF000_0000_0000_0000), 2u32, 10);
        n.receive_at(&[peer], 10, &mut MergeScratch::default());
        // A fresher sighting arrives at cycle 14; the stored entry refreshes,
        // so at cycle 17 it is still within the bound and survives.
        let fresher = peer.refreshed(14);
        n.receive_at(&[fresher], 14, &mut MergeScratch::default());
        assert!(!n.receive_at(&[], 17, &mut MergeScratch::default()));
        assert!(n.prefix_table().contains(peer.id()));
        // Without the refresh it would have been evicted at age 7.
        assert!(n.receive_at(&[], 20, &mut MergeScratch::default()));
        assert!(!n.prefix_table().contains(peer.id()));
    }

    #[test]
    fn create_message_at_restamps_own_descriptor_only_under_aging() {
        let mut aged = aged_node(1000, 5);
        aged.initialize([descriptor(1001, 1)]);
        let _ = aged.create_message_at(NodeId::new(2000), &[], true, 42, &mut Default::default());
        assert_eq!(aged.own_descriptor().timestamp(), 42);
        assert_eq!(aged.exchanges_initiated(), 1);

        let mut plain = node(1000);
        plain.initialize([descriptor(1001, 1)]);
        let _ = plain.create_message_at(NodeId::new(2000), &[], true, 42, &mut Default::default());
        assert_eq!(
            plain.own_descriptor().timestamp(),
            0,
            "aging off leaves the timestamp untouched"
        );
    }

    #[test]
    fn receive_verified_at_rejects_failing_descriptors_before_merge() {
        let mut n = node(1000);
        let honest = descriptor(1001, 1);
        let forged = descriptor(0xF000_0000_0000_0000, 2);
        let changed =
            n.receive_verified_at(&[honest, forged], 0, &mut MergeScratch::default(), |d| {
                d.id() != forged.id()
            });
        assert!(changed, "the honest descriptor still merges");
        assert!(n.leaf_set().contains(honest.id()));
        assert!(!n.leaf_set().contains(forged.id()));
        assert!(!n.prefix_table().contains(forged.id()));
        assert_eq!(
            n.descriptors_received(),
            2,
            "traffic accounting counts rejected descriptors too"
        );
        // An all-accepting verifier is exactly receive_at.
        let mut verified = node(1000);
        let mut plain = node(1000);
        verified.receive_verified_at(&[honest, forged], 0, &mut MergeScratch::default(), |_| true);
        plain.receive_at(&[honest, forged], 0, &mut MergeScratch::default());
        assert_eq!(verified.leaf_set().to_vec(), plain.leaf_set().to_vec());
        assert_eq!(
            verified.descriptors_received(),
            plain.descriptors_received()
        );
    }

    #[test]
    fn geometry_matches_parameters() {
        let n = node(1);
        assert_eq!(n.geometry().bits_per_digit(), 4);
        assert_eq!(n.geometry().entries_per_slot(), 3);
    }
}
