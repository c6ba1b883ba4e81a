//! Packed per-node storage: the memory layer behind million-node runs.
//!
//! A fat [`BootstrapNode`] stores every descriptor as 24 bytes (identifier,
//! address, timestamp) and owns a 4-byte-per-slot offset table, which puts a
//! converged node at several kilobytes — the memory wall that used to cap the
//! scaling benchmark. [`CompactNode`] stores the same information as 8-byte
//! [`PackedDescriptor`]s (a `u32` registry index plus a `u32` timestamp) and
//! `u16` offsets; the 64-bit identifiers are recovered on demand from one
//! shared index→identifier arena maintained by the protocol (the registry
//! never reuses or reorders indices, so `ids[index]` is immutable once
//! written).
//!
//! The pack/unpack round-trip is lossless for every state the simulation can
//! reach. Honest descriptors are always built through the network registry, so
//! their identifier is a pure function of the index and costs nothing to
//! store; timestamps are cycle numbers, far below `u32::MAX`. The one state a
//! registry lookup cannot reproduce is a *forged* descriptor absorbed from a
//! Byzantine peer, whose advertised identifier deliberately disagrees with the
//! registry entry for its address — those survive the round-trip through a
//! sparse per-table alias list that is empty on honest runs.
//!
//! Writers rehydrate: the exchange unpacks a node into a scratch
//! [`BootstrapNode`], runs the unchanged fat algorithms and packs the result
//! back — byte-identical behaviour at a third of the memory. Readers do not:
//! lookup routing reads a node through `PackedView`, `SELECTPEER` ranks
//! `CompactNode::leaf_descriptors`, convergence measurement counts live
//! entries where they lie (`CompactNode::live_prefix_entries` by registry
//! index, the leaf descriptors against the oracle's distance bounds; only a
//! forged entry is searched for among the live identifiers), and the
//! dead-descriptor, poisoning and eclipse walks read indices straight off
//! `CompactNode::leaf_entries` / `CompactNode::prefix_entries`.

use crate::node::BootstrapNode;
use crate::routing::{Contact, NodeView};
use bss_sim::network::NodeIndex;
use bss_util::config::BootstrapParams;
use bss_util::descriptor::{Descriptor, PackedDescriptor};
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;

/// A blank fat node to rehydrate packed states into
/// ([`CompactNode::unpack_into`]): the exchange path reuses two per thread
/// instead of allocating per node.
///
/// # Panics
///
/// Panics when `params` were not validated.
pub(crate) fn scratch_node(params: &BootstrapParams) -> BootstrapNode<NodeIndex> {
    let placeholder = Descriptor::new(NodeId::new(0), NodeIndex::new(0), 0);
    BootstrapNode::new(placeholder, params).expect("validated parameters")
}

/// Packs a simulation descriptor down to its registry index and timestamp.
/// The identifier is deliberately dropped: for every registry-minted
/// descriptor it is recoverable from the shared arena. Advertised identifiers
/// that disagree with the registry (forged descriptors) are preserved
/// separately by [`CompactNode`]'s alias lists.
#[inline]
pub(crate) fn pack_descriptor(descriptor: &Descriptor<NodeIndex>) -> PackedDescriptor {
    PackedDescriptor::new(descriptor.address().raw(), descriptor.timestamp())
}

/// Rehydrates a packed descriptor using the shared index→identifier arena.
#[inline]
pub(crate) fn unpack_descriptor(packed: PackedDescriptor, ids: &[NodeId]) -> Descriptor<NodeIndex> {
    Descriptor::new(
        ids[packed.address() as usize],
        NodeIndex::new(packed.address()),
        packed.timestamp(),
    )
}

/// An advertised identifier that disagrees with the registry entry for its
/// address: the entry's position within its table plus the identifier the
/// descriptor actually carried. Honest tables have none of these.
type Alias = (u16, NodeId);

/// Packs a run of fat entries, recording an alias for every descriptor whose
/// advertised identifier is not the registry identifier of its address.
fn pack_entries(
    entries: &[Descriptor<NodeIndex>],
    ids: &[NodeId],
    packed: &mut Vec<PackedDescriptor>,
    aliases: &mut Vec<Alias>,
) {
    packed.clear();
    aliases.clear();
    for (position, descriptor) in entries.iter().enumerate() {
        packed.push(pack_descriptor(descriptor));
        if ids[descriptor.address().as_usize()] != descriptor.id() {
            aliases.push((position as u16, descriptor.id()));
        }
    }
}

/// Rehydrates a run of packed entries — the ones from position `first` of
/// their table on — substituting the advertised identifier wherever an alias
/// was recorded. Aliases are stored in ascending position order, so a single
/// cursor keeps the honest fast path alias-free.
#[inline]
fn unpack_entries<'a>(
    entries: &'a [PackedDescriptor],
    first: usize,
    aliases: &'a [Alias],
    ids: &'a [NodeId],
) -> impl Iterator<Item = Descriptor<NodeIndex>> + 'a {
    let skipped = aliases.partition_point(|&(position, _)| usize::from(position) < first);
    let mut pending = aliases[skipped..].iter().copied().peekable();
    entries.iter().zip(first..).map(move |(&p, position)| {
        let descriptor = unpack_descriptor(p, ids);
        match pending.peek() {
            Some(&(alias_position, advertised)) if usize::from(alias_position) == position => {
                pending.next();
                Descriptor::new(advertised, descriptor.address(), descriptor.timestamp())
            }
            _ => descriptor,
        }
    })
}

/// One node's bootstrap state in packed form: the exact content of a
/// [`BootstrapNode`] minus everything recoverable from shared context (the
/// parameters, the geometry, and the identifiers behind each index).
#[derive(Debug, Clone, Default)]
pub struct CompactNode {
    /// The own descriptor's timestamp (its index is the slot, its identifier
    /// lives in the shared arena).
    own_timestamp: u32,
    /// Number of successors at the front of `leaf`.
    leaf_split: u16,
    exchanges_initiated: u64,
    descriptors_received: u64,
    /// Leaf-set entries: successors first, then predecessors.
    leaf: Vec<PackedDescriptor>,
    /// Prefix-table arena in slot order.
    prefix_store: Vec<PackedDescriptor>,
    /// Per-slot start offsets into `prefix_store` (`rows * columns + 1` of
    /// them; a full table stays far below `u16::MAX` entries).
    prefix_offsets: Vec<u16>,
    /// Leaf entries whose advertised identifier disagrees with the registry
    /// (forged descriptors absorbed from an adversary), in ascending position
    /// order. Empty on honest runs, so honest storage stays eight bytes per
    /// entry and honest rehydration never consults it.
    leaf_aliases: Vec<Alias>,
    /// The prefix-table counterpart of `leaf_aliases`.
    prefix_aliases: Vec<Alias>,
}

impl CompactNode {
    /// Packs a fat node state. `ids` is the shared index→identifier arena,
    /// consulted to detect advertised identifiers the registry cannot
    /// reproduce.
    pub fn pack(state: &BootstrapNode<NodeIndex>, ids: &[NodeId]) -> CompactNode {
        let mut packed = CompactNode::default();
        packed.repack_from(state, ids);
        packed
    }

    /// Packs a fat node state into `self`, reusing the existing allocations
    /// (the repack half of the hot path's rehydrate → mutate → repack cycle).
    pub fn repack_from(&mut self, state: &BootstrapNode<NodeIndex>, ids: &[NodeId]) {
        let own = state.own_descriptor();
        debug_assert!(own.timestamp() <= u64::from(u32::MAX));
        self.own_timestamp = own.timestamp() as u32;
        self.exchanges_initiated = state.exchanges_initiated();
        self.descriptors_received = state.descriptors_received();

        let (leaf_entries, split) = state.leaf_set().raw_parts();
        debug_assert!(split <= usize::from(u16::MAX));
        self.leaf_split = split as u16;
        pack_entries(leaf_entries, ids, &mut self.leaf, &mut self.leaf_aliases);

        let (prefix_entries, offsets) = state.prefix_table().raw_parts();
        debug_assert!(prefix_entries.len() <= usize::from(u16::MAX));
        pack_entries(
            prefix_entries,
            ids,
            &mut self.prefix_store,
            &mut self.prefix_aliases,
        );
        self.prefix_offsets.clear();
        self.prefix_offsets
            .extend(offsets.iter().map(|&offset| offset as u16));
    }

    /// Rehydrates into a scratch fat node, reusing its allocations. The
    /// scratch must have been constructed with the same parameters the packed
    /// state was built under (the protocol guarantees this: one parameter set
    /// per run).
    pub fn unpack_into(
        &self,
        node: NodeIndex,
        ids: &[NodeId],
        scratch: &mut BootstrapNode<NodeIndex>,
    ) {
        let own_id = ids[node.as_usize()];
        let own = Descriptor::new(own_id, node, u64::from(self.own_timestamp));
        scratch.restore_header(own, self.exchanges_initiated, self.descriptors_received);
        scratch.leaf_set_mut().restore_from(
            own_id,
            unpack_entries(&self.leaf, 0, &self.leaf_aliases, ids),
            usize::from(self.leaf_split),
        );
        scratch.prefix_table_mut().restore_from(
            own_id,
            unpack_entries(&self.prefix_store, 0, &self.prefix_aliases, ids),
            self.prefix_offsets.iter().map(|&offset| u32::from(offset)),
        );
    }

    /// Rehydrates into a freshly allocated fat node (the materialising
    /// accessor path — diagnostics, snapshots and tests; hot paths use
    /// [`CompactNode::unpack_into`] with a reused scratch).
    pub(crate) fn unpack(
        &self,
        node: NodeIndex,
        ids: &[NodeId],
        params: &BootstrapParams,
    ) -> BootstrapNode<NodeIndex> {
        let own = Descriptor::new(ids[node.as_usize()], node, u64::from(self.own_timestamp));
        let mut state = BootstrapNode::new(own, params).expect("parameters validated by caller");
        self.unpack_into(node, ids, &mut state);
        state
    }

    /// The packed leaf-set entries (successors first, then predecessors) —
    /// for walks that only need indices and timestamps, no rehydration.
    pub(crate) fn leaf_entries(&self) -> &[PackedDescriptor] {
        &self.leaf
    }

    /// The leaf-set entries as full descriptors, advertised identifiers
    /// included — what `SELECTPEER` ranks over without rehydrating the whole
    /// node. Identical to mapping [`unpack_descriptor`] over
    /// [`CompactNode::leaf_entries`] on honest state; on adversarial state it
    /// additionally reproduces forged identifiers.
    pub(crate) fn leaf_descriptors<'a>(
        &'a self,
        ids: &'a [NodeId],
    ) -> impl Iterator<Item = Descriptor<NodeIndex>> + 'a {
        unpack_entries(&self.leaf, 0, &self.leaf_aliases, ids)
    }

    /// The packed prefix-table entries in slot order.
    pub(crate) fn prefix_entries(&self) -> &[PackedDescriptor] {
        &self.prefix_store
    }

    /// How many prefix-table entries are live, none of them resolved: `alive`
    /// judges the registry index of an entry the registry vouches for,
    /// `live_id` the advertised identifier of one stored under an alias.
    pub(crate) fn live_prefix_entries(
        &self,
        alive: impl Fn(u32) -> bool,
        live_id: impl Fn(NodeId) -> bool,
    ) -> usize {
        let mut pending = self.prefix_aliases.iter().peekable();
        let entries = self.prefix_store.iter().enumerate();
        let live = entries.filter(|&(position, entry)| match pending.peek() {
            Some(&&(alias_position, advertised)) if usize::from(alias_position) == position => {
                pending.next();
                live_id(advertised)
            }
            _ => alive(entry.address()),
        });
        live.count()
    }

    /// What routing reads of this state, served in place: `node` is the
    /// registry index the state belongs to, `geometry` the one it was built
    /// under.
    #[inline]
    pub(crate) fn view<'a>(
        &'a self,
        node: NodeIndex,
        ids: &'a [NodeId],
        geometry: TableGeometry,
    ) -> PackedView<'a> {
        PackedView {
            state: self,
            id: ids[node.as_usize()],
            ids,
            geometry,
        }
    }
}

/// A [`NodeView`] over a [`CompactNode`] and the shared identifier arena:
/// every entry is resolved as it is read (forged identifiers through the
/// alias lists), nothing is copied out and nothing allocated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PackedView<'a> {
    state: &'a CompactNode,
    id: NodeId,
    ids: &'a [NodeId],
    geometry: TableGeometry,
}

impl<'a> PackedView<'a> {
    /// The entries of one table from position `first` on, as contacts.
    #[inline]
    fn resolve(
        &self,
        entries: &'a [PackedDescriptor],
        first: usize,
        aliases: &'a [Alias],
    ) -> impl Iterator<Item = Contact> + 'a {
        unpack_entries(entries, first, aliases, self.ids).map(|entry| Contact::of(&entry))
    }
}

impl NodeView for PackedView<'_> {
    #[inline]
    fn id(&self) -> NodeId {
        self.id
    }

    #[inline]
    fn geometry(&self) -> TableGeometry {
        self.geometry
    }

    #[inline]
    fn leaf(&self) -> impl Iterator<Item = Contact> {
        self.resolve(&self.state.leaf, 0, &self.state.leaf_aliases)
    }

    #[inline]
    fn slot(&self, row: usize, column: u8) -> impl Iterator<Item = Contact> {
        debug_assert!(usize::from(column) < self.geometry.columns());
        let slot = row * self.geometry.columns() + usize::from(column);
        let offsets = &self.state.prefix_offsets;
        let (start, end) = (usize::from(offsets[slot]), usize::from(offsets[slot + 1]));
        self.resolve(
            &self.state.prefix_store[start..end],
            start,
            &self.state.prefix_aliases,
        )
    }

    #[inline]
    fn contacts(&self) -> impl Iterator<Item = Contact> {
        let table = self.resolve(&self.state.prefix_store, 0, &self.state.prefix_aliases);
        self.leaf().chain(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_sim::network::Network;
    use bss_util::rng::SimRng;

    fn params() -> BootstrapParams {
        BootstrapParams {
            leaf_set_size: 8,
            random_samples: 8,
            ..BootstrapParams::paper_default()
        }
    }

    /// Drives a fat node through random receive batches and checks that
    /// pack → unpack reproduces every observable bit of its state.
    #[test]
    fn pack_unpack_round_trips_reachable_states() {
        let mut rng = SimRng::seed_from(11);
        let network = Network::with_random_ids(64, &mut rng);
        let mut ids: Vec<NodeId> = Vec::new();
        network.sync_id_arena(&mut ids);
        let params = params();

        let node = NodeIndex::new(3);
        let mut state = BootstrapNode::new(network.descriptor(node, 0), &params).unwrap();
        let mut scratch = scratch_node(&params);
        for cycle in 0..40u64 {
            let batch: Vec<Descriptor<NodeIndex>> = (0..5)
                .map(|_| {
                    let target = NodeIndex::new(rng.range_u64(0, 64) as u32);
                    network.descriptor(target, cycle)
                })
                .collect();
            state.receive(&batch);
            let _ = state.create_message_at(ids[7], &batch, true, 0, &mut Default::default());

            let packed = CompactNode::pack(&state, &ids);
            packed.unpack_into(node, &ids, &mut scratch);
            assert_eq!(scratch.own_descriptor(), state.own_descriptor());
            assert_eq!(scratch.exchanges_initiated(), state.exchanges_initiated());
            assert_eq!(scratch.descriptors_received(), state.descriptors_received());
            assert_eq!(scratch.leaf_set().to_vec(), state.leaf_set().to_vec());
            assert_eq!(
                scratch.leaf_set().successors().len(),
                state.leaf_set().successors().len()
            );
            assert_eq!(
                scratch.prefix_table().to_vec(),
                state.prefix_table().to_vec()
            );
            for row in 0..state.geometry().rows() {
                for column in 0..state.geometry().columns() as u8 {
                    assert_eq!(
                        scratch.prefix_table().slot(row, column),
                        state.prefix_table().slot(row, column),
                        "slot ({row}, {column}) differs after round-trip"
                    );
                }
            }
        }
    }

    mod packed_equivalence {
        use super::*;
        use crate::routing::{next_hop, RouterKind};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Packed storage is observation-equivalent to the fat path on
            /// arbitrary reachable states: whatever sequence of descriptor
            /// batches a node absorbs, packing it and rehydrating reproduces
            /// the exact tables, counters and per-slot structure.
            #[test]
            fn pack_unpack_is_lossless_on_arbitrary_receive_sequences(
                network_seed in any::<u64>(),
                network_size in 8u32..128,
                node_raw in 0u32..8,
                batches in prop::collection::vec(
                    prop::collection::vec((0u32..128, 0u64..1000), 1..8),
                    1..12,
                ),
            ) {
                let mut rng = SimRng::seed_from(network_seed);
                let network = Network::with_random_ids(network_size as usize, &mut rng);
                let mut ids: Vec<NodeId> = Vec::new();
                network.sync_id_arena(&mut ids);
                let params = params();
                let node = NodeIndex::new(node_raw % network_size);
                let mut state =
                    BootstrapNode::new(network.descriptor(node, 0), &params).unwrap();
                let mut scratch = scratch_node(&params);
                for batch in &batches {
                    let descriptors: Vec<Descriptor<NodeIndex>> = batch
                        .iter()
                        .map(|&(target, timestamp)| {
                            network.descriptor(
                                NodeIndex::new(target % network_size),
                                timestamp,
                            )
                        })
                        .collect();
                    state.receive(&descriptors);

                    let packed = CompactNode::pack(&state, &ids);
                    packed.unpack_into(node, &ids, &mut scratch);
                    prop_assert_eq!(scratch.own_descriptor(), state.own_descriptor());
                    prop_assert_eq!(
                        scratch.exchanges_initiated(),
                        state.exchanges_initiated()
                    );
                    prop_assert_eq!(
                        scratch.descriptors_received(),
                        state.descriptors_received()
                    );
                    prop_assert_eq!(scratch.leaf_set().to_vec(), state.leaf_set().to_vec());
                    prop_assert_eq!(
                        scratch.leaf_set().successors().len(),
                        state.leaf_set().successors().len()
                    );
                    prop_assert_eq!(
                        scratch.prefix_table().to_vec(),
                        state.prefix_table().to_vec()
                    );
                    for row in 0..state.geometry().rows() {
                        for column in 0..state.geometry().columns() as u8 {
                            prop_assert_eq!(
                                scratch.prefix_table().slot(row, column),
                                state.prefix_table().slot(row, column),
                                "slot ({}, {}) differs after round-trip",
                                row,
                                column
                            );
                        }
                    }
                }
            }

            /// Convergence counted over the packed store in place is the count
            /// over the rehydrated node, for every node of populations that are
            /// uniform, squeezed into a narrow arc (one side of the ring is
            /// short, so the leaf quota spills) and tiny (everybody is in
            /// everybody's leaf set) — through forged descriptors in both
            /// tables, some under a live identifier that is not theirs, and
            /// registry entries that died after they were stored.
            #[test]
            fn packed_convergence_counts_match_the_rehydrated_node(
                seed in any::<u64>(),
                shape in 0u8..3,
                size in 10usize..40,
                batches in prop::collection::vec(
                    prop::collection::vec((any::<u32>(), 0u64..50, 0u8..6, any::<u64>()), 1..10),
                    1..8,
                ),
                kills in prop::collection::vec(any::<u32>(), 0..12),
            ) {
                use crate::convergence::ConvergenceOracle;
                let params = params();
                let mut rng = SimRng::seed_from(seed);
                let ids: Vec<NodeId> = match shape {
                    0 => rng.distinct_u64(size).into_iter().map(NodeId::new).collect(),
                    1 => {
                        let base = rng.next_u64();
                        (0..size as u64)
                            .map(|i| base.wrapping_add(i * 1000 + rng.range_u64(0, 1000)))
                            .map(NodeId::new)
                            .collect()
                    }
                    _ => {
                        let tiny = 2 + size % params.leaf_set_size;
                        rng.distinct_u64(tiny).into_iter().map(NodeId::new).collect()
                    }
                };
                let n = ids.len();
                let mut alive = vec![true; n];
                for kill in &kills {
                    alive[*kill as usize % n] = false;
                }
                let live_ids = ids.iter().zip(&alive).filter(|(_, &alive)| alive);
                let oracle = ConvergenceOracle::new(live_ids.map(|(&id, _)| id), &params);

                for node in (0..n).filter(|&node| alive[node]) {
                    let own = ids[node];
                    let node = NodeIndex::new(node as u32);
                    let mut state =
                        BootstrapNode::new(Descriptor::new(own, node, 0), &params).unwrap();
                    // An identifier next to the own one enters both tables, and
                    // it is not the registry's for this address.
                    state.receive(&[Descriptor::new(NodeId::new(own.raw().wrapping_add(1)), node, 1)]);
                    for batch in &batches {
                        let descriptors: Vec<Descriptor<NodeIndex>> = batch
                            .iter()
                            .map(|&(target, timestamp, kind, raw)| {
                                let address = target as usize % n;
                                let id = match kind {
                                    0..=2 => ids[address],
                                    3 => ids[raw as usize % n],
                                    4 => NodeId::new(own.raw().wrapping_sub(1 + raw % 4)),
                                    _ => NodeId::new(raw),
                                };
                                Descriptor::new(id, NodeIndex::new(address as u32), timestamp)
                            })
                            .collect();
                        state.receive(&descriptors);
                    }

                    let packed = CompactNode::pack(&state, &ids);
                    prop_assert!(!packed.leaf_aliases.is_empty() && !packed.prefix_aliases.is_empty());
                    let fat = oracle.measure_node(&packed.unpack(node, &ids, &params));
                    let is_alive = |address: u32| alive[address as usize];
                    prop_assert_eq!(oracle.measure_packed(node, &packed, &ids, is_alive, None), fat);
                    prop_assert_eq!(
                        oracle.measure_packed(node, &packed, &ids, is_alive, Some(fat.prefix_total)),
                        fat
                    );
                }
            }

            /// Routing over the packed store in place decides exactly what it
            /// decides over the rehydrated node — also where forged
            /// descriptors put aliases at the head of a slot, later in a slot
            /// and in the leaf set.
            #[test]
            fn packed_view_routes_like_the_rehydrated_node(
                network_seed in any::<u64>(),
                network_size in 48u32..128,
                node_raw in 0u32..8,
                batches in prop::collection::vec(
                    prop::collection::vec(
                        (0u32..128, 0u64..1000, any::<bool>(), any::<u64>()),
                        1..8,
                    ),
                    1..12,
                ),
                strangers in prop::collection::vec(any::<u64>(), 4),
            ) {
                let mut rng = SimRng::seed_from(network_seed);
                let network = Network::with_random_ids(network_size as usize, &mut rng);
                let mut ids: Vec<NodeId> = Vec::new();
                network.sync_id_arena(&mut ids);
                let params = params();
                let geometry = params.geometry().unwrap();
                let bits = geometry.bits_per_digit();
                let node = NodeIndex::new(node_raw);
                let own = ids[node.as_usize()];
                let mut state =
                    BootstrapNode::new(network.descriptor(node, 0), &params).unwrap();

                // Two honest row-0 neighbours in different slots, and forgeries
                // (node 9's address under identifiers it does not hold) filed
                // before the first and after the second; one more right after
                // the own identifier, which the leaf set keeps as well.
                let honest: Vec<NodeId> = ids
                    .iter()
                    .copied()
                    .filter(|id| id.digit(0, bits) != own.digit(0, bits))
                    .collect();
                let head = honest[0];
                let Some(&tail) = honest.iter().find(|id| id.digit(0, bits) != head.digit(0, bits))
                else {
                    return Ok(());
                };
                let forged = |id: u64| Descriptor::new(NodeId::new(id), NodeIndex::new(9), 1);
                let honest_entry = |id: NodeId| {
                    let index = ids.iter().position(|&known| known == id).unwrap();
                    network.descriptor(NodeIndex::new(index as u32), 1)
                };
                state.receive(&[
                    forged(head.raw() ^ 1),
                    honest_entry(head),
                    honest_entry(tail),
                    forged(tail.raw() ^ 1),
                    forged(own.raw().wrapping_add(1)),
                ]);
                for batch in &batches {
                    let descriptors: Vec<Descriptor<NodeIndex>> = batch
                        .iter()
                        .map(|&(target, timestamp, forge, id)| {
                            let address = NodeIndex::new(target % network_size);
                            if forge {
                                Descriptor::new(NodeId::new(id), address, timestamp)
                            } else {
                                network.descriptor(address, timestamp)
                            }
                        })
                        .collect();
                    state.receive(&descriptors);
                }

                let packed = CompactNode::pack(&state, &ids);
                prop_assert!(!packed.leaf_aliases.is_empty());
                let slot_starts = &packed.prefix_offsets;
                let heads = packed
                    .prefix_aliases
                    .iter()
                    .filter(|(position, _)| slot_starts.contains(position))
                    .count();
                prop_assert!(heads > 0 && heads < packed.prefix_aliases.len());

                let unpacked = packed.unpack(node, &ids, &params);
                let view = packed.view(node, &ids, geometry);
                prop_assert!(view.contacts().eq(unpacked.contacts()));
                let known: Vec<NodeId> = unpacked.contacts().map(|contact| contact.id).collect();
                prop_assert!(known
                    .iter()
                    .any(|&id| state.leaf_set().contains(id) && state.prefix_table().contains(id)));
                let targets = known
                    .iter()
                    .copied()
                    .chain([own])
                    .chain(strangers.iter().map(|&id| NodeId::new(id)));
                for target in targets {
                    for kind in RouterKind::ALL {
                        prop_assert_eq!(
                            next_hop(kind, &view, target),
                            next_hop(kind, &unpacked, target),
                            "{} towards {}",
                            kind,
                            target
                        );
                    }
                }
            }
        }
    }

    /// Forged descriptors — advertised identifiers the registry cannot
    /// reproduce from the address — must survive the round-trip bit-for-bit:
    /// the live lookup router's authenticity check (advertised id versus the
    /// id the contacted node actually holds) is only meaningful if packing
    /// does not quietly launder forgeries back into genuine identifiers.
    #[test]
    fn pack_unpack_preserves_forged_identifiers() {
        let mut rng = SimRng::seed_from(13);
        let network = Network::with_random_ids(32, &mut rng);
        let mut ids: Vec<NodeId> = Vec::new();
        network.sync_id_arena(&mut ids);
        let params = params();
        let node = NodeIndex::new(2);
        let mut state = BootstrapNode::new(network.descriptor(node, 0), &params).unwrap();

        // A mix of honest descriptors and forgeries pointing at node 9's
        // address under identifiers minted to crowd the victim's vicinity.
        let victim = ids[2];
        let mut batch: Vec<Descriptor<NodeIndex>> = (0..8u32)
            .filter(|&raw| raw != 2)
            .map(|raw| network.descriptor(NodeIndex::new(raw), 1))
            .collect();
        for offset in 1..=4u64 {
            batch.push(Descriptor::new(
                NodeId::new(victim.raw().wrapping_add(offset)),
                NodeIndex::new(9),
                2,
            ));
        }
        state.receive(&batch);
        let forged_kept = state
            .leaf_set()
            .iter()
            .filter(|d| ids[d.address().as_usize()] != d.id())
            .count();
        assert!(forged_kept > 0, "the merge must have absorbed a forgery");

        let packed = CompactNode::pack(&state, &ids);
        let mut scratch = scratch_node(&params);
        packed.unpack_into(node, &ids, &mut scratch);
        assert_eq!(scratch.leaf_set().to_vec(), state.leaf_set().to_vec());
        assert_eq!(
            scratch.prefix_table().to_vec(),
            state.prefix_table().to_vec()
        );
        let rehydrated: Vec<_> = packed.leaf_descriptors(&ids).collect();
        assert_eq!(rehydrated, state.leaf_set().raw_parts().0.to_vec());
    }

    #[test]
    fn unpack_allocating_matches_unpack_into() {
        let mut rng = SimRng::seed_from(12);
        let network = Network::with_random_ids(16, &mut rng);
        let mut ids: Vec<NodeId> = Vec::new();
        network.sync_id_arena(&mut ids);
        let params = params();
        let node = NodeIndex::new(5);
        let mut state = BootstrapNode::new(network.descriptor(node, 2), &params).unwrap();
        let contacts: Vec<Descriptor<NodeIndex>> = (0..16u32)
            .filter(|&raw| raw != 5)
            .map(|raw| network.descriptor(NodeIndex::new(raw), 1))
            .collect();
        state.receive(&contacts);

        let packed = CompactNode::pack(&state, &ids);
        let fresh = packed.unpack(node, &ids, &params);
        let mut reused = scratch_node(&params);
        packed.unpack_into(node, &ids, &mut reused);
        assert_eq!(fresh.own_descriptor(), reused.own_descriptor());
        assert_eq!(fresh.leaf_set().to_vec(), reused.leaf_set().to_vec());
        assert_eq!(
            fresh.prefix_table().to_vec(),
            reused.prefix_table().to_vec()
        );
        assert_eq!(packed.leaf_entries().len(), state.leaf_set().len());
        assert_eq!(packed.prefix_entries().len(), state.prefix_table().len());
    }
}
