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
//! Nothing on the simulators' exchange path rehydrates a node. The exchange
//! runs through `PackedNode`: `CREATEMESSAGE` gathers its union by resolving
//! the packed entries as it reads them and hands it to the one selection
//! (`crate::message::compose`); `UPDATELEAFSET` resolves the ≤ `c` leaf
//! entries into a scratch [`LeafSet`], runs the fat kernel and packs the kept
//! entries back; `UPDATEPREFIXTABLE` — aging's evictions and refreshes
//! included — writes the packed slots directly. Readers do not rehydrate
//! either: lookup routing reads a node through `PackedView`, `SELECTPEER`
//! walks the two packed leaf sides no further than the entry it draws
//! (`CompactNode::select_peer`), convergence measurement counts live
//! entries where they lie (`CompactNode::live_prefix_entries` by registry
//! index, the leaf descriptors against the oracle's distance bounds; only a
//! forged entry is searched for among the live identifiers), and the
//! dead-descriptor, poisoning and eclipse walks read indices straight off
//! `CompactNode::leaf_entries` / `CompactNode::prefix_entries`. The fat
//! [`BootstrapNode`] remains the wire's form and the snapshots'.
//!
//! Every position the packed store keeps — the leaf split, the prefix
//! offsets, the alias positions — is a `u16`; `CompactNode::check_shape`
//! rejects the parameter sets whose tables it could not index.

use crate::leafset::{LeafSet, MergeScratch};
use crate::message::{compose, MessageScratch};
use crate::node::{receive_verified, select_peer_in, BootstrapNode};
use crate::routing::{Contact, NodeView};
use bss_sim::adversary::stamp;
use bss_sim::network::NodeIndex;
use bss_util::config::{BootstrapParams, InvalidParams};
use bss_util::descriptor::{Descriptor, PackedDescriptor};
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;

/// Whether `descriptor` passes the keyed identity-stamp check against the
/// registry: the stamp computed over the identifier the registry holds for the
/// descriptor's address must match the stamp over the claimed identifier.
/// This models signature verification with the registry as the PKI — honest
/// descriptors always pass, fabricated identifiers always fail (modulo a
/// 2⁻⁶⁴ hash collision).
fn descriptor_is_authentic(key: u64, ids: &[NodeId], descriptor: &Descriptor<NodeIndex>) -> bool {
    let address = u64::from(descriptor.address().raw());
    ids.get(descriptor.address().as_usize())
        .is_some_and(|&registry_id| {
            stamp(key, registry_id, address) == stamp(key, descriptor.id(), address)
        })
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
#[inline]
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
            aliases.push((to_u16(position), descriptor.id()));
        }
    }
}

/// A count or position of the packed store as the `u16` it is kept in; past
/// `u16::MAX`, which [`CompactNode::check_shape`] rules out, it panics.
fn to_u16(value: usize) -> u16 {
    u16::try_from(value).expect("table shape checked by CompactNode::check_shape")
}

/// Rehydrates a run of packed entries — the ones from position `first` of
/// their table on — substituting the advertised identifier wherever an alias
/// was recorded. Aliases are stored in ascending position order, so a single
/// cursor — the next alias, compared by position — keeps the honest fast path
/// alias-free.
#[inline]
fn unpack_entries<'a>(
    entries: &'a [PackedDescriptor],
    first: usize,
    aliases: &'a [Alias],
    ids: &'a [NodeId],
) -> impl Iterator<Item = Descriptor<NodeIndex>> + 'a {
    let skipped = aliases.partition_point(|&(position, _)| usize::from(position) < first);
    let mut pending = aliases[skipped..].iter();
    let mut next = pending.next();
    entries
        .iter()
        .zip(first..)
        .map(move |(&p, position)| match next {
            Some(&(alias_position, advertised)) if usize::from(alias_position) == position => {
                next = pending.next();
                Descriptor::new(advertised, NodeIndex::new(p.address()), p.timestamp())
            }
            _ => unpack_descriptor(p, ids),
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
    /// them; `CompactNode::check_shape` keeps a full table within `u16::MAX`
    /// entries).
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
    /// Whether the packed store can hold the tables `params` allow: the leaf
    /// set's `c` entries and the prefix table's `rows · columns · k` must each
    /// be countable in a `u16`.
    ///
    /// # Errors
    ///
    /// [`InvalidParams::OutOfRange`] naming `leaf_set_size` or
    /// `entries_per_slot` (up to the largest `k` the digit width leaves room
    /// for), or the geometry's own error.
    pub(crate) fn check_shape(params: &BootstrapParams) -> Result<(), InvalidParams> {
        let geometry = params.geometry()?;
        let (most, slots) = (usize::from(u16::MAX), geometry.rows() * geometry.columns());
        let (c, k) = (params.leaf_set_size, params.entries_per_slot);
        let limits = [
            ("leaf_set_size", c, 2, most),
            ("entries_per_slot", k, 1, most / slots),
        ];
        match limits.into_iter().find(|&(_, value, _, max)| value > max) {
            Some((field, value, min, max)) => Err(InvalidParams::OutOfRange {
                field,
                value: value as f64,
                min: f64::from(min),
                max: max as f64,
            }),
            None => Ok(()),
        }
    }

    /// Packs a fat node state. `ids` is the shared index→identifier arena,
    /// consulted to detect advertised identifiers the registry cannot
    /// reproduce.
    pub fn pack(state: &BootstrapNode<NodeIndex>, ids: &[NodeId]) -> CompactNode {
        let mut packed = CompactNode::default();
        packed.repack_from(state, ids);
        packed
    }

    /// Packs a fat node state into `self`, reusing the existing allocations.
    pub fn repack_from(&mut self, state: &BootstrapNode<NodeIndex>, ids: &[NodeId]) {
        let own = state.own_descriptor();
        debug_assert!(own.timestamp() <= u64::from(u32::MAX));
        self.own_timestamp = own.timestamp() as u32;
        self.exchanges_initiated = state.exchanges_initiated();
        self.descriptors_received = state.descriptors_received();

        let (leaf_entries, split) = state.leaf_set().raw_parts();
        self.leaf_split = to_u16(split);
        pack_entries(leaf_entries, ids, &mut self.leaf, &mut self.leaf_aliases);

        let (prefix_entries, offsets) = state.prefix_table().raw_parts();
        pack_entries(
            prefix_entries,
            ids,
            &mut self.prefix_store,
            &mut self.prefix_aliases,
        );
        // The offsets ascend to the entry count: checking it bounds them all.
        to_u16(prefix_entries.len());
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
        let capacity = scratch.params().leaf_set_size;
        scratch.restore_header(own, self.exchanges_initiated, self.descriptors_received);
        scratch.leaf_set_mut().restore_from(
            own_id,
            capacity,
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
    /// included — what `CREATEMESSAGE` and `UPDATELEAFSET` read without
    /// rehydrating the whole node. Identical to mapping [`unpack_descriptor`] over
    /// [`CompactNode::leaf_entries`] on honest state; on adversarial state it
    /// additionally reproduces forged identifiers.
    pub(crate) fn leaf_descriptors<'a>(
        &'a self,
        ids: &'a [NodeId],
    ) -> impl Iterator<Item = Descriptor<NodeIndex>> + 'a {
        unpack_entries(&self.leaf, 0, &self.leaf_aliases, ids)
    }

    /// `SELECTPEER` for the node whose identifier is `own`: the fat node's
    /// walk over the two packed sides, resolving (aliases included) only the
    /// entries it compares.
    pub(crate) fn select_peer(
        &self,
        own: NodeId,
        ids: &[NodeId],
        rng: &mut SimRng,
    ) -> Option<Descriptor<NodeIndex>> {
        let split = usize::from(self.leaf_split);
        let (successors, predecessors) = self.leaf.split_at(split);
        let successors = unpack_entries(successors, 0, &self.leaf_aliases, ids);
        let predecessors = unpack_entries(predecessors, split, &self.leaf_aliases, ids);
        select_peer_in(own, self.leaf.len(), successors, predecessors, rng)
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

    /// This state opened for an exchange: `node` is the registry index it
    /// belongs to, `params` the (validated) parameters it was built under.
    pub(crate) fn open<'a>(
        &'a mut self,
        node: NodeIndex,
        ids: &'a [NodeId],
        params: &'a BootstrapParams,
    ) -> PackedNode<'a> {
        PackedNode {
            state: self,
            node,
            ids,
            params,
            geometry: params.geometry().expect("validated parameters"),
        }
    }

    /// `UPDATEPREFIXTABLE` on the packed slots — `PrefixTable::update`, or
    /// with `refreshing` `PrefixTable::update_refreshing` — for the node
    /// `own`; returns whether anything was inserted.
    fn update_prefix(
        &mut self,
        own: NodeId,
        incoming: impl Iterator<Item = Descriptor<NodeIndex>>,
        ids: &[NodeId],
        geometry: TableGeometry,
        refreshing: bool,
    ) -> bool {
        let mut inserted = false;
        for descriptor in incoming {
            let (id, address) = (descriptor.id(), descriptor.address().raw());
            let Some((row, column)) = geometry.slot_of(own, id) else {
                continue;
            };
            let slot = row * geometry.columns() + usize::from(column);
            let (start, end) = (self.prefix_offsets[slot], self.prefix_offsets[slot + 1]);
            let room = usize::from(end - start) < geometry.entries_per_slot();
            if !room && !refreshing {
                continue;
            }
            // On an entry without an alias, address equality is identifier
            // equality (the registry is a bijection): only an aliased entry
            // or a forged descriptor compares identifiers.
            let alias = (ids[address as usize] != id).then_some(id);
            let first = self.prefix_aliases.partition_point(|&(p, _)| p < start);
            let mut aliased = self.prefix_aliases[first..].iter().peekable();
            let stored = (start..end).find(|&position| {
                let held = self.prefix_store[usize::from(position)].address();
                match aliased.next_if(|&&(p, _)| p == position) {
                    Some(&(_, advertised)) => advertised == id,
                    None if alias.is_none() => held == address,
                    None => ids[held as usize] == id,
                }
            });
            match stored {
                // `Descriptor::fresher_of`: a strictly fresher sighting
                // replaces the entry, address and all.
                Some(position) if refreshing => {
                    let entry = &mut self.prefix_store[usize::from(position)];
                    if descriptor.timestamp() > entry.timestamp() {
                        *entry = pack_descriptor(&descriptor);
                        self.set_prefix_alias(position, alias);
                    }
                }
                None if room => {
                    let entry = pack_descriptor(&descriptor);
                    self.prefix_store.insert(usize::from(end), entry);
                    let later = self.prefix_aliases.iter_mut().filter(|(p, _)| *p >= end);
                    let offsets = self.prefix_offsets[slot + 1..].iter_mut();
                    offsets.chain(later.map(|(p, _)| p)).for_each(|p| *p += 1);
                    self.set_prefix_alias(end, alias);
                    inserted = true;
                }
                _ => {}
            }
        }
        inserted
    }

    /// `PrefixTable::evict_expired` on the packed slots, the offsets and
    /// aliases after each removed entry moving down with it; returns whether
    /// anything was removed.
    fn evict_expired_prefix(&mut self, now: u64, max_age: u64) -> bool {
        let before = self.prefix_store.len();
        let expired = |entry: &PackedDescriptor| entry.is_expired(now, max_age);
        while let Some(position) = self.prefix_store.iter().position(expired) {
            self.prefix_store.remove(position);
            let position = to_u16(position);
            self.set_prefix_alias(position, None);
            let later = |p: &&mut u16| **p > position;
            let offsets = self.prefix_offsets.iter_mut();
            let aliases = self.prefix_aliases.iter_mut().map(|(p, _)| p);
            offsets.chain(aliases).filter(later).for_each(|p| *p -= 1);
        }
        self.prefix_store.len() != before
    }

    /// Records (`Some`) or clears (`None`) the identifier the prefix entry at
    /// `position` advertises in place of the registry's.
    fn set_prefix_alias(&mut self, position: u16, advertised: Option<NodeId>) {
        let aliases = &mut self.prefix_aliases;
        let found = aliases.binary_search_by_key(&position, |&(p, _)| p);
        match (found, advertised) {
            (Ok(index), None) => {
                aliases.remove(index);
            }
            (Ok(index), Some(id)) => aliases[index].1 = id,
            (Err(index), Some(id)) => aliases.insert(index, (position, id)),
            (Err(_), None) => {}
        }
    }
}

/// A [`CompactNode`] opened for an exchange, with what a fat
/// [`BootstrapNode`] knows of itself and the packed state leaves to shared
/// context: its registry index, the identifier arena and the run's
/// parameters. `CREATEMESSAGE` and both merges run through it on the packed
/// store, with the fat node's results bit for bit.
#[derive(Debug)]
pub(crate) struct PackedNode<'a> {
    state: &'a mut CompactNode,
    node: NodeIndex,
    ids: &'a [NodeId],
    params: &'a BootstrapParams,
    geometry: TableGeometry,
}

impl PackedNode<'_> {
    /// `BootstrapNode::create_message_at` composing into `message`: under
    /// aging the own timestamp is re-stamped with `now` first, and
    /// `initiating` counts an exchange. The union is gathered by resolving
    /// the packed entries as they are read.
    pub(crate) fn create_message_into(
        &mut self,
        peer_id: NodeId,
        random_samples: &[Descriptor<NodeIndex>],
        initiating: bool,
        now: u64,
        scratch: &mut MessageScratch<NodeIndex>,
        message: &mut Vec<Descriptor<NodeIndex>>,
    ) {
        if self.params.descriptor_max_age.is_some() {
            self.state.own_timestamp =
                u32::try_from(now).expect("cycle numbers fit a packed timestamp");
        }
        if initiating {
            self.state.exchanges_initiated += 1;
        }
        let (state, ids, node) = (&*self.state, self.ids, self.node);
        let own = Descriptor::new(ids[node.as_usize()], node, state.own_timestamp.into());
        let prefix = unpack_entries(&state.prefix_store, 0, &state.prefix_aliases, ids);
        let gather = |union: &mut Vec<_>| {
            union.push(own);
            union.extend(state.leaf_descriptors(ids));
            union.extend_from_slice(random_samples);
            union.extend(prefix);
        };
        let c = self.params.leaf_set_size;
        compose(scratch, gather, self.geometry, peer_id, c, message);
    }

    /// `BootstrapNode::receive_at` on the packed store — behind the
    /// identity-stamp check of `BootstrapNode::receive_verified_at` when the
    /// parameters carry a verifier key. `leaf` is working memory for the
    /// leaf-set merge.
    pub(crate) fn receive(
        &mut self,
        descriptors: &[Descriptor<NodeIndex>],
        now: u64,
        scratch: &mut MergeScratch<NodeIndex>,
        leaf: &mut LeafSet<NodeIndex>,
    ) -> bool {
        let Some(key) = self.params.descriptor_verifier else {
            return self.merge(descriptors, now, scratch, leaf);
        };
        let ids = self.ids;
        let authentic = |_, d: &Descriptor<NodeIndex>| descriptor_is_authentic(key, ids, d);
        let (changed, rejected) =
            receive_verified(descriptors, scratch, authentic, |d, scratch| {
                self.merge(d, now, scratch, leaf)
            });
        self.state.descriptors_received += rejected;
        changed
    }

    /// The two merges of `BootstrapNode::receive_at`: under aging, expired
    /// entries are evicted and expired descriptors ignored first.
    fn merge(
        &mut self,
        descriptors: &[Descriptor<NodeIndex>],
        now: u64,
        scratch: &mut MergeScratch<NodeIndex>,
        leaf: &mut LeafSet<NodeIndex>,
    ) -> bool {
        let (ids, own) = (self.ids, self.ids[self.node.as_usize()]);
        let max_age = self.params.descriptor_max_age;
        let state = &mut *self.state;
        state.descriptors_received += descriptors.len() as u64;
        let fresh = |d: &&Descriptor<NodeIndex>| !max_age.is_some_and(|age| d.is_expired(now, age));
        let incoming = descriptors.iter().filter(fresh).copied();

        // UPDATELEAFSET: the one kernel, over the resolved leaf entries.
        let split = usize::from(state.leaf_split);
        let capacity = self.params.leaf_set_size;
        leaf.restore_from(own, capacity, state.leaf_descriptors(ids), split);
        let leaf_evicted = max_age.is_some_and(|age| leaf.evict_expired(now, age));
        let leaf_changed = leaf.update_with(incoming.clone(), scratch);
        let (entries, split) = leaf.raw_parts();
        state.leaf_split = to_u16(split);
        pack_entries(entries, ids, &mut state.leaf, &mut state.leaf_aliases);

        // UPDATEPREFIXTABLE, in place.
        let prefix_evicted = max_age.is_some_and(|age| state.evict_expired_prefix(now, age));
        let inserted = state.update_prefix(own, incoming, ids, self.geometry, max_age.is_some());
        leaf_evicted || prefix_evicted || leaf_changed || inserted
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

    /// A blank fat node to rehydrate packed states into.
    fn scratch_node(params: &BootstrapParams) -> BootstrapNode<NodeIndex> {
        let placeholder = Descriptor::new(NodeId::new(0), NodeIndex::new(0), 0);
        BootstrapNode::new(placeholder, params).expect("validated parameters")
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

            /// The exchange on the packed store is the fat node's, step for
            /// step: every message composed in place is the one
            /// `create_message_at` composes, and after every packed receive
            /// the rehydrated state — tables, split, counters, own timestamp —
            /// and the returned flag are those of `receive_at`, or of
            /// `receive_verified_at` under a verifier that rejects the
            /// forgeries. The state starts with forgeries at the head of a
            /// slot, inside a slot and in the leaf set; batches re-send them,
            /// forge registry identifiers under other addresses and lag the
            /// clock, which under aging advances past `descriptor_max_age`,
            /// so entries are evicted, refreshed and re-aliased.
            #[test]
            fn packed_exchange_steps_match_the_fat_node(
                network_seed in any::<u64>(),
                network_size in 48u32..128,
                node_raw in 0u32..8,
                aging in any::<bool>(),
                verifying in any::<bool>(),
                steps in prop::collection::vec(
                    (
                        prop::collection::vec((0u32..128, 0u64..6, 0u8..5), 1..24),
                        0u64..3,
                        any::<bool>(),
                        any::<u32>(),
                    ),
                    1..16,
                ),
            ) {
                let mut rng = SimRng::seed_from(network_seed);
                let network = Network::with_random_ids(network_size as usize, &mut rng);
                let mut ids: Vec<NodeId> = Vec::new();
                network.sync_id_arena(&mut ids);
                let key = 0xFEED;
                let params = BootstrapParams {
                    descriptor_max_age: aging.then_some(3),
                    descriptor_verifier: verifying.then_some(key),
                    ..params()
                };
                let bits = params.bits_per_digit;
                let node = NodeIndex::new(node_raw);
                let own = ids[node.as_usize()];
                let mut fat = BootstrapNode::new(network.descriptor(node, 0), &params).unwrap();

                // As in the routing property: forgeries filed before and after
                // two honest row-0 neighbours of different slots, and one next
                // to the own identifier.
                let honest: Vec<NodeId> =
                    ids.iter().copied().filter(|id| id.digit(0, bits) != own.digit(0, bits)).collect();
                let head = honest[0];
                let Some(&tail) = honest.iter().find(|id| id.digit(0, bits) != head.digit(0, bits))
                else {
                    return Ok(());
                };
                let registered = |id: NodeId| ids.iter().position(|&known| known == id).unwrap();
                let forgeries = [head.raw() ^ 1, tail.raw() ^ 1, own.raw().wrapping_add(1)];
                let forged = |pick: usize, t: u64| {
                    Descriptor::new(NodeId::new(forgeries[pick % 3]), NodeIndex::new(9), t)
                };
                let honest_at = |index: usize, t: u64| network.descriptor(NodeIndex::new(index as u32), t);
                fat.receive(&[
                    forged(0, 1),
                    honest_at(registered(head), 1),
                    honest_at(registered(tail), 1),
                    forged(1, 1),
                    forged(2, 1),
                ]);
                let mut packed = CompactNode::pack(&fat, &ids);
                prop_assert!(!packed.leaf_aliases.is_empty());
                let slot_starts = &packed.prefix_offsets;
                let heads =
                    packed.prefix_aliases.iter().filter(|(p, _)| slot_starts.contains(p)).count();
                prop_assert!(heads > 0 && heads < packed.prefix_aliases.len());

                let fingerprint = |state: &BootstrapNode<NodeIndex>| {
                    let (leaf, split) = state.leaf_set().raw_parts();
                    let (table, offsets) = state.prefix_table().raw_parts();
                    let counters = (state.exchanges_initiated(), state.descriptors_received());
                    (state.own_descriptor(), counters, leaf.to_vec(), split, table.to_vec(), offsets.to_vec())
                };
                let (mut fat_compose, mut packed_compose) = (MessageScratch::default(), MessageScratch::default());
                let (mut fat_merge, mut packed_merge) = (MergeScratch::default(), MergeScratch::default());
                let mut leaf = LeafSet::new(NodeId::new(0), 2);
                let mut now = 2;
                for (batch, advance, initiating, peer) in &steps {
                    now += advance;
                    let n = network_size as usize;
                    let descriptors: Vec<Descriptor<NodeIndex>> = batch
                        .iter()
                        .map(|&(target, lag, kind)| {
                            let (address, t) = (target as usize % n, now.saturating_sub(lag));
                            match kind {
                                0 | 1 => honest_at(address, t),
                                2 => forged(address, t),
                                // A registry identifier under an address not its own.
                                3 => Descriptor::new(ids[address], NodeIndex::new(9), t),
                                _ => Descriptor::new(NodeId::new(rng.next_u64()), NodeIndex::new(address as u32), t),
                            }
                        })
                        .collect();
                    let peer_id = ids[*peer as usize % n];

                    let fat_message =
                        fat.create_message_at(peer_id, &descriptors, *initiating, now, &mut fat_compose);
                    let mut message = Vec::new();
                    packed.open(node, &ids, &params).create_message_into(
                        peer_id, &descriptors, *initiating, now, &mut packed_compose, &mut message,
                    );
                    prop_assert_eq!(&message, &fat_message);

                    let fat_changed = if verifying {
                        fat.receive_verified_at(&descriptors, now, &mut fat_merge, |_, d| {
                            descriptor_is_authentic(key, &ids, d)
                        })
                    } else {
                        fat.receive_at(&descriptors, now, &mut fat_merge)
                    };
                    let changed =
                        packed.open(node, &ids, &params).receive(&descriptors, now, &mut packed_merge, &mut leaf);
                    prop_assert_eq!(changed, fat_changed);
                    prop_assert_eq!(fingerprint(&packed.unpack(node, &ids, &params)), fingerprint(&fat));
                }
            }

            /// SELECTPEER's walk over the two sorted sides picks, for every
            /// draw `k` of the closer half, the entry that ranking the whole
            /// leaf set by `(ring distance, id)` — the rule it replaced —
            /// puts at `k`, on the fat node and on the packed store, and
            /// consumes that one draw. Populations are uniform, squeezed
            /// into a narrow arc (one side spills past `c/2`), at most
            /// `c + 1` strong, or pairs `own ± d` (a successor and a
            /// predecessor tie on distance and the identifier decides);
            /// forgeries, some right next to the own identifier, enter the
            /// leaf set under aliases.
            #[test]
            fn select_peer_walk_picks_what_the_full_ranking_picks(
                seed in any::<u64>(),
                shape in 0u8..4,
                size in 2usize..40,
                capacity in prop::sample::select(vec![2usize, 4, 8, 20]),
                forgeries in prop::collection::vec((any::<u32>(), any::<u64>(), any::<bool>()), 0..6),
            ) {
                use bss_util::view::rank_top_by;
                let params = BootstrapParams { leaf_set_size: capacity, ..params() };
                let mut rng = SimRng::seed_from(seed);
                let base = rng.next_u64();
                let raw: Vec<u64> = match shape {
                    0 => rng.distinct_u64(size),
                    1 => (0..size as u64)
                        .map(|i| base.wrapping_add(i * 1000 + rng.range_u64(0, 1000)))
                        .collect(),
                    2 => rng.distinct_u64(2 + size % capacity),
                    _ => {
                        let step = rng.range_u64(1, 1000);
                        let pairs = (1..=size as u64 / 2)
                            .flat_map(|i| [base.wrapping_add(i * step), base.wrapping_sub(i * step)]);
                        pairs.chain([base]).collect()
                    }
                };
                let ids: Vec<NodeId> = raw.into_iter().map(NodeId::new).collect();
                let n = ids.len();
                for node in 0..n {
                    let (own, index) = (ids[node], NodeIndex::new(node as u32));
                    let mut fat = BootstrapNode::new(Descriptor::new(own, index, 0), &params).unwrap();
                    let honest = (0..n).map(|i| Descriptor::new(ids[i], NodeIndex::new(i as u32), 0));
                    let forged = forgeries.iter().map(|&(address, raw, near)| {
                        let id = if near { own.raw().wrapping_add(raw % 9).wrapping_sub(4) } else { raw };
                        Descriptor::new(NodeId::new(id), NodeIndex::new(address % n as u32), 1)
                    });
                    fat.receive(&honest.chain(forged).collect::<Vec<_>>());
                    let packed = CompactNode::pack(&fat, &ids);

                    let mut ranked = fat.leaf_set().to_vec();
                    let half = (ranked.len() / 2).max(1);
                    rank_top_by(&mut ranked, half, |a, b| {
                        own.ring_distance(a.id())
                            .cmp(&own.ring_distance(b.id()))
                            .then_with(|| a.id().cmp(&b.id()))
                    });
                    for (k, &expected) in ranked.iter().enumerate() {
                        let draws_k = (0u64..).find(|&s| SimRng::seed_from(s).index(half) == k).unwrap();
                        let mut after = SimRng::seed_from(draws_k);
                        after.index(half);
                        let (mut fat_rng, mut packed_rng) =
                            (SimRng::seed_from(draws_k), SimRng::seed_from(draws_k));
                        prop_assert_eq!(fat.select_peer_with(&mut fat_rng, &mut Vec::new()), Some(expected));
                        prop_assert_eq!(packed.select_peer(own, &ids, &mut packed_rng), Some(expected));
                        prop_assert_eq!(&fat_rng, &after);
                        prop_assert_eq!(&packed_rng, &after);
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
