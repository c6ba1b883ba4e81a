//! `CREATEMESSAGE`: composing the peer-targeted gossip message.
//!
//! "Knowing the ID of the peer, the method optimizes the information to be sent as
//! follows. First it takes the union of the leaf set, cr random samples taken from
//! the sampling service, the current prefix table, and its own descriptor (in other
//! words, all locally available information). It orders this set according to
//! distance from the peer node, and keeps the first c entries. In addition, it adds
//! to the message all node descriptors that are potentially useful for the peer for
//! its prefix table (i.e., have a common prefix with the peer ID). The size of this
//! additional part is not fixed but is bounded by the size of the full prefix
//! table, and usually is smaller in practice." (§4)

use crate::leafset::LeafSet;
use crate::prefix_table::PrefixTable;
use bss_util::descriptor::{dedup_freshest, Address, Descriptor};
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;
use bss_util::view::rank_top_by;

/// Reusable working memory for [`create_message_into`].
///
/// One instance per driver (not per node) is enough. The buffers grow to the
/// largest union they have seen and are reused from then on, so composing a
/// message — the single most-executed operation of a simulation (twice per
/// exchange) — allocates nothing of its own once they are warm; the only
/// allocation left is the message itself when the caller asks for an owned
/// one rather than lending a buffer.
#[derive(Debug, Clone)]
pub struct MessageScratch<A> {
    union: Vec<Descriptor<A>>,
    /// Part-one sort keys per ring side of the peer:
    /// `(directed distance << 32) | union position`.
    successors: Vec<u128>,
    predecessors: Vec<u128>,
    keep_positions: Vec<u32>,
    /// Per slot of the peer's table: first the capped candidate count, then
    /// (prefix-summed) the slot's write cursor into `placed`.
    slot_cursors: Vec<u32>,
    /// Part-two candidates in union order, as `(slot, union position)`.
    winners: Vec<(u16, u32)>,
    /// The winners' union positions in slot order.
    placed: Vec<u32>,
    in_part_one: Vec<bool>,
}

impl<A> Default for MessageScratch<A> {
    fn default() -> Self {
        MessageScratch {
            union: Vec::new(),
            successors: Vec::new(),
            predecessors: Vec::new(),
            keep_positions: Vec::new(),
            slot_cursors: Vec::new(),
            winners: Vec::new(),
            placed: Vec::new(),
            in_part_one: Vec::new(),
        }
    }
}

/// Builds the message a node sends to `peer_id`, allocating fresh working
/// buffers. Prefer [`create_message_into`] on hot paths.
///
/// * `own` — the sender's own descriptor (always included in the candidate union).
/// * `leaf_set`, `prefix_table` — the sender's current state.
/// * `random_samples` — the `cr` descriptors freshly obtained from the peer
///   sampling service.
/// * `ring_entries` — the number of entries kept from the distance-ordered union
///   (the paper's `c`).
pub fn create_message<A: Address>(
    own: Descriptor<A>,
    leaf_set: &LeafSet<A>,
    prefix_table: &PrefixTable<A>,
    random_samples: &[Descriptor<A>],
    peer_id: NodeId,
    ring_entries: usize,
) -> Vec<Descriptor<A>> {
    let mut message = Vec::new();
    create_message_into(
        &mut MessageScratch::default(),
        own,
        leaf_set,
        prefix_table,
        random_samples,
        peer_id,
        ring_entries,
        &mut message,
    );
    message
}

/// Composes the message for `peer_id` into `message` (cleared first), with all
/// working memory coming from the caller-owned `scratch`.
///
/// The message contains at most `ring_entries` descriptors chosen by ring
/// distance to the peer plus every locally known descriptor sharing a prefix with
/// the peer; duplicates are removed. The peer's own descriptor is never included.
///
/// The selection itself is `compose`, shared with the packed node store.
#[allow(clippy::too_many_arguments)]
pub fn create_message_into<A: Address>(
    scratch: &mut MessageScratch<A>,
    own: Descriptor<A>,
    leaf_set: &LeafSet<A>,
    prefix_table: &PrefixTable<A>,
    random_samples: &[Descriptor<A>],
    peer_id: NodeId,
    ring_entries: usize,
    message: &mut Vec<Descriptor<A>>,
) {
    let gather = |union: &mut Vec<Descriptor<A>>| {
        union.push(own);
        union.extend_from_slice(leaf_set.as_slice());
        union.extend_from_slice(random_samples);
        union.extend_from_slice(prefix_table.as_slice());
    };
    let geometry = prefix_table.geometry();
    compose(scratch, gather, geometry, peer_id, ring_entries, message);
}

/// `CREATEMESSAGE`'s selection over the union `gather` pushes into the
/// (cleared) buffer it is handed — the own descriptor, the leaf set, the random
/// samples and the prefix table, in that order, whatever form the node's
/// state is stored in. `geometry` is the sender's (and the peer's) table
/// geometry; the rest is as for [`create_message_into`].
///
/// This is the single most-executed function of a simulation (twice per
/// exchange), so both selections run directly over the deduplicated union —
/// part one as a partial selection over plain integer keys, part two as one
/// capped-counting pass over the peer's slot space followed by a counting
/// placement — instead of materialising a temporary [`LeafSet`] and
/// [`PrefixTable`] per message. The output is element-for-element identical to
/// the naive construction.
pub(crate) fn compose<A: Address>(
    scratch: &mut MessageScratch<A>,
    gather: impl FnOnce(&mut Vec<Descriptor<A>>),
    geometry: TableGeometry,
    peer_id: NodeId,
    ring_entries: usize,
    message: &mut Vec<Descriptor<A>>,
) {
    // The union of all locally available information.
    let union = &mut scratch.union;
    union.clear();
    gather(union);
    dedup_freshest(union);

    // One pass over the union classifies every entry for both parts.
    //
    // Part one: the `c` descriptors closest to the peer on the ring, selected the
    // same way the peer's own `UPDATELEAFSET` will select them — up to `c/2`
    // closest successors and `c/2` closest predecessors of the peer (spilling when
    // one side is short). A plain undirected-distance cut-off would starve the
    // peer's sparser ring side whenever its denser side has more than `c` nodes
    // nearby, which is exactly the "last few entries" end-game the paper relies on
    // the message optimisation to finish quickly. Each side is ranked through
    // `(directed distance << 32) | union position` keys: identifiers are unique
    // after the dedup, so the distance alone orders a side, and the position
    // rides along so part two can cheaply skip already-shipped entries.
    //
    // Part two: every descriptor "potentially useful for the peer for its prefix
    // table" — what the peer's own UPDATEPREFIXTABLE would store from the union:
    // per slot of the *peer's* table, the first `k` union entries (in union
    // order) that fall into it, emitted in (row, column) slot order. This is
    // what bounds the additional part "by the size of the full prefix table" —
    // and it is what lets a node's already-complete rows (for example row 0,
    // which holds every other leading digit) propagate to peers whose
    // corresponding rows are still empty.
    let columns = geometry.columns();
    let per_slot = geometry.entries_per_slot() as u32;
    let successors = &mut scratch.successors;
    let predecessors = &mut scratch.predecessors;
    let slot_cursors = &mut scratch.slot_cursors;
    let winners = &mut scratch.winners;
    successors.clear();
    predecessors.clear();
    slot_cursors.clear();
    slot_cursors.resize(geometry.rows() * columns, 0);
    winners.clear();
    for (position, d) in union.iter().enumerate() {
        let clockwise = peer_id.clockwise_distance(d.id());
        if clockwise == 0 {
            // The peer's own descriptor is never sent; its union position
            // simply goes unused.
            continue;
        }
        let counter_clockwise = clockwise.wrapping_neg();
        if clockwise <= counter_clockwise {
            successors.push((u128::from(clockwise) << 32) | position as u128);
        } else {
            predecessors.push((u128::from(counter_clockwise) << 32) | position as u128);
        }
        let (row, column) = geometry
            .slot_of(peer_id, d.id())
            .expect("only the peer itself has no slot");
        let slot = row * columns + column as usize;
        if slot_cursors[slot] < per_slot {
            slot_cursors[slot] += 1;
            winners.push((slot as u16, position as u32));
        }
    }

    // Keep half per side, spilling into the other side when one is short —
    // mirroring LeafSet::update. The quotas depend on the candidate counts
    // only, so each side is ranked no deeper than it is kept.
    let half = ring_entries.div_ceil(2);
    let successor_short = half.saturating_sub(successors.len());
    let predecessor_short = half.saturating_sub(predecessors.len());
    rank_top_by(successors, half + predecessor_short, u128::cmp);
    rank_top_by(predecessors, half + successor_short, u128::cmp);
    let position_of = |&key: &u128| key as u32;
    let keep_positions = &mut scratch.keep_positions;
    keep_positions.clear();
    keep_positions.extend(successors.iter().map(position_of));
    keep_positions.extend(predecessors.iter().map(position_of));
    keep_positions.truncate(ring_entries);

    // Counting placement of the part-two winners into slot order: turn the
    // counts into write cursors (exclusive prefix sum), then place in union
    // order — within a slot that is the table's iteration order.
    let mut next = 0u32;
    for cursor in slot_cursors.iter_mut() {
        next += std::mem::replace(cursor, next);
    }
    let placed = &mut scratch.placed;
    placed.clear();
    placed.resize(winners.len(), 0);
    for &(slot, position) in winners.iter() {
        let cursor = &mut slot_cursors[slot as usize];
        placed[*cursor as usize] = position;
        *cursor += 1;
    }

    // Assemble: part one, then the part-two entries not already shipped (the
    // union is deduplicated, so position equality is identifier equality).
    let in_part_one = &mut scratch.in_part_one;
    in_part_one.clear();
    in_part_one.resize(union.len(), false);
    for &position in keep_positions.iter() {
        in_part_one[position as usize] = true;
    }
    message.clear();
    message.reserve(keep_positions.len() + placed.len());
    message.extend(keep_positions.iter().map(|&p| union[p as usize]));
    message.extend(
        placed
            .iter()
            .filter(|&&p| !in_part_one[p as usize])
            .map(|&p| union[p as usize]),
    );
}

/// An upper bound on the size of any message produced by [`create_message`] with
/// the given parameters: the `c` ring-targeted entries plus a full prefix table's
/// worth of prefix-sharing entries (the paper notes the prefix part "is bounded by
/// the size of the full prefix table, and usually is smaller in practice").
pub fn message_size_bound(ring_entries: usize, prefix_capacity: usize) -> usize {
    ring_entries + prefix_capacity
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_util::geometry::TableGeometry;

    fn d(id: u64, addr: u32) -> Descriptor<u32> {
        Descriptor::new(NodeId::new(id), addr, 0)
    }

    fn setup(own_id: u64) -> (Descriptor<u32>, LeafSet<u32>, PrefixTable<u32>) {
        let own = d(own_id, 0);
        let leaf_set = LeafSet::new(NodeId::new(own_id), 4);
        let table = PrefixTable::new(NodeId::new(own_id), TableGeometry::new(4, 3).unwrap());
        (own, leaf_set, table)
    }

    #[test]
    fn message_contains_closest_entries_to_the_peer() {
        let (own, mut leaf_set, table) = setup(1000);
        leaf_set.update([d(900, 1), d(1100, 2), d(1200, 3), d(800, 4)]);
        let peer = NodeId::new(1150);
        let message = create_message(own, &leaf_set, &table, &[], peer, 2);
        // The two candidates closest to 1150 (1100 and 1200) are always included in
        // the ring-targeted part of the message.
        let ids: Vec<u64> = message.iter().map(|d| d.id().raw()).collect();
        assert!(ids.contains(&1100));
        assert!(ids.contains(&1200));
        // Everything else may still ride along as prefix-useful content, but never
        // beyond the documented bound.
        assert!(message.len() <= message_size_bound(2, table.geometry().capacity()));
    }

    #[test]
    fn message_never_contains_the_peer_itself() {
        let (own, mut leaf_set, table) = setup(1000);
        leaf_set.update([d(1100, 1)]);
        let peer = NodeId::new(1100);
        let message = create_message(own, &leaf_set, &table, &[d(1100, 9)], peer, 10);
        assert!(message.iter().all(|d| d.id() != peer));
        // The sender's own descriptor is eligible content.
        assert!(message.iter().any(|d| d.id() == own.id()));
    }

    #[test]
    fn prefix_sharing_entries_are_appended_beyond_the_ring_budget() {
        let (own, mut leaf_set, mut table) = setup(0x1000_0000_0000_0000);
        // Ring-wise close to the peer: a couple of nearby identifiers.
        leaf_set.update([d(0xF000_0000_0000_0010, 1), d(0xF000_0000_0000_0020, 2)]);
        // Prefix-wise useful for the peer (shares the first digit 0xF) but
        // ring-wise far from it.
        let useful = d(0xF800_0000_0000_0000, 3);
        table.insert(useful);
        let peer = NodeId::new(0xF000_0000_0000_0000);
        let message = create_message(own, &leaf_set, &table, &[], peer, 2);
        assert!(
            message.iter().any(|d| d.id() == useful.id()),
            "prefix-sharing descriptor must be included even past the ring budget"
        );
        // The bound from the paper holds.
        assert!(message.len() <= message_size_bound(2, table.geometry().capacity()));
    }

    #[test]
    fn random_samples_are_eligible_content() {
        let (own, leaf_set, table) = setup(1000);
        let sample = d(1300, 7);
        let message = create_message(own, &leaf_set, &table, &[sample], NodeId::new(1301), 5);
        assert!(message.iter().any(|d| d.id() == sample.id()));
    }

    #[test]
    fn duplicates_are_removed_keeping_freshest() {
        let (own, mut leaf_set, table) = setup(1000);
        leaf_set.update([Descriptor::new(NodeId::new(1100), 1u32, 2)]);
        let stale_copy = Descriptor::new(NodeId::new(1100), 8u32, 1);
        let message = create_message(own, &leaf_set, &table, &[stale_copy], NodeId::new(1101), 10);
        let copies: Vec<_> = message
            .iter()
            .filter(|d| d.id() == NodeId::new(1100))
            .collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].timestamp(), 2, "freshest copy wins");
    }

    /// The original construction: build the temporary peer-keyed LeafSet and
    /// PrefixTable, concatenate, dedup. The optimised `create_message` must be
    /// element-for-element identical to this.
    fn create_message_reference(
        own: Descriptor<u32>,
        leaf_set: &LeafSet<u32>,
        prefix_table: &PrefixTable<u32>,
        random_samples: &[Descriptor<u32>],
        peer_id: NodeId,
        ring_entries: usize,
    ) -> Vec<Descriptor<u32>> {
        let mut union: Vec<Descriptor<u32>> = Vec::new();
        union.push(own);
        union.extend(leaf_set.iter().copied());
        union.extend(random_samples.iter().copied());
        union.extend(prefix_table.iter().copied());
        union.retain(|d| d.id() != peer_id);
        dedup_freshest(&mut union);

        let by_distance: Vec<Descriptor<u32>> = if ring_entries == 0 {
            Vec::new()
        } else {
            let balanced_budget = ring_entries + ring_entries % 2;
            let mut targeted = LeafSet::new(peer_id, balanced_budget);
            targeted.update(union.iter().copied());
            let mut selected = targeted.to_vec();
            selected.truncate(ring_entries);
            selected
        };

        let mut useful_for_peer: PrefixTable<u32> =
            PrefixTable::new(peer_id, prefix_table.geometry());
        useful_for_peer.update(union.iter().copied());

        let mut message = by_distance;
        message.extend(useful_for_peer.iter().copied());
        dedup_freshest(&mut message);
        message
    }

    #[test]
    fn optimised_message_matches_the_reference_construction() {
        use bss_util::rng::SimRng;
        let mut rng = SimRng::seed_from(4242);
        for (bits, per_slot) in [(4u8, 3usize), (2, 1), (8, 2)] {
            let geometry = TableGeometry::new(bits, per_slot).unwrap();
            for round in 0..60u64 {
                let own_id = rng.next_u64();
                let own = Descriptor::new(NodeId::new(own_id), 0u32, round);
                let capacity = [2usize, 4, 8, 20][rng.index(4)];
                let mut leaf_set: LeafSet<u32> = LeafSet::new(NodeId::new(own_id), capacity);
                let mut table: PrefixTable<u32> = PrefixTable::new(NodeId::new(own_id), geometry);
                // Every third round sprays identifiers right next to the
                // peer's (the id-spray adversary's shape): distance keys that
                // agree in all their high bits, slots in the peer's deepest
                // rows, duplicates, and now and then the peer's own id.
                let stranger = rng.next_u64();
                let clustered = round % 3 == 2;
                let next_id = |rng: &mut SimRng| {
                    if clustered && rng.chance(0.7) {
                        stranger.wrapping_add(rng.index(96) as u64).wrapping_sub(48)
                    } else {
                        rng.next_u64()
                    }
                };
                let population = rng.index(120) + 1;
                for i in 0..population {
                    let descriptor = Descriptor::new(
                        NodeId::new(next_id(&mut rng)),
                        i as u32,
                        rng.next_u64() % 8,
                    );
                    leaf_set.update([descriptor]);
                    table.insert(descriptor);
                }
                let samples: Vec<Descriptor<u32>> = (0..rng.index(30))
                    .map(|i| {
                        Descriptor::new(
                            NodeId::new(next_id(&mut rng)),
                            i as u32,
                            rng.next_u64() % 8,
                        )
                    })
                    .collect();
                // Sometimes target a known identifier, sometimes a stranger.
                let peer_id = if rng.chance(0.3) && !leaf_set.is_empty() {
                    leaf_set.to_vec()[rng.index(leaf_set.len())].id()
                } else {
                    NodeId::new(stranger)
                };
                for ring_entries in [0usize, 1, 2, 7, 20] {
                    let fast =
                        create_message(own, &leaf_set, &table, &samples, peer_id, ring_entries);
                    let reference = create_message_reference(
                        own,
                        &leaf_set,
                        &table,
                        &samples,
                        peer_id,
                        ring_entries,
                    );
                    assert_eq!(
                        fast, reference,
                        "b {bits} k {per_slot} round {round} ring_entries {ring_entries}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_state_produces_only_the_own_descriptor() {
        let (own, leaf_set, table) = setup(1000);
        let message = create_message(own, &leaf_set, &table, &[], NodeId::new(5), 20);
        assert_eq!(message, vec![own]);
    }

    #[test]
    fn ring_budget_zero_still_sends_prefix_entries() {
        let (own, leaf_set, mut table) = setup(0x1000_0000_0000_0000);
        let useful = d(0xF100_0000_0000_0000, 3);
        table.insert(useful);
        let peer = NodeId::new(0xF000_0000_0000_0000);
        let message = create_message(own, &leaf_set, &table, &[], peer, 0);
        assert!(
            message.iter().any(|d| d.id() == useful.id()),
            "prefix-useful entry must be sent even with a zero ring budget"
        );
        assert!(message.iter().all(|d| d.id() != peer));
    }

    #[test]
    fn size_bound_formula() {
        assert_eq!(message_size_bound(20, 720), 740);
        assert_eq!(message_size_bound(0, 0), 0);
    }
}
