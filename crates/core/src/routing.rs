//! The one routing-step implementation shared by every lookup consumer.
//!
//! Three routing substrates read the bootstrapped tables: Pastry-style greedy
//! prefix descent, Kademlia-style XOR descent, and Chord-style clockwise
//! finger chasing. Historically each lived in `bss-overlay` and only ran over
//! a frozen post-run [`PopulationSnapshot`]; the live traffic subsystem
//! ([`crate::traffic`]) routes the same way against nodes' *current* tables
//! mid-run. To keep the two byte-identical this module holds the per-hop
//! decision functions once, written against [`NodeView`] — what a step reads
//! of a node, served by a fat [`BootstrapNode`] or straight from the packed
//! store — and the one iterative lookup loop: [`route`] walks fat nodes a
//! [`TableSource`] resolves (a snapshot), the traffic driver runs the same
//! loop over the live packed population. `bss_overlay` routes through
//! [`route`] and has no step of its own.

use crate::experiment::PopulationSnapshot;
use crate::node::BootstrapNode;
use bss_sim::network::NodeIndex;
use bss_util::descriptor::Descriptor;
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;
use std::cmp::Reverse;
use std::fmt;

/// Which routing substrate interprets the bootstrapped tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Greedy prefix routing in the style of Pastry/Bamboo.
    Pastry,
    /// Greedy XOR-metric descent in the style of Kademlia.
    Kademlia,
    /// Clockwise greedy routing in the style of Chord's finger chasing.
    Chord,
}

impl RouterKind {
    /// All router kinds, in evaluation order.
    pub const ALL: [RouterKind; 3] = [RouterKind::Pastry, RouterKind::Kademlia, RouterKind::Chord];

    /// A short machine-readable name (used in report JSON and TSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            RouterKind::Pastry => "pastry",
            RouterKind::Kademlia => "kademlia",
            RouterKind::Chord => "chord",
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A routable reference to a node: the identifier the tables advertise plus
/// the registry address the descriptor carried. Live routing resolves by
/// address and checks the answering node really holds `id` — a forged
/// descriptor (the id-spray attack) advertises an identifier its address does
/// not answer to, and the lookup fails at that hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contact {
    /// The advertised identifier.
    pub id: NodeId,
    /// The registry address the descriptor pointed at.
    pub address: NodeIndex,
}

impl Contact {
    /// The contact a table entry advertises.
    #[inline]
    pub(crate) fn of(descriptor: &Descriptor<NodeIndex>) -> Self {
        Contact {
            id: descriptor.id(),
            address: descriptor.address(),
        }
    }
}

/// What a routing step reads of one node: its identifier, the table geometry
/// and its contacts. [`BootstrapNode`] implements it over its own tables and
/// `PackedView` directly over the packed store,
/// so a live lookup reads the entries it needs where they are instead of
/// rehydrating the whole node first.
pub trait NodeView {
    /// The node's own identifier.
    fn id(&self) -> NodeId;

    /// The prefix-table geometry.
    fn geometry(&self) -> TableGeometry;

    /// The leaf-set entries, successors first, then predecessors.
    fn leaf(&self) -> impl Iterator<Item = Contact>;

    /// The entries of prefix-table slot `(row, column)`, in insertion order.
    fn slot(&self, row: usize, column: u8) -> impl Iterator<Item = Contact>;

    /// Every known contact: the leaf set, then the prefix table in slot order.
    fn contacts(&self) -> impl Iterator<Item = Contact>;
}

impl NodeView for BootstrapNode<NodeIndex> {
    #[inline]
    fn id(&self) -> NodeId {
        BootstrapNode::id(self)
    }

    #[inline]
    fn geometry(&self) -> TableGeometry {
        BootstrapNode::geometry(self)
    }

    #[inline]
    fn leaf(&self) -> impl Iterator<Item = Contact> {
        self.leaf_set().iter().map(Contact::of)
    }

    #[inline]
    fn slot(&self, row: usize, column: u8) -> impl Iterator<Item = Contact> {
        self.prefix_table()
            .slot(row, column)
            .iter()
            .map(Contact::of)
    }

    #[inline]
    fn contacts(&self) -> impl Iterator<Item = Contact> {
        let table = self.prefix_table().iter();
        self.leaf_set().iter().chain(table).map(Contact::of)
    }
}

/// Chooses the next hop from `node` towards `target` under `kind`'s rules.
/// Returns `None` when no known contact improves on the node itself. This is
/// THE routing step: `bss_overlay`'s lookup evaluator and the live traffic
/// driver both call it, so their per-hop decisions cannot drift apart.
pub fn next_hop<V: NodeView>(kind: RouterKind, node: &V, target: NodeId) -> Option<Contact> {
    match kind {
        RouterKind::Pastry => pastry_next_hop(node, target),
        RouterKind::Kademlia => kademlia_next_hop(node, target),
        RouterKind::Chord => chord_next_hop(node, target),
    }
}

/// The contact of `contacts` with the smallest `key`, provided it `improves`
/// on `bound` (derived from the node's own key: a hop has to get closer).
/// `improves` is `lt` where the first of equally close contacts wins and `le`
/// where the last one does.
#[inline]
fn closest<K>(
    contacts: impl Iterator<Item = Contact>,
    bound: K,
    key: impl Fn(Contact) -> K,
    improves: impl Fn(&K, &K) -> bool,
) -> Option<Contact> {
    let mut closest = None;
    contacts.fold(bound, |best, contact| {
        let key = key(contact);
        if improves(&key, &best) {
            closest = Some(contact);
            key
        } else {
            best
        }
    });
    closest
}

/// Pastry's three rules: deliver to an exactly-known contact, else descend the
/// prefix table, else (the "rare case") hop to any strictly closer contact.
fn pastry_next_hop<V: NodeView>(node: &V, target: NodeId) -> Option<Contact> {
    let own = node.id();
    if own == target {
        return None;
    }
    let bits = node.geometry().bits_per_digit();
    let own_prefix = own.common_prefix_len(target, bits);
    let row = own_prefix;
    let column = target.digit(row, bits);

    // Rule 1: the exact target is already a known contact. The prefix table
    // files an identifier under (shared prefix length, first differing
    // digit), so outside the leaf set the target can only sit in the slot
    // rule 2 reads.
    if let Some(exact) = node
        .leaf()
        .chain(node.slot(row, column))
        .find(|contact| contact.id == target)
    {
        return Some(exact);
    }

    // Rule 2: the slot the target belongs to holds an entry sharing a strictly
    // longer prefix with the target than we do.
    if let Some(entry) = node.slot(row, column).next() {
        return Some(entry);
    }

    // Rule 3 (the "rare case" in Pastry): any known contact that is strictly
    // closer to the target than the current node — longer shared prefix, or equal
    // prefix but numerically closer on the ring.
    closest(
        node.contacts(),
        (Reverse(own_prefix), own.ring_distance(target)),
        |contact| {
            (
                Reverse(contact.id.common_prefix_len(target, bits)),
                contact.id.ring_distance(target),
            )
        },
        PartialOrd::lt,
    )
}

/// Kademlia's rule: the known contact XOR-closest to the target, provided it
/// is strictly closer than the node itself.
fn kademlia_next_hop<V: NodeView>(node: &V, target: NodeId) -> Option<Contact> {
    closest(
        node.contacts(),
        node.id().xor_distance(target),
        |contact| contact.id.xor_distance(target),
        u64::lt,
    )
}

/// Chord's rule over live tables: the known contact that advances furthest
/// clockwise without overshooting the target. Every hop strictly shrinks the
/// remaining clockwise distance, so the descent terminates. (The ideal-ring
/// baseline with global fingers lives in `bss_overlay::ChordRing`; this is
/// what a Chord node can do with only its own bootstrapped tables.)
fn chord_next_hop<V: NodeView>(node: &V, target: NodeId) -> Option<Contact> {
    // A contact lies on the arc from the node to the target exactly when less
    // clockwise distance remains from it than from the node. Of two copies of
    // one identifier (leaf set and table) the later one wins.
    let remaining = node.id().clockwise_distance(target).checked_sub(1)?;
    closest(
        node.contacts(),
        remaining,
        |contact| contact.id.clockwise_distance(target),
        u64::le,
    )
}

/// Where [`route`] reads node tables from: a frozen [`PopulationSnapshot`]
/// ([`SnapshotTables`]) or any other collection of fat nodes a caller can
/// resolve a [`Contact`] in. (Live traffic does not come through here: it
/// resolves contacts to `PackedView`s and runs
/// the same loop and the same [`next_hop`] over those.)
pub trait TableSource {
    /// Runs `f` over the current table state of the node `contact` points at,
    /// or returns `None` when the contact resolves to nothing that answers to
    /// `contact.id` (a dead node, an uninitialised slot, or a forged
    /// identifier) — the hop fails and the lookup with it.
    fn with_node<R>(
        &mut self,
        contact: Contact,
        f: impl FnOnce(&BootstrapNode<NodeIndex>) -> R,
    ) -> Option<R>;
}

/// A [`TableSource`] over a frozen post-run snapshot: contacts resolve by
/// identifier.
#[derive(Debug)]
pub struct SnapshotTables<'a>(pub &'a PopulationSnapshot);

impl TableSource for SnapshotTables<'_> {
    fn with_node<R>(
        &mut self,
        contact: Contact,
        f: impl FnOnce(&BootstrapNode<NodeIndex>) -> R,
    ) -> Option<R> {
        self.0.node_by_id(contact.id).map(f)
    }
}

/// The terminal state of one routed lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteEnd {
    /// The lookup reached the node owning the target identifier.
    Delivered,
    /// A hop resolved to nothing answering to the advertised identifier — a
    /// dead node, an uninitialised slot or a forged descriptor.
    DeadContact,
    /// Routing stopped at a node with no better next hop.
    Stuck,
    /// The next hop was already on the path; honest greedy descent never
    /// revisits a node (every step strictly improves the metric), so a cycle
    /// means poisoned tables — the lookup is dropped instead of orbiting.
    Cycle,
    /// The hop budget was exhausted.
    HopLimit,
}

/// One routed lookup: how it ended and how far it travelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    /// The terminal state.
    pub end: RouteEnd,
    /// Hops taken before terminating (path length minus one).
    pub hops: u64,
}

impl Routed {
    /// Whether the lookup reached its destination.
    pub fn delivered(&self) -> bool {
        self.end == RouteEnd::Delivered
    }
}

/// The default hop budget (the one `bss_overlay`'s lookup evaluator uses).
pub const DEFAULT_MAX_HOPS: usize = 64;

/// What `node` does with a lookup of `target` under `kind`'s rules: the
/// contact it forwards to, or how the lookup ends at it.
#[inline]
pub(crate) fn step<V: NodeView>(
    kind: RouterKind,
    node: &V,
    target: NodeId,
) -> Result<Contact, RouteEnd> {
    if node.id() == target {
        Err(RouteEnd::Delivered)
    } else {
        next_hop(kind, node, target).ok_or(RouteEnd::Stuck)
    }
}

/// The one iterative lookup loop. `decide` resolves the contact the lookup has
/// reached and returns that node's [`step`], or [`RouteEnd::DeadContact`] when
/// the contact resolves to nothing answering to its identifier. The traversed
/// path (source first) is built in the caller-owned `path` buffer.
#[inline]
pub(crate) fn route_with(
    source: Contact,
    max_hops: usize,
    path: &mut Vec<Contact>,
    mut decide: impl FnMut(Contact) -> Result<Contact, RouteEnd>,
) -> Routed {
    path.clear();
    path.push(source);
    let end = loop {
        let current = *path.last().expect("path holds at least the source");
        match decide(current) {
            Err(end) => break end,
            Ok(_) if path.len() > max_hops => break RouteEnd::HopLimit,
            Ok(next) if path.iter().any(|c| c.id == next.id) => break RouteEnd::Cycle,
            Ok(next) => path.push(next),
        }
    };
    Routed {
        end,
        hops: (path.len() - 1) as u64,
    }
}

/// Routes one lookup for `target` starting at `source` over whatever
/// `tables` resolves, taking per-hop decisions from [`next_hop`]. The
/// traversed path (source first) is built in the caller-owned `path` buffer,
/// so sustained traffic routes without allocating.
pub fn route<T: TableSource>(
    tables: &mut T,
    kind: RouterKind,
    source: Contact,
    target: NodeId,
    max_hops: usize,
    path: &mut Vec<Contact>,
) -> Routed {
    route_with(source, max_hops, path, |contact| {
        tables
            .with_node(contact, |node| step(kind, node, target))
            .unwrap_or(Err(RouteEnd::DeadContact))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use bss_util::config::BootstrapParams;
    use bss_util::rng::SimRng;

    fn snapshot(size: usize, seed: u64) -> PopulationSnapshot {
        let config = ExperimentConfig::builder()
            .network_size(size)
            .seed(seed)
            .max_cycles(80)
            .build()
            .unwrap();
        let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
        assert!(
            outcome.converged(),
            "routing tests need a converged overlay"
        );
        snapshot
    }

    fn contact_at(population: &PopulationSnapshot, position: usize) -> Contact {
        Contact::of(&population.node_at(position).unwrap().own_descriptor())
    }

    #[test]
    fn every_router_delivers_everything_on_a_converged_snapshot() {
        let population = snapshot(96, 17);
        let mut tables = SnapshotTables(&population);
        let mut path = Vec::new();
        for kind in RouterKind::ALL {
            for source in 0..population.len() {
                for target in [0, population.len() / 2, population.len() - 1] {
                    let routed = route(
                        &mut tables,
                        kind,
                        contact_at(&population, source),
                        population.node_at(target).unwrap().id(),
                        DEFAULT_MAX_HOPS,
                        &mut path,
                    );
                    assert!(
                        routed.delivered(),
                        "{kind}: {source} -> {target} ended {:?}",
                        routed.end
                    );
                }
            }
        }
    }

    #[test]
    fn self_lookup_takes_zero_hops() {
        let population = snapshot(32, 18);
        let mut tables = SnapshotTables(&population);
        let mut path = Vec::new();
        let source = contact_at(&population, 0);
        for kind in RouterKind::ALL {
            let routed = route(&mut tables, kind, source, source.id, 8, &mut path);
            assert!(routed.delivered(), "{kind}");
            assert_eq!(routed.hops, 0, "{kind}");
        }
    }

    #[test]
    fn chord_descent_strictly_shrinks_the_clockwise_distance() {
        let population = snapshot(64, 19);
        for source in 0..population.len() {
            let node = population.node_at(source).unwrap();
            for target_pos in (0..population.len()).step_by(7) {
                let target = population.node_at(target_pos).unwrap().id();
                if node.id() == target {
                    continue;
                }
                let next = next_hop(RouterKind::Chord, node, target)
                    .expect("a converged node always advances");
                assert!(
                    next.id.clockwise_distance(target) < node.id().clockwise_distance(target),
                    "{} -> {} via {} does not advance",
                    node.id(),
                    target,
                    next.id
                );
            }
        }
    }

    #[test]
    fn hop_budget_and_dead_contacts_terminate_the_loop() {
        let population = snapshot(64, 20);
        let mut tables = SnapshotTables(&population);
        let mut path = Vec::new();
        // A zero-hop budget can only deliver self-lookups.
        let source = contact_at(&population, 0);
        let far = population.node_at(32).unwrap().id();
        let routed = route(&mut tables, RouterKind::Pastry, source, far, 0, &mut path);
        assert_eq!(routed.end, RouteEnd::HopLimit);
        assert_eq!(routed.hops, 0);
        // A source not present in the snapshot fails on its first resolve.
        let ghost = Contact {
            id: NodeId::new(0xdead_beef),
            address: NodeIndex::new(0),
        };
        let routed = route(&mut tables, RouterKind::Pastry, ghost, far, 8, &mut path);
        assert_eq!(routed.end, RouteEnd::DeadContact);
    }

    #[test]
    fn a_target_reached_on_the_last_budgeted_hop_is_delivered() {
        let population = snapshot(64, 3);
        let mut tables = SnapshotTables(&population);
        let mut path = Vec::new();
        let contacts: Vec<Contact> = (0..population.len())
            .map(|position| contact_at(&population, position))
            .collect();
        for kind in [RouterKind::Pastry, RouterKind::Kademlia] {
            let mut budgeted = |max_hops, source, target: Contact| {
                route(&mut tables, kind, source, target.id, max_hops, &mut path)
            };
            // A pair that needs at least two hops, so that one hop fewer is
            // still a positive budget.
            let (source, target, hops) = contacts
                .iter()
                .flat_map(|&source| contacts.iter().map(move |&target| (source, target)))
                .map(|(source, target)| (source, target, budgeted(64, source, target).hops))
                .find(|&(_, _, hops)| hops >= 2)
                .expect("some pair is two hops apart");
            let exact = budgeted(hops as usize, source, target);
            assert!(
                exact.delivered(),
                "{kind}: a budget of {hops} hops covers a {hops}-hop path: {exact:?}"
            );
            assert_eq!(exact.hops, hops);
            let short = budgeted(hops as usize - 1, source, target);
            assert_eq!(short.end, RouteEnd::HopLimit, "{kind}: {short:?}");
            assert_eq!(short.hops, hops - 1);
        }
    }

    #[test]
    fn pastry_next_hop_makes_progress_in_prefix_or_distance() {
        let population = snapshot(64, 5);
        let ids: Vec<NodeId> = population.ids().collect();
        let bits = 4;
        for &source in ids.iter().take(16) {
            for &target in ids.iter().rev().take(16) {
                if source == target {
                    continue;
                }
                let node = population.node_by_id(source).unwrap();
                let next = next_hop(RouterKind::Pastry, node, target)
                    .expect("converged node finds a hop")
                    .id;
                let own_prefix = source.common_prefix_len(target, bits);
                let next_prefix = next.common_prefix_len(target, bits);
                assert!(
                    next == target
                        || next_prefix > own_prefix
                        || (next_prefix == own_prefix
                            && next.ring_distance(target) < source.ring_distance(target)),
                    "hop from {source} towards {target} via {next} makes no progress"
                );
            }
        }
    }

    /// The Pastry step with rule 1 as it was before it was narrowed to the
    /// leaf set and one slot: a scan of the leaf set and the whole table.
    fn pastry_scanning_everything(
        node: &BootstrapNode<NodeIndex>,
        target: NodeId,
    ) -> Option<Contact> {
        let own = node.id();
        if own == target {
            return None;
        }
        let bits = node.geometry().bits_per_digit();
        let everything = || node.leaf_set().iter().chain(node.prefix_table().iter());
        if let Some(exact) = everything().find(|d| d.id() == target) {
            return Some(Contact::of(exact));
        }
        let own_prefix = own.common_prefix_len(target, bits);
        let slot = node
            .prefix_table()
            .slot(own_prefix, target.digit(own_prefix, bits));
        if let Some(entry) = slot.first() {
            return Some(Contact::of(entry));
        }
        let own_distance = own.ring_distance(target);
        everything()
            .filter(|d| {
                let prefix = d.id().common_prefix_len(target, bits);
                prefix > own_prefix
                    || (prefix == own_prefix && d.id().ring_distance(target) < own_distance)
            })
            .min_by_key(|d| {
                (
                    usize::MAX - d.id().common_prefix_len(target, bits),
                    d.id().ring_distance(target),
                )
            })
            .map(Contact::of)
    }

    /// A node with a four-entry leaf set that has absorbed sixty random
    /// descriptors (so most of what it knows sits in the table only), plus one
    /// identifier it holds twice under two addresses: right after its own,
    /// fresher in the leaf set (address 901) than in the add-only table (900).
    fn crowded_node(bits_per_digit: u8, entries_per_slot: usize) -> BootstrapNode<NodeIndex> {
        let params = BootstrapParams {
            bits_per_digit,
            entries_per_slot,
            leaf_set_size: 4,
            ..BootstrapParams::paper_default()
        };
        let own = Descriptor::new(NodeId::new(0xAB54_0000_0000_0000), NodeIndex::new(0), 0);
        let mut node = BootstrapNode::new(own, &params).unwrap();
        let mut rng = SimRng::seed_from(u64::from(bits_per_digit));
        let batch: Vec<_> = (1..=60u32)
            .map(|raw| Descriptor::new(NodeId::new(rng.next_u64()), NodeIndex::new(raw), 0))
            .collect();
        node.receive(&batch);
        let twice = NodeId::new(own.id().raw() + 1);
        node.receive(&[Descriptor::new(twice, NodeIndex::new(900), 1)]);
        node.receive(&[Descriptor::new(twice, NodeIndex::new(901), 2)]);
        node
    }

    #[test]
    fn pastry_rule_one_reads_the_leaf_set_then_one_slot() {
        for (bits, k) in [(4, 3), (2, 1)] {
            let node = crowded_node(bits, k);
            let (leaf, table) = (node.leaf_set(), node.prefix_table());
            let hop = |target| next_hop(RouterKind::Pastry, &node, target);

            // In both, under two addresses: the leaf set's copy answers.
            let twice = NodeId::new(node.id().raw() + 1);
            let in_leaf = leaf.iter().find(|d| d.id() == twice).unwrap();
            let in_table = table.iter().find(|d| d.id() == twice).unwrap();
            assert_ne!(in_leaf.address(), in_table.address());
            assert_eq!(hop(twice), Some(Contact::of(in_leaf)), "b = {bits}");

            // In the table only: found in its slot, wherever in the slot it sits.
            let table_only: Vec<_> = table.iter().filter(|d| !leaf.contains(d.id())).collect();
            assert!(table_only.len() >= 8, "b = {bits}: {}", table_only.len());
            for entry in &table_only {
                assert_eq!(hop(entry.id()), Some(Contact::of(entry)), "b = {bits}");
            }

            // Absent: rule 2 answers with the head of that same slot, and once
            // the slot is empty too rule 3 agrees with the full scan.
            let mut rng = SimRng::seed_from(99);
            let mut through_rule_two = 0;
            for _ in 0..200 {
                let target = NodeId::new(rng.next_u64());
                let row = node.id().common_prefix_len(target, bits);
                if let Some(head) = table.slot(row, target.digit(row, bits)).first() {
                    assert_eq!(hop(target), Some(Contact::of(head)), "b = {bits}");
                    through_rule_two += 1;
                }
                assert_eq!(hop(target), pastry_scanning_everything(&node, target));
            }
            assert!(through_rule_two > 0 && through_rule_two < 200, "b = {bits}");
            for known in leaf.iter().chain(table.iter()) {
                assert_eq!(
                    hop(known.id()),
                    pastry_scanning_everything(&node, known.id())
                );
            }
        }
    }
}
