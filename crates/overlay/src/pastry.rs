//! Pastry-style greedy prefix routing over bootstrapped tables.
//!
//! Pastry routes a message for key `t` as follows: if `t` falls within the range of
//! the local leaf set, deliver to the numerically closest leaf-set member;
//! otherwise forward to the prefix-table entry whose identifier shares a longer
//! prefix with `t` than the local identifier does; failing that, forward to any
//! known node that is strictly closer to `t`. The router here implements exactly
//! that over the [`PopulationSnapshot`] produced by a bootstrap run, which is how
//! the reproduction validates that the constructed tables really do support the
//! substrates the paper targets.

use bss_core::experiment::PopulationSnapshot;
use bss_core::routing::{route, Contact, RouteEnd, RouterKind, SnapshotTables};
use bss_util::id::NodeId;

/// The result of routing one lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RouteOutcome {
    /// The lookup reached its destination; the payload is the path of node
    /// identifiers, starting at the source and ending at the destination.
    Delivered(Vec<NodeId>),
    /// Routing stopped at a node with no better next hop.
    Stuck {
        /// The path traversed before getting stuck.
        path: Vec<NodeId>,
    },
    /// The hop budget was exhausted.
    HopLimit {
        /// The path traversed before giving up.
        path: Vec<NodeId>,
    },
}

impl RouteOutcome {
    /// Whether the lookup reached its destination.
    pub(crate) fn is_delivered(&self) -> bool {
        matches!(self, RouteOutcome::Delivered(_))
    }

    /// Number of hops taken (path length minus one); zero for an empty path.
    pub(crate) fn hops(&self) -> usize {
        let path = match self {
            RouteOutcome::Delivered(path)
            | RouteOutcome::Stuck { path }
            | RouteOutcome::HopLimit { path } => path,
        };
        path.len().saturating_sub(1)
    }
}

/// A greedy router over a bootstrapped population, forwarding under `kind`'s
/// per-hop rule: Pastry's prefix-then-distance step, Kademlia's XOR-closest
/// contact, or Chord-style clockwise progress over the node's own tables.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotRouter<'a> {
    population: &'a PopulationSnapshot,
    kind: RouterKind,
    max_hops: usize,
}

impl<'a> SnapshotRouter<'a> {
    /// Creates a router with a default hop budget of 64.
    pub(crate) fn new(population: &'a PopulationSnapshot, kind: RouterKind) -> Self {
        SnapshotRouter {
            population,
            kind,
            max_hops: 64,
        }
    }

    /// Routes a lookup for the node `target` starting at the node `source`
    /// through the shared loop in [`bss_core::routing`]. A stale entry pointing
    /// outside the population loses the message at that hop, and so does a hop
    /// back onto the path: both end [`RouteOutcome::Stuck`].
    ///
    /// # Panics
    ///
    /// Panics if `source` is not part of the population.
    pub(crate) fn route(&self, source: NodeId, target: NodeId) -> RouteOutcome {
        let node = self
            .population
            .node_by_id(source)
            .expect("source node must be part of the population");
        let source = Contact {
            id: source,
            address: node.own_descriptor().address(),
        };
        let mut tables = SnapshotTables(self.population);
        let mut path = Vec::new();
        let end = route(
            &mut tables,
            self.kind,
            source,
            target,
            self.max_hops,
            &mut path,
        )
        .end;
        let path = path.into_iter().map(|contact| contact.id).collect();
        match end {
            RouteEnd::Delivered => RouteOutcome::Delivered(path),
            RouteEnd::HopLimit => RouteOutcome::HopLimit { path },
            _ => RouteOutcome::Stuck { path },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_core::experiment::{Experiment, ExperimentConfig};
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
            "bootstrap must converge for routing tests"
        );
        snapshot
    }

    #[test]
    fn every_lookup_is_delivered_on_a_converged_network() {
        let population = snapshot(128, 1);
        let router = SnapshotRouter::new(&population, RouterKind::Pastry);
        let ids: Vec<NodeId> = population.ids().collect();
        let mut rng = SimRng::seed_from(99);
        let mut total_hops = 0usize;
        let lookups = 300;
        for _ in 0..lookups {
            let source = ids[rng.index(ids.len())];
            let target = ids[rng.index(ids.len())];
            let outcome = router.route(source, target);
            assert!(
                outcome.is_delivered(),
                "lookup {source} -> {target} failed: {outcome:?}"
            );
            total_hops += outcome.hops();
        }
        let mean_hops = total_hops as f64 / lookups as f64;
        // log_16(128) < 2, plus leaf-set shortcuts: well under 5 hops on average.
        assert!(mean_hops < 5.0, "mean hops {mean_hops}");
    }

    #[test]
    fn self_lookup_takes_zero_hops() {
        let population = snapshot(32, 2);
        let router = SnapshotRouter::new(&population, RouterKind::Pastry);
        let id = population.node_at(0).unwrap().id();
        let outcome = router.route(id, id);
        assert!(outcome.is_delivered());
        assert_eq!(outcome.hops(), 0);
    }

    #[test]
    fn hop_budget_is_enforced() {
        let population = snapshot(64, 3);
        let router = SnapshotRouter {
            max_hops: 1,
            ..SnapshotRouter::new(&population, RouterKind::Pastry)
        };
        let ids: Vec<NodeId> = population.ids().collect();
        // With a single allowed hop some far lookup will hit the limit.
        let mut limited = false;
        for (i, &source) in ids.iter().enumerate() {
            let target = ids[(i + ids.len() / 2) % ids.len()];
            let outcome = router.route(source, target);
            if matches!(outcome, RouteOutcome::HopLimit { .. }) {
                limited = true;
                break;
            }
        }
        assert!(limited, "a one-hop budget should not reach every target");
    }

    #[test]
    fn a_target_reached_on_the_last_budgeted_hop_is_delivered() {
        let population = snapshot(64, 3);
        let ids: Vec<NodeId> = population.ids().collect();
        for kind in [RouterKind::Pastry, RouterKind::Kademlia] {
            let name = kind.label();
            let route = |max_hops, source, target| {
                SnapshotRouter {
                    max_hops,
                    ..SnapshotRouter::new(&population, kind)
                }
                .route(source, target)
            };
            // A pair that needs at least two hops, so that one hop fewer is
            // still a positive budget.
            let (source, target, hops) = ids
                .iter()
                .flat_map(|&source| ids.iter().map(move |&target| (source, target)))
                .map(|(source, target)| (source, target, route(64, source, target).hops()))
                .find(|&(_, _, hops)| hops >= 2)
                .expect("some pair is two hops apart");
            let exact = route(hops, source, target);
            assert!(
                exact.is_delivered(),
                "{name}: a budget of {hops} hops covers a {hops}-hop path: {exact:?}"
            );
            assert_eq!(exact.hops(), hops);
            let short = route(hops - 1, source, target);
            assert!(
                matches!(short, RouteOutcome::HopLimit { .. }),
                "{name}: {short:?}"
            );
            assert_eq!(short.hops(), hops - 1);
        }
    }

    #[test]
    #[should_panic(expected = "source node")]
    fn unknown_source_is_rejected() {
        let population = snapshot(16, 4);
        let router = SnapshotRouter::new(&population, RouterKind::Pastry);
        let _ = router.route(NodeId::new(123), NodeId::new(456));
    }

    #[test]
    fn next_hop_makes_progress_in_prefix_or_distance() {
        let population = snapshot(64, 5);
        let ids: Vec<NodeId> = population.ids().collect();
        let bits = 4;
        for &source in ids.iter().take(16) {
            for &target in ids.iter().rev().take(16) {
                if source == target {
                    continue;
                }
                let node = population.node_by_id(source).unwrap();
                let next = bss_core::routing::next_hop(RouterKind::Pastry, node, target)
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
}
