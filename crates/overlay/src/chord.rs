//! A compact Chord ring used as the "Chord on demand" baseline.
//!
//! The paper's related work (§4, §6) points at the authors' earlier "Chord on
//! demand" result \[9\]: a gossip protocol that jump-starts Chord — a sorted ring
//! plus distance-halving fingers — rather than a prefix-table substrate. For the
//! reproduction we build the Chord structure directly from global knowledge (the
//! instantly-converged ideal) and use it as a routing-quality yardstick: the hops
//! taken by prefix routing over bootstrapped tables should be in the same ballpark
//! as Chord's `O(log₂ N)` greedy finger routing.

use bss_core::routing::{RouteEnd, Routed};
use bss_util::id::NodeId;
use std::collections::HashMap;

/// Successors each node keeps next to its fingers.
const SUCCESSOR_LIST_LEN: usize = 4;

/// A fully built Chord ring: successor pointers and finger tables for every node.
#[derive(Debug, Clone)]
pub struct ChordRing {
    sorted_ids: Vec<NodeId>,
    fingers: HashMap<NodeId, Vec<NodeId>>,
}

impl ChordRing {
    /// Builds the ring (successors + 64 fingers per node) from a set of
    /// identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or contains duplicates.
    pub(crate) fn build(ids: impl IntoIterator<Item = NodeId>) -> Self {
        let mut sorted_ids: Vec<NodeId> = ids.into_iter().collect();
        assert!(
            !sorted_ids.is_empty(),
            "a Chord ring needs at least one node"
        );
        sorted_ids.sort_unstable();
        let before = sorted_ids.len();
        sorted_ids.dedup();
        assert_eq!(before, sorted_ids.len(), "duplicate identifiers");

        let mut ring = ChordRing {
            sorted_ids,
            fingers: HashMap::new(),
        };
        ring.fingers = ring
            .sorted_ids
            .iter()
            .map(|&node| {
                let mut table: Vec<NodeId> = (0..64u32)
                    .map(|bit| ring.successor(NodeId::new(node.raw().wrapping_add(1u64 << bit))))
                    .collect();
                table.dedup();
                (node, table)
            })
            .collect();
        ring
    }

    /// The node responsible for `key`: the first node at or after it on the ring.
    pub(crate) fn successor(&self, key: NodeId) -> NodeId {
        let sorted = &self.sorted_ids;
        match sorted.binary_search(&key) {
            Ok(position) => sorted[position],
            Err(position) => sorted[position % sorted.len()],
        }
    }

    /// The immediate successors of `node` on the ring (its successor list).
    fn successor_list(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let position = self
            .sorted_ids
            .binary_search(&node)
            .expect("node must be on the ring");
        let n = self.sorted_ids.len();
        (1..=SUCCESSOR_LIST_LEN.min(n - 1)).map(move |step| self.sorted_ids[(position + step) % n])
    }

    /// The finger table of `node`, deduplicated, nearest finger first.
    fn fingers(&self, node: NodeId) -> &[NodeId] {
        self.fingers.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Greedy Chord routing from `source` to the node responsible for `target`:
    /// forward to the finger that most closely precedes the target.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not on the ring.
    pub(crate) fn route(&self, source: NodeId, target: NodeId) -> Routed {
        assert!(
            self.sorted_ids.binary_search(&source).is_ok(),
            "source node must be on the ring"
        );
        let destination = self.successor(target);
        let max_hops = self.sorted_ids.len().max(64) as u64;
        let mut current = source;
        let mut hops = 0;
        let end = loop {
            if current == destination {
                break RouteEnd::Delivered;
            }
            if hops == max_hops {
                break RouteEnd::HopLimit;
            }
            // Candidates: fingers and successors. Pick the one that most closely
            // precedes (or is) the destination without overshooting it.
            let next = self
                .fingers(current)
                .iter()
                .copied()
                .chain(self.successor_list(current))
                .filter(|&candidate| candidate != current)
                .filter(|&candidate| {
                    // candidate lies in the half-open arc (current, destination]
                    let to_candidate = current.clockwise_distance(candidate);
                    let to_destination = current.clockwise_distance(destination);
                    to_candidate <= to_destination && to_candidate > 0
                })
                .max_by_key(|&candidate| current.clockwise_distance(candidate));
            match next {
                Some(next) => {
                    hops += 1;
                    current = next;
                }
                None => break RouteEnd::Stuck,
            }
        };
        Routed { end, hops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_util::rng::SimRng;

    fn ring(size: usize, seed: u64) -> ChordRing {
        let mut rng = SimRng::seed_from(seed);
        ChordRing::build(rng.distinct_u64(size).into_iter().map(NodeId::new))
    }

    #[test]
    fn successor_wraps_and_matches_sorted_order() {
        let ids = [10u64, 20, 30].map(NodeId::new);
        let ring = ChordRing::build(ids);
        assert_eq!(ring.sorted_ids.len(), 3);
        assert_eq!(ring.successor(NodeId::new(15)).raw(), 20);
        assert_eq!(ring.successor(NodeId::new(20)).raw(), 20);
        assert_eq!(
            ring.successor(NodeId::new(35)).raw(),
            10,
            "wraps past the end"
        );
        assert_eq!(
            ring.successor_list(NodeId::new(30)).collect::<Vec<_>>(),
            vec![NodeId::new(10), NodeId::new(20)]
        );
    }

    #[test]
    fn fingers_point_at_distance_halving_targets() {
        let ring = ring(100, 1);
        for id in ring.sorted_ids.clone() {
            let fingers = ring.fingers(id);
            assert!(!fingers.is_empty());
            assert!(fingers.len() <= 64);
        }
    }

    #[test]
    fn routing_reaches_the_responsible_node_in_logarithmic_hops() {
        let ring = ring(256, 2);
        let ids = ring.sorted_ids.clone();
        let mut rng = SimRng::seed_from(7);
        let mut total_hops = 0;
        for _ in 0..300 {
            let source = ids[rng.index(ids.len())];
            let target = NodeId::new(rng.next_u64());
            let routed = ring.route(source, target);
            assert!(routed.delivered(), "{routed:?}");
            total_hops += routed.hops;
        }
        let mean = total_hops as f64 / 300.0;
        assert!(mean < 8.0, "Chord mean hops {mean} too high for 256 nodes");
    }

    #[test]
    fn self_route_and_tiny_rings() {
        let ring = ChordRing::build([NodeId::new(5)]);
        let routed = ring.route(NodeId::new(5), NodeId::new(123));
        assert!(routed.delivered());
        assert_eq!(routed.hops, 0);
        assert!(ring.successor_list(NodeId::new(5)).next().is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicates_are_rejected() {
        let _ = ChordRing::build([NodeId::new(1), NodeId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_ring_is_rejected() {
        let _ = ChordRing::build(std::iter::empty());
    }
}
