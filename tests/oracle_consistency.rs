//! Property-based consistency checks between the convergence oracle (global
//! knowledge) and the protocol's node-local data structures: feeding a node every
//! live descriptor must always produce tables the oracle judges perfect, and the
//! oracle's fillable-slot counts must match a brute-force enumeration.

use bootstrapping_service::core::convergence::ConvergenceOracle;
use bootstrapping_service::core::node::BootstrapNode;
use bootstrapping_service::util::config::BootstrapParams;
use bootstrapping_service::util::descriptor::Descriptor;
use bootstrapping_service::util::geometry::TableGeometry;
use bootstrapping_service::util::id::NodeId;
use proptest::collection::hash_set;
use proptest::prelude::*;

fn params(c: usize, k: usize) -> BootstrapParams {
    BootstrapParams {
        leaf_set_size: c,
        entries_per_slot: k,
        ..BootstrapParams::paper_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn omniscient_nodes_are_judged_perfect(
        raw_ids in hash_set(any::<u64>(), 2..80),
        c in prop::sample::select(vec![4usize, 8, 20]),
        k in 1usize..4,
    ) {
        let ids: Vec<NodeId> = raw_ids.iter().copied().map(NodeId::new).collect();
        let p = params(c, k);
        let oracle = ConvergenceOracle::new(ids.clone(), &p);
        let all: Vec<Descriptor<u32>> = ids
            .iter()
            .enumerate()
            .map(|(position, &id)| Descriptor::new(id, position as u32, 0))
            .collect();
        for &me in ids.iter().take(10) {
            let mut node = BootstrapNode::new(Descriptor::new(me, 0u32, 0), &p).unwrap();
            node.receive(&all);
            let measured = oracle.measure_node(&node);
            prop_assert_eq!(measured.leaf_missing, 0, "leaf set not perfect for {}", me);
            prop_assert_eq!(measured.prefix_missing, 0, "prefix table not perfect for {}", me);
            prop_assert_eq!(measured.prefix_total, oracle.fillable_prefix_entries(me));
        }
    }

    #[test]
    fn leaf_bounds_hold_exactly_the_perfect_leaf_set(
        raw_ids in hash_set(any::<u64>(), 2..60),
        squeeze in 0u32..60,
        c in prop::sample::select(vec![4usize, 8, 20]),
    ) {
        // Shifted right, the identifiers crowd into an arc at the bottom of
        // the ring: nodes at its ends have one side short, and the quota
        // spills into the other.
        let ids: std::collections::HashSet<NodeId> =
            raw_ids.iter().map(|&raw| NodeId::new(raw >> squeeze)).collect();
        let oracle = ConvergenceOracle::new(ids.iter().copied(), &params(c, 3));
        for &me in &ids {
            let bounds = oracle.leaf_bounds(me);
            let perfect = oracle.perfect_leaf_set(me);
            for &other in &ids {
                prop_assert_eq!(
                    bounds.contains(other),
                    perfect.contains(&other),
                    "{} in the leaf set of {}",
                    other,
                    me
                );
            }
        }
    }

    #[test]
    fn fillable_slot_counts_match_brute_force(
        raw_ids in hash_set(any::<u64>(), 2..60),
        k in 1usize..4,
    ) {
        let ids: Vec<NodeId> = raw_ids.iter().copied().map(NodeId::new).collect();
        let p = params(8, k);
        let geometry = TableGeometry::new(p.bits_per_digit, k).unwrap();
        let oracle = ConvergenceOracle::new(ids.clone(), &p);
        for &me in ids.iter().take(10) {
            let mut per_slot: std::collections::HashMap<(usize, u8), usize> =
                std::collections::HashMap::new();
            for &other in &ids {
                if let Some(slot) = geometry.slot_of(me, other) {
                    *per_slot.entry(slot).or_default() += 1;
                }
            }
            let expected: usize = per_slot.values().map(|&count| count.min(k)).sum();
            prop_assert_eq!(oracle.fillable_prefix_entries(me), expected);
        }
    }

    #[test]
    fn ignorant_nodes_are_judged_maximally_missing(
        raw_ids in hash_set(any::<u64>(), 3..60),
    ) {
        let ids: Vec<NodeId> = raw_ids.iter().copied().map(NodeId::new).collect();
        let p = params(8, 3);
        let oracle = ConvergenceOracle::new(ids.clone(), &p);
        let me = ids[0];
        let node = BootstrapNode::new(Descriptor::new(me, 0u32, 0), &p).unwrap();
        let measured = oracle.measure_node(&node);
        prop_assert_eq!(measured.leaf_missing, measured.leaf_total);
        prop_assert_eq!(measured.prefix_missing, measured.prefix_total);
        prop_assert!(measured.leaf_total > 0);
        prop_assert_eq!(
            measured.leaf_total,
            oracle.perfect_leaf_set(me).len()
        );
    }
}
