//! Kademlia-style XOR routing over bootstrapped tables: the checks of the XOR
//! rule (`RouterKind::Kademlia` in [`bss_core::routing`]).
//!
//! Kademlia keeps, for every bit position at which a contact's identifier diverges
//! from the local one, a bucket of contacts. A prefix table with digit width `b`
//! is a coarser-grained view of the same structure (one row covers `b` bit
//! positions, one column per digit value), so the tables produced by the
//! bootstrapping service can seed a Kademlia node directly. The rule is greedy
//! XOR-metric descent: at every step forward to the known contact whose
//! identifier is XOR-closest to the target, which on a converged population
//! reaches the target in `O(log_{2^b} N)` hops.

#[cfg(test)]
mod tests {
    use bss_core::experiment::{Experiment, ExperimentConfig, PopulationSnapshot};
    use bss_core::routing::{
        next_hop, route, Contact, Routed, RouterKind, SnapshotTables, DEFAULT_MAX_HOPS,
    };
    use bss_util::id::NodeId;
    use bss_util::rng::SimRng;

    fn snapshot(size: usize, seed: u64) -> PopulationSnapshot {
        let config = ExperimentConfig::builder()
            .network_size(size)
            .seed(seed)
            .max_cycles(80)
            .build()
            .unwrap();
        let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
        assert!(outcome.converged());
        snapshot
    }

    /// Routes one XOR lookup from the node `source` over the snapshot.
    fn route_xor(population: &PopulationSnapshot, source: NodeId, target: NodeId) -> Routed {
        let node = population
            .node_by_id(source)
            .expect("source in the snapshot");
        let source = Contact {
            id: source,
            address: node.own_descriptor().address(),
        };
        route(
            &mut SnapshotTables(population),
            RouterKind::Kademlia,
            source,
            target,
            DEFAULT_MAX_HOPS,
            &mut Vec::new(),
        )
    }

    #[test]
    fn xor_routing_delivers_on_a_converged_network() {
        let population = snapshot(128, 11);
        let ids: Vec<NodeId> = population.ids().collect();
        let mut rng = SimRng::seed_from(5);
        let mut hops = Vec::new();
        for _ in 0..300 {
            let source = ids[rng.index(ids.len())];
            let target = ids[rng.index(ids.len())];
            let routed = route_xor(&population, source, target);
            assert!(routed.delivered(), "{source} -> {target}: {routed:?}");
            hops.push(routed.hops as f64);
        }
        let mean = hops.iter().sum::<f64>() / hops.len() as f64;
        assert!(mean < 6.0, "mean XOR hops {mean}");
    }

    #[test]
    fn xor_descent_is_monotone() {
        let population = snapshot(64, 12);
        let ids: Vec<NodeId> = population.ids().collect();
        for &source in ids.iter().take(20) {
            for &target in ids.iter().skip(40).take(20) {
                if source == target {
                    continue;
                }
                let node = population.node_by_id(source).unwrap();
                if let Some(next) = next_hop(RouterKind::Kademlia, node, target) {
                    assert!(next.id.xor_distance(target) < source.xor_distance(target));
                }
            }
        }
    }

    #[test]
    fn self_lookup_is_immediate_and_budget_is_respected() {
        let population = snapshot(32, 13);
        let id = population.node_at(0).unwrap().id();
        let routed = route_xor(&population, id, id);
        assert!(routed.delivered());
        assert_eq!(routed.hops, 0);
    }
}
