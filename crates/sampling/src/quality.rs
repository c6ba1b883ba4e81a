//! Diagnostics for peer-sampling quality.
//!
//! The bootstrap protocol's convergence depends on the sampling layer supplying
//! "sufficiently random" samples (§3). These helpers quantify that for a running
//! [`NewscastProtocol`]: the in-degree distribution of the overlay induced by
//! the caches (uniformly random graphs have a tight, Poisson-like in-degree
//! distribution), the fraction of cache entries pointing at departed nodes, and
//! whether the induced overlay is connected (a disconnected sampling overlay
//! would partition every layer built on top of it).

use crate::newscast::NewscastProtocol;
use bss_sim::network::{Network, NodeIndex};
use bss_util::stats::{Histogram, Summary};
use std::collections::{HashSet, VecDeque};

/// Materialises the alive-node set once, so each diagnostic walks the network
/// a single time instead of re-filtering the registry per pass.
fn alive_set(network: &Network) -> Vec<NodeIndex> {
    network.alive_indices().collect()
}

/// The in-degree distribution of the directed graph "node → nodes in its view",
/// computed over alive nodes only.
pub fn in_degree_histogram(protocol: &NewscastProtocol, network: &Network) -> Histogram {
    let alive = alive_set(network);
    let mut in_degree = vec![0u64; network.len()];
    for &node in &alive {
        if let Some(view) = protocol.view(node) {
            for descriptor in view {
                let target = NodeIndex::new(descriptor.address());
                if target.as_usize() < in_degree.len() && network.is_alive(target) {
                    in_degree[target.as_usize()] += 1;
                }
            }
        }
    }
    let mut histogram = Histogram::new(1);
    for &node in &alive {
        histogram.record(in_degree[node.as_usize()]);
    }
    histogram
}

/// Summary statistics of the in-degree distribution (mean should be close to the
/// view size; the standard deviation measures how far the overlay is from a
/// uniformly random graph).
pub fn in_degree_summary(protocol: &NewscastProtocol, network: &Network) -> Summary {
    let alive = alive_set(network);
    let mut in_degree = vec![0f64; network.len()];
    for &node in &alive {
        if let Some(view) = protocol.view(node) {
            for descriptor in view {
                let target = descriptor.address() as usize;
                if target < in_degree.len() {
                    in_degree[target] += 1.0;
                }
            }
        }
    }
    let degrees: Vec<f64> = alive.iter().map(|n| in_degree[n.as_usize()]).collect();
    Summary::of(&degrees)
}

/// The Gini coefficient of the in-degree distribution over alive nodes: 0 for
/// a perfectly balanced overlay, approaching 1 when a few hubs hold almost all
/// incoming pointers. A hub attack — one origin flooding sybil copies of
/// itself into every view — drives this up sharply, which is why the
/// measurement harness tracks it per cycle in adversarial runs.
pub fn in_degree_gini(protocol: &NewscastProtocol, network: &Network) -> f64 {
    snapshot(protocol, network).in_degree_gini
}

/// One consistent reading of the sampler's overlay quality, computed in a
/// single pass over the views. This is what the experiment harness records per
/// measured cycle (see `PeerSampler::quality`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SamplingQuality {
    /// Mean in-degree over alive nodes (close to the view size when healthy).
    pub in_degree_mean: f64,
    /// Largest in-degree held by any alive node (hubs spike this).
    pub in_degree_max: f64,
    /// Gini coefficient of the in-degree distribution (0 balanced, → 1 hub).
    pub in_degree_gini: f64,
    /// Fraction of view entries pointing at departed nodes.
    pub dead_pointer_fraction: f64,
}

/// Computes a [`SamplingQuality`] snapshot: in-degree mean/max/Gini over alive
/// nodes (counting pointers exactly like [`in_degree_summary`]) plus the
/// dead-pointer fraction, all from one walk over the alive views.
pub fn snapshot(protocol: &NewscastProtocol, network: &Network) -> SamplingQuality {
    let alive = alive_set(network);
    let mut in_degree = vec![0u64; network.len()];
    let mut dead = 0usize;
    let mut total = 0usize;
    for &node in &alive {
        if let Some(view) = protocol.view(node) {
            for descriptor in view {
                let target = descriptor.address() as usize;
                if target < in_degree.len() {
                    in_degree[target] += 1;
                }
                total += 1;
                if !network.is_alive(NodeIndex::new(descriptor.address())) {
                    dead += 1;
                }
            }
        }
    }
    let mut degrees: Vec<u64> = alive.iter().map(|n| in_degree[n.as_usize()]).collect();
    degrees.sort_unstable();
    let count = degrees.len();
    let sum: u64 = degrees.iter().sum();
    let (mean, max, gini) = if count == 0 || sum == 0 {
        (0.0, 0.0, 0.0)
    } else {
        // Gini over the sorted degrees: Σ (2i − n + 1)·xᵢ / (n·Σx).
        let weighted: f64 = degrees
            .iter()
            .enumerate()
            .map(|(i, &x)| (2.0 * i as f64 - count as f64 + 1.0) * x as f64)
            .sum();
        (
            sum as f64 / count as f64,
            *degrees.last().expect("non-empty") as f64,
            weighted / (count as f64 * sum as f64),
        )
    };
    SamplingQuality {
        in_degree_mean: mean,
        in_degree_max: max,
        in_degree_gini: gini,
        dead_pointer_fraction: if total == 0 {
            0.0
        } else {
            dead as f64 / total as f64
        },
    }
}

/// Fraction of view entries (over all alive nodes) that point at departed nodes.
/// NEWSCAST's freshest-first aging keeps this small even under churn.
pub fn dead_pointer_fraction(protocol: &NewscastProtocol, network: &Network) -> f64 {
    // Single pass: iterating the registry directly is already one walk, so no
    // materialised alive set is needed here.
    let mut dead = 0usize;
    let mut total = 0usize;
    for node in network.alive_indices() {
        if let Some(view) = protocol.view(node) {
            for descriptor in view {
                total += 1;
                if !network.is_alive(NodeIndex::new(descriptor.address())) {
                    dead += 1;
                }
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        dead as f64 / total as f64
    }
}

/// Whether the *undirected* overlay induced by the views connects all alive nodes.
///
/// Connectivity of the sampling overlay is the minimum requirement for any layer
/// built on top of it: a disconnected overlay cannot be repaired by the bootstrap
/// protocol because information never flows between components.
pub fn is_connected(protocol: &NewscastProtocol, network: &Network) -> bool {
    let alive = alive_set(network);
    if alive.len() <= 1 {
        return true;
    }
    // Build an undirected adjacency over alive nodes from the views.
    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); network.len()];
    for &node in &alive {
        if let Some(view) = protocol.view(node) {
            for descriptor in view {
                let target = NodeIndex::new(descriptor.address());
                if network.is_alive(target) {
                    adjacency[node.as_usize()].push(target.as_usize());
                    adjacency[target.as_usize()].push(node.as_usize());
                }
            }
        }
    }
    let start = alive[0].as_usize();
    let mut visited: HashSet<usize> = HashSet::with_capacity(alive.len());
    let mut queue = VecDeque::new();
    visited.insert(start);
    queue.push_back(start);
    while let Some(current) = queue.pop_front() {
        for &next in &adjacency[current] {
            if visited.insert(next) {
                queue.push_back(next);
            }
        }
    }
    visited.len() == alive.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::PeerSampler;
    use bss_sim::engine::cycle::CycleEngine;
    use bss_util::config::NewscastParams;
    use bss_util::rng::SimRng;

    fn converged_newscast(size: usize, cycles: u64, seed: u64) -> (NewscastProtocol, CycleEngine) {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        let mut engine = CycleEngine::new(network, rng);
        let mut protocol = NewscastProtocol::new(NewscastParams {
            view_size: 20,
            period_millis: 1000,
            ..NewscastParams::paper_default()
        });
        protocol.init_all(engine.context_mut());
        engine.run(&mut protocol, cycles);
        (protocol, engine)
    }

    #[test]
    fn in_degree_is_balanced_after_convergence() {
        let (protocol, engine) = converged_newscast(300, 25, 1);
        let network = &engine.context().network;
        let summary = in_degree_summary(&protocol, network);
        assert_eq!(summary.count, 300);
        // The mean in-degree equals the mean view size (≈ 20).
        assert!((summary.mean - 20.0).abs() < 1.5, "mean {summary}");
        // NEWSCAST's freshest-first rule produces a somewhat skewed in-degree
        // distribution (temporary hubs), but no node should dominate the caches.
        assert!(summary.max < 150.0, "max in-degree too large: {summary}");
        assert!(summary.min >= 0.0);
        let histogram = in_degree_histogram(&protocol, network);
        assert_eq!(histogram.count(), 300);
    }

    #[test]
    fn overlay_is_connected_after_convergence() {
        let (protocol, engine) = converged_newscast(200, 20, 2);
        assert!(is_connected(&protocol, &engine.context().network));
    }

    #[test]
    fn dead_pointer_fraction_reflects_failures() {
        let (mut protocol, mut engine) = converged_newscast(100, 15, 3);
        assert_eq!(
            dead_pointer_fraction(&protocol, &engine.context().network),
            0.0
        );
        // Kill 30 % of the nodes without letting the protocol react.
        let victims: Vec<NodeIndex> = engine.context().network.alive_indices().take(30).collect();
        for v in victims {
            engine.context_mut().network.kill(v);
            PeerSampler::node_departed(&mut protocol, v, engine.context_mut());
        }
        let fraction_before = dead_pointer_fraction(&protocol, &engine.context().network);
        assert!(
            fraction_before > 0.05,
            "dead pointers should appear: {fraction_before}"
        );
        // Let NEWSCAST heal.
        engine.run(&mut protocol, 15);
        let fraction_after = dead_pointer_fraction(&protocol, &engine.context().network);
        assert!(
            fraction_after < fraction_before,
            "healing should reduce dead pointers ({fraction_before} -> {fraction_after})"
        );
    }

    #[test]
    fn trivial_networks_are_connected() {
        let mut rng = SimRng::seed_from(4);
        let network = Network::with_random_ids(1, &mut rng);
        let protocol = NewscastProtocol::new(NewscastParams::paper_default());
        assert!(is_connected(&protocol, &network));
        assert_eq!(dead_pointer_fraction(&protocol, &network), 0.0);
    }

    #[test]
    fn isolated_views_are_detected_as_disconnected() {
        // Two nodes that only know themselves (empty views) are disconnected.
        let mut rng = SimRng::seed_from(5);
        let network = Network::with_random_ids(2, &mut rng);
        let mut engine = CycleEngine::new(network, rng);
        let mut protocol = NewscastProtocol::new(NewscastParams::paper_default());
        protocol.init_node_with(NodeIndex::new(0), vec![], engine.context_mut());
        protocol.init_node_with(NodeIndex::new(1), vec![], engine.context_mut());
        assert!(!is_connected(&protocol, &engine.context().network));
    }
}
