//! Diagnostics for peer-sampling quality.
//!
//! The bootstrap protocol's convergence depends on the sampling layer supplying
//! "sufficiently random" samples (§3). `snapshot` quantifies that for a running
//! [`NewscastProtocol`] in the one walk over the views this module makes: the
//! in-degree distribution of the overlay induced by the caches (uniformly
//! random graphs have a tight, Poisson-like in-degree distribution; a hub
//! attack drives its Gini coefficient up sharply) and the fraction of cache
//! entries pointing at departed nodes. A uniformity standard for the sampler
//! (ROADMAP item 6a) is one more field of [`SamplingQuality`] filled by the
//! same walk.

use crate::newscast::NewscastProtocol;
use bss_sim::network::{Network, NodeIndex};

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
/// nodes (a pointer counts towards its target whether or not the target is
/// alive; only alive targets enter the distribution) plus the dead-pointer
/// fraction, all from one walk over the alive views.
pub(crate) fn snapshot(protocol: &NewscastProtocol, network: &Network) -> SamplingQuality {
    let alive: Vec<NodeIndex> = network.alive_indices().collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::PeerSampler;
    use bss_sim::engine::cycle::{CycleEngine, CycleProtocol};
    use bss_util::config::NewscastParams;
    use bss_util::rng::SimRng;

    fn converged_newscast(size: usize, cycles: u64, seed: u64) -> (NewscastProtocol, CycleEngine) {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        let mut engine = CycleEngine::new(network, rng);
        let mut protocol = NewscastProtocol::new(NewscastParams {
            view_size: 20,
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
        let quality = snapshot(&protocol, network);
        // The mean in-degree equals the mean view size (≈ 20).
        assert!((quality.in_degree_mean - 20.0).abs() < 1.5, "{quality:?}");
        // NEWSCAST's freshest-first rule produces a somewhat skewed in-degree
        // distribution (temporary hubs), but no node should dominate the caches.
        assert!(quality.in_degree_max < 150.0, "{quality:?}");
    }

    #[test]
    fn dead_pointer_fraction_reflects_failures() {
        let (mut protocol, mut engine) = converged_newscast(100, 15, 3);
        let dead_pointer_fraction = |protocol: &NewscastProtocol, network: &Network| {
            snapshot(protocol, network).dead_pointer_fraction
        };
        assert_eq!(
            dead_pointer_fraction(&protocol, &engine.context().network),
            0.0
        );
        // Kill 30 % of the nodes without letting the protocol react.
        let victims: Vec<NodeIndex> = engine.context().network.alive_indices().take(30).collect();
        for v in victims {
            engine.context_mut().network.kill(v);
            CycleProtocol::node_departed(&mut protocol, v, 0, engine.context_mut());
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
}
