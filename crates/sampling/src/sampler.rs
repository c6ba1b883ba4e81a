//! The peer sampling service abstraction and the idealised oracle implementation.
//!
//! The bootstrapping protocol only needs one thing from the layer below it: "cr
//! random samples taken from the sampling service" when composing a message (§4).
//! [`PeerSampler`] captures that dependency; the protocol crates are written
//! against the trait so the same bootstrap code runs over real NEWSCAST gossip or
//! over the [`OracleSampler`], which returns perfectly uniform samples straight
//! from the registry. Comparing the two isolates the effect of sampling quality on
//! convergence (ablation C of `bss-bench ablation`).

use crate::quality::SamplingQuality;
use bss_sim::engine::cycle::{CycleProtocol, EngineContext};
use bss_sim::network::{Network, NodeIndex};
use bss_util::descriptor::Descriptor;
use std::fmt::Debug;

/// A source of random peer descriptors, as seen by one simulated node.
///
/// A sampler is a gossip protocol in its own right, so it is a
/// [`CycleProtocol`]: `execute_node` is one gossip step (nothing, for the
/// oracle), and a protocol stacked on it calls it from its own. A joiner under
/// that protocol is seeded through [`init_node`](PeerSampler::init_node) (§4's
/// start condition), not the sampler's own one-contact `node_joined`. The
/// run's adversary is read from [`EngineContext::adversary`].
///
/// Implementations may keep per-node state (NEWSCAST caches) or none at all (the
/// oracle). All methods receive the [`EngineContext`] so they can reach the node
/// registry, the RNG and the transport. A sampler is `Sync`, so the protocol
/// that owns one can be read from several threads at once (the lookups of a
/// traffic cycle).
pub trait PeerSampler: CycleProtocol + Debug + Sync {
    /// Initialises per-node state for `node` (called for every initial node and
    /// for every later joiner before it first samples). `cycle` is the logical
    /// time of the initialisation — 0 at start-up, the join cycle for later
    /// joiners — and is the timestamp stateful samplers must stamp on the
    /// seeded descriptors: seeding a mid-run joiner's view with timestamp-0
    /// descriptors would make the fresh node's contacts look maximally stale
    /// to freshness ranking and to the descriptor-aging failure detector.
    fn init_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext);

    /// Initialises every node currently alive in the registry (at cycle 0, the
    /// start-up condition).
    fn init_all(&mut self, ctx: &mut EngineContext) {
        let nodes: Vec<NodeIndex> = ctx.network.alive_indices().collect();
        for node in nodes {
            self.init_node(node, 0, ctx);
        }
    }

    /// A snapshot of the sampler's overlay quality (in-degree distribution,
    /// dead pointers), when the sampler maintains an overlay to measure.
    /// Stateless samplers return `None` — the measurement harness uses this
    /// as the capability gate for recording quality series.
    fn quality(&self, _network: &Network) -> Option<SamplingQuality> {
        None
    }

    /// Draws up to `count` random peer descriptors for `node`. Fewer (possibly
    /// zero) descriptors may be returned when the sampler does not know enough
    /// peers. The returned descriptors never include `node` itself.
    fn sample(
        &mut self,
        node: NodeIndex,
        count: usize,
        cycle: u64,
        ctx: &mut EngineContext,
    ) -> Vec<Descriptor<NodeIndex>>;
}

/// An idealised peer sampling service: every call returns distinct, uniformly
/// random alive peers taken directly from the global registry.
///
/// This models the paper's working assumption that "the peer sampling service is
/// available" and produces high-quality samples; it is also the natural baseline
/// when measuring how much NEWSCAST's imperfect randomness costs the bootstrap
/// protocol.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleSampler;

impl OracleSampler {
    /// Creates an oracle sampler.
    pub fn new() -> Self {
        OracleSampler
    }
}

impl CycleProtocol for OracleSampler {
    fn execute_node(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}
}

impl PeerSampler for OracleSampler {
    fn init_node(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}

    fn sample(
        &mut self,
        node: NodeIndex,
        count: usize,
        cycle: u64,
        ctx: &mut EngineContext,
    ) -> Vec<Descriptor<NodeIndex>> {
        // O(count · log n) via the registry's Fenwick-backed alive set; the
        // node sequence and RNG stream are identical to materialising the
        // alive set and partial-Fisher–Yates sampling it.
        let picked = ctx
            .network
            .sample_alive_excluding(node, count, &mut ctx.rng);
        picked
            .into_iter()
            .map(|peer| ctx.network.descriptor(peer, cycle))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_sim::network::Network;
    use bss_util::rng::SimRng;

    fn context(size: usize, seed: u64) -> EngineContext {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        EngineContext::new(network, rng)
    }

    #[test]
    fn oracle_returns_requested_number_of_distinct_peers() {
        let mut ctx = context(100, 1);
        let mut oracle = OracleSampler::new();
        oracle.init_all(&mut ctx);
        let me = NodeIndex::new(0);
        let samples = oracle.sample(me, 30, 5, &mut ctx);
        assert_eq!(samples.len(), 30);
        let unique: std::collections::HashSet<_> =
            samples.iter().map(Descriptor::address).collect();
        assert_eq!(unique.len(), 30, "samples must be distinct");
        assert!(unique.iter().all(|&a| a != me), "never sample yourself");
        assert!(samples.iter().all(|d| d.timestamp() == 5));
        assert!(samples
            .iter()
            .all(|d| ctx.network.id(d.address()) == d.id()));
    }

    #[test]
    fn oracle_caps_at_available_peers() {
        let mut ctx = context(5, 2);
        let mut oracle = OracleSampler::new();
        let samples = oracle.sample(NodeIndex::new(0), 30, 0, &mut ctx);
        assert_eq!(samples.len(), 4, "only four other nodes exist");
    }

    #[test]
    fn oracle_skips_dead_nodes() {
        let mut ctx = context(10, 3);
        for raw in 1..9u32 {
            ctx.network.kill(NodeIndex::new(raw));
        }
        let mut oracle = OracleSampler::new();
        let samples = oracle.sample(NodeIndex::new(0), 10, 0, &mut ctx);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].address(), NodeIndex::new(9));
    }

    #[test]
    fn oracle_sampling_is_roughly_uniform() {
        let mut ctx = context(20, 4);
        let mut oracle = OracleSampler::new();
        let mut counts = [0u32; 20];
        for _ in 0..2000 {
            for d in oracle.sample(NodeIndex::new(0), 1, 0, &mut ctx) {
                counts[d.address().as_usize()] += 1;
            }
        }
        assert_eq!(counts[0], 0, "node never samples itself");
        let min = *counts[1..].iter().min().unwrap();
        let max = *counts[1..].iter().max().unwrap();
        assert!(min > 0);
        assert!(
            f64::from(max) / f64::from(min) < 2.0,
            "counts should be roughly balanced: min={min} max={max}"
        );
    }

    #[test]
    fn oracle_on_lonely_network_returns_empty() {
        let mut ctx = context(1, 5);
        let mut oracle = OracleSampler::new();
        assert!(oracle.sample(NodeIndex::new(0), 10, 0, &mut ctx).is_empty());
    }
}
