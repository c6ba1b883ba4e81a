//! Gossip broadcast over the peer sampling service.
//!
//! The paper assumes the bootstrapping protocol "is started by a system
//! administrator, using some form of broadcasting or flooding on top of the peer
//! sampling service" (§4, citing lpbcast-style probabilistic broadcast). This
//! module provides that start-signal dissemination: an informed node forwards the
//! signal to a small number of random peers every cycle, so within O(log N) cycles
//! every node has received it and can begin the bootstrap protocol within the
//! required loose synchronisation window.

use crate::sampler::PeerSampler;
use bss_sim::engine::cycle::{CycleProtocol, EngineContext};
use bss_sim::network::NodeIndex;

/// A probabilistic (gossip) broadcast of a single START signal.
///
/// The protocol is generic over the [`PeerSampler`] supplying gossip targets, so
/// the same code runs over NEWSCAST or over the oracle sampler.
#[derive(Debug)]
pub struct GossipBroadcast<S> {
    sampler: S,
    fanout: usize,
    informed_at: Vec<Option<u64>>,
    messages_sent: u64,
}

impl<S: PeerSampler> GossipBroadcast<S> {
    /// Creates a broadcast with the given per-cycle fanout, using `sampler` to pick
    /// gossip targets.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn new(sampler: S, fanout: usize) -> Self {
        assert!(fanout > 0, "fanout must be positive");
        GossipBroadcast {
            sampler,
            fanout,
            informed_at: Vec::new(),
            messages_sent: 0,
        }
    }

    /// Marks `origin` as informed at cycle 0 (the administrator's injection point).
    pub fn start(&mut self, origin: NodeIndex) {
        self.mark_informed(origin, 0);
    }

    /// Whether `node` has received the signal.
    pub fn is_informed(&self, node: NodeIndex) -> bool {
        self.informed_at
            .get(node.as_usize())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    /// The cycle at which `node` received the signal, if it has.
    pub fn informed_at(&self, node: NodeIndex) -> Option<u64> {
        self.informed_at.get(node.as_usize()).copied().flatten()
    }

    /// Number of informed nodes.
    pub fn informed_count(&self) -> usize {
        self.informed_at.iter().filter(|x| x.is_some()).count()
    }

    /// Whether every alive node in `ctx` has been informed.
    pub fn all_informed(&self, ctx: &EngineContext) -> bool {
        ctx.network
            .alive_indices()
            .all(|node| self.is_informed(node))
    }

    /// Total number of gossip messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// The spread in cycles between the earliest and latest informed node — the
    /// "start-time skew" the bootstrap protocol has to tolerate (it only requires
    /// nodes to start "within an interval of Δ time units", §4, which a skew of a
    /// few cycles satisfies when Δ is chosen accordingly).
    pub fn informed_cycle_spread(&self) -> Option<u64> {
        let cycles: Vec<u64> = self.informed_at.iter().flatten().copied().collect();
        if cycles.is_empty() {
            None
        } else {
            Some(cycles.iter().max().unwrap() - cycles.iter().min().unwrap())
        }
    }

    /// Returns the wrapped sampler.
    pub fn into_sampler(self) -> S {
        self.sampler
    }

    fn mark_informed(&mut self, node: NodeIndex, cycle: u64) {
        if node.as_usize() >= self.informed_at.len() {
            self.informed_at.resize(node.as_usize() + 1, None);
        }
        let slot = &mut self.informed_at[node.as_usize()];
        if slot.is_none() {
            *slot = Some(cycle);
        }
    }
}

impl<S: PeerSampler> CycleProtocol for GossipBroadcast<S> {
    fn execute_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        if !self.is_informed(node) {
            return;
        }
        let targets = self.sampler.sample(node, self.fanout, cycle, ctx);
        for target in targets {
            self.messages_sent += 1;
            if ctx.deliver(node, target.address()) && ctx.network.is_alive(target.address()) {
                self.mark_informed(target.address(), cycle + 1);
            }
        }
    }

    fn node_joined(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        self.sampler.init_node(node, cycle, ctx);
    }

    fn node_departed(&mut self, node: NodeIndex, _cycle: u64, ctx: &mut EngineContext) {
        self.sampler.node_departed(node, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newscast::NewscastProtocol;
    use crate::sampler::OracleSampler;
    use bss_sim::engine::cycle::CycleEngine;
    use bss_sim::network::Network;
    use bss_sim::transport::Transport;
    use bss_util::config::NewscastParams;
    use bss_util::rng::SimRng;
    use std::ops::ControlFlow;

    fn engine(size: usize, seed: u64) -> CycleEngine {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        CycleEngine::new(network, rng)
    }

    #[test]
    fn broadcast_reaches_everyone_logarithmically() {
        let mut eng = engine(1000, 1);
        let mut broadcast = GossipBroadcast::new(OracleSampler::new(), 3);
        broadcast.start(NodeIndex::new(0));
        assert_eq!(broadcast.informed_count(), 1);
        let cycles = eng.run_with_observer(&mut broadcast, 50, |b, ctx, _| {
            if b.all_informed(ctx) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(
            cycles <= 15,
            "1000 nodes should be informed quickly, took {cycles}"
        );
        assert_eq!(broadcast.informed_count(), 1000);
        assert!(broadcast.informed_cycle_spread().unwrap() <= cycles);
        assert!(broadcast.messages_sent() > 0);
    }

    #[test]
    fn broadcast_survives_message_loss() {
        let mut rng = SimRng::seed_from(2);
        let network = Network::with_random_ids(500, &mut rng);
        let mut eng = CycleEngine::new(network, rng)
            .with_transport(Transport::reliable().with_loss_window(0, u64::MAX, 0.2));
        let mut broadcast = GossipBroadcast::new(OracleSampler::new(), 3);
        broadcast.start(NodeIndex::new(7));
        eng.run_with_observer(&mut broadcast, 60, |b, ctx, _| {
            if b.all_informed(ctx) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(broadcast.informed_count(), 500);
    }

    #[test]
    fn broadcast_over_newscast_views() {
        let mut eng = engine(300, 3);
        // First let NEWSCAST converge so its views provide good samples.
        let mut newscast = NewscastProtocol::new(NewscastParams::paper_default());
        newscast.init_all(eng.context_mut());
        eng.run(&mut newscast, 10);
        let mut broadcast = GossipBroadcast::new(newscast, 4);
        broadcast.start(NodeIndex::new(0));
        eng.run_with_observer(&mut broadcast, 40, |b, ctx, _| {
            if b.all_informed(ctx) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(broadcast.informed_count(), 300);
        let _newscast: NewscastProtocol = broadcast.into_sampler();
    }

    #[test]
    fn uninformed_nodes_do_not_gossip() {
        let mut eng = engine(10, 4);
        let mut broadcast = GossipBroadcast::new(OracleSampler::new(), 2);
        // Never started: nothing happens.
        eng.run(&mut broadcast, 5);
        assert_eq!(broadcast.informed_count(), 0);
        assert_eq!(broadcast.messages_sent(), 0);
        assert!(broadcast.informed_cycle_spread().is_none());
        assert!(!broadcast.is_informed(NodeIndex::new(0)));
        assert!(broadcast.informed_at(NodeIndex::new(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn zero_fanout_is_rejected() {
        let _ = GossipBroadcast::new(OracleSampler::new(), 0);
    }
}
