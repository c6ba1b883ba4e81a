//! The generic T-Man gossip protocol.
//!
//! Every node keeps a bounded view of the best-ranked descriptors it has seen. Each
//! cycle it picks a peer from the better half of its view, the two exchange their
//! views plus a handful of fresh random samples, and both keep the best entries of
//! the union. The construction converges to the topology defined by the ranking
//! function in a logarithmic number of cycles.

use crate::ranking::Ranking;
use bss_sampling::sampler::PeerSampler;
use bss_sim::engine::cycle::{CycleProtocol, EngineContext};
use bss_sim::network::{Network, NodeIndex};
use bss_util::descriptor::{dedup_freshest, Descriptor, PackedDescriptor};
use bss_util::id::NodeId;
use bss_util::view::ViewArena;

/// Parameters of the generic protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TmanConfig {
    /// Number of descriptors kept in every node's view.
    pub view_size: usize,
    /// Number of descriptors sent in each exchange (at most the view size).
    pub message_size: usize,
    /// Number of fresh random samples mixed into the buffer every cycle.
    pub random_samples: usize,
}

impl Default for TmanConfig {
    fn default() -> Self {
        TmanConfig {
            view_size: 20,
            message_size: 20,
            random_samples: 10,
        }
    }
}

/// The T-Man protocol state for every node in a simulation.
///
/// Views are stored in a flat [`ViewArena`] (one fixed-capacity slot per node)
/// of eight-byte packed descriptors — identifiers are recovered from the
/// network registry on the way out — and every exchange reuses protocol-owned
/// scratch buffers, so the gossip hot path does not allocate per view or per
/// message.
#[derive(Debug)]
pub struct TmanProtocol<R, S> {
    config: TmanConfig,
    ranking: R,
    sampler: S,
    views: ViewArena<PackedDescriptor>,
    exchanges: u64,
    /// Reusable buffer for the initiator's outgoing message.
    request_scratch: Vec<Descriptor<NodeIndex>>,
    /// Reusable buffer for the peer's answer.
    answer_scratch: Vec<Descriptor<NodeIndex>>,
    /// Reusable buffer for view ∪ received merges.
    merge_scratch: Vec<Descriptor<NodeIndex>>,
    /// Reusable buffer for re-packing a merged view into its arena slot.
    packed_scratch: Vec<PackedDescriptor>,
}

impl<R: Ranking, S: PeerSampler> TmanProtocol<R, S> {
    /// Creates the protocol.
    ///
    /// # Panics
    ///
    /// Panics if the view size or message size is zero.
    pub fn new(config: TmanConfig, ranking: R, sampler: S) -> Self {
        assert!(config.view_size > 0, "view_size must be positive");
        assert!(config.message_size > 0, "message_size must be positive");
        TmanProtocol {
            views: ViewArena::new(config.view_size),
            config,
            ranking,
            sampler,
            exchanges: 0,
            request_scratch: Vec::new(),
            answer_scratch: Vec::new(),
            merge_scratch: Vec::new(),
            packed_scratch: Vec::new(),
        }
    }

    /// The protocol parameters.
    pub fn config(&self) -> &TmanConfig {
        &self.config
    }

    /// Number of exchanges attempted so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// The current packed view of `node`, best-ranked first, if initialised.
    /// Use [`TmanProtocol::view_unpacked`] to recover full descriptors.
    pub fn view(&self, node: NodeIndex) -> Option<&[PackedDescriptor]> {
        self.views.get(node.as_usize())
    }

    /// The current view of `node` expanded to full descriptors through the
    /// network registry, best-ranked first, if initialised.
    pub fn view_unpacked(
        &self,
        node: NodeIndex,
        network: &Network,
    ) -> Option<Vec<Descriptor<NodeIndex>>> {
        self.views
            .get(node.as_usize())
            .map(|view| view.iter().map(|&p| network.unpack(p)).collect())
    }

    /// Initialises every alive node with random seeds from the sampler.
    pub fn init_all(&mut self, ctx: &mut EngineContext) {
        self.sampler.init_all(ctx);
        let nodes: Vec<NodeIndex> = ctx.network.alive_indices().collect();
        for node in nodes {
            self.init_node(node, ctx);
        }
    }

    /// Initialises one node with random seeds from the sampler.
    pub fn init_node(&mut self, node: NodeIndex, ctx: &mut EngineContext) {
        let seeds = self.sampler.sample(node, self.config.view_size, 0, ctx);
        let own_id = ctx.network.id(node);
        let mut view = seeds;
        self.normalise(own_id, &mut view);
        self.packed_scratch.clear();
        self.packed_scratch.extend(view.iter().map(Network::pack));
        self.views.set(node.as_usize(), &self.packed_scratch);
    }

    fn normalise(&self, own_id: NodeId, view: &mut Vec<Descriptor<NodeIndex>>) {
        view.retain(|d| d.id() != own_id);
        dedup_freshest(view);
        self.ranking.select_top(own_id, view, self.config.view_size);
    }

    /// Fills `buffer` with what a node sends to `peer_id`: its own descriptor, its
    /// view and some fresh random samples, ranked from the peer's point of view
    /// (partial selection) and truncated to the message size.
    fn fill_buffer(
        &mut self,
        buffer: &mut Vec<Descriptor<NodeIndex>>,
        node: NodeIndex,
        peer_id: NodeId,
        cycle: u64,
        ctx: &mut EngineContext,
    ) {
        buffer.clear();
        buffer.push(ctx.network.descriptor(node, cycle));
        if let Some(view) = self.views.get(node.as_usize()) {
            buffer.extend(view.iter().map(|&p| ctx.network.unpack(p)));
        }
        // Samples append straight into the reused buffer — no intermediate
        // vector per exchange.
        self.sampler
            .sample_into(node, self.config.random_samples, cycle, ctx, buffer);
        buffer.retain(|d| d.id() != peer_id);
        dedup_freshest(buffer);
        self.ranking
            .select_top(peer_id, buffer, self.config.message_size);
    }

    fn merge(&mut self, node: NodeIndex, received: &[Descriptor<NodeIndex>], ctx: &EngineContext) {
        if !self.views.is_occupied(node.as_usize()) {
            return;
        }
        let own_id = ctx.network.id(node);
        let mut scratch = std::mem::take(&mut self.merge_scratch);
        scratch.clear();
        if let Some(view) = self.views.get(node.as_usize()) {
            scratch.extend(view.iter().map(|&p| ctx.network.unpack(p)));
        }
        scratch.extend_from_slice(received);
        self.normalise(own_id, &mut scratch);
        self.packed_scratch.clear();
        self.packed_scratch
            .extend(scratch.iter().map(Network::pack));
        self.views.set(node.as_usize(), &self.packed_scratch);
        self.merge_scratch = scratch;
    }
}

impl<R: Ranking, S: PeerSampler> CycleProtocol for TmanProtocol<R, S> {
    fn execute_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        self.exchanges += 1;
        // Select a peer from the better half of the view (falling back to a random
        // sample while the view is still empty).
        let peer = match self.view(node) {
            Some(view) if !view.is_empty() => {
                let half = (view.len() / 2).max(1);
                Some(NodeIndex::new(view[ctx.rng.index(half)].address()))
            }
            _ => self
                .sampler
                .sample(node, 1, cycle, ctx)
                .into_iter()
                .next()
                .map(|d| d.address()),
        };
        let Some(peer) = peer else { return };
        if peer == node {
            return;
        }
        let peer_id = ctx.network.id(peer);

        let mut request = std::mem::take(&mut self.request_scratch);
        self.fill_buffer(&mut request, node, peer_id, cycle, ctx);
        if !ctx.deliver(node, peer) || !ctx.network.is_alive(peer) {
            self.request_scratch = request;
            return;
        }
        let node_id = ctx.network.id(node);
        let mut answer = std::mem::take(&mut self.answer_scratch);
        self.fill_buffer(&mut answer, peer, node_id, cycle, ctx);
        let answer_delivered = ctx.deliver(peer, node);
        self.merge(peer, &request, ctx);
        if answer_delivered {
            self.merge(node, &answer, ctx);
        }
        self.request_scratch = request;
        self.answer_scratch = answer;
    }

    fn node_joined(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        self.sampler.init_node(node, cycle, ctx);
        self.init_node(node, ctx);
    }

    fn node_departed(&mut self, node: NodeIndex, _cycle: u64, ctx: &mut EngineContext) {
        self.sampler.node_departed(node, ctx);
        self.views.clear(node.as_usize());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{LineRanking, RingRanking};
    use bss_sampling::sampler::OracleSampler;
    use bss_sim::engine::cycle::CycleEngine;
    use bss_sim::network::Network;
    use bss_sim::transport::Transport;
    use bss_util::rng::SimRng;

    fn engine(size: usize, seed: u64) -> CycleEngine {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        CycleEngine::new(network, rng)
    }

    #[test]
    fn views_respect_capacity_and_exclude_self() {
        let mut eng = engine(100, 1);
        let mut tman = TmanProtocol::new(TmanConfig::default(), RingRanking, OracleSampler::new());
        tman.init_all(eng.context_mut());
        eng.run(&mut tman, 10);
        for node in eng.context().network.all_indices() {
            let view = tman.view_unpacked(node, &eng.context().network).unwrap();
            assert!(view.len() <= 20);
            let own = eng.context().network.id(node);
            assert!(view.iter().all(|d| d.id() != own));
        }
        assert_eq!(tman.exchanges(), 1000);
        assert_eq!(tman.config().view_size, 20);
    }

    #[test]
    fn ring_ranking_converges_to_true_neighbours() {
        let mut eng = engine(200, 2);
        let mut tman = TmanProtocol::new(TmanConfig::default(), RingRanking, OracleSampler::new());
        tman.init_all(eng.context_mut());
        eng.run(&mut tman, 25);
        let completeness = crate::ring::ring_completeness(&tman, &eng.context().network);
        assert!(completeness > 0.99, "completeness {completeness}");
    }

    #[test]
    fn line_ranking_finds_line_neighbours() {
        let mut eng = engine(100, 3);
        let mut tman = TmanProtocol::new(TmanConfig::default(), LineRanking, OracleSampler::new());
        tman.init_all(eng.context_mut());
        eng.run(&mut tman, 25);
        // Every node's best-ranked view entry should be its true nearest neighbour
        // on the line for the vast majority of nodes.
        let network = &eng.context().network;
        let mut ids: Vec<_> = network.alive_ids();
        ids.sort_unstable();
        let mut correct = 0usize;
        for node in network.alive_indices() {
            let own = network.id(node);
            let position = ids.binary_search(&own).unwrap();
            let mut best_true = u64::MAX;
            if position > 0 {
                best_true = best_true.min(own.raw().abs_diff(ids[position - 1].raw()));
            }
            if position + 1 < ids.len() {
                best_true = best_true.min(own.raw().abs_diff(ids[position + 1].raw()));
            }
            let view = tman.view_unpacked(node, network).unwrap();
            if view
                .first()
                .map(|d| own.raw().abs_diff(d.id().raw()) == best_true)
                .unwrap_or(false)
            {
                correct += 1;
            }
        }
        assert!(
            correct >= 98,
            "only {correct}/100 found their nearest neighbour"
        );
    }

    #[test]
    fn survives_message_loss() {
        let mut rng = SimRng::seed_from(4);
        let network = Network::with_random_ids(150, &mut rng);
        let mut eng = CycleEngine::new(network, rng)
            .with_transport(Transport::reliable().with_loss_window(0, u64::MAX, 0.2));
        let mut tman = TmanProtocol::new(TmanConfig::default(), RingRanking, OracleSampler::new());
        tman.init_all(eng.context_mut());
        eng.run(&mut tman, 40);
        let completeness = crate::ring::ring_completeness(&tman, &eng.context().network);
        assert!(
            completeness > 0.98,
            "completeness under loss {completeness}"
        );
    }

    #[test]
    fn churn_hooks_create_and_destroy_views() {
        use bss_sim::churn::{Churn, ChurnStep};
        let mut rng = SimRng::seed_from(5);
        let network = Network::with_random_ids(80, &mut rng);
        let mut eng = CycleEngine::new(network, rng).with_churn(Churn::new([ChurnStep::Replace {
            start: 0,
            end: u64::MAX,
            fraction: 0.05,
        }]));
        let mut tman = TmanProtocol::new(TmanConfig::default(), RingRanking, OracleSampler::new());
        tman.init_all(eng.context_mut());
        eng.run(&mut tman, 10);
        for node in eng.context().network.all_indices() {
            assert_eq!(
                tman.view(node).is_some(),
                eng.context().network.is_alive(node)
            );
        }
    }

    #[test]
    #[should_panic(expected = "view_size")]
    fn zero_view_size_is_rejected() {
        let _ = TmanProtocol::new(
            TmanConfig {
                view_size: 0,
                message_size: 1,
                random_samples: 0,
            },
            RingRanking,
            OracleSampler::new(),
        );
    }
}
