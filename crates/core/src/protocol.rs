//! The cycle-driven simulation driver for the bootstrapping service.
//!
//! [`BootstrapProtocol`] owns one packed node state ([`CompactNode`]) per
//! simulated node and plays the roles of both threads of Fig. 2 within a cycle:
//! the scheduled node selects a peer and sends its message (active thread); if
//! the request is delivered the peer immediately composes and sends back its
//! answer and applies the received message (passive thread); if the answer is
//! delivered the initiator applies it too. Message loss therefore has exactly
//! the paper's semantics: a lost request suppresses the answer as well, so a
//! drop probability of 0.2 yields an effective pair-loss of roughly 28 %.

use crate::compact::{CompactNode, PackedView};
use crate::convergence::{
    ConvergenceOracle, ConvergenceTracker, NetworkConvergence, NodeConvergence,
};
use crate::leafset::{LeafSet, MergeScratch};
use crate::message::MessageScratch;
use crate::node::BootstrapNode;
use bss_sampling::quality::SamplingQuality;
use bss_sampling::sampler::PeerSampler;
use bss_sim::adversary::{forged_id, spray_id, AdversaryBehavior};
use bss_sim::engine::cycle::{execute_inline, CycleProtocol, EngineContext, PhaseProfile};
use bss_sim::engine::event::{EventContext, EventProtocol};
use bss_sim::network::{Network, NodeIndex};
use bss_util::config::BootstrapParams;
use bss_util::descriptor::{Descriptor, PackedDescriptor};
use bss_util::geometry::TableGeometry;
use bss_util::id::NodeId;
use bss_util::stats::Histogram;
use std::sync::{Arc, OnceLock};
use stream::Lane;

mod stream;

/// Statistics about the traffic generated by the protocol.
///
/// "Sent" counts messages *handed to the transport* (before the loss decision)
/// on either engine, so the two engines' accounting is directly comparable:
/// `requests_sent + answers_sent == transport.messages_offered()` whenever the
/// bootstrap protocol is the only transport user.
#[derive(Debug, Clone)]
pub struct TrafficStats {
    /// Number of request messages handed to the transport.
    pub requests_sent: u64,
    /// Number of requests actually delivered.
    pub requests_delivered: u64,
    /// Number of answer messages handed to the transport (an answer is only
    /// composed when the request reached a live, initialised peer).
    pub answers_sent: u64,
    /// Number of answers actually delivered.
    pub answers_delivered: u64,
    /// Distribution of message sizes, in descriptors per message (requests and
    /// answers alike).
    pub message_sizes: Histogram,
}

impl Default for TrafficStats {
    fn default() -> Self {
        TrafficStats {
            requests_sent: 0,
            requests_delivered: 0,
            answers_sent: 0,
            answers_delivered: 0,
            message_sizes: Histogram::new(1),
        }
    }
}

impl TrafficStats {
    /// Mean number of descriptors per message.
    pub fn mean_message_size(&self) -> f64 {
        self.message_sizes.mean()
    }

    /// Largest message observed, in descriptors.
    pub fn max_message_size(&self) -> u64 {
        self.message_sizes.max()
    }
}

/// `(flagged, total)` over packed entries: how many of them carry an address
/// `flagged` picks out. Liveness and conversion only need the registry index.
fn count_flagged<'a>(
    entries: impl IntoIterator<Item = &'a PackedDescriptor>,
    flagged: impl Fn(NodeIndex) -> bool,
) -> (u64, u64) {
    entries.into_iter().fold((0, 0), |(hits, total), packed| {
        let hit = flagged(NodeIndex::new(packed.address()));
        (hits + u64::from(hit), total + 1)
    })
}

/// The bootstrapping service running over every node of a simulated network.
///
/// The type is generic over the peer sampling implementation: run it over
/// [`NewscastProtocol`](bss_sampling::newscast::NewscastProtocol) for the full
/// architecture of the paper, or over
/// [`OracleSampler`](bss_sampling::sampler::OracleSampler) to isolate the
/// bootstrap protocol from sampling quality. Either way the sampler's own
/// gossip step runs at the head of every node's step.
#[derive(Debug)]
pub(crate) struct BootstrapProtocol<S> {
    params: BootstrapParams,
    /// `params.geometry()`, worked out once for the views lookups read through.
    geometry: TableGeometry,
    sampler: S,
    /// The population in packed form: one [`CompactNode`] per initialised
    /// node, which exchanges compose from and merge into in place.
    nodes: Vec<Option<CompactNode>>,
    /// The shared index→identifier arena the packed descriptors resolve
    /// against; append-only, synced from the registry whenever nodes appear.
    /// Shared with the worker threads of a parallel cycle, during which it
    /// never changes.
    ids: Arc<Vec<NodeId>>,
    traffic: TrafficStats,
    /// Nodes whose tables changed since the last incremental measurement pass
    /// (initialised, received a state-changing message, or departed).
    dirty: Vec<NodeIndex>,
    /// Dedup flags for `dirty`, indexed by node.
    dirty_flags: Vec<bool>,
    /// Per-thread working memory for exchange execution (the hot path). Slot 0
    /// serves the calling thread; a parallel cycle uses one slot per thread.
    worker_scratch: Vec<ExchangeScratch>,
}

/// Key mixed into the identifiers a forging adversary fabricates. Any fixed
/// value works: the adversary does not know the verifier key, which is exactly
/// why its forgeries fail the identity-stamp check.
const FORGE_KEY: u64 = 0x464f_5247_4552_5921;

/// One worker thread's reusable working memory: message composition and
/// merge buffers, the leaf set the packed leaf entries are merged in, and the
/// two messages of an exchange. With these warm, executing a planned
/// exchange touches the heap only where a table actually grows.
#[derive(Debug)]
struct ExchangeScratch {
    message: MessageScratch<NodeIndex>,
    merge: MergeScratch<NodeIndex>,
    leaf: LeafSet<NodeIndex>,
    request: Vec<Descriptor<NodeIndex>>,
    answer: Vec<Descriptor<NodeIndex>>,
}

impl ExchangeScratch {
    fn new(params: &BootstrapParams) -> Self {
        ExchangeScratch {
            message: MessageScratch::default(),
            merge: MergeScratch::default(),
            leaf: LeafSet::new(NodeId::new(0), params.leaf_set_size),
            request: Vec::new(),
            answer: Vec::new(),
        }
    }
}

/// The pre-drawn decisions of one exchange (the RNG-consuming, state-reading
/// half of an active-thread iteration). Executing the plan is deterministic
/// given the two participants' states — no RNG, no cross-node reads beyond the
/// initiator and the engaged peer — which is what lets exchanges on disjoint
/// pairs run on worker threads in any order.
#[derive(Debug)]
struct ExchangePlan {
    peer: NodeIndex,
    peer_id: NodeId,
    node_id: NodeId,
    /// The cycle the exchange was planned in — the logical clock the
    /// descriptor-aging merge path measures staleness against (unused while
    /// aging is off, keeping the detector-free path byte-identical).
    cycle: u64,
    my_samples: Vec<Descriptor<NodeIndex>>,
    peer_samples: Vec<Descriptor<NodeIndex>>,
    /// The request's transport coin came up heads and the peer is alive.
    request_delivered: bool,
    /// `request_delivered` and the peer has protocol state (so it composes an
    /// answer and applies the request).
    peer_engaged: bool,
    /// The answer's transport coin came up heads (only drawn when engaged).
    answer_delivered: bool,
}

/// What executing an [`ExchangePlan`] produced; committed in planning order so
/// traffic counters and the dirty list replay the sequential engine exactly.
#[derive(Debug)]
struct ExchangeOutcome {
    node: NodeIndex,
    peer: NodeIndex,
    request_len: u64,
    answer_len: u64,
    request_delivered: bool,
    peer_engaged: bool,
    answer_delivered: bool,
    node_changed: bool,
    peer_changed: bool,
}

/// Executes one planned exchange on the two participants' packed states in
/// place. Free of `BootstrapProtocol` so worker threads can run it with
/// nothing but the plan, disjoint `&mut` packed slots, the shared identifier
/// arena, the parameters and their own scratch.
fn execute_exchange(
    plan: &ExchangePlan,
    node: NodeIndex,
    node_slot: &mut CompactNode,
    peer_slot: Option<&mut CompactNode>,
    ids: &[NodeId],
    params: &BootstrapParams,
    scratch: &mut ExchangeScratch,
) -> ExchangeOutcome {
    let ExchangeScratch {
        message,
        merge,
        leaf,
        request,
        answer,
    } = scratch;
    let mut initiator = node_slot.open(node, ids, params);
    // Active side composes its message (always — a lost request still counts
    // as sent and still increments the node's exchange counter).
    initiator.create_message_into(
        plan.peer_id,
        &plan.my_samples,
        true,
        plan.cycle,
        message,
        request,
    );
    let mut outcome = ExchangeOutcome {
        node,
        peer: plan.peer,
        request_len: request.len() as u64,
        answer_len: 0,
        request_delivered: plan.request_delivered,
        peer_engaged: plan.peer_engaged,
        answer_delivered: plan.answer_delivered,
        node_changed: false,
        peer_changed: false,
    };
    // Passive side: compose the answer before applying the request (Fig. 2b:
    // CREATEMESSAGE precedes the updates), then update.
    if let Some(peer_slot) = peer_slot {
        let mut peer = peer_slot.open(plan.peer, ids, params);
        peer.create_message_into(
            plan.node_id,
            &plan.peer_samples,
            false,
            plan.cycle,
            message,
            answer,
        );
        outcome.answer_len = answer.len() as u64;
        outcome.peer_changed = peer.receive(request, plan.cycle, merge, leaf);
        if plan.answer_delivered {
            outcome.node_changed = initiator.receive(answer, plan.cycle, merge, leaf);
        }
    }
    outcome
}

impl<S: PeerSampler> BootstrapProtocol<S> {
    /// Creates the protocol with the given parameters over `sampler`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid.
    pub(crate) fn new(params: BootstrapParams, sampler: S) -> Self {
        params
            .validate()
            .and_then(|()| CompactNode::check_shape(&params))
            .expect("invalid protocol parameters");
        BootstrapProtocol {
            params,
            geometry: params.geometry().expect("validated just above"),
            sampler,
            nodes: Vec::new(),
            ids: Arc::default(),
            traffic: TrafficStats::default(),
            dirty: Vec::new(),
            dirty_flags: Vec::new(),
            worker_scratch: vec![ExchangeScratch::new(&params)],
        }
    }

    /// Traffic statistics accumulated so far.
    pub(crate) fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The per-node protocol state of `node`, if the node has been
    /// initialised — materialised from the packed store, for tests.
    #[cfg(test)]
    pub(crate) fn node(&self, node: NodeIndex) -> Option<BootstrapNode<NodeIndex>> {
        self.nodes
            .get(node.as_usize())
            .and_then(Option::as_ref)
            .map(|packed| packed.unpack(node, &self.ids, &self.params))
    }

    /// Hands the population over at the end of a run, moved, not copied: the
    /// packed states by registry index (the protocol keeps none), the
    /// identifier arena they resolve against and the run's parameters.
    pub(crate) fn take_population(
        &mut self,
    ) -> (Vec<Option<CompactNode>>, Arc<Vec<NodeId>>, BootstrapParams) {
        let states = std::mem::take(&mut self.nodes);
        (states, Arc::clone(&self.ids), self.params)
    }

    /// The packed state of `node`, if initialised — the zero-copy view for
    /// walks that only need registry indices and timestamps.
    pub(crate) fn packed_node(&self, node: NodeIndex) -> Option<&CompactNode> {
        self.nodes.get(node.as_usize()).and_then(Option::as_ref)
    }

    /// What routing reads of `node`, served from the packed store in place,
    /// if the node holds protocol state. This is the accessor the live traffic
    /// router resolves hops through: it sees the tables exactly as they are
    /// *this* cycle.
    #[inline]
    pub(crate) fn packed_view(&self, node: NodeIndex) -> Option<PackedView<'_>> {
        self.packed_node(node)
            .map(|packed| packed.view(node, &self.ids, self.geometry))
    }

    /// Initialises the sampler and every alive node: the start-up step of §4
    /// ("at start time, all nodes use the peer sampling service to initialize their
    /// leaf sets with a set of random nodes, and clear their prefix table").
    pub(crate) fn init_all(&mut self, ctx: &mut EngineContext) {
        self.sampler.init_all(ctx);
        let nodes: Vec<NodeIndex> = ctx.network.alive_indices().collect();
        for node in nodes {
            self.init_node(node, 0, ctx);
        }
    }

    /// Initialises a single node (used both at start-up and when a node joins).
    pub(crate) fn init_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        ctx.network.sync_id_arena(Arc::make_mut(&mut self.ids));
        let own = ctx.network.descriptor(node, cycle);
        let mut state =
            BootstrapNode::new(own, &self.params).expect("parameters validated in new()");
        let seeds = self
            .sampler
            .sample(node, self.params.leaf_set_size, cycle, ctx);
        state.initialize(seeds);
        if node.as_usize() >= self.nodes.len() {
            self.nodes.resize_with(node.as_usize() + 1, || None);
        }
        match &mut self.nodes[node.as_usize()] {
            // A re-bootstrapping node keeps its packed allocations.
            Some(packed) => packed.repack_from(&state, &self.ids),
            slot => *slot = Some(CompactNode::pack(&state, &self.ids)),
        }
        self.mark_dirty(node);
    }

    /// Records that `node`'s tables (or liveness) changed since the last
    /// incremental measurement pass.
    fn mark_dirty(&mut self, node: NodeIndex) {
        if node.as_usize() >= self.dirty_flags.len() {
            self.dirty_flags.resize(node.as_usize() + 1, false);
        }
        if !self.dirty_flags[node.as_usize()] {
            self.dirty_flags[node.as_usize()] = true;
            self.dirty.push(node);
        }
    }

    /// Measures `node` in place against `oracle`; `None` when it is dead or
    /// not yet initialised and must not count.
    fn measure_node(
        &self,
        node: NodeIndex,
        oracle: &ConvergenceOracle,
        prefix_total: Option<usize>,
        ctx: &EngineContext,
    ) -> Option<NodeConvergence> {
        let alive = |address: u32| ctx.network.is_alive(NodeIndex::new(address));
        let packed = self.packed_node(node).filter(|_| alive(node.raw()))?;
        Some(oracle.measure_packed(node, packed, &self.ids, alive, prefix_total))
    }

    /// Measures the whole network against `oracle`, skipping nodes that are dead or
    /// not yet initialised. `tracker` is started over and left holding the
    /// per-node counts of this pass.
    pub(crate) fn measure(
        &self,
        oracle: &ConvergenceOracle,
        tracker: &mut ConvergenceTracker,
        ctx: &EngineContext,
    ) -> NetworkConvergence {
        *tracker = ConvergenceTracker::new();
        for node in ctx.network.alive_indices() {
            tracker.update_node(node.as_usize(), self.measure_node(node, oracle, None, ctx));
        }
        tracker.aggregate()
    }

    /// Incremental equivalent of [`BootstrapProtocol::measure`]: re-measures only
    /// the nodes whose tables changed since the previous call (the dirty set),
    /// folding the deltas into `tracker`'s cached aggregate.
    ///
    /// Returns exactly what a full [`BootstrapProtocol::measure`] against the
    /// same oracle would return, at a fraction of the cost once convergence sets
    /// in. Only valid while `oracle` describes the network's current (static)
    /// membership — under churn, rebuild the oracle and fall back to full
    /// measurement.
    pub(crate) fn measure_incremental(
        &mut self,
        oracle: &ConvergenceOracle,
        tracker: &mut ConvergenceTracker,
        ctx: &EngineContext,
    ) -> NetworkConvergence {
        let mut dirty = std::mem::take(&mut self.dirty);
        for &node in &dirty {
            self.dirty_flags[node.as_usize()] = false;
            // `prefix_total` depends on the oracle alone: measured once.
            let cached = tracker.cached(node.as_usize());
            let measured = self.measure_node(node, oracle, cached.map(|c| c.prefix_total), ctx);
            tracker.update_node(node.as_usize(), measured);
        }
        dirty.clear();
        self.dirty = dirty;
        tracker.aggregate()
    }

    /// Builds a convergence oracle for the network's current live membership.
    pub(crate) fn oracle_for(&self, ctx: &EngineContext) -> ConvergenceOracle {
        ConvergenceOracle::new(ctx.network.alive_ids(), &self.params)
    }

    /// Every descriptor stored (leaf set and prefix table together) by an alive
    /// initialised node. The packed entries are walked directly, no rehydration.
    fn stored_entries<'a>(
        &'a self,
        ctx: &'a EngineContext,
    ) -> impl Iterator<Item = &'a PackedDescriptor> {
        ctx.network
            .alive_indices()
            .filter_map(|node| self.packed_node(node))
            .flat_map(|packed| packed.leaf_entries().iter().chain(packed.prefix_entries()))
    }

    /// Counts, over every alive initialised node, how many stored descriptors
    /// (leaf set and prefix table together) point at nodes that are dead in
    /// the registry, as `(dead, total)`. The ratio is the *dead-descriptor
    /// fraction* — the recovery metric of the post-catastrophe scenarios: a
    /// detector-free protocol keeps it positive forever after a failure, while
    /// descriptor aging drives it back to zero.
    pub(crate) fn dead_descriptor_stats(&self, ctx: &EngineContext) -> (u64, u64) {
        // The registry never removes entries, so alive == total means nobody
        // has ever died and no stored descriptor can be dead: skip the table
        // walk entirely (every cycle before the first failure is free).
        if ctx.network.alive_count() == ctx.network.len() {
            return (0, 0);
        }
        count_flagged(self.stored_entries(ctx), |address| {
            !ctx.network.is_alive(address)
        })
    }

    /// Counts, over every alive initialised node, how many stored descriptors
    /// (leaf set and prefix table together) point at converted nodes, as
    /// `(poisoned, total)`. The ratio is the *poisoned-descriptor fraction* —
    /// the attack analogue of [`BootstrapProtocol::dead_descriptor_stats`],
    /// with the same early-out: no adversary, no conversions, no walk.
    pub(crate) fn poisoned_stats(&self, ctx: &EngineContext) -> (u64, u64) {
        match ctx.adversary.as_ref() {
            Some(model) if model.converted_count() > 0 => {
                count_flagged(self.stored_entries(ctx), |address| {
                    model.is_adversary(address)
                })
            }
            _ => (0, 0),
        }
    }

    /// The fraction of `target`'s leaf-set slots currently held by adversarial
    /// addresses — the eclipse metric: 1.0 means every route through the
    /// target's neighbourhood passes through an attacker. Zero when the run
    /// has no adversary or the target holds no state.
    pub(crate) fn eclipse_fraction(&self, target: NodeIndex, ctx: &EngineContext) -> f64 {
        let (Some(model), Some(packed)) = (ctx.adversary.as_ref(), self.packed_node(target)) else {
            return 0.0;
        };
        match count_flagged(packed.leaf_entries(), |address| model.is_adversary(address)) {
            (_, 0) => 0.0,
            (held, slots) => held as f64 / slots as f64,
        }
    }

    /// The sampler's overlay-quality snapshot (in-degree distribution, dead
    /// pointers), when the sampler maintains an overlay to measure.
    pub(crate) fn sampling_quality(&self, network: &Network) -> Option<SamplingQuality> {
        self.sampler.quality(network)
    }

    /// The samples an acting adversary mixes into its messages instead of the
    /// honest draw, or `None` when `node` behaves honestly at `cycle`. The
    /// honest draw must still be made (it keeps the RNG stream aligned);
    /// fabrication itself is deterministic and draws nothing.
    fn adversarial_samples(
        &self,
        node: NodeIndex,
        cycle: u64,
        ctx: &EngineContext,
    ) -> Option<Vec<Descriptor<NodeIndex>>> {
        let model = ctx.adversary.as_ref()?;
        if !model.acts_at(node, cycle) {
            return None;
        }
        let count = self.params.random_samples;
        match model.behavior() {
            AdversaryBehavior::ForgeDescriptors => Some(
                (0..count)
                    .map(|i| Descriptor::new(forged_id(FORGE_KEY, node, cycle, i), node, cycle))
                    .collect(),
            ),
            AdversaryBehavior::IdSpray { .. } => {
                let victim = self.ids.get(model.target()?.as_usize()).copied()?;
                Some(
                    (0..count)
                        .map(|i| Descriptor::new(spray_id(victim, i), node, cycle))
                        .collect(),
                )
            }
            // The hub attack subverts the sampling layer, not this one.
            AdversaryBehavior::HubAttack => None,
        }
    }

    /// The forced destination of an acting identity-spray adversary: the
    /// eclipse target, while it is alive and not the adversary itself. Honest
    /// nodes and the other behaviours return `None` (normal `SELECTPEER`
    /// applies — which must still run first, to keep the RNG stream aligned).
    fn adversarial_peer(
        node: NodeIndex,
        cycle: u64,
        ctx: &EngineContext,
    ) -> Option<Descriptor<NodeIndex>> {
        let (model, network) = (ctx.adversary.as_ref()?, &ctx.network);
        if !model.acts_at(node, cycle) {
            return None;
        }
        let target = model.target()?;
        if target == node || target.as_usize() >= network.len() || !network.is_alive(target) {
            return None;
        }
        Some(network.descriptor(target, cycle))
    }

    /// The head of one active-thread iteration of `node` (Fig. 2a), the same
    /// on the cycle and the event driver: the peer to contact and the `cr`
    /// random samples to mix into the request, or `None` when the node has
    /// no state or nobody to contact. Draws in a fixed order: SELECTPEER (or
    /// its one-sample fallback), then the samples.
    fn plan_request(
        &mut self,
        node: NodeIndex,
        cycle: u64,
        ctx: &mut EngineContext,
    ) -> Option<(Descriptor<NodeIndex>, Vec<Descriptor<NodeIndex>>)> {
        // SELECTPEER over the current leaf set; a node whose leaf set is still
        // empty falls back to a random sample so it can join the epidemic.
        // The walk over the packed sides resolves the same identifiers the
        // fat state holds, so the pick and the RNG draw are byte-identical to
        // selecting over it.
        let packed = self.nodes.get(node.as_usize()).and_then(Option::as_ref)?;
        let own = self.ids[node.as_usize()];
        let selected = match packed.select_peer(own, &self.ids, &mut ctx.rng) {
            Some(peer) => Some(peer),
            None => self.sampler.sample(node, 1, cycle, ctx).into_iter().next(),
        };
        // An acting identity-spray adversary overrides SELECTPEER: every one
        // of its exchanges hits the eclipse target. The override happens after
        // the honest selection so the RNG stream is identical either way.
        let peer = Self::adversarial_peer(node, cycle, ctx).or(selected)?;
        if peer.address() == node {
            return None;
        }
        // The cr fresh random samples the active side will mix into its
        // message — replaced wholesale by fabrications when the initiator is
        // an acting adversary (the honest draw still consumes the RNG).
        let samples = self
            .sampler
            .sample(node, self.params.random_samples, cycle, ctx);
        let samples = self
            .adversarial_samples(node, cycle, ctx)
            .unwrap_or(samples);
        Some((peer, samples))
    }

    /// The decision half of `node`'s step in a cycle (Fig. 2a): the
    /// sampler's own gossip step, then select a peer, draw the random
    /// samples and the transport coins; `None` when there is no exchange to
    /// run. Consumes the RNG stream exactly as the full
    /// sequential exchange did — message composition and table updates draw
    /// no randomness, so deferring them (see [`execute_exchange`]) leaves the
    /// stream untouched. Reads no node's table but `node`'s own.
    fn plan_exchange(
        &mut self,
        node: NodeIndex,
        cycle: u64,
        ctx: &mut EngineContext,
    ) -> Option<ExchangePlan> {
        self.sampler.execute_node(node, cycle, ctx);
        let (peer_descriptor, my_samples) = self.plan_request(node, cycle, ctx)?;
        let peer = peer_descriptor.address();

        // The request's transport coin; a lost request also suppresses the
        // answer ("if the first message is dropped, then the answer is not sent
        // either", §5). The coin is flipped before the liveness check, exactly
        // like the transport was consulted before the check in the inline path.
        let request_delivered = ctx.deliver(node, peer) && ctx.network.is_alive(peer);
        // An uninitialised peer (start signal not received yet) ignores the
        // message; membership of `nodes` only changes at cycle boundaries (a
        // state away on a worker thread leaves an empty one in its slot).
        let peer_engaged = request_delivered
            && self
                .nodes
                .get(peer.as_usize())
                .and_then(Option::as_ref)
                .is_some();
        let (peer_samples, answer_delivered) = if peer_engaged {
            let samples = self
                .sampler
                .sample(peer, self.params.random_samples, cycle, ctx);
            // An acting adversary answers with fabrications too — this is how
            // a sprayer poisons the victims that contact *it*.
            let samples = self
                .adversarial_samples(peer, cycle, ctx)
                .unwrap_or(samples);
            (samples, ctx.deliver(peer, node))
        } else {
            (Vec::new(), false)
        };
        Some(ExchangePlan {
            peer,
            peer_id: peer_descriptor.id(),
            node_id: self.ids[node.as_usize()],
            cycle,
            my_samples,
            peer_samples,
            request_delivered,
            peer_engaged,
            answer_delivered,
        })
    }

    /// Executes one plan inline (the sequential engine's path), borrowing the
    /// two participants' states out of the node table.
    fn execute_one(&mut self, node: NodeIndex, plan: &ExchangePlan) -> ExchangeOutcome {
        let peer = plan.peer_engaged.then_some(plan.peer);
        let (node_slot, peer_slot) = Self::pair_mut(&mut self.nodes, node, peer);
        execute_exchange(
            plan,
            node,
            node_slot,
            peer_slot,
            &self.ids,
            &self.params,
            &mut self.worker_scratch[0],
        )
    }

    /// Applies one executed exchange's order-sensitive effects — traffic
    /// counters and the dirty list. Called in planning order.
    fn commit_outcome(&mut self, outcome: ExchangeOutcome) {
        // Replays exactly the sequence of counter updates the inline exchange
        // performed, in planning order.
        self.traffic.requests_sent += 1;
        self.traffic.message_sizes.record(outcome.request_len);
        if !outcome.request_delivered {
            return;
        }
        self.traffic.requests_delivered += 1;
        if !outcome.peer_engaged {
            return;
        }
        if outcome.peer_changed {
            self.mark_dirty(outcome.peer);
        }
        self.traffic.answers_sent += 1;
        self.traffic.message_sizes.record(outcome.answer_len);
        if outcome.answer_delivered {
            self.traffic.answers_delivered += 1;
            if outcome.node_changed {
                self.mark_dirty(outcome.node);
            }
        }
    }

    /// Borrows the initiator's packed state and (optionally) the peer's
    /// simultaneously. Safe because the two indices are distinct.
    fn pair_mut(
        nodes: &mut [Option<CompactNode>],
        node: NodeIndex,
        peer: Option<NodeIndex>,
    ) -> (&mut CompactNode, Option<&mut CompactNode>) {
        let a = node.as_usize();
        match peer.map(NodeIndex::as_usize) {
            None => (nodes[a].as_mut().expect("initiator has state"), None),
            Some(b) => {
                debug_assert_ne!(a, b, "an exchange never pairs a node with itself");
                let (low, high) = if a < b { (a, b) } else { (b, a) };
                let (head, tail) = nodes.split_at_mut(high);
                let (low_slot, high_slot) = (&mut head[low], &mut tail[0]);
                let (node_slot, peer_slot) = if a < b {
                    (low_slot, high_slot)
                } else {
                    (high_slot, low_slot)
                };
                (
                    node_slot.as_mut().expect("initiator has state"),
                    Some(peer_slot.as_mut().expect("engaged peer has state")),
                )
            }
        }
    }
}

impl<S: PeerSampler> CycleProtocol for BootstrapProtocol<S> {
    fn execute_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        // The sequential engine runs the same plan → execute → commit
        // decomposition the parallel engine uses, just inline — one code path,
        // so `threads = 1` trivially reproduces any thread count's trace.
        if let Some(plan) = self.plan_exchange(node, cycle, ctx) {
            let outcome = self.execute_one(node, &plan);
            self.commit_outcome(outcome);
        }
    }

    /// At ≤ 1 thread the inline loop, which measured faster on one core than
    /// a stream with no worker; above, [`BootstrapProtocol::stream_cycle`].
    fn execute_cycle(
        &mut self,
        order: &[NodeIndex],
        cycle: u64,
        threads: usize,
        ctx: &mut EngineContext,
        profile: Option<&mut PhaseProfile>,
    ) {
        if threads <= 1 {
            execute_inline(self, order, cycle, ctx, profile);
        } else {
            self.stream_cycle(order, cycle, threads, ctx, profile);
        }
    }

    /// A joiner's sampler is seeded by §4's start condition (`view_size`
    /// samples), not by the sampler's own one-contact join.
    fn node_joined(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        self.sampler.init_node(node, cycle, ctx);
        self.init_node(node, cycle, ctx);
    }

    fn node_departed(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        self.sampler.node_departed(node, cycle, ctx);
        if let Some(slot) = self.nodes.get_mut(node.as_usize()) {
            *slot = None;
        }
        self.mark_dirty(node);
    }

    fn node_rebootstrapped(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        // The recovery order of §4's start condition re-applied to a survivor:
        // re-seed the leaf set from the (self-healing) sampling service and
        // clear the prefix table. The sampler's own state is deliberately kept
        // — the paper's premise is that the sampling layer survives the
        // catastrophe and the bootstrap layer rebuilds on top of it.
        self.init_node(node, cycle, ctx);
    }
}

/// A message body: filled once, when the job that composes it commits, and
/// freed with the last message or job that holds it — a message the
/// transport drops or `cancel_dead` purges frees its body.
pub(crate) type Body = Arc<OnceLock<Vec<Descriptor<NodeIndex>>>>;

/// The wire messages of the event-driven bootstrap protocol: the same
/// descriptor digests the cycle engine exchanges, tagged with their role in
/// the request/answer pair of Fig. 2.
#[derive(Debug, Clone)]
pub(crate) enum BootstrapMessage {
    /// Active-thread request: the initiator's digest, targeted at the peer.
    Request {
        /// Identifier of the initiator — the passive side composes its answer
        /// digest *for* this identifier (Fig. 2b's `CREATEMESSAGE`).
        from_id: NodeId,
        /// The digest descriptors.
        body: Body,
    },
    /// Passive-thread answer: the peer's digest, targeted back at the initiator.
    Answer {
        /// The digest descriptors.
        body: Body,
    },
}

/// A message for an event handler's job to compose.
#[derive(Debug)]
struct Compose {
    /// The identifier the message is composed for.
    to: NodeId,
    samples: Vec<Descriptor<NodeIndex>>,
    /// A request (the active thread), not an answer.
    initiating: bool,
    /// What the message's [`Body`] is filled with at commit.
    descriptors: Vec<Descriptor<NodeIndex>>,
    body: Body,
}

/// The table work of one event handler, on one node: the timer composes a
/// request, a request composes the answer and then applies the request
/// (Fig. 2b: `CREATEMESSAGE` precedes the updates), an answer is applied.
/// Like [`execute_exchange`] it draws no randomness and reads no other node.
#[derive(Debug)]
struct EventOp {
    cycle: u64,
    compose: Option<Compose>,
    apply: Option<Body>,
}

impl Compose {
    /// A message for `to` carrying `samples`, and the body it fills.
    fn new(to: NodeId, samples: Vec<Descriptor<NodeIndex>>, initiating: bool) -> (Self, Body) {
        let body = Body::default();
        let compose = Compose {
            to,
            samples,
            initiating,
            descriptors: Vec::new(),
            body: Arc::clone(&body),
        };
        (compose, body)
    }
}

impl EventOp {
    /// Runs the operation on `node`'s state; returns whether its tables
    /// changed.
    fn run(
        &mut self,
        node: NodeIndex,
        slot: &mut CompactNode,
        ids: &[NodeId],
        params: &BootstrapParams,
        scratch: &mut ExchangeScratch,
    ) -> bool {
        let ExchangeScratch {
            message,
            merge,
            leaf,
            ..
        } = scratch;
        let mut state = slot.open(node, ids, params);
        if let Some(compose) = self.compose.as_mut() {
            let (to, samples, initiating) = (compose.to, &compose.samples, compose.initiating);
            let into = &mut compose.descriptors;
            state.create_message_into(to, samples, initiating, self.cycle, message, into);
        }
        self.apply.as_ref().is_some_and(|body| {
            let descriptors = body.get().expect("a body is filled before it is applied");
            state.receive(descriptors, self.cycle, merge, leaf)
        })
    }
}

impl<S: PeerSampler> BootstrapProtocol<S> {
    /// Runs `slice` — the event engine's `run_until`, or its start phase —
    /// with the protocol's handlers streaming their table work on `threads`
    /// threads; every job is home and committed when it returns.
    pub(crate) fn event_slice<R>(
        &mut self,
        threads: usize,
        profile: Option<&mut PhaseProfile>,
        slice: impl FnOnce(&mut EventSlice<'_, '_, S>) -> R,
    ) -> R {
        self.with_lane(threads, profile, |protocol, lane| {
            slice(&mut EventSlice { protocol, lane })
        })
    }

    /// Applies one event job's order-sensitive effects — the message-size
    /// record and the dirty mark — and fills the body it composed. Called in
    /// dispatch order.
    fn commit_event(&mut self, node: NodeIndex, composed: Option<Compose>, changed: bool) {
        if let Some(Compose {
            mut descriptors,
            body,
            ..
        }) = composed
        {
            self.traffic.message_sizes.record(descriptors.len() as u64);
            descriptors.shrink_to_fit();
            body.set(descriptors).expect("a body is filled once");
        }
        if changed {
            self.mark_dirty(node);
        }
    }
}

/// The single timer every node runs: one active-thread exchange per period Δ.
const EXCHANGE_TIMER: u64 = 0;

/// The bootstrap protocol as the event engine drives it through one slice
/// (see [`BootstrapProtocol::event_slice`]).
pub(crate) struct EventSlice<'a, 's, S> {
    protocol: &'a mut BootstrapProtocol<S>,
    lane: &'a mut Lane<'s>,
}

/// Event-driven execution of the bootstrap protocol: nodes wake on their own
/// timers at a random phase within Δ (the paper's §5 start condition taken
/// literally), requests and answers travel as messages with per-link latency,
/// and replies can arrive long after the request — nothing here relies on the
/// cycle engine's synchronous request/answer atomicity. Message loss is
/// decided by the engine's transport at the send hand-off, so `TrafficStats`
/// keeps the same "sent = offered to the transport" semantics as the cycle
/// driver.
///
/// The handlers make every draw and keep every counter on the calling thread,
/// in event order; their table work leaves as an [`EventOp`] job, and the
/// message it composes travels as a [`Body`] filled when the job commits.
impl<S: PeerSampler> EventProtocol for EventSlice<'_, '_, S> {
    type Message = BootstrapMessage;

    fn on_start(&mut self, node: NodeIndex, ctx: &mut EventContext<'_, BootstrapMessage>) {
        // "We start the bootstrapping protocol at each node at a different
        // random time within an interval of length Δ" (§5).
        let delta = self.protocol.params.cycle_millis;
        let phase = ctx.rng().range_u64(0, delta.max(1));
        ctx.set_timer(node, phase.max(1), EXCHANGE_TIMER);
    }

    fn on_timer(
        &mut self,
        node: NodeIndex,
        _timer: u64,
        ctx: &mut EventContext<'_, BootstrapMessage>,
    ) {
        let Self { protocol, lane } = self;
        let delta = protocol.params.cycle_millis;
        let cycle = ctx.now() / delta.max(1);
        // Periodic rescheduling first: a node keeps gossiping even when this
        // iteration finds no peer.
        ctx.set_timer(node, delta.max(1), EXCHANGE_TIMER);
        protocol.sampler.execute_node(node, cycle, ctx.engine());
        // SELECTPEER reads the node's leaf set: plan once it is home.
        protocol.wait_for(node, lane);
        let Some((peer, samples)) = protocol.plan_request(node, cycle, ctx.engine()) else {
            return;
        };
        protocol.traffic.requests_sent += 1;
        let (compose, body) = Compose::new(peer.id(), samples, true);
        let from_id = protocol.ids[node.as_usize()];
        ctx.send(
            node,
            peer.address(),
            BootstrapMessage::Request { from_id, body },
        );
        let op = EventOp {
            cycle,
            compose: Some(compose),
            apply: None,
        };
        protocol.submit(lane, node, op);
    }

    fn on_message(
        &mut self,
        node: NodeIndex,
        from: NodeIndex,
        message: BootstrapMessage,
        ctx: &mut EventContext<'_, BootstrapMessage>,
    ) {
        let Self { protocol, lane } = self;
        let cycle = ctx.now() / protocol.params.cycle_millis.max(1);
        let (compose, received) = match message {
            BootstrapMessage::Request { from_id, body } => {
                protocol.traffic.requests_delivered += 1;
                // An uninitialised peer (start signal not received yet)
                // ignores the request, exactly like the cycle driver.
                if protocol.packed_node(node).is_none() {
                    return;
                }
                let samples = protocol.sampler.sample(
                    node,
                    protocol.params.random_samples,
                    cycle,
                    ctx.engine(),
                );
                let samples = protocol
                    .adversarial_samples(node, cycle, ctx.engine())
                    .unwrap_or(samples);
                protocol.traffic.answers_sent += 1;
                let (compose, answer) = Compose::new(from_id, samples, false);
                ctx.send(node, from, BootstrapMessage::Answer { body: answer });
                (Some(compose), body)
            }
            BootstrapMessage::Answer { body } => {
                protocol.traffic.answers_delivered += 1;
                if protocol.packed_node(node).is_none() {
                    return;
                }
                (None, body)
            }
        };
        let op = EventOp {
            cycle,
            compose,
            apply: Some(received),
        };
        protocol.submit(lane, node, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_sampling::newscast::NewscastProtocol;
    use bss_sampling::sampler::OracleSampler;
    use bss_sim::engine::cycle::CycleEngine;
    use bss_sim::network::Network;
    use bss_sim::timeline::{Phase, ScenarioEvent};
    use bss_sim::transport::Transport;
    use bss_util::config::NewscastParams;
    use bss_util::rng::SimRng;
    use std::ops::ControlFlow;

    /// A reliable link that drops every message with `probability`.
    fn lossy(probability: f64) -> Transport {
        let phase = Phase::whole_run();
        Transport::reliable().with_timeline(&[ScenarioEvent::LossWindow { phase, probability }], 0)
    }

    fn small_params() -> BootstrapParams {
        BootstrapParams {
            leaf_set_size: 8,
            random_samples: 10,
            ..BootstrapParams::paper_default()
        }
    }

    fn engine(size: usize, seed: u64) -> CycleEngine {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        CycleEngine::new(network, rng)
    }

    fn run_to_convergence<S: PeerSampler>(
        engine: &mut CycleEngine,
        protocol: &mut BootstrapProtocol<S>,
        max_cycles: u64,
    ) -> (u64, NetworkConvergence) {
        protocol.init_all(engine.context_mut());
        let oracle = protocol.oracle_for(engine.context());
        let mut last = NetworkConvergence::default();
        let cycles = engine.run_with_observer(protocol, max_cycles, 1, |p, ctx, _| {
            last = p.measure(&oracle, &mut ConvergenceTracker::new(), ctx);
            if last.is_perfect() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        (cycles, last)
    }

    #[test]
    fn converges_to_perfect_tables_with_oracle_sampling() {
        let mut eng = engine(200, 1);
        let mut protocol = BootstrapProtocol::new(small_params(), OracleSampler::new());
        let (cycles, convergence) = run_to_convergence(&mut eng, &mut protocol, 60);
        assert!(
            convergence.is_perfect(),
            "did not converge in 60 cycles: {convergence:?}"
        );
        assert!(cycles <= 30, "convergence took suspiciously long: {cycles}");
        assert_eq!(protocol.nodes.iter().flatten().count(), 200);
        // Spot-check a node's structures.
        let node = protocol.node(NodeIndex::new(0)).unwrap();
        assert_eq!(node.leaf_set().len(), 8);
        assert!(!node.prefix_table().is_empty());
    }

    #[test]
    fn converges_with_newscast_sampling() {
        let mut eng = engine(150, 2);
        let newscast = NewscastProtocol::new(NewscastParams {
            view_size: 20,
            ..NewscastParams::paper_default()
        });
        let mut protocol = BootstrapProtocol::new(small_params(), newscast);
        let (_, convergence) = run_to_convergence(&mut eng, &mut protocol, 80);
        assert!(
            convergence.is_perfect(),
            "did not converge over NEWSCAST: {convergence:?}"
        );
    }

    #[test]
    fn converges_under_message_loss() {
        let mut rng = SimRng::seed_from(3);
        let network = Network::with_random_ids(150, &mut rng);
        let mut eng = CycleEngine::new(network, rng).with_transport(lossy(0.2));
        let mut protocol = BootstrapProtocol::new(small_params(), OracleSampler::new());
        let (cycles, convergence) = run_to_convergence(&mut eng, &mut protocol, 120);
        assert!(
            convergence.is_perfect(),
            "no convergence under loss: {convergence:?}"
        );
        assert!(cycles > 0);
        // The effective pair loss should be roughly 1 - 0.8^2 = 0.36 as measured
        // from the initiator's perspective (request and answer each dropped at 20%).
        let traffic = protocol.traffic();
        let loss = 1.0 - traffic.answers_delivered as f64 / traffic.requests_sent as f64;
        assert!((0.25..0.48).contains(&loss), "unexpected pair loss {loss}");
    }

    #[test]
    fn missing_proportions_decrease_monotonically_in_the_aggregate() {
        let mut eng = engine(100, 4);
        let mut protocol = BootstrapProtocol::new(small_params(), OracleSampler::new());
        protocol.init_all(eng.context_mut());
        let oracle = protocol.oracle_for(eng.context());
        let mut previous = f64::INFINITY;
        let mut strict_decreases = 0;
        for _ in 0..20 {
            eng.run(&mut protocol, 1);
            let measured = protocol.measure(&oracle, &mut ConvergenceTracker::new(), eng.context());
            let current = measured.prefix_proportion() + measured.leaf_proportion();
            // Without churn the tables only ever gain correct entries, so the
            // missing proportion never increases.
            assert!(
                current <= previous + 1e-12,
                "missing proportion increased: {previous} -> {current}"
            );
            if current < previous {
                strict_decreases += 1;
            }
            previous = current;
        }
        assert!(
            strict_decreases >= 5,
            "convergence should make visible progress, saw {strict_decreases} improvements"
        );
        assert_eq!(
            previous, 0.0,
            "100 nodes should be perfect within 20 cycles"
        );
    }

    #[test]
    fn traffic_statistics_are_recorded() {
        let mut eng = engine(50, 5);
        let mut protocol = BootstrapProtocol::new(small_params(), OracleSampler::new());
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, 5);
        let traffic = protocol.traffic();
        assert_eq!(traffic.requests_sent, 250);
        assert_eq!(traffic.requests_delivered, 250);
        assert_eq!(traffic.answers_delivered, 250);
        assert!(traffic.mean_message_size() > 0.0);
        assert!(traffic.max_message_size() >= traffic.mean_message_size() as u64);
        // Message sizes respect the paper's bound: c ring entries plus at most a
        // full prefix table.
        let bound = crate::message::message_size_bound(
            protocol.params.leaf_set_size,
            protocol.geometry.capacity(),
        ) as u64;
        assert!(traffic.max_message_size() <= bound);
    }

    #[test]
    fn sent_counters_agree_with_the_transport_under_loss() {
        // The cycle engine's "sent" accounting uses the same semantics as the
        // event engine's: a message counts as sent when it is offered to the
        // transport, before the loss decision. The bootstrap protocol is the
        // only transport user here (the oracle sampler never sends), so its
        // request + answer hand-offs must account for every transport offer.
        let mut rng = SimRng::seed_from(23);
        let network = Network::with_random_ids(120, &mut rng);
        let mut eng = CycleEngine::new(network, rng).with_transport(lossy(0.3));
        let mut protocol = BootstrapProtocol::new(small_params(), OracleSampler::new());
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, 10);
        let traffic = protocol.traffic();
        let transport = &eng.context().transport;
        assert_eq!(
            traffic.requests_sent + traffic.answers_sent,
            transport.messages_offered(),
            "every transport offer is a counted request or answer"
        );
        assert!(traffic.answers_sent >= traffic.answers_delivered);
        assert!(traffic.requests_sent >= traffic.requests_delivered);
        // Delivered = offered - dropped, split across the two directions.
        assert_eq!(
            traffic.requests_delivered + traffic.answers_delivered,
            transport.messages_offered() - transport.messages_dropped(),
        );
    }

    #[test]
    fn join_and_departure_hooks_manage_state() {
        use bss_sim::churn::Churn;
        let mut rng = SimRng::seed_from(6);
        let network = Network::with_random_ids(80, &mut rng);
        let mut eng =
            CycleEngine::new(network, rng).with_churn(Churn::new(&[ScenarioEvent::ChurnBurst {
                phase: Phase::whole_run(),
                rate: 0.05,
            }]));
        let mut protocol = BootstrapProtocol::new(small_params(), OracleSampler::new());
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, 10);
        // Exactly the alive nodes have state.
        for node in eng.context().network.all_indices() {
            assert_eq!(
                protocol.node(node).is_some(),
                eng.context().network.is_alive(node),
                "state/liveness mismatch for {node}"
            );
        }
    }

    #[test]
    fn uninitialised_peer_ignores_requests() {
        let mut eng = engine(10, 7);
        let mut protocol = BootstrapProtocol::new(small_params(), OracleSampler::new());
        // Only initialise half the nodes: the others have not received the start
        // signal yet and must simply ignore traffic.
        protocol.sampler.init_all(eng.context_mut());
        for raw in 0..5u32 {
            protocol.init_node(NodeIndex::new(raw), 0, eng.context_mut());
        }
        eng.run(&mut protocol, 3);
        assert_eq!(protocol.nodes.iter().flatten().count(), 5);
        assert!(protocol.node(NodeIndex::new(7)).is_none());
    }
}
