//! The NEWSCAST peer sampling protocol (paper §3).
//!
//! Every node keeps a small cache (*partial view*) of node descriptors, each
//! carrying a freshness timestamp. Periodically a node picks a random member of its
//! cache, the two exchange caches (each adding a freshly timestamped descriptor of
//! itself), and both keep only the freshest `view_size` entries. The emergent
//! overlay is close to a random graph, so picking random cache entries approximates
//! uniform peer sampling — even shortly after massive joins, departures or
//! catastrophic failures, which is exactly the property the bootstrapping service
//! builds on.

use crate::quality::SamplingQuality;
use crate::sampler::PeerSampler;
use bss_sim::adversary::{forged_id, AdversaryBehavior};
use bss_sim::engine::cycle::{CycleProtocol, EngineContext};
use bss_sim::network::{Network, NodeIndex};
use bss_util::config::NewscastParams;
use bss_util::descriptor::{dedup_freshest, Descriptor, PackedDescriptor};
use bss_util::id::NodeId;
use bss_util::view::{rank_top_by, ViewArena};

/// One node's NEWSCAST cache (as a transient merge buffer; the resident storage
/// is the protocol's [`ViewArena`] of eight-byte [`PackedDescriptor`]s).
type View = Vec<Descriptor<NodeIndex>>;

/// Key mixed into the sybil identifiers a hub attacker fabricates. Any fixed
/// value works: hub sybils do not try to defeat the identity-stamp verifier
/// (that is the bootstrap layer's defence) — they exploit freshness ranking,
/// which only the per-origin diversity quota counters.
const HUB_SYBIL_KEY: u64 = 0x4855_4241_5454_4143;

/// The NEWSCAST protocol state for every node in a simulation.
///
/// The type is a [`PeerSampler`] (so the bootstrapping service can draw its `cr`
/// random samples from it) and hence a [`CycleProtocol`] (so the cycle engine
/// drives it alone, or the bootstrap runs its gossip step underneath).
///
/// All views live in one flat [`ViewArena`] (a `view_size`-sized slot per node)
/// storing eight-byte packed descriptors — identifiers are recovered from the
/// network registry on the way out — and every exchange reuses the
/// protocol-owned scratch buffers, so the steady state of a gossip cycle
/// performs no heap allocation at all.
#[derive(Debug)]
pub struct NewscastProtocol {
    params: NewscastParams,
    views: ViewArena<PackedDescriptor>,
    /// Reusable buffer for the request (initiator's fresh descriptor + view).
    request_scratch: View,
    /// Reusable buffer for the response (peer's fresh descriptor + view).
    response_scratch: View,
    /// Reusable buffer for view ∪ received merges.
    merge_scratch: View,
    /// Reusable buffer for re-packing a merged view into its arena slot.
    packed_scratch: Vec<PackedDescriptor>,
}

impl NewscastProtocol {
    /// Creates the protocol with the given parameters and no initialised nodes.
    pub fn new(params: NewscastParams) -> Self {
        NewscastProtocol {
            views: ViewArena::new(params.view_size),
            params,
            request_scratch: Vec::new(),
            response_scratch: Vec::new(),
            merge_scratch: Vec::new(),
            packed_scratch: Vec::new(),
        }
    }

    /// Whether `node` is a converted hub attacker whose behaviour is active at
    /// `cycle` — the only adversary class that subverts the NEWSCAST layer
    /// itself (forgery and identity-spray act on bootstrap messages instead).
    /// Hub attackers subvert their own view exchanges (sybil floods);
    /// everyone else's traffic is untouched.
    fn acts_as_hub(ctx: &EngineContext, node: NodeIndex, cycle: u64) -> bool {
        ctx.adversary.as_ref().is_some_and(|model| {
            matches!(model.behavior(), AdversaryBehavior::HubAttack) && model.acts_at(node, cycle)
        })
    }

    /// Fills `out` with a hub attacker's payload: `capacity` copies of its own
    /// address under distinct fabricated identifiers, all stamped with the
    /// current cycle. Freshness ranking keeps every copy (the identifiers are
    /// distinct, so dedup does not collapse them), wiping the receiver's view
    /// — unless a per-origin diversity quota caps the run to a few slots.
    fn hub_payload(out: &mut View, hub: NodeIndex, cycle: u64, capacity: usize) {
        out.extend((0..capacity).map(|position| {
            Descriptor::new(forged_id(HUB_SYBIL_KEY, hub, cycle, position), hub, cycle)
        }));
    }

    /// The current packed view of `node`, if the node has been initialised.
    /// Entries carry addresses and timestamps; [`Network::unpack`] recovers
    /// full descriptors with identifiers.
    pub(crate) fn view(&self, node: NodeIndex) -> Option<&[PackedDescriptor]> {
        self.views.get(node.as_usize())
    }

    /// Initialises `node` with an explicit seed view (self-entries are removed and
    /// the view is truncated to the configured size).
    pub(crate) fn init_node_with(
        &mut self,
        node: NodeIndex,
        seeds: Vec<Descriptor<NodeIndex>>,
        ctx: &mut EngineContext,
    ) {
        let own_id = ctx.network.id(node);
        let mut view = seeds;
        Self::normalise(&mut view, own_id, self.params.view_size);
        self.packed_scratch.clear();
        self.packed_scratch.extend(view.iter().map(Network::pack));
        self.views.set(node.as_usize(), &self.packed_scratch);
    }

    /// Canonicalises a view: removes descriptors of `own_id`, keeps the freshest
    /// descriptor per identifier, ranks freshest-first (ties broken by identifier)
    /// and truncates to `capacity`. Ranking is a partial selection: only the kept
    /// prefix is sorted, and a buffer already within capacity and in order (the
    /// common case on early cycles) is not sorted at all.
    fn normalise(view: &mut View, own_id: NodeId, capacity: usize) {
        view.retain(|d| d.id() != own_id);
        dedup_freshest(view);
        rank_top_by(view, capacity, |a, b| {
            b.timestamp()
                .cmp(&a.timestamp())
                .then_with(|| a.id().cmp(&b.id()))
        });
    }

    /// Performs the merge step at one participant: current view ∪ received
    /// descriptors, normalised and written back to the arena slot (occupying it
    /// if the node held no view yet). When the configured
    /// [`descriptor_max_age`](NewscastParams::descriptor_max_age) is set,
    /// `aging` carries `(now, bound)` and descriptors older than the bound are
    /// dropped before the freshest-first ranking — the view-level failure
    /// detector that purges a departed node's last sighting even while the
    /// view is not full.
    ///
    /// When a `quota` is configured
    /// ([`view_diversity_quota`](NewscastParams::view_diversity_quota)), at
    /// most that many merge candidates per origin address survive — freshest
    /// first — before the ranking step. Honest origins contribute one
    /// identifier per address, so the quota only bites sybil floods.
    #[allow(clippy::too_many_arguments)]
    fn merge_slot(
        views: &mut ViewArena<PackedDescriptor>,
        scratch: &mut View,
        packed_scratch: &mut Vec<PackedDescriptor>,
        network: &Network,
        node: NodeIndex,
        received: &[Descriptor<NodeIndex>],
        own_id: NodeId,
        capacity: usize,
        aging: Option<(u64, u64)>,
        quota: Option<usize>,
    ) {
        scratch.clear();
        if let Some(view) = views.get(node.as_usize()) {
            scratch.extend(view.iter().map(|&p| network.unpack(p)));
        }
        scratch.extend_from_slice(received);
        if let Some((now, bound)) = aging {
            scratch.retain(|d| !d.is_expired(now, bound));
        }
        if let Some(cap) = quota {
            // Group by origin address (freshest first within a group, ties by
            // identifier — a total order, so the outcome is independent of the
            // incoming buffer order) and keep at most `cap` per group. The
            // final view is re-ranked by `normalise` below, so this reordering
            // of the merge buffer is invisible to the honest result.
            scratch.sort_unstable_by(|a, b| {
                a.address()
                    .as_usize()
                    .cmp(&b.address().as_usize())
                    .then_with(|| b.timestamp().cmp(&a.timestamp()))
                    .then_with(|| a.id().cmp(&b.id()))
            });
            let mut run_addr: Option<NodeIndex> = None;
            let mut run_len = 0usize;
            scratch.retain(|d| {
                if run_addr == Some(d.address()) {
                    run_len += 1;
                } else {
                    run_addr = Some(d.address());
                    run_len = 1;
                }
                run_len <= cap
            });
        }
        Self::normalise(scratch, own_id, capacity);
        packed_scratch.clear();
        packed_scratch.extend(scratch.iter().map(Network::pack));
        views.set(node.as_usize(), packed_scratch);
    }
}

impl CycleProtocol for NewscastProtocol {
    /// One active NEWSCAST exchange initiated by `node` at cycle `cycle`.
    fn execute_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        let own_id = ctx.network.id(node);
        let capacity = self.params.view_size;

        // Select a random peer from the local view.
        let peer = {
            let view = match self.view(node) {
                Some(v) if !v.is_empty() => v,
                _ => return,
            };
            NodeIndex::new(view[ctx.rng.index(view.len())].address())
        };

        // Request: own fresh descriptor + current view.
        if !ctx.deliver(node, peer) {
            return;
        }
        let mut request = std::mem::take(&mut self.request_scratch);
        request.clear();
        if Self::acts_as_hub(ctx, node, cycle) {
            Self::hub_payload(&mut request, node, cycle, capacity);
        } else {
            request.push(ctx.network.descriptor(node, cycle));
            if let Some(view) = self.view(node) {
                request.extend(view.iter().map(|&p| ctx.network.unpack(p)));
            }
        }

        // A departed peer cannot reply (its descriptor will age out of views).
        if !ctx.network.is_alive(peer) {
            self.request_scratch = request;
            return;
        }

        // Response: the peer's own fresh descriptor + its pre-merge view (or a
        // sybil flood, if the contacted peer is an acting hub attacker).
        let mut response = std::mem::take(&mut self.response_scratch);
        response.clear();
        if Self::acts_as_hub(ctx, peer, cycle) {
            Self::hub_payload(&mut response, peer, cycle, capacity);
        } else {
            response.push(ctx.network.descriptor(peer, cycle));
            if let Some(view) = self.view(peer) {
                response.extend(view.iter().map(|&p| ctx.network.unpack(p)));
            }
        }
        let response_delivered = ctx.deliver(peer, node);

        // The peer merges the request (occupying its slot if it held no view).
        let peer_id = ctx.network.id(peer);
        let aging = self.params.descriptor_max_age.map(|bound| (cycle, bound));
        let quota = self.params.view_diversity_quota;
        Self::merge_slot(
            &mut self.views,
            &mut self.merge_scratch,
            &mut self.packed_scratch,
            &ctx.network,
            peer,
            &request,
            peer_id,
            capacity,
            aging,
            quota,
        );

        // The initiator merges the response, if it arrives.
        if response_delivered && self.views.is_occupied(node.as_usize()) {
            Self::merge_slot(
                &mut self.views,
                &mut self.merge_scratch,
                &mut self.packed_scratch,
                &ctx.network,
                node,
                &response,
                own_id,
                capacity,
                aging,
                quota,
            );
        }
        self.request_scratch = request;
        self.response_scratch = response;
    }

    /// Standalone NEWSCAST's join: the joiner knows a single existing contact
    /// (plus nothing else), and gossip spreads knowledge of it from there.
    /// Under the bootstrap a joiner is seeded through
    /// [`PeerSampler::init_node`] instead.
    fn node_joined(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        let seeds = ctx
            .network
            .sample_alive_excluding(node, 1, &mut ctx.rng)
            .into_iter()
            .map(|contact| ctx.network.descriptor(contact, cycle))
            .collect();
        self.init_node_with(node, seeds, ctx);
    }

    fn node_departed(&mut self, node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {
        self.views.clear(node.as_usize());
    }
}

impl PeerSampler for NewscastProtocol {
    fn init_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        // The standard starting condition: a view seeded with random alive peers.
        // Section 3 notes that NEWSCAST quickly randomises the views even when the
        // initial caches are heavily skewed, so the exact seeding barely matters.
        // The seeds are stamped with the initialisation cycle — stamping a
        // mid-run joiner's seeds with 0 (the old behaviour) made its fresh
        // contacts the *stalest* descriptors in the network, so freshness
        // ranking discarded them instantly and the aging filter would have
        // rejected them outright.
        let view_size = self.params.view_size;
        let picked = ctx
            .network
            .sample_alive_excluding(node, view_size, &mut ctx.rng);
        let seeds = picked
            .into_iter()
            .map(|peer| ctx.network.descriptor(peer, cycle))
            .collect();
        self.init_node_with(node, seeds, ctx);
    }

    fn quality(&self, network: &Network) -> Option<SamplingQuality> {
        Some(crate::quality::snapshot(self, network))
    }

    fn sample(
        &mut self,
        node: NodeIndex,
        count: usize,
        _cycle: u64,
        ctx: &mut EngineContext,
    ) -> Vec<Descriptor<NodeIndex>> {
        let view = match self.view(node) {
            Some(v) => v,
            None => return Vec::new(),
        };
        // Sampling over the packed entries consumes the same RNG stream as
        // sampling full descriptors (draws depend only on lengths); the picked
        // entries are expanded through the registry afterwards.
        ctx.rng
            .sample(view, count.min(view.len()))
            .into_iter()
            .map(|p| ctx.network.unpack(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_sim::adversary::AdversaryModel;
    use bss_sim::engine::cycle::CycleEngine;
    use bss_sim::network::Network;
    use bss_sim::timeline::{Phase, ScenarioEvent};
    use bss_sim::transport::Transport;
    use bss_util::rng::SimRng;

    fn engine(size: usize, seed: u64) -> CycleEngine {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        CycleEngine::new(network, rng)
    }

    fn run_newscast(size: usize, cycles: u64, seed: u64) -> (NewscastProtocol, CycleEngine) {
        let mut eng = engine(size, seed);
        let mut protocol = NewscastProtocol::new(NewscastParams {
            view_size: 20,
            ..NewscastParams::paper_default()
        });
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, cycles);
        (protocol, eng)
    }

    #[test]
    fn views_stay_within_capacity_and_never_contain_self() {
        let (protocol, eng) = run_newscast(100, 15, 1);
        for node in eng.context().network.all_indices() {
            let view: Vec<_> = protocol
                .view(node)
                .expect("every node initialised")
                .iter()
                .map(|&p| eng.context().network.unpack(p))
                .collect();
            assert!(view.len() <= 20);
            assert!(!view.is_empty());
            let own_id = eng.context().network.id(node);
            assert!(view.iter().all(|d| d.id() != own_id), "view contains self");
            let unique: std::collections::HashSet<_> = view.iter().map(|d| d.id()).collect();
            assert_eq!(unique.len(), view.len(), "view contains duplicates");
        }
    }

    #[test]
    fn timestamps_become_fresh_over_time() {
        let (protocol, eng) = run_newscast(100, 30, 2);
        let mut stale = 0usize;
        let mut total = 0usize;
        for node in eng.context().network.all_indices() {
            for d in protocol.view(node).unwrap() {
                total += 1;
                if d.timestamp() + 10 < 30 {
                    stale += 1;
                }
            }
        }
        let stale_fraction = stale as f64 / total as f64;
        assert!(
            stale_fraction < 0.05,
            "most descriptors should be recent, stale fraction {stale_fraction}"
        );
    }

    #[test]
    fn sampling_returns_distinct_live_descriptors() {
        let (mut protocol, mut eng) = run_newscast(200, 20, 3);
        let samples = protocol.sample(NodeIndex::new(5), 10, 20, eng.context_mut());
        assert_eq!(samples.len(), 10);
        let unique: std::collections::HashSet<_> = samples.iter().map(|d| d.id()).collect();
        assert_eq!(unique.len(), 10);
        // An uninitialised node yields nothing.
        let mut fresh = NewscastProtocol::new(NewscastParams::paper_default());
        assert!(fresh
            .sample(NodeIndex::new(0), 5, 0, eng.context_mut())
            .is_empty());
    }

    #[test]
    fn exchange_counters_track_failures_under_loss() {
        let mut rng = SimRng::seed_from(4);
        let network = Network::with_random_ids(100, &mut rng);
        let mut eng =
            CycleEngine::new(network, rng).with_transport(Transport::reliable().with_timeline(
                &[ScenarioEvent::LossWindow {
                    phase: Phase::whole_run(),
                    probability: 0.5,
                }],
                0,
            ));
        let mut protocol = NewscastProtocol::new(NewscastParams::paper_default());
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, 10);
        // Every node holds a view and every peer is alive, so each of the 1000
        // exchanges offers its request to the transport and an exchange fails
        // exactly when that request is lost; every request that arrives is
        // answered, so whatever was offered beyond the requests is answers.
        let answered = eng.context().transport.messages_offered() - 1000;
        let failure_rate = 1.0 - answered as f64 / 1000.0;
        assert!(
            (failure_rate - 0.5).abs() < 0.1,
            "roughly half of the requests should be lost, got {failure_rate}"
        );
        // Views still function.
        assert!(protocol.view(NodeIndex::new(0)).is_some());
    }

    #[test]
    fn joiners_are_absorbed_and_leavers_forgotten() {
        use bss_sim::churn::Churn;
        let mut rng = SimRng::seed_from(5);
        let network = Network::with_random_ids(100, &mut rng);
        let mut eng =
            CycleEngine::new(network, rng).with_churn(Churn::new(&[ScenarioEvent::ChurnBurst {
                phase: Phase::whole_run(),
                rate: 0.05,
            }]));
        let mut protocol = NewscastProtocol::new(NewscastParams::paper_default());
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, 30);
        // All alive nodes have views; dead nodes have none.
        for node in eng.context().network.all_indices() {
            if eng.context().network.is_alive(node) {
                assert!(
                    protocol.view(node).is_some(),
                    "alive node {node} lost its view"
                );
            } else {
                assert!(
                    protocol.view(node).is_none(),
                    "dead node {node} kept a view"
                );
            }
        }
        // Stale descriptors (pointing at dead nodes) are rare after enough cycles.
        let network = &eng.context().network;
        let mut dead_pointers = 0usize;
        let mut total = 0usize;
        for node in network.alive_indices() {
            for d in protocol.view(node).unwrap() {
                total += 1;
                if !network.is_alive(NodeIndex::new(d.address())) {
                    dead_pointers += 1;
                }
            }
        }
        let dead_fraction = dead_pointers as f64 / total as f64;
        assert!(
            dead_fraction < 0.25,
            "aging should purge most dead descriptors, got {dead_fraction}"
        );
    }

    #[test]
    fn a_joiner_never_draws_itself_as_its_contact() {
        // One node, one joiner: the only contact the joiner can know is the
        // original node, whatever the seed. Drawing the contact among all
        // alive nodes picked the joiner itself about half the time and left
        // it with an empty view for good.
        for seed in 0..64 {
            let mut eng = engine(1, seed);
            let mut protocol = NewscastProtocol::new(NewscastParams::paper_default());
            protocol.init_all(eng.context_mut());
            let ctx = eng.context_mut();
            let joiner = ctx.network.add_random_node(&mut ctx.rng);
            protocol.node_joined(joiner, 1, ctx);
            let view = protocol.view(joiner).expect("joiner initialised");
            assert_eq!(view.len(), 1, "seed {seed}: joiner isolated");
            assert_eq!(view[0].address(), 0, "seed {seed}");
        }
    }

    #[test]
    fn the_default_cycle_ignores_the_thread_budget() {
        // NEWSCAST keeps the default `execute_cycle`, the inline loop: a run
        // offered four threads is the one-thread run, view for view.
        let run = |threads| {
            let mut eng = engine(100, 12);
            let mut protocol = NewscastProtocol::new(NewscastParams::paper_default());
            protocol.init_all(eng.context_mut());
            eng.run_with_observer(&mut protocol, 10, threads, |_, _, _| {
                std::ops::ControlFlow::Continue(())
            });
            let views: Vec<Vec<PackedDescriptor>> = eng
                .context()
                .network
                .all_indices()
                .map(|node| protocol.view(node).unwrap_or_default().to_vec())
                .collect();
            views
        };
        assert_eq!(run(4), run(1));
    }

    #[test]
    fn init_node_with_respects_capacity_and_self_exclusion() {
        let mut eng = engine(10, 6);
        let mut protocol = NewscastProtocol::new(NewscastParams {
            view_size: 3,
            ..NewscastParams::paper_default()
        });
        let own = eng.context().network.descriptor(NodeIndex::new(0), 0);
        let seeds: Vec<_> = (0..10u32)
            .map(|i| {
                eng.context()
                    .network
                    .descriptor(NodeIndex::new(i), u64::from(i))
            })
            .chain(std::iter::once(own))
            .collect();
        protocol.init_node_with(NodeIndex::new(0), seeds, eng.context_mut());
        let view = protocol.view(NodeIndex::new(0)).unwrap();
        assert_eq!(view.len(), 3);
        assert!(view.iter().all(|d| d.address() != 0));
        // Freshest first.
        assert!(view[0].timestamp() >= view[1].timestamp());
        assert_eq!(protocol.views.occupied_count(), 1);
    }

    #[test]
    fn skewed_initialisation_randomises_quickly() {
        // Start every node with the *same* single contact (node 0) — the worst
        // case mentioned in §3 — and verify the views spread out.
        let mut eng = engine(200, 7);
        let mut protocol = NewscastProtocol::new(NewscastParams::paper_default());
        let contact = eng.context().network.descriptor(NodeIndex::new(0), 0);
        for node in eng.context().network.all_indices().collect::<Vec<_>>() {
            if node != NodeIndex::new(0) {
                protocol.init_node_with(node, vec![contact], eng.context_mut());
            } else {
                protocol.init_node_with(node, vec![], eng.context_mut());
            }
        }
        eng.run(&mut protocol, 20);
        // Count distinct descriptors across all views: should cover most nodes.
        let mut seen = std::collections::HashSet::new();
        for node in eng.context().network.all_indices() {
            for d in protocol.view(node).unwrap_or(&[]) {
                seen.insert(d.address());
            }
        }
        assert!(
            seen.len() > 150,
            "views should reference most of the network, saw {}",
            seen.len()
        );
    }

    #[test]
    fn view_aging_purges_expired_descriptors_during_merges() {
        // Two identical runs, one with a view aging bound: after enough calm
        // cycles both converge to fresh views, but only the aged protocol
        // guarantees that *no* descriptor older than the bound survives a
        // merge — even while views are not at capacity.
        let mut rng = SimRng::seed_from(21);
        let network = Network::with_random_ids(60, &mut rng);
        let mut eng = CycleEngine::new(network, rng);
        let mut protocol = NewscastProtocol::new(NewscastParams {
            view_size: 20,
            descriptor_max_age: Some(4),
            ..NewscastParams::paper_default()
        });
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, 12);
        let now = 11; // last executed cycle stamped exchanges with this value
        for node in eng.context().network.all_indices() {
            for &packed in protocol.view(node).unwrap_or_default() {
                let d = eng.context().network.unpack(packed);
                assert!(
                    !d.is_expired(now, 4),
                    "aged view kept an expired descriptor: ts {} at cycle {now}",
                    d.timestamp()
                );
            }
        }
    }

    fn run_hub_attack(quota: Option<usize>, seed: u64) -> (NewscastProtocol, CycleEngine) {
        let mut eng = engine(80, seed);
        let mut protocol = NewscastProtocol::new(NewscastParams {
            view_size: 10,
            view_diversity_quota: quota,
            ..NewscastParams::paper_default()
        });
        // One hub attacker, active from cycle 3 onwards.
        let mut model = AdversaryModel::new(3, u64::MAX, AdversaryBehavior::HubAttack);
        model.note_converted(NodeIndex::new(0));
        eng.context_mut().adversary = Some(model);
        protocol.init_all(eng.context_mut());
        eng.run(&mut protocol, 20);
        (protocol, eng)
    }

    fn hub_slots_per_view(protocol: &NewscastProtocol, eng: &CycleEngine) -> usize {
        let network = &eng.context().network;
        let mut worst = 0usize;
        for node in network.alive_indices().filter(|&n| n != NodeIndex::new(0)) {
            let held = protocol
                .view(node)
                .map(|view| view.iter().filter(|d| d.address() == 0).count())
                .unwrap_or(0);
            worst = worst.max(held);
        }
        worst
    }

    #[test]
    fn hub_attack_floods_views_and_quota_caps_it() {
        // Undefended: the sybil flood (10 fresh distinct-identifier copies of
        // the hub per exchange) captures most of its contacts' views.
        let (protocol, eng) = run_hub_attack(None, 11);
        assert!(
            hub_slots_per_view(&protocol, &eng) >= 8,
            "an undefended hub should dominate some view, worst {}",
            hub_slots_per_view(&protocol, &eng)
        );
        // Defended: no view ever holds more than `quota` slots for one origin.
        let (protocol, eng) = run_hub_attack(Some(2), 11);
        assert!(
            hub_slots_per_view(&protocol, &eng) <= 2,
            "quota must cap per-origin slots, worst {}",
            hub_slots_per_view(&protocol, &eng)
        );
    }

    #[test]
    fn diversity_quota_is_invisible_to_honest_traffic() {
        // With one identifier per address (the honest registry), a quota of 1
        // must leave the run byte-identical to the unconstrained protocol.
        let (baseline, eng_a) = run_newscast(100, 15, 9);
        let mut eng = engine(100, 9);
        let mut quota = NewscastProtocol::new(NewscastParams {
            view_size: 20,
            view_diversity_quota: Some(1),
            ..NewscastParams::paper_default()
        });
        quota.init_all(eng.context_mut());
        eng.run(&mut quota, 15);
        for node in eng_a.context().network.all_indices() {
            assert_eq!(
                baseline.view(node),
                quota.view(node),
                "quota changed an honest view at {node}"
            );
        }
    }

    #[test]
    fn quality_snapshot_reports_overlay_health() {
        let (protocol, eng) = run_newscast(100, 15, 10);
        let quality = PeerSampler::quality(&protocol, &eng.context().network)
            .expect("newscast maintains an overlay");
        assert!((quality.in_degree_mean - 20.0).abs() < 2.0);
        assert!(quality.in_degree_max >= quality.in_degree_mean);
        assert!(quality.in_degree_gini >= 0.0 && quality.in_degree_gini < 0.5);
        assert_eq!(quality.dead_pointer_fraction, 0.0);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Regression for the joiner-timestamp bug: a node initialised at
            /// cycle `c` must have every seeded view descriptor stamped `c`,
            /// not 0 — under churn, timestamp-0 seeds made fresh joiners'
            /// contacts look maximally stale to freshness ranking and to the
            /// descriptor-aging filter.
            #[test]
            fn joiners_views_are_stamped_with_their_join_cycle(
                seed in 0u64..500,
                join_cycle in 1u64..400,
                view_size in 2usize..16,
            ) {
                let mut rng = SimRng::seed_from(seed);
                let network = Network::with_random_ids(30, &mut rng);
                let mut ctx = bss_sim::engine::cycle::EngineContext::new(network, rng);
                let mut protocol = NewscastProtocol::new(NewscastParams {
                    view_size,
                            ..NewscastParams::paper_default()
                });
                let joiner = {
                    let rng = &mut ctx.rng;
                    ctx.network.add_random_node(rng)
                };
                PeerSampler::init_node(&mut protocol, joiner, join_cycle, &mut ctx);
                let view: Vec<_> = protocol
                    .view(joiner)
                    .expect("joiner initialised")
                    .iter()
                    .map(|&p| ctx.network.unpack(p))
                    .collect();
                prop_assert!(!view.is_empty());
                for d in &view {
                    prop_assert_eq!(
                        d.timestamp(),
                        join_cycle,
                        "seed descriptor stamped with the wrong cycle"
                    );
                }
                // And under an aging bound the seeds survive the very next
                // merge instead of being rejected as expired.
                for d in &view {
                    prop_assert!(!d.is_expired(join_cycle + 1, 2));
                }
            }
        }
    }
}
