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
use bss_util::descriptor::{Descriptor, PackedDescriptor};
use bss_util::id::NodeId;
use bss_util::view::ViewArena;

/// Key mixed into the sybil identifiers a hub attacker fabricates. Any fixed
/// value works: hub sybils do not try to defeat the identity-stamp verifier
/// (that is the bootstrap layer's defence) — they exploit freshness ranking,
/// which only the per-origin diversity quota counters.
const HUB_SYBIL_KEY: u64 = 0x4855_4241_5454_4143;

/// A merge candidate: a packed view entry and the identifier it ranks by —
/// the registry identifier of its address, or a hub's fabricated one.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    id: NodeId,
    entry: PackedDescriptor,
}

impl Candidate {
    fn of(descriptor: &Descriptor<NodeIndex>) -> Self {
        let (id, entry) = (descriptor.id(), Network::pack(descriptor));
        Candidate { id, entry }
    }

    /// The merge order, ascending: freshest first, ties by identifier.
    #[inline]
    fn key(self) -> u128 {
        u128::from(u64::MAX - self.entry.timestamp()) << 64 | u128::from(self.id.raw())
    }
}

/// Puts `run` in merge order. A stored view is in it already unless it took a
/// hub's payload (ranked by fabricated identifiers, then packed to the hub's
/// address), so the sort seldom runs.
fn order(run: &mut [Candidate]) {
    if !run.windows(2).all(|pair| pair[0].key() <= pair[1].key()) {
        run.sort_unstable_by_key(|candidate| candidate.key());
    }
}

/// Fills `run` with `node`'s view and its fresh descriptor, in merge order.
/// The fresh descriptor ties with entries stamped earlier in the same cycle,
/// so it goes in by key.
fn fill(
    run: &mut Vec<Candidate>,
    views: &ViewArena<PackedDescriptor>,
    node: NodeIndex,
    cycle: u64,
    network: &Network,
) {
    run.clear();
    let view = views.get(node.as_usize()).unwrap_or_default();
    run.extend(view.iter().map(|&entry| {
        let id = network.id(NodeIndex::new(entry.address()));
        Candidate { id, entry }
    }));
    order(run);
    let fresh = Candidate::of(&network.descriptor(node, cycle));
    run.insert(run.partition_point(|c| c.key() < fresh.key()), fresh);
}

/// What one merge lets in besides the order: never the merging node's own
/// identifier, at most `capacity` entries, none older than the aging bound
/// (`(now, bound)`), and at most `quota` candidates per origin address,
/// freshest first, counted before duplicates go. `hub` is the hub's address
/// when the incoming run is its payload.
#[derive(Clone, Copy, Debug)]
struct Merge {
    own_id: NodeId,
    capacity: usize,
    aging: Option<(u64, u64)>,
    quota: Option<usize>,
    hub: Option<u32>,
}

/// The NEWSCAST protocol state for every node in a simulation.
///
/// The type is a [`PeerSampler`] (so the bootstrapping service can draw its `cr`
/// random samples from it) and hence a [`CycleProtocol`] (so the cycle engine
/// drives it alone, or the bootstrap runs its gossip step underneath).
///
/// All views live in one flat [`ViewArena`] (a `view_size`-sized slot per node)
/// storing eight-byte packed descriptors, and an exchange never leaves that
/// form. Each side reads its view and fresh descriptor into a *run* of
/// candidates in merge order (freshest first, ties by identifier); each
/// side's new view is one pass over two runs, its own and the one it
/// received, written straight back to its slot. Every buffer is reused, so
/// the steady state of a gossip cycle performs no heap allocation at all.
#[derive(Debug)]
pub struct NewscastProtocol {
    params: NewscastParams,
    views: ViewArena<PackedDescriptor>,
    /// The runs of the exchange in progress: the initiator's and the peer's,
    /// read before either merges, and a hub's payload.
    runs: [Vec<Candidate>; 3],
    /// One bit per address: taken by the merge in progress (all clear
    /// between merges).
    taken: Vec<u64>,
    /// The merged view, packed for its slot.
    merged: Vec<PackedDescriptor>,
}

impl NewscastProtocol {
    /// Creates the protocol with the given parameters and no initialised nodes.
    pub fn new(params: NewscastParams) -> Self {
        NewscastProtocol {
            views: ViewArena::new(params.view_size),
            params,
            runs: Default::default(),
            taken: Vec::new(),
            merged: Vec::new(),
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

    /// The current packed view of `node`, if the node has been initialised.
    /// Entries carry addresses and timestamps; [`Network::unpack`] recovers
    /// full descriptors with identifiers.
    pub(crate) fn view(&self, node: NodeIndex) -> Option<&[PackedDescriptor]> {
        self.views.get(node.as_usize())
    }

    /// Initialises `node` with an explicit seed view: the freshest descriptor
    /// per identifier, its own left out, the freshest `view_size` kept.
    pub(crate) fn init_node_with(
        &mut self,
        node: NodeIndex,
        seeds: impl IntoIterator<Item = Descriptor<NodeIndex>>,
        ctx: &EngineContext,
    ) {
        self.runs[0].clear();
        self.runs[1].clear();
        self.runs[1].extend(seeds.into_iter().map(|seed| Candidate::of(&seed)));
        order(&mut self.runs[1]);
        let rules = Merge {
            own_id: ctx.network.id(node),
            capacity: self.params.view_size,
            aging: None,
            quota: None,
            hub: None,
        };
        self.merge(node, [0, 1], rules);
    }

    /// `node` merges `runs[own]` with `runs[incoming]` in one pass and stores
    /// the result, occupying its slot if it held no view. The pass skips
    /// expired entries, candidates past the quota, the own identifier and
    /// identifiers already taken, and stops at capacity.
    ///
    /// On packed entries identifier equality is address equality, so an
    /// address bit stands for the identifier. A hub's payload is the one
    /// exception: its identifiers are distinct and none is a registry
    /// identifier, so its entries take no bit. It is also the one run with
    /// several identifiers at one address, so the hub's address is the one
    /// place the quota can bite: anywhere else every candidate after an
    /// address's first is a duplicate, which no quota of one or more changes.
    fn merge(&mut self, node: NodeIndex, [own, incoming]: [usize; 2], rules: Merge) {
        let (own, incoming) = (&self.runs[own], &self.runs[incoming]);
        let (taken, merged) = (&mut self.taken, &mut self.merged);
        merged.clear();
        let (mut i, mut j, mut at_hub) = (0, 0, 0);
        while merged.len() < rules.capacity {
            let from_own = match (own.get(i), incoming.get(j)) {
                (None, None) => break,
                (Some(a), Some(b)) => a.key() <= b.key(),
                (a, _) => a.is_some(),
            };
            let candidate = if from_own { own[i] } else { incoming[j] };
            (i, j) = if from_own { (i + 1, j) } else { (i, j + 1) };
            let entry = candidate.entry;
            // Freshest first: once one entry has expired, all the rest have.
            if rules
                .aging
                .is_some_and(|(now, bound)| entry.is_expired(now, bound))
            {
                break;
            }
            if rules.hub == Some(entry.address()) {
                at_hub += 1;
                if rules.quota.is_some_and(|quota| at_hub > quota) {
                    continue;
                }
            }
            let (word, bit) = ((entry.address() / 64) as usize, 1 << (entry.address() % 64));
            if word >= taken.len() {
                taken.resize(word + 1, 0);
            }
            let forged = !from_own && rules.hub.is_some();
            if candidate.id == rules.own_id || (!forged && taken[word] & bit != 0) {
                continue;
            }
            taken[word] |= if forged { 0 } else { bit };
            merged.push(entry);
        }
        for entry in merged.iter() {
            taken[(entry.address() / 64) as usize] = 0;
        }
        self.views.set(node.as_usize(), merged);
    }

    /// One side of an exchange: `receiver` merges `runs[own]` with what
    /// `sender` sent — `runs[sent]`, or a sybil flood if `sender` is an acting
    /// hub: its own address under `view_size` distinct fabricated identifiers,
    /// all stamped now. Freshness ranking keeps every copy, wiping the
    /// receiver's view — unless a diversity quota caps them.
    fn take_in(
        &mut self,
        receiver: NodeIndex,
        [own, sent]: [usize; 2],
        sender: NodeIndex,
        cycle: u64,
        ctx: &EngineContext,
    ) {
        let hub = Self::acts_as_hub(ctx, sender, cycle);
        if hub {
            let payload = &mut self.runs[2];
            payload.clear();
            payload.extend((0..self.params.view_size).map(|position| {
                let id = forged_id(HUB_SYBIL_KEY, sender, cycle, position);
                Candidate::of(&Descriptor::new(id, sender, cycle))
            }));
            order(payload);
        }
        let rules = Merge {
            own_id: ctx.network.id(receiver),
            capacity: self.params.view_size,
            aging: self.params.descriptor_max_age.map(|bound| (cycle, bound)),
            quota: self.params.view_diversity_quota,
            hub: hub.then(|| sender.raw()),
        };
        self.merge(receiver, [own, if hub { 2 } else { sent }], rules);
    }
}

impl CycleProtocol for NewscastProtocol {
    /// One active NEWSCAST exchange initiated by `node` at cycle `cycle`.
    fn execute_node(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        // Select a random peer from the local view.
        let peer = {
            let view = match self.view(node) {
                Some(v) if !v.is_empty() => v,
                _ => return,
            };
            NodeIndex::new(view[ctx.rng.index(view.len())].address())
        };

        // The request is lost, or a departed peer cannot reply (its
        // descriptor will age out of views).
        if !ctx.deliver(node, peer) || !ctx.network.is_alive(peer) {
            return;
        }
        fill(&mut self.runs[0], &self.views, node, cycle, &ctx.network);
        fill(&mut self.runs[1], &self.views, peer, cycle, &ctx.network);
        let response_delivered = ctx.deliver(peer, node);

        // The peer merges the request; the initiator merges the response, if
        // it arrives.
        self.take_in(peer, [1, 0], node, cycle, ctx);
        if response_delivered && self.views.is_occupied(node.as_usize()) {
            self.take_in(node, [0, 1], peer, cycle, ctx);
        }
    }

    /// Standalone NEWSCAST's join: the joiner knows a single existing contact
    /// (plus nothing else), and gossip spreads knowledge of it from there.
    /// Under the bootstrap a joiner is seeded through
    /// [`PeerSampler::init_node`] instead.
    fn node_joined(&mut self, node: NodeIndex, cycle: u64, ctx: &mut EngineContext) {
        let contacts = ctx.network.sample_alive_excluding(node, 1, &mut ctx.rng);
        let seeds = contacts
            .into_iter()
            .map(|contact| ctx.network.descriptor(contact, cycle));
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
            .map(|peer| ctx.network.descriptor(peer, cycle));
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
        let Some(view) = self.view(node) else {
            return Vec::new();
        };
        // Expanding the whole view and drawing in place consumes the same
        // RNG stream as drawing the packed entries (draws depend only on
        // lengths), in the one allocation the caller keeps.
        let mut picked: Vec<_> = view.iter().map(|&p| ctx.network.unpack(p)).collect();
        ctx.rng.sample_in_place(&mut picked, count);
        picked
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

    /// Folds `word` into an FNV-1a `digest`, byte by byte.
    fn fnv(digest: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// `value` as a Rust hex literal grouped by four digits.
    fn hex_literal(value: u64) -> String {
        let hex = format!("{value:016x}");
        let groups: Vec<_> = (0..16).step_by(4).map(|at| &hex[at..at + 4]).collect();
        format!("0x{}", groups.join("_"))
    }

    /// Runs NEWSCAST over 300 nodes for 24 cycles of `timeline` (its
    /// conversions turn nodes into hub attackers) and returns FNV-1a over
    /// every slot after every cycle — a marker for an unoccupied slot, else
    /// the view's length and packed entries — and the next word of the engine
    /// stream.
    fn view_stream(params: NewscastParams, timeline: &[ScenarioEvent]) -> (u64, u64) {
        let mut eng = engine(300, 0x5eed).with_churn(bss_sim::churn::Churn::new(timeline));
        eng.context_mut().adversary = Some(AdversaryModel::new(
            0,
            u64::MAX,
            AdversaryBehavior::HubAttack,
        ));
        let mut protocol = NewscastProtocol::new(params);
        protocol.init_all(eng.context_mut());
        let mut digest = 0xcbf2_9ce4_8422_2325;
        eng.run_with_observer(&mut protocol, 24, 1, |protocol, ctx, _| {
            for node in ctx.network.all_indices() {
                let Some(view) = protocol.view(node) else {
                    fnv(&mut digest, u64::MAX);
                    continue;
                };
                fnv(&mut digest, view.len() as u64);
                for entry in view {
                    fnv(
                        &mut digest,
                        u64::from(entry.address()) << 32 | entry.timestamp(),
                    );
                }
            }
            std::ops::ControlFlow::Continue(())
        });
        (digest, eng.context_mut().rng.next_u64())
    }

    #[test]
    fn view_stream_is_pinned() {
        // Expected values recorded from the unpack → dedup → rank → repack
        // merge. They move if a view entry or a draw moves. The timelines:
        // the paper default; aging under a churn burst, so departures and
        // joiners cross merges; 10 % hub converts, unquota'd and quota'd.
        let paper = NewscastParams::paper_default();
        let aged = NewscastParams {
            descriptor_max_age: Some(3),
            ..paper
        };
        let burst = [ScenarioEvent::ChurnBurst {
            phase: Phase::new(2, 20),
            rate: 0.05,
        }];
        let hubs = [ScenarioEvent::ByzantineConvert {
            phase: Phase::new(4, u64::MAX),
            fraction: 0.1,
            behavior: AdversaryBehavior::HubAttack,
        }];
        let quota = NewscastParams {
            view_diversity_quota: Some(2),
            ..paper
        };
        let streams = [
            view_stream(paper, &[]),
            view_stream(aged, &burst),
            view_stream(paper, &hubs),
            view_stream(quota, &hubs),
        ];
        let expected = [
            (0xa5f9_8f21_357b_7510, 0x085b_8000_3e7f_eb39),
            (0x9ddd_8082_79d0_9840, 0xb5a5_232b_dbed_0169),
            (0xa5a3_07b9_4012_8608, 0x5f05_30e7_ad03_194c),
            (0x84bb_5cac_6d22_0644, 0x5f05_30e7_ad03_194c),
        ];
        let pin: Vec<_> = streams
            .iter()
            .map(|&(digest, next)| format!("({}, {})", hex_literal(digest), hex_literal(next)))
            .collect();
        assert_eq!(streams, expected, "the pin wants [{}]", pin.join(", "));
    }

    /// The merge this module ran before it merged runs: unpack the view, add
    /// what was received, filter, deduplicate, rank and re-pack. It is the
    /// reference model of `merging_runs_matches_the_reference_model`.
    mod reference {
        use super::*;
        use bss_util::descriptor::dedup_freshest;
        use bss_util::view::rank_top_by;

        type View = Vec<Descriptor<NodeIndex>>;

        /// Canonicalises a view: removes descriptors of `own_id`, keeps the
        /// freshest descriptor per identifier, ranks freshest-first (ties
        /// broken by identifier) and truncates to `capacity`.
        pub(super) fn normalise(view: &mut View, own_id: NodeId, capacity: usize) {
            view.retain(|d| d.id() != own_id);
            dedup_freshest(view);
            rank_top_by(view, capacity, |a, b| {
                b.timestamp()
                    .cmp(&a.timestamp())
                    .then_with(|| a.id().cmp(&b.id()))
            });
        }

        /// One participant's merge: its current view (`None` when it holds
        /// none) ∪ `received`, aged (`aging` is `(now, bound)`), held to
        /// `quota` per origin address, normalised and packed.
        pub(super) fn merge_slot(
            view: Option<&[PackedDescriptor]>,
            network: &Network,
            received: &[Descriptor<NodeIndex>],
            own_id: NodeId,
            capacity: usize,
            aging: Option<(u64, u64)>,
            quota: Option<usize>,
        ) -> Vec<PackedDescriptor> {
            let mut scratch: View = view
                .unwrap_or_default()
                .iter()
                .map(|&p| network.unpack(p))
                .collect();
            scratch.extend_from_slice(received);
            if let Some((now, bound)) = aging {
                scratch.retain(|d| !d.is_expired(now, bound));
            }
            if let Some(cap) = quota {
                // Group by origin address (freshest first within a group, ties
                // by identifier) and keep at most `cap` per group.
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
            normalise(&mut scratch, own_id, capacity);
            scratch.iter().map(Network::pack).collect()
        }
    }

    /// A random stored view over `network`: up to `capacity` entries stamped
    /// within eight cycles of `now` (a third of them now), a quarter of them
    /// at the address `hot`, with repeated addresses and runs of one address
    /// at one timestamp (what a hub's payload leaves), left in random order
    /// or sorted into merge order.
    fn random_view(
        rng: &mut SimRng,
        network: &Network,
        hot: NodeIndex,
        capacity: usize,
        now: u64,
    ) -> Vec<PackedDescriptor> {
        let len = rng.index(capacity + 1);
        let mut view = Vec::new();
        while view.len() < len {
            let address = if rng.chance(0.25) {
                hot
            } else {
                NodeIndex::new(rng.index(network.len()) as u32)
            };
            let timestamp = if rng.chance(0.3) {
                now
            } else {
                now - rng.index(9) as u64
            };
            let copies = if rng.chance(0.2) { 1 + rng.index(4) } else { 1 };
            for _ in 0..copies.min(len - view.len()) {
                view.push(PackedDescriptor::new(address.raw(), timestamp));
            }
        }
        if rng.chance(0.5) {
            view.sort_by_key(|&entry| {
                let id = network.id(NodeIndex::new(entry.address()));
                Candidate { id, entry }.key()
            });
        }
        view
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// The run merge keeps, byte for byte, what the unpack → dedup →
            /// rank → repack model keeps: from sorted and unsorted views with
            /// repeated addresses, unoccupied slots, honest runs that carry
            /// the merging node's own identifier and hub payloads; with aging
            /// on and off, quota `None`, 1 and 2, view sizes 1 to 30. Seeding
            /// a view matches the model's `normalise`.
            #[test]
            fn merging_runs_matches_the_reference_model(seed in any::<u64>()) {
                let mut rng = SimRng::seed_from(seed);
                let network = Network::with_random_ids(24, &mut rng);
                let capacity = 1 + rng.index(30);
                let now = 8 + rng.index(8) as u64;
                let aging = rng.chance(0.5).then(|| 1 + rng.index(5) as u64);
                let quota = [None, Some(1), Some(2)][rng.index(3)];
                let node = NodeIndex::new(rng.index(24) as u32);
                let sender = NodeIndex::new(((node.as_usize() + 1 + rng.index(23)) % 24) as u32);
                let own_view =
                    rng.chance(0.85).then(|| random_view(&mut rng, &network, sender, capacity, now));
                // The sender's view may hold the merging node itself.
                let sender_view = random_view(&mut rng, &network, node, capacity, now);
                let hub = rng.chance(0.3);
                let received: Vec<_> = if hub {
                    (0..capacity)
                        .map(|position| {
                            let id = forged_id(HUB_SYBIL_KEY, sender, now, position);
                            Descriptor::new(id, sender, now)
                        })
                        .collect()
                } else {
                    std::iter::once(network.descriptor(sender, now))
                        .chain(sender_view.iter().map(|&p| network.unpack(p)))
                        .collect()
                };
                let own_id = network.id(node);
                let expected = reference::merge_slot(
                    own_view.as_deref(),
                    &network,
                    &received,
                    own_id,
                    capacity,
                    aging.map(|bound| (now, bound)),
                    quota,
                );

                // The exchange side as `execute_node` runs it.
                let mut ctx = EngineContext::new(network, rng);
                let mut model = AdversaryModel::new(0, u64::MAX, AdversaryBehavior::HubAttack);
                if hub {
                    model.note_converted(sender);
                }
                ctx.adversary = Some(model);
                let params = NewscastParams {
                    view_size: capacity,
                    descriptor_max_age: aging,
                    view_diversity_quota: quota,
                };
                let mut protocol = NewscastProtocol::new(params);
                if let Some(view) = &own_view {
                    protocol.views.set(node.as_usize(), view);
                }
                protocol.views.set(sender.as_usize(), &sender_view);
                fill(&mut protocol.runs[0], &protocol.views, node, now, &ctx.network);
                fill(&mut protocol.runs[1], &protocol.views, sender, now, &ctx.network);
                protocol.take_in(node, [0, 1], sender, now, &ctx);
                prop_assert_eq!(protocol.view(node), Some(&expected[..]), "{:?}", params);
                prop_assert!(protocol.taken.iter().all(|&word| word == 0));

                // Seeding: the same merge over the seeds alone.
                let mut seeds = received;
                seeds.retain(|d| d.id() == ctx.network.id(d.address()));
                seeds.push(ctx.network.descriptor(node, now));
                protocol.init_node_with(node, seeds.iter().copied(), &ctx);
                reference::normalise(&mut seeds, own_id, capacity);
                let expected: Vec<_> = seeds.iter().map(Network::pack).collect();
                prop_assert_eq!(protocol.view(node), Some(&expected[..]));
            }
        }

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
