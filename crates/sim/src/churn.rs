//! Membership changes applied at cycle boundaries.
//!
//! The paper's motivation (§1–2) is exactly these "radical" scenarios: massive
//! joins, massive departures, catastrophic failure, merging and splitting of
//! networks, and continuous churn during bootstrap. A [`Churn`] keeps the
//! membership, recovery and conversion events of one run's timeline of
//! [`ScenarioEvent`]s: at the start of a cycle [`Churn::apply`] mutates the
//! [`Network`] registry and reports the change as [`ChurnEvents`], which
//! [`ChurnEvents::deliver`] hands to the protocol so it can initialise or drop
//! per-node state.
//!
//! Events apply in timeline order within a cycle, so a join listed before a
//! failure exposes the joiners to it. An event that is not due draws nothing;
//! a due one draws what `select` states, then one [`Network::add_random_node`]
//! per joiner.

use crate::engine::cycle::{CycleProtocol, EngineContext};
use crate::network::{Network, NodeIndex};
use crate::timeline::ScenarioEvent;
use bss_util::rng::SimRng;

/// The membership changes applied at one cycle boundary.
///
/// # Non-aliasing guarantee
///
/// Within one `apply` call, `joined` and `departed` never contain the same
/// [`NodeIndex`]: the registry hands every joiner a **fresh** index
/// (`Network::add_node` always appends; dead slots are never reused), so a
/// node killed this cycle cannot come back as this cycle's joiner under the
/// same index. Protocols rely on this when tearing down per-node state for
/// `departed` and initialising it for `joined` — if an index appeared in both
/// lists the teardown/init order would corrupt the state of whichever event
/// was processed second. [`Churn::apply`] asserts the guarantee for every
/// joiner.
///
/// The guarantee holds across the events of one cycle: when a later event
/// kills a node that an earlier event joined *within the same cycle*, that node is
/// reported in **neither** list — from the protocol's perspective it never
/// existed (its registry slot stays dead, it is simply never initialised).
/// Without this reconciliation the engine would tear the node down before
/// initialising it, leaving protocol state behind for a dead node.
#[derive(Debug, Default, Clone)]
pub struct ChurnEvents {
    /// Nodes that joined (fresh indices, already alive in the registry).
    pub joined: Vec<NodeIndex>,
    /// Nodes that departed (already marked dead in the registry).
    pub departed: Vec<NodeIndex>,
    /// Alive nodes ordered to rebuild their per-node protocol state from the
    /// seed set ([`ScenarioEvent::ReBootstrap`]); the registry does not change.
    pub rebootstrapped: Vec<NodeIndex>,
    /// Alive nodes converted into Byzantine adversaries
    /// ([`ScenarioEvent::ByzantineConvert`]), ascending and without duplicates;
    /// [`ChurnEvents::deliver`] marks them in the context's
    /// [`AdversaryModel`](crate::adversary::AdversaryModel).
    pub converted: Vec<NodeIndex>,
}

impl ChurnEvents {
    /// Whether anything changed.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty()
            && self.departed.is_empty()
            && self.rebootstrapped.is_empty()
            && self.converted.is_empty()
    }

    /// Calls `protocol`'s membership hooks, in the order every engine uses:
    /// departed, then joined, then re-bootstrapped — state is torn down
    /// before any is built, and an order to an existing node runs against the
    /// cycle's final membership — then marks the converted nodes in
    /// [`EngineContext::adversary`], if a model is set.
    pub fn deliver<P: CycleProtocol>(&self, protocol: &mut P, cycle: u64, ctx: &mut EngineContext) {
        for &node in &self.departed {
            protocol.node_departed(node, cycle, ctx);
        }
        for &node in &self.joined {
            protocol.node_joined(node, cycle, ctx);
        }
        for &node in &self.rebootstrapped {
            protocol.node_rebootstrapped(node, cycle, ctx);
        }
        if let Some(model) = ctx.adversary.as_mut() {
            for &node in &self.converted {
                model.note_converted(node);
            }
        }
    }
}

/// One run's membership timeline: the membership, recovery and conversion
/// events of a [`ScenarioEvent`] list, in timeline order. Fractions are of the
/// nodes alive when the event applies and are clamped to `[0, 1]`. The
/// default value is the static membership — it changes nothing and draws
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct Churn {
    events: Vec<ScenarioEvent>,
    /// The first cycle not applied yet.
    next_cycle: u64,
}

impl Churn {
    /// The churn of `timeline`: its [`ChurnBurst`](ScenarioEvent::ChurnBurst),
    /// [`CatastrophicFailure`](ScenarioEvent::CatastrophicFailure),
    /// [`MassiveJoin`](ScenarioEvent::MassiveJoin),
    /// [`ReBootstrap`](ScenarioEvent::ReBootstrap) and
    /// [`ByzantineConvert`](ScenarioEvent::ByzantineConvert) events, applied
    /// in the given order within each cycle; a conversion fires at its
    /// window's start. The other events are the transport's or the traffic
    /// driver's business.
    pub fn new<'a>(timeline: impl IntoIterator<Item = &'a ScenarioEvent>) -> Self {
        let events = timeline.into_iter().filter(|event| {
            matches!(
                event,
                ScenarioEvent::ChurnBurst { .. }
                    | ScenarioEvent::CatastrophicFailure { .. }
                    | ScenarioEvent::MassiveJoin { .. }
                    | ScenarioEvent::ReBootstrap { .. }
                    | ScenarioEvent::ByzantineConvert { .. }
            )
        });
        Churn {
            events: events.cloned().collect(),
            next_cycle: 0,
        }
    }

    /// Whether the timeline has no membership events (a static membership).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Applies the events due at `cycle` to `network`. Cycles are applied in
    /// increasing order, each at most once: a `cycle` at or before the last
    /// one applied changes nothing and draws nothing, so a one-shot event
    /// fires exactly once.
    pub fn apply(&mut self, cycle: u64, network: &mut Network, rng: &mut SimRng) -> ChurnEvents {
        let mut events = ChurnEvents::default();
        if cycle < self.next_cycle {
            return events;
        }
        self.next_cycle = cycle + 1;
        // Every joiner of this cycle gets a fresh slot at or above the current
        // registry length, so the watermark cleanly separates pre-existing
        // nodes from intra-cycle joiners.
        let watermark = network.len();
        let ChurnEvents {
            joined,
            departed,
            rebootstrapped,
            converted,
        } = &mut events;
        for event in &self.events {
            let mut joiners = 0;
            match *event {
                ScenarioEvent::ChurnBurst { phase, rate } if phase.contains(cycle) => {
                    // Victims are sampled from the pre-join alive set, and as
                    // many fresh nodes join as departed.
                    let mut victims = select(network, rate, true, rng);
                    joiners = victims.len();
                    departed.append(&mut victims);
                }
                ScenarioEvent::CatastrophicFailure { at_cycle, fraction } if at_cycle == cycle => {
                    departed.append(&mut select(network, fraction, true, rng));
                }
                ScenarioEvent::MassiveJoin { at_cycle, count } if at_cycle == cycle => {
                    joiners = count;
                }
                ScenarioEvent::ReBootstrap { at_cycle, fraction } if at_cycle == cycle => {
                    rebootstrapped.append(&mut select(network, fraction, false, rng));
                }
                ScenarioEvent::ByzantineConvert {
                    phase, fraction, ..
                } if phase.start == cycle => {
                    converted.append(&mut select(network, fraction, false, rng));
                }
                _ => {}
            }
            joined.extend((0..joiners).map(|_| network.add_random_node(rng)));
        }
        // The registry never reuses slots, so every joiner's index is fresh.
        // If it ever recycled dead ones, fail loudly here instead of silently
        // corrupting the protocols' per-node teardown/init.
        assert!(
            joined.iter().all(|j| j.as_usize() >= watermark),
            "churn joiner reused a pre-existing node slot"
        );
        // An intra-cycle joiner killed by a later event is in neither list.
        departed.retain(|node| node.as_usize() < watermark);
        joined.retain(|&node| network.is_alive(node));
        // A re-bootstrap order for a node a later event killed this same cycle
        // is void (there is no state left to rebuild), and one for a node that
        // joined this cycle is redundant (a joiner initialises fresh anyway).
        let survivor = |node: &NodeIndex| network.is_alive(*node) && node.as_usize() < watermark;
        rebootstrapped.retain(survivor);
        // Same reconciliation for conversions: a node a later event killed this
        // cycle is gone (converting a corpse would double-count it in attack
        // metrics), and a same-cycle joiner is dropped so the converted list
        // always names pre-existing survivors. Two conversions firing the same
        // cycle can sample overlapping nodes; converting twice is converting
        // once, so duplicates collapse (sorted order — the consumers' per-node
        // hooks are order-insensitive).
        converted.retain(survivor);
        converted.sort_unstable();
        converted.dedup();
        events
    }
}

/// `round(|alive| · fraction)` nodes of the alive set, sampled over the
/// ascending alive list. A selection that `kills` marks them dead and always
/// goes through [`SimRng::sample`] (no draw for 0 nodes, a full shuffle for
/// everyone); one that leaves membership alone takes everyone in index order
/// without a draw, keeping the RNG stream lean.
fn select(network: &mut Network, fraction: f64, kills: bool, rng: &mut SimRng) -> Vec<NodeIndex> {
    let alive: Vec<NodeIndex> = network.alive_indices().collect();
    let count = ((alive.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    if !kills && count >= alive.len() {
        return alive;
    }
    let selected = rng.sample(&alive, count);
    if kills {
        for &node in &selected {
            network.kill(node);
        }
    }
    selected
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adversary::{AdversaryBehavior, AdversaryModel};
    use crate::timeline::Phase;
    use crate::transport::tests::{fnv, hex_literal, FNV_OFFSET};

    fn network(size: usize, seed: u64) -> (Network, SimRng) {
        let mut rng = SimRng::seed_from(seed);
        let network = Network::with_random_ids(size, &mut rng);
        (network, rng)
    }

    pub(crate) fn replace(start: u64, end: u64, rate: f64) -> ScenarioEvent {
        let phase = Phase::new(start, end);
        ScenarioEvent::ChurnBurst { phase, rate }
    }

    pub(crate) fn kill(at_cycle: u64, fraction: f64) -> ScenarioEvent {
        ScenarioEvent::CatastrophicFailure { at_cycle, fraction }
    }

    pub(crate) fn join(at_cycle: u64, count: usize) -> ScenarioEvent {
        ScenarioEvent::MassiveJoin { at_cycle, count }
    }

    pub(crate) fn rebootstrap(at_cycle: u64, fraction: f64) -> ScenarioEvent {
        ScenarioEvent::ReBootstrap { at_cycle, fraction }
    }

    /// A conversion at cycle `at` whose attack lasts the rest of the run.
    pub(crate) fn convert(at: u64, fraction: f64) -> ScenarioEvent {
        ScenarioEvent::ByzantineConvert {
            phase: Phase::new(at, u64::MAX),
            fraction,
            behavior: AdversaryBehavior::HubAttack,
        }
    }

    /// Whole-run replacement churn.
    fn uniform(fraction: f64) -> Churn {
        Churn::new(&[replace(0, u64::MAX, fraction)])
    }

    #[test]
    fn no_churn_changes_nothing() {
        let (mut net, mut rng) = network(10, 1);
        let fingerprint = rng.clone();
        let mut churn = Churn::default();
        assert!(churn.is_empty());
        assert!(churn.apply(0, &mut net, &mut rng).is_empty());
        assert_eq!(net.alive_count(), 10);
        assert_eq!(rng, fingerprint, "a static membership draws nothing");
    }

    #[test]
    fn uniform_churn_keeps_size_constant() {
        let (mut net, mut rng) = network(100, 2);
        let mut churn = uniform(0.05);
        for cycle in 0..10 {
            let events = churn.apply(cycle, &mut net, &mut rng);
            assert_eq!(events.joined.len(), 5);
            assert_eq!(events.departed.len(), 5);
            assert_eq!(net.alive_count(), 100);
        }
        // Registry grows because departed nodes keep their entries.
        assert_eq!(net.len(), 150);
    }

    #[test]
    fn churn_events_never_alias_joiners_with_victims() {
        // Regression for the slot-reuse hazard: if the registry recycled dead
        // indices, a node could be reported both departed and joined within
        // one cycle and protocols would tear down freshly initialised state.
        // Drive heavy replacement churn long enough that thousands of dead
        // slots exist, and check the guarantee cycle by cycle.
        let (mut net, mut rng) = network(200, 7);
        let mut churn = uniform(0.25);
        for cycle in 0..50 {
            let before_len = net.len();
            let events = churn.apply(cycle, &mut net, &mut rng);
            let departed: std::collections::HashSet<NodeIndex> =
                events.departed.iter().copied().collect();
            for &joiner in &events.joined {
                assert!(
                    !departed.contains(&joiner),
                    "cycle {cycle}: {joiner} reported as both departed and joined"
                );
                assert!(
                    joiner.as_usize() >= before_len,
                    "cycle {cycle}: joiner {joiner} did not get a fresh slot"
                );
                assert!(net.is_alive(joiner));
            }
            for &victim in &events.departed {
                assert!(!net.is_alive(victim));
            }
        }
        assert_eq!(net.alive_count(), 200);
        assert_eq!(net.len(), 200 + 50 * 50, "every joiner appended a slot");
    }

    #[test]
    fn uniform_churn_with_zero_fraction_is_noop() {
        let (mut net, mut rng) = network(50, 3);
        assert!(uniform(0.0).apply(0, &mut net, &mut rng).is_empty());
        // Tiny fraction rounding to zero nodes is also a no-op.
        assert!(uniform(0.001).apply(0, &mut net, &mut rng).is_empty());
    }

    #[test]
    fn catastrophic_failure_fires_exactly_once() {
        let (mut net, mut rng) = network(200, 4);
        let mut failure = Churn::new(&[kill(3, 0.7)]);
        for cycle in 0..3 {
            assert!(failure.apply(cycle, &mut net, &mut rng).is_empty());
        }
        let events = failure.apply(3, &mut net, &mut rng);
        assert_eq!(events.departed.len(), 140);
        assert_eq!(net.alive_count(), 60);
        // A repeat of the same cycle number does not fire again.
        assert!(failure.apply(3, &mut net, &mut rng).is_empty());
        assert!(failure.apply(4, &mut net, &mut rng).is_empty());
    }

    #[test]
    fn massive_join_adds_requested_nodes_once() {
        let (mut net, mut rng) = network(10, 5);
        let mut join = Churn::new(&[join(1, 90)]);
        assert!(join.apply(0, &mut net, &mut rng).is_empty());
        let events = join.apply(1, &mut net, &mut rng);
        assert_eq!(events.joined.len(), 90);
        assert_eq!(net.alive_count(), 100);
        assert!(join.apply(1, &mut net, &mut rng).is_empty());
        for &node in &events.joined {
            assert!(net.is_alive(node));
        }
    }

    #[test]
    fn rebootstrap_fires_once_and_touches_no_membership() {
        let (mut net, mut rng) = network(100, 11);
        let mut order = Churn::new(&[rebootstrap(4, 0.5)]);
        for cycle in 0..4 {
            assert!(order.apply(cycle, &mut net, &mut rng).is_empty());
        }
        let events = order.apply(4, &mut net, &mut rng);
        assert_eq!(events.rebootstrapped.len(), 50);
        assert!(events.joined.is_empty() && events.departed.is_empty());
        assert_eq!(net.alive_count(), 100, "membership is untouched");
        for &node in &events.rebootstrapped {
            assert!(net.is_alive(node));
        }
        assert!(order.apply(4, &mut net, &mut rng).is_empty());
        assert!(order.apply(5, &mut net, &mut rng).is_empty());

        // Fraction 1.0 selects every survivor, in index order, drawing no RNG.
        let (mut net, mut rng) = network(10, 12);
        net.kill(NodeIndex::new(3));
        let fingerprint = rng.clone();
        let all = Churn::new(&[rebootstrap(0, 1.0)]).apply(0, &mut net, &mut rng);
        assert_eq!(rng, fingerprint, "full re-bootstrap draws no randomness");
        assert_eq!(all.rebootstrapped.len(), 9);
        assert!(!all.rebootstrapped.contains(&NodeIndex::new(3)));
        assert!(all.rebootstrapped.windows(2).all(|pair| pair[0] < pair[1]));
    }

    #[test]
    fn composite_voids_rebootstrap_orders_for_same_cycle_victims_and_joiners() {
        // ReBootstrap(all) runs first, then a failure kills half, then a join
        // adds fresh nodes. Reported re-bootstrap orders must cover exactly
        // the pre-existing survivors: orders for same-cycle victims are void,
        // and same-cycle joiners initialise fresh anyway.
        let (mut net, mut rng) = network(20, 13);
        let mut composite = Churn::new(&[rebootstrap(0, 1.0), kill(0, 0.5), join(0, 7)]);
        let events = composite.apply(0, &mut net, &mut rng);
        assert_eq!(events.departed.len(), 10);
        assert_eq!(events.joined.len(), 7);
        assert_eq!(events.rebootstrapped.len(), 10, "the surviving originals");
        for &node in &events.rebootstrapped {
            assert!(net.is_alive(node));
            assert!(node.as_usize() < 20, "orders never cover fresh joiners");
            assert!(!events.departed.contains(&node));
        }
    }

    #[test]
    fn byzantine_conversion_fires_once_and_touches_no_membership() {
        let (mut net, mut rng) = network(100, 17);
        let mut conversion = Churn::new(&[convert(3, 0.2)]);
        for cycle in 0..3 {
            assert!(conversion.apply(cycle, &mut net, &mut rng).is_empty());
        }
        let events = conversion.apply(3, &mut net, &mut rng);
        assert_eq!(events.converted.len(), 20);
        assert!(events.joined.is_empty() && events.departed.is_empty());
        assert!(events.rebootstrapped.is_empty());
        assert_eq!(net.alive_count(), 100, "membership is untouched");
        for &node in &events.converted {
            assert!(net.is_alive(node));
        }
        assert!(conversion.apply(3, &mut net, &mut rng).is_empty());
        assert!(conversion.apply(4, &mut net, &mut rng).is_empty());

        // Fraction 1.0 converts every survivor, in index order, drawing no RNG.
        let (mut net, mut rng) = network(10, 18);
        net.kill(NodeIndex::new(2));
        let fingerprint = rng.clone();
        let all = Churn::new(&[convert(0, 1.0)]).apply(0, &mut net, &mut rng);
        assert_eq!(rng, fingerprint, "full conversion draws no randomness");
        assert_eq!(all.converted.len(), 9);
        assert!(!all.converted.contains(&NodeIndex::new(2)));
    }

    /// Counts the hooks [`ChurnEvents::deliver`] calls.
    #[derive(Default)]
    struct Hooks {
        departed: usize,
        joined: usize,
        rebootstrapped: usize,
    }

    impl CycleProtocol for Hooks {
        fn execute_node(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {}
        fn node_joined(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {
            self.joined += 1;
        }
        fn node_departed(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {
            self.departed += 1;
        }
        fn node_rebootstrapped(&mut self, _node: NodeIndex, _cycle: u64, _ctx: &mut EngineContext) {
            self.rebootstrapped += 1;
        }
    }

    #[test]
    fn deliver_marks_conversions_in_the_context_model() {
        let timeline = [
            convert(0, 0.3),
            kill(0, 0.2),
            join(0, 4),
            rebootstrap(0, 0.5),
        ];
        for model in [
            None,
            Some(AdversaryModel::new(
                0,
                u64::MAX,
                AdversaryBehavior::HubAttack,
            )),
        ] {
            let (mut net, mut rng) = network(40, 20);
            let events = Churn::new(&timeline).apply(0, &mut net, &mut rng);
            assert!(!events.converted.is_empty());
            let mut ctx = EngineContext::new(net, rng);
            ctx.adversary = model;
            let mut hooks = Hooks::default();
            events.deliver(&mut hooks, 0, &mut ctx);
            // The other hooks run whether or not a model is set.
            assert_eq!(hooks.departed, events.departed.len());
            assert_eq!(hooks.joined, events.joined.len());
            assert_eq!(hooks.rebootstrapped, events.rebootstrapped.len());
            let Some(model) = ctx.adversary else {
                continue;
            };
            assert_eq!(model.converted_count(), events.converted.len());
            for node in ctx.network.all_indices() {
                assert_eq!(model.is_adversary(node), events.converted.contains(&node));
            }
        }
    }

    #[test]
    fn composite_voids_conversions_for_same_cycle_victims_and_joiners() {
        // Convert everyone, then kill half, then add joiners: the reported
        // conversions must cover exactly the pre-existing survivors — never a
        // same-cycle corpse, never a fresh joiner.
        let (mut net, mut rng) = network(20, 19);
        let mut composite = Churn::new(&[convert(0, 1.0), kill(0, 0.5), join(0, 7)]);
        let events = composite.apply(0, &mut net, &mut rng);
        assert_eq!(events.departed.len(), 10);
        assert_eq!(events.joined.len(), 7);
        assert_eq!(events.converted.len(), 10, "the surviving originals");
        for &node in &events.converted {
            assert!(net.is_alive(node));
            assert!(node.as_usize() < 20, "conversions never cover joiners");
            assert!(!events.departed.contains(&node));
        }
    }

    #[test]
    fn windowed_churn_only_fires_inside_its_window() {
        let (mut net, mut rng) = network(100, 8);
        let mut churn = Churn::new(&[replace(2, 4, 0.1)]);
        for cycle in [0u64, 1] {
            let fingerprint = rng.clone();
            assert!(churn.apply(cycle, &mut net, &mut rng).is_empty());
            assert_eq!(rng, fingerprint, "inactive window must not draw RNG");
        }
        assert_eq!(churn.apply(2, &mut net, &mut rng).joined.len(), 10);
        assert_eq!(churn.apply(3, &mut net, &mut rng).joined.len(), 10);
        assert!(
            churn.apply(4, &mut net, &mut rng).is_empty(),
            "end exclusive"
        );
        assert_eq!(net.alive_count(), 100);
    }

    /// A membership stream: per cycle, FNV-1a over each list's length and
    /// indices (joined, departed, re-bootstrapped, converted) and the four
    /// lengths; then the registry's final `(alive, len)` and the next word of
    /// the engine stream.
    pub(crate) type MembershipStream = (Vec<(u64, [usize; 4])>, (usize, usize), u64);

    /// Drives `churn` over 120 nodes through cycles 0..12.
    pub(crate) fn membership_stream(mut churn: Churn) -> MembershipStream {
        let mut rng = SimRng::seed_from(0x5eed);
        let mut net = Network::with_random_ids(120, &mut rng);
        let cycles = (0..12)
            .map(|cycle| {
                let events = churn.apply(cycle, &mut net, &mut rng);
                let lists = [
                    &events.joined,
                    &events.departed,
                    &events.rebootstrapped,
                    &events.converted,
                ];
                let mut digest = FNV_OFFSET;
                for list in lists {
                    fnv(&mut digest, list.len() as u64);
                    for node in list {
                        fnv(&mut digest, node.as_usize() as u64);
                    }
                }
                (digest, lists.map(Vec::len))
            })
            .collect();
        (cycles, (net.alive_count(), net.len()), rng.next_u64())
    }

    /// A membership stream as the literal its pin holds.
    fn pin((cycles, size, next): &MembershipStream) -> String {
        let cycles: Vec<_> = cycles
            .iter()
            .map(|&(digest, lengths)| format!("({}, {lengths:?})", hex_literal(digest)))
            .collect();
        let next = hex_literal(*next);
        format!("(vec![{}], {size:?}, {next})", cycles.join(", "))
    }

    #[test]
    fn membership_stream_is_pinned() {
        // Expected values recorded from the boxed model stack this struct
        // replaced. They move if a draw is added, dropped or swapped with its
        // neighbour — which would shift every golden downstream. The timeline
        // reaches every branch: a burst overlapping a join and a failure in
        // one cycle in both orders, a full and a half re-bootstrap, a
        // conversion in the cycle of a failure, and a burst whose victim count
        // rounds to 0.
        let churn = Churn::new(&[
            replace(2, 6, 0.05),
            join(3, 30),
            kill(3, 0.3),
            rebootstrap(4, 1.0),
            convert(5, 0.2),
            kill(5, 0.25),
            join(5, 20),
            rebootstrap(7, 0.5),
            replace(8, 10, 0.001),
        ]);
        const QUIET: (u64, [usize; 4]) = (0x0c82_1078_4d8a_f5a5, [0, 0, 0, 0]);
        let expected = (
            vec![
                QUIET,
                QUIET,
                (0xb257_076c_db84_6083, [6, 6, 0, 0]),
                (0xcf3d_99ae_4a8d_b974, [24, 39, 0, 0]),
                (0xff44_61a6_780c_85af, [5, 5, 100, 0]),
                (0x0968_e4fc_b601_a161, [24, 30, 0, 14]),
                QUIET,
                (0xb4e8_c12c_2040_d21d, [0, 0, 50, 0]),
                QUIET,
                QUIET,
                QUIET,
                QUIET,
            ],
            (99, 192),
            0x467c_ffe9_90fe_eae2,
        );
        let stream = membership_stream(churn);
        assert_eq!(stream, expected, "the pin wants {}", pin(&stream));
    }

    #[test]
    fn composite_applies_all_models() {
        let (mut net, mut rng) = network(20, 6);
        let mut composite = Churn::new(&[join(0, 5), kill(0, 0.5)]);
        assert!(!composite.is_empty());
        let events = composite.apply(0, &mut net, &mut rng);
        // The failure fires after the join added nodes: half of 25 = 12 or 13
        // victims. Victims that were this same cycle's joiners are reported in
        // neither list (they never existed from the protocol's perspective),
        // so the reported lists cover exactly the surviving joiners and the
        // pre-existing victims.
        let victims = 25 - net.alive_count();
        assert!(
            victims == 12 || victims == 13,
            "unexpected kill count {victims}"
        );
        let killed_joiners = victims - events.departed.len();
        assert_eq!(events.joined.len(), 5 - killed_joiners);
        for &joiner in &events.joined {
            assert!(net.is_alive(joiner));
        }
        for &victim in &events.departed {
            assert!(!net.is_alive(victim));
            assert!(victim.as_usize() < 20, "reported victims pre-existed");
        }
    }
}
