//! Message delivery: one link description and one transport.
//!
//! The bootstrapping protocol is designed for "a cheap, unreliable transport layer
//! (UDP)" (§5); the paper's robustness experiment drops every message independently
//! with probability 0.2. A [`Transport`] decides, per message, whether it is
//! delivered and with what latency. The cycle-driven engine only uses the delivery
//! decision; the event-driven engine also uses the latency.
//!
//! # Determinism contract
//!
//! A run is reproducible because every decision consumes a fixed number of
//! draws from the engine's `SimRng`, in a fixed order.
//! `Transport::should_deliver` asks, and stops at the first drop:
//!
//! 1. the partition windows — no draw;
//! 2. the loss window — one coin, only while a window with positive
//!    probability is active;
//! 3. every active regional outage touching the link — one coin each, in
//!    timeline order;
//! 4. a [`LatencyModel::Wan`] link's `inter_region_loss` — one coin, only when
//!    it is positive and the link crosses a region boundary.
//!
//! [`Transport::latency_millis`] draws one `range_u64(min, max + 1)` for a
//! [`LatencyModel::Uniform`] link with `min < max` and nothing otherwise. A
//! transport without windows over a constant link therefore draws nothing at
//! all. Neither decision allocates: both walk the timeline in place.

use crate::link::WanParams;
use crate::network::NodeIndex;
use crate::timeline::ScenarioEvent;
use bss_util::config::InvalidParams;
use bss_util::coords::{Placement, PlacementSpec};
use bss_util::rng::SimRng;
use std::sync::Arc;

/// The per-link latency (and topology) model of a [`Transport`].
///
/// `Constant` and `Uniform` are global models: one latency distribution for
/// every link, no geography. `Wan` places every node on a 2-D plane
/// ([`PlacementSpec`]) and derives each link's latency from coordinate
/// distance ([`WanParams`]) — which also gives regional outage and slow-link
/// windows their regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every delivered message takes exactly `millis` milliseconds.
    Constant {
        /// The fixed latency in milliseconds.
        millis: u64,
    },
    /// Uniformly random latency in `[min_millis, max_millis]` milliseconds.
    Uniform {
        /// Smallest latency (inclusive).
        min_millis: u64,
        /// Largest latency (inclusive).
        max_millis: u64,
    },
    /// Distance-dependent WAN latency over a seeded node placement, with
    /// deterministic per-pair jitter and asymmetric inter-region loss.
    Wan {
        /// How nodes are placed on the plane (and partitioned into regions).
        placement: PlacementSpec,
        /// The distance-to-milliseconds conversion and loss parameters.
        params: WanParams,
    },
}

impl LatencyModel {
    /// The latency bounds as a `(min, max)` pair. For `Wan` the maximum is
    /// derived from the placement's maximum pairwise distance.
    pub fn bounds(&self) -> (u64, u64) {
        match *self {
            LatencyModel::Constant { millis } => (millis, millis),
            LatencyModel::Uniform {
                min_millis,
                max_millis,
            } => (min_millis, max_millis),
            LatencyModel::Wan { placement, params } => params.bounds(placement.max_distance()),
        }
    }

    /// Whether this model carries a node placement (regional events and
    /// per-region series require one).
    pub fn is_wan(&self) -> bool {
        matches!(self, LatencyModel::Wan { .. })
    }

    /// The placement spec, when this model has one.
    pub fn placement_spec(&self) -> Option<PlacementSpec> {
        match *self {
            LatencyModel::Wan { placement, .. } => Some(placement),
            _ => None,
        }
    }

    /// A short machine-readable name (used in bench TSV columns).
    pub fn label(&self) -> &'static str {
        match self {
            LatencyModel::Constant { .. } => "constant",
            LatencyModel::Uniform { .. } => "uniform",
            LatencyModel::Wan { .. } => "wan",
        }
    }

    /// Generates the node placement for a network of `size` initial nodes,
    /// or `None` for the placement-free models. Coordinates come from a
    /// salted private stream, so this never perturbs the run's main RNG.
    pub fn build_placement(&self, size: usize, seed: u64) -> Option<Arc<Placement>> {
        self.placement_spec()
            .map(|spec| Arc::new(spec.generate(size, seed)))
    }

    /// Validates the model: the latency range must not be inverted, and a WAN
    /// model's placement and parameters must each pass their own validation.
    ///
    /// # Errors
    ///
    /// Returns the typed [`InvalidParams::OutOfRange`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        let (min, max) = self.bounds();
        if min > max {
            // Typed rather than stringly: an inverted range means min_millis
            // exceeds the inclusive ceiling max_millis sets.
            return Err(InvalidParams::OutOfRange {
                field: "latency min_millis",
                value: min as f64,
                min: 0.0,
                max: max as f64,
            });
        }
        if let LatencyModel::Wan { placement, params } = self {
            placement.validate()?;
            params.validate()?;
        }
        Ok(())
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant { millis: 1 }
    }
}

/// The message delivery policy both engines hold by value: a
/// [`LatencyModel`] plus the connectivity events of the run's timeline —
/// [`LossWindow`](ScenarioEvent::LossWindow),
/// [`Partition`](ScenarioEvent::Partition),
/// [`RegionalOutage`](ScenarioEvent::RegionalOutage) and
/// [`SlowLinks`](ScenarioEvent::SlowLinks). Outside every window, over a
/// lossless link, it delivers everything.
///
/// The engines call [`Transport::advance_to_cycle`] at every cycle boundary
/// (the event-driven runner maps wall-clock time to cycles through Δ) and the
/// windows switch on and off accordingly. See the [module docs](self) for the
/// draws each decision consumes.
#[derive(Debug, Clone)]
pub struct Transport {
    latency: LatencyModel,
    /// Where nodes sit: the WAN model's distances and every window's regions.
    placement: Option<Arc<Placement>>,
    /// Seed of the WAN model's per-pair jitter hash.
    seed: u64,
    /// The connectivity events, in timeline order.
    windows: Vec<ScenarioEvent>,
    /// The initial network size, which a partition splits by index parity.
    initial_size: usize,
    cycle: u64,
    offered: u64,
    dropped: u64,
}

impl Transport {
    /// A transport that delivers every message after 1 ms and never draws
    /// (the paper's Figure 3 setting; what the engines start with).
    pub fn reliable() -> Self {
        Transport::new(LatencyModel::default(), None, 0)
    }

    /// A transport over `latency` with an empty timeline. `placement` is the
    /// shared value of [`LatencyModel::build_placement`] for the run (`None`
    /// for the placement-free models) and `seed` the experiment seed.
    ///
    /// # Panics
    ///
    /// Panics if the latency range is inverted or a WAN model comes without
    /// its placement; [`LatencyModel::validate`] is the non-panicking check.
    pub fn new(latency: LatencyModel, placement: Option<Arc<Placement>>, seed: u64) -> Self {
        let (min, max) = latency.bounds();
        assert!(min <= max, "latency range is inverted");
        assert!(
            placement.is_some() || !latency.is_wan(),
            "a wan latency model needs its placement"
        );
        Transport {
            latency,
            placement,
            seed,
            windows: Vec::new(),
            initial_size: 0,
            cycle: 0,
            offered: 0,
            dropped: 0,
        }
    }

    /// Sets the transport's windows to the connectivity events of
    /// `timeline`, in its order, for a network of `initial_size` initial
    /// nodes; the other events are the churn's or the traffic driver's
    /// business. Probabilities are clamped to `[0, 1]` (validation of
    /// out-of-range inputs happens at the scenario layer). Builder style.
    #[must_use]
    pub fn with_timeline<'a>(
        mut self,
        timeline: impl IntoIterator<Item = &'a ScenarioEvent>,
        initial_size: usize,
    ) -> Self {
        let windows = timeline.into_iter().filter(|event| {
            matches!(
                event,
                ScenarioEvent::LossWindow { .. }
                    | ScenarioEvent::Partition { .. }
                    | ScenarioEvent::RegionalOutage { .. }
                    | ScenarioEvent::SlowLinks { .. }
            )
        });
        self.windows = windows.cloned().collect();
        self.initial_size = initial_size;
        self
    }

    /// Moves the transport's clock to `cycle`, switching its windows on and
    /// off.
    pub fn advance_to_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// The currently active loss probability (0 outside every loss window).
    pub fn active_loss(&self) -> f64 {
        let active = self.windows.iter().find_map(|event| match *event {
            ScenarioEvent::LossWindow { phase, probability } if phase.contains(self.cycle) => {
                Some(probability.clamp(0.0, 1.0))
            }
            _ => None,
        });
        active.unwrap_or(0.0)
    }

    fn crosses_partition(&self, from: NodeIndex, to: NodeIndex) -> bool {
        self.windows.iter().any(|event| match event {
            ScenarioEvent::Partition { phase } if phase.contains(self.cycle) => {
                // Later joiners (indices past the initial size) are even.
                let odd = |node: usize| node < self.initial_size && node % 2 == 1;
                odd(from.as_usize()) != odd(to.as_usize())
            }
            _ => false,
        })
    }

    /// Region of a node under the placement (0 when there is none).
    fn region(&self, node: NodeIndex) -> u32 {
        self.placement
            .as_ref()
            .map_or(0, |p| p.region(node.as_usize()))
    }

    /// True when a window on `region` touches the `from → to` link.
    fn touches(&self, region: u32, from: NodeIndex, to: NodeIndex) -> bool {
        self.region(from) == region || self.region(to) == region
    }

    /// Whether an active regional outage drops a `from → to` message: one
    /// coin per active window with positive loss touching the link, in
    /// timeline order, until one comes up. The traffic layer asks the same
    /// question of a lookup's client and target.
    pub fn outage_drops(&self, from: NodeIndex, to: NodeIndex, rng: &mut SimRng) -> bool {
        self.windows.iter().any(|event| match *event {
            ScenarioEvent::RegionalOutage {
                phase,
                region,
                loss,
            } => {
                let loss = loss.clamp(0.0, 1.0);
                phase.contains(self.cycle)
                    && loss > 0.0
                    && self.touches(region, from, to)
                    && rng.chance(loss)
            }
            _ => false,
        })
    }

    /// Decides whether a single message from `from` to `to` is delivered.
    pub(crate) fn should_deliver(
        &mut self,
        from: NodeIndex,
        to: NodeIndex,
        rng: &mut SimRng,
    ) -> bool {
        self.offered += 1;
        let dropped = self.crosses_partition(from, to)
            || self.loss_window_drops(rng)
            || self.outage_drops(from, to, rng)
            || self.structural_loss_drops(from, to, rng);
        if dropped {
            self.dropped += 1;
        }
        !dropped
    }

    /// The scripted loss coin; a quiet timeline consumes no randomness.
    fn loss_window_drops(&self, rng: &mut SimRng) -> bool {
        let loss = self.active_loss();
        loss > 0.0 && rng.chance(loss)
    }

    /// The WAN model's inter-region loss coin.
    fn structural_loss_drops(&self, from: NodeIndex, to: NodeIndex, rng: &mut SimRng) -> bool {
        match self.latency {
            LatencyModel::Wan { params, .. } => {
                params.inter_region_loss > 0.0
                    && self.region(from) != self.region(to)
                    && rng.chance(params.inter_region_loss)
            }
            _ => false,
        }
    }

    /// Combined slow-link factor active on this link at the current cycle.
    fn slow_factor(&self, from: NodeIndex, to: NodeIndex) -> f64 {
        let factors = self.windows.iter().filter_map(|event| match *event {
            ScenarioEvent::SlowLinks {
                phase,
                region,
                factor,
            } if phase.contains(self.cycle)
                && region.map_or(true, |r| self.touches(r, from, to)) =>
            {
                Some(factor)
            }
            _ => None,
        });
        factors.product()
    }

    /// Latency, in milliseconds, of a delivered message from `from` to `to`:
    /// the link model's answer scaled by every active slow-link window that
    /// matches the link, floored at 1 ms.
    pub fn latency_millis(&self, from: NodeIndex, to: NodeIndex, rng: &mut SimRng) -> u64 {
        let base = match self.latency {
            LatencyModel::Constant { millis } => millis,
            LatencyModel::Uniform {
                min_millis,
                max_millis,
            } => {
                if min_millis == max_millis {
                    min_millis
                } else {
                    rng.range_u64(min_millis, max_millis + 1)
                }
            }
            LatencyModel::Wan { params, .. } => {
                let placement = self.placement.as_ref().expect("checked by new");
                params.latency(placement, self.seed, from, to)
            }
        };
        let factor = self.slow_factor(from, to);
        if factor == 1.0 {
            base
        } else {
            ((base as f64) * factor).round() as u64
        }
        .max(1)
    }

    /// Number of messages this transport has been asked about.
    pub fn messages_offered(&self) -> u64 {
        self.offered
    }

    /// Number of messages this transport decided to drop.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::timeline::Phase;

    /// `value` as the literal a pinned test holds, grouped like the tree's
    /// own (`0x0123_4567_89ab_cdef`): what a failing pin prints for its
    /// replacement.
    pub(crate) fn hex_literal(value: u64) -> String {
        let hex = format!("{value:016x}");
        let groups: Vec<_> = (0..16).step_by(4).map(|at| &hex[at..at + 4]).collect();
        format!("0x{}", groups.join("_"))
    }

    /// The FNV-1a offset basis a pinned stream's digest starts from.
    pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Folds `word` into an FNV-1a `digest`, byte by byte.
    pub(crate) fn fnv(digest: &mut u64, word: u64) {
        for byte in word.to_le_bytes() {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn idx(i: u32) -> NodeIndex {
        NodeIndex::new(i)
    }

    pub(crate) fn loss(start: u64, end: u64, probability: f64) -> ScenarioEvent {
        let phase = Phase::new(start, end);
        ScenarioEvent::LossWindow { phase, probability }
    }

    /// A reliable transport partitioned by index parity during `[start, end)`,
    /// over a network of `initial_size` initial nodes.
    fn partition(start: u64, end: u64, initial_size: usize) -> Transport {
        let phase = Phase::new(start, end);
        Transport::reliable().with_timeline(&[ScenarioEvent::Partition { phase }], initial_size)
    }

    pub(crate) fn outage(start: u64, end: u64, region: u32, loss: f64) -> ScenarioEvent {
        let phase = Phase::new(start, end);
        ScenarioEvent::RegionalOutage {
            phase,
            region,
            loss,
        }
    }

    pub(crate) fn slow(start: u64, end: u64, region: Option<u32>, factor: f64) -> ScenarioEvent {
        let phase = Phase::new(start, end);
        ScenarioEvent::SlowLinks {
            phase,
            region,
            factor,
        }
    }

    /// A reliable link that drops every message with `probability`.
    pub(crate) fn whole_run_loss(probability: f64) -> Transport {
        Transport::reliable().with_timeline(&[loss(0, u64::MAX, probability)], 0)
    }

    fn uniform(min_millis: u64, max_millis: u64) -> Transport {
        let latency = LatencyModel::Uniform {
            min_millis,
            max_millis,
        };
        Transport::new(latency, None, 0)
    }

    #[test]
    fn reliable_transport_never_drops() {
        let mut rng = SimRng::seed_from(1);
        let fingerprint = rng.clone();
        let mut t = Transport::reliable();
        for i in 0..100 {
            assert!(t.should_deliver(idx(i), idx(i + 1), &mut rng));
        }
        assert_eq!(t.messages_offered(), 100);
        assert_eq!(t.messages_dropped(), 0);
        assert_eq!(t.latency_millis(idx(0), idx(1), &mut rng), 1);
        assert_eq!(rng, fingerprint, "a reliable transport draws nothing");
    }

    #[test]
    fn drop_transport_matches_configured_probability() {
        let mut rng = SimRng::seed_from(2);
        let mut t = whole_run_loss(0.2);
        assert_eq!(t.active_loss(), 0.2);
        let delivered = (0..20_000)
            .filter(|_| t.should_deliver(idx(0), idx(1), &mut rng))
            .count();
        let rate = 1.0 - delivered as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.02, "observed drop rate {rate}");
        assert_eq!(t.messages_dropped(), 20_000 - delivered as u64);
        assert_eq!(t.messages_offered(), 20_000);
    }

    #[test]
    fn drop_transport_extremes() {
        let mut rng = SimRng::seed_from(3);
        let mut never = whole_run_loss(0.0);
        let mut always = whole_run_loss(1.0);
        let mut clamped = whole_run_loss(7.5);
        for _ in 0..50 {
            assert!(never.should_deliver(idx(0), idx(1), &mut rng));
            assert!(!always.should_deliver(idx(0), idx(1), &mut rng));
            assert!(!clamped.should_deliver(idx(0), idx(1), &mut rng));
        }
        assert_eq!(clamped.active_loss(), 1.0);
    }

    #[test]
    fn partition_transport_blocks_cross_group_traffic() {
        let mut rng = SimRng::seed_from(4);
        let fingerprint = rng.clone();
        let mut t = partition(0, u64::MAX, 4);
        assert!(t.should_deliver(idx(0), idx(2), &mut rng));
        assert!(!t.should_deliver(idx(0), idx(1), &mut rng));
        assert!(t.should_deliver(idx(1), idx(3), &mut rng));
        assert_eq!(t.messages_dropped(), 1);
        assert_eq!(rng, fingerprint, "partition decisions draw nothing");
    }

    #[test]
    fn partition_transport_defaults_unknown_nodes_to_group_zero() {
        let mut rng = SimRng::seed_from(5);
        let mut t = partition(0, u64::MAX, 2);
        // Nodes 5 and 6 joined past the initial two: both in group 0, node 1 in 1.
        assert!(!t.should_deliver(idx(1), idx(5), &mut rng));
        assert!(t.should_deliver(idx(5), idx(6), &mut rng));
        assert!(t.should_deliver(idx(0), idx(5), &mut rng));
    }

    #[test]
    fn uniform_latency_stays_in_range() {
        let mut rng = SimRng::seed_from(6);
        let mut t = uniform(10, 50);
        for _ in 0..500 {
            let l = t.latency_millis(idx(0), idx(1), &mut rng);
            assert!((10..=50).contains(&l));
        }
        assert!(t.should_deliver(idx(0), idx(1), &mut rng));
        assert_eq!(t.messages_offered(), 1);
        let fingerprint = rng.clone();
        assert_eq!(uniform(5, 5).latency_millis(idx(0), idx(1), &mut rng), 5);
        assert_eq!(rng, fingerprint, "a degenerate range draws nothing");
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn uniform_latency_rejects_inverted_range() {
        uniform(10, 5);
    }

    #[test]
    fn timeline_transport_follows_its_loss_windows() {
        let mut t = Transport::reliable().with_timeline(&[loss(2, 4, 1.0)], 0);
        let mut rng = SimRng::seed_from(8);
        // Before the window: reliable, and no RNG is consumed.
        let fingerprint = rng.clone();
        assert!(t.should_deliver(idx(0), idx(1), &mut rng));
        assert_eq!(rng, fingerprint, "quiet timeline must not draw randomness");
        // Inside the window: certain loss.
        t.advance_to_cycle(2);
        assert_eq!(t.active_loss(), 1.0);
        assert!(!t.should_deliver(idx(0), idx(1), &mut rng));
        t.advance_to_cycle(3);
        assert!(!t.should_deliver(idx(0), idx(1), &mut rng));
        // The window end is exclusive.
        t.advance_to_cycle(4);
        assert_eq!(t.active_loss(), 0.0);
        assert!(t.should_deliver(idx(0), idx(1), &mut rng));
        assert_eq!(t.messages_offered(), 4);
        assert_eq!(t.messages_dropped(), 2);
    }

    #[test]
    fn timeline_transport_partitions_and_heals() {
        let mut t = partition(0, 5, 4);
        let mut rng = SimRng::seed_from(10);
        assert!(t.should_deliver(idx(0), idx(2), &mut rng));
        assert!(!t.should_deliver(idx(0), idx(1), &mut rng));
        // Later joiners belong to the even group.
        assert!(t.should_deliver(idx(0), idx(9), &mut rng));
        assert!(!t.should_deliver(idx(1), idx(9), &mut rng));
        // The partition heals at its end cycle: the network merges.
        t.advance_to_cycle(5);
        assert!(t.should_deliver(idx(0), idx(1), &mut rng));
        assert_eq!(t.messages_dropped(), 2);
    }

    #[test]
    fn latency_wrapper_forwards_the_clock() {
        // A latency model and a scripted window live in one transport.
        let mut t = uniform(1, 1).with_timeline(&[loss(1, 2, 1.0)], 0);
        let mut rng = SimRng::seed_from(11);
        assert!(t.should_deliver(idx(0), idx(1), &mut rng));
        t.advance_to_cycle(1);
        assert!(!t.should_deliver(idx(0), idx(1), &mut rng));
    }

    #[test]
    fn latency_wrapper_preserves_drop_statistics() {
        let mut rng = SimRng::seed_from(7);
        let mut t = uniform(1, 2).with_timeline(&[loss(0, u64::MAX, 1.0)], 0);
        assert!(!t.should_deliver(idx(0), idx(1), &mut rng));
        assert_eq!(t.messages_dropped(), 1);
        assert_eq!(t.messages_offered(), 1);
    }

    /// A decision stream: FNV-1a over every `(delivered, latency)` decision,
    /// the offered and dropped counts and the next word of the engine stream.
    pub(crate) type DecisionStream = (u64, u64, u64, u64);

    /// Drives `transport` through cycles 0..6, 200 messages each between
    /// random pairs of `nodes` nodes.
    pub(crate) fn decision_stream(mut transport: Transport, nodes: usize) -> DecisionStream {
        let mut rng = SimRng::seed_from(0x5eed);
        let mut pairs = SimRng::seed_from(0xfeed);
        let mut digest = FNV_OFFSET;
        for cycle in 0..6 {
            transport.advance_to_cycle(cycle);
            for _ in 0..200 {
                let from = idx(pairs.index(nodes) as u32);
                let to = idx(pairs.index(nodes) as u32);
                let delivered = transport.should_deliver(from, to, &mut rng);
                let latency = if delivered {
                    transport.latency_millis(from, to, &mut rng)
                } else {
                    0
                };
                fnv(&mut digest, u64::from(delivered));
                fnv(&mut digest, latency);
            }
        }
        (
            digest,
            transport.messages_offered(),
            transport.messages_dropped(),
            rng.next_u64(),
        )
    }

    /// A decision stream as the tuple literal its pin holds.
    fn pin((digest, offered, dropped, next): DecisionStream) -> String {
        let (digest, next) = (hex_literal(digest), hex_literal(next));
        format!("({digest}, {offered}, {dropped}, {next})")
    }

    /// The 3-region WAN model of the pinned stream, over `nodes` nodes.
    pub(crate) fn wan(nodes: usize) -> Transport {
        let placement = PlacementSpec::Clustered {
            regions: 3,
            width: 1000.0,
            height: 1000.0,
            spread: 40.0,
        };
        let params = WanParams {
            inter_region_loss: 0.1,
            ..WanParams::default()
        };
        let model = LatencyModel::Wan { placement, params };
        Transport::new(model, model.build_placement(nodes, 7), 7)
    }

    #[test]
    fn decision_stream_is_pinned() {
        // Expected values recorded from the transport stack this struct
        // replaced. They move if a coin is added, dropped or swapped with its
        // neighbour — which would shift every golden downstream. Between them
        // the two timelines reach every branch: partition, loss coin, a slow
        // window over drawn latencies; two outages active at once, structural
        // loss behind them, a regional slow window over hashed latencies. The
        // stream draws nodes 0..20 of an initial 16, so the index-parity
        // partition also puts later joiners in group 0.
        let parity = ScenarioEvent::Partition {
            phase: Phase::new(1, 3),
        };
        let uniform =
            uniform(5, 50).with_timeline(&[loss(2, 4, 0.5), parity, slow(3, 5, None, 2.0)], 16);
        let wan = wan(24).with_timeline(
            &[
                outage(1, 4, 0, 0.5),
                outage(2, 5, 1, 0.3),
                slow(3, 6, Some(2), 3.0),
            ],
            24,
        );
        let streams = (decision_stream(uniform, 20), decision_stream(wan, 30));
        assert_eq!(
            streams,
            (
                (0x2763_04ef_04b9_2cd6, 1200, 355, 0x8cb1_aaef_fdf7_3514),
                (0xabc7_6488_3254_e855, 1200, 312, 0xb724_8c7e_c03e_d82d),
            ),
            "the pins want ({}, {})",
            pin(streams.0),
            pin(streams.1)
        );
    }
}
