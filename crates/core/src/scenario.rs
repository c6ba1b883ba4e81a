//! Engine-agnostic scenario descriptions.
//!
//! The paper evaluates the bootstrapping service under a fixed menu of adverse
//! conditions — uniform message loss (Figure 4), continuous churn, catastrophic
//! failure of up to 70 % of the nodes, massive joins and network partitions
//! that later merge (§1–2, §5). This module expresses them as a *composable
//! timeline* that every engine runs:
//!
//! * a [`Scenario`] is an ordered list of [`ScenarioEvent`]s, each either a
//!   one-shot (catastrophic failure, massive join) or a [`Phase`]-windowed
//!   condition (loss window, churn burst, partition);
//! * an [`Engine`] selects the execution model — the deterministic cycle
//!   engine, on every core or on a pinned thread count, or the
//!   discrete-event engine with a per-link [`LatencyModel`];
//! * an [`Observer`] receives per-cycle convergence measurements and scenario
//!   transitions.
//!
//! The scalar setters of
//! [`ExperimentConfigBuilder`](crate::experiment::ExperimentConfigBuilder) are
//! sugar over the timeline: a drop probability is a single whole-run loss
//! window, which flips exactly one coin per message (see
//! [`bss_sim::transport`]'s determinism contract).

use crate::convergence::NetworkConvergence;
use bss_sim::churn::{Churn, ChurnStep};
use bss_sim::transport::Transport;
use bss_util::config::InvalidParams;
use bss_util::coords::Placement;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::Arc;

pub use bss_sim::adversary::{AdversaryBehavior, AdversaryModel};
pub use bss_sim::link::WanParams;
pub use bss_sim::transport::LatencyModel;
pub use bss_util::coords::PlacementSpec;

/// A `[start, end)` window of cycles during which a scenario condition holds.
///
/// `end = u64::MAX` means "until the run ends".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// End of the window (exclusive).
    pub end: u64,
}

impl Phase {
    /// A window covering `[start, end)`.
    pub fn new(start: u64, end: u64) -> Self {
        Phase { start, end }
    }

    /// A window covering the entire run.
    pub(crate) fn whole_run() -> Self {
        Phase {
            start: 0,
            end: u64::MAX,
        }
    }

    /// Whether `cycle` lies inside the window.
    pub(crate) fn contains(&self, cycle: u64) -> bool {
        cycle >= self.start && cycle < self.end
    }

    /// Whether this window shares at least one cycle with `other`.
    pub(crate) fn overlaps(&self, other: &Phase) -> bool {
        self.start < other.end && other.start < self.end
    }

    fn validate(&self, field: &'static str) -> Result<(), InvalidParams> {
        if self.start >= self.end {
            return Err(InvalidParams::EmptyWindow {
                field,
                start: self.start,
                end: self.end,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.end == u64::MAX {
            write!(f, "[{}, ∞)", self.start)
        } else {
            write!(f, "[{}, {})", self.start, self.end)
        }
    }
}

/// How a partition event splits the network into groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionSpec {
    /// Even node indices form one group, odd indices the other. Both halves
    /// span the whole identifier space, which is the interesting case for
    /// merging prefix tables (the `merge_split` experiment).
    IndexParity,
    /// An explicit map from node index to group; indices beyond the vector
    /// (later joiners) belong to group 0.
    Explicit(Vec<u32>),
}

impl PartitionSpec {
    /// Materialises the group map for a network of `network_size` initial nodes.
    pub(crate) fn group_map(&self, network_size: usize) -> Vec<u32> {
        match self {
            PartitionSpec::IndexParity => (0..network_size as u32).map(|i| i % 2).collect(),
            PartitionSpec::Explicit(groups) => groups.clone(),
        }
    }
}

/// How a traffic phase picks the keys it looks up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Every alive node's identifier is equally likely.
    Uniform,
    /// Zipf-distributed popularity over the alive population: the node at
    /// alive-list position `r` is looked up with probability proportional to
    /// `1 / (r + 1)^exponent`. Position 0 is the hottest key — deliberately
    /// the same node the id-spray adversary targets by default, so skewed
    /// traffic and the eclipse attack compose into one experiment.
    Zipf {
        /// The skew exponent (must be positive and finite; ~1.0 is web-like).
        exponent: f64,
    },
}

impl KeyDist {
    fn validate(&self) -> Result<(), InvalidParams> {
        if let KeyDist::Zipf { exponent } = *self {
            if !exponent.is_finite() || exponent <= 0.0 {
                return Err(InvalidParams::from_message(format!(
                    "zipf exponent must be positive and finite, got {exponent}"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for KeyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyDist::Uniform => write!(f, "uniform"),
            KeyDist::Zipf { exponent } => write!(f, "zipf({exponent})"),
        }
    }
}

/// One entry of a scenario timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Uniform message loss during a window: every message offered to the
    /// transport while the window is active is dropped independently with
    /// `probability` (the paper's Figure 4 uses 0.2 for the whole run).
    LossWindow {
        /// When the loss applies.
        phase: Phase,
        /// Per-message drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Continuous replacement churn during a window: each cycle inside the
    /// window, `rate` of the alive nodes departs and the same number of fresh
    /// nodes joins (§5's churn claim).
    ChurnBurst {
        /// When the churn applies.
        phase: Phase,
        /// Per-cycle replacement fraction in `[0, 1]`.
        rate: f64,
    },
    /// A one-shot simultaneous failure of a fraction of the alive nodes (the
    /// paper's sampling layer is designed to survive up to 70 %).
    CatastrophicFailure {
        /// The cycle at which the failure strikes.
        at_cycle: u64,
        /// Fraction of the alive nodes that dies, in `[0, 1]`.
        fraction: f64,
    },
    /// A one-shot batch join of fresh nodes (the "flash crowd" scenario of §1).
    MassiveJoin {
        /// The cycle at which the batch joins.
        at_cycle: u64,
        /// Number of joining nodes (must be positive).
        count: usize,
    },
    /// A one-shot recovery order: a fraction of the alive nodes re-initialises
    /// its bootstrap state from the peer sampling service, exactly as at
    /// start-up (§4's start condition re-applied to survivors). Schedule this
    /// a few cycles after a [`ScenarioEvent::CatastrophicFailure`] — combined
    /// with descriptor aging
    /// ([`BootstrapParams::descriptor_max_age`](bss_util::config::BootstrapParams))
    /// it is what makes a post-catastrophe overlay actually re-converge
    /// instead of gossiping the dead forever. Membership is untouched.
    ReBootstrap {
        /// The cycle at which the survivors re-initialise.
        at_cycle: u64,
        /// Fraction of the alive nodes that re-bootstraps, in `[0, 1]`
        /// (1.0 = every survivor).
        fraction: f64,
    },
    /// A network partition during a window: messages crossing group boundaries
    /// are dropped while the window is active, and the partitions merge when
    /// it ends (§1–2's split/merge scenario).
    Partition {
        /// When the partition is in force; its end is the merge.
        phase: Phase,
        /// How nodes are assigned to partition groups.
        groups: PartitionSpec,
    },
    /// A Byzantine conversion: at the window's start, `fraction` of the alive
    /// nodes turns adversarial and plays `behavior` for every cycle inside the
    /// window. Membership is untouched — converted nodes keep gossiping, they
    /// just lie. Conversion is sticky (the set is drawn once, at the window
    /// start) but the behaviour deactivates when the window closes, so a run
    /// that outlives the attack shows whether the overlay heals.
    ByzantineConvert {
        /// When the adversarial behaviour is active; conversion happens at
        /// `phase.start`.
        phase: Phase,
        /// Fraction of the alive nodes converted, in `[0, 1]`.
        fraction: f64,
        /// What the converted nodes do while the window is active.
        behavior: AdversaryBehavior,
    },
    /// Sustained lookup traffic during a window: every cycle inside the
    /// window, `lookups_per_cycle` key lookups are routed iteratively against
    /// the nodes' *current* tables (open-loop arrival; the router is selected
    /// by [`ExperimentConfig::traffic_router`](crate::experiment::ExperimentConfig)).
    /// The phase is condition-neutral — it kills nobody and corrupts nothing —
    /// but it composes with every other event on the timeline: lookups routed
    /// through a churn burst or an id-spray window measure what users
    /// experience *while* the overlay degrades and recovers.
    TrafficPhase {
        /// When lookups are issued.
        phase: Phase,
        /// Lookups issued per cycle (must be positive).
        lookups_per_cycle: u32,
        /// How lookup keys are drawn from the alive population.
        key_dist: KeyDist,
    },
    /// A regional outage during a window: every message with an endpoint in
    /// `region` is dropped independently with probability `loss` while the
    /// window is active. Connectivity-only — nodes stay alive, so the region
    /// re-joins the overlay the moment the window closes. Requires a
    /// [`LatencyModel::Wan`] link model (regions come from its placement);
    /// lookups from or to the region fail with the same probability while the
    /// outage lasts.
    RegionalOutage {
        /// When the outage is in force.
        phase: Phase,
        /// The affected region id (must exist in the placement).
        region: u32,
        /// Per-message drop probability in `[0, 1]` for touched links.
        loss: f64,
    },
    /// Degraded links during a window: the latency of every matching link
    /// (an endpoint in `region`, or all links when `region` is `None`) is
    /// multiplied by `factor`. Connectivity-only; only the event engine and
    /// the traffic latency accounting feel it, since the cycle engines never
    /// consult latency. Requires a [`LatencyModel::Wan`] link model.
    SlowLinks {
        /// When the slowdown is in force.
        phase: Phase,
        /// The affected region id, or `None` to slow every link.
        region: Option<u32>,
        /// Latency multiplier (must be at least 1.0 and finite).
        factor: f64,
    },
}

impl ScenarioEvent {
    /// The cycle at which this event first takes effect.
    pub(crate) fn starts_at(&self) -> u64 {
        match self {
            ScenarioEvent::LossWindow { phase, .. }
            | ScenarioEvent::ChurnBurst { phase, .. }
            | ScenarioEvent::Partition { phase, .. }
            | ScenarioEvent::ByzantineConvert { phase, .. }
            | ScenarioEvent::TrafficPhase { phase, .. }
            | ScenarioEvent::RegionalOutage { phase, .. }
            | ScenarioEvent::SlowLinks { phase, .. } => phase.start,
            ScenarioEvent::CatastrophicFailure { at_cycle, .. }
            | ScenarioEvent::MassiveJoin { at_cycle, .. }
            | ScenarioEvent::ReBootstrap { at_cycle, .. } => *at_cycle,
        }
    }

    /// The last cycle boundary at which this event changes the run's
    /// conditions: the window end for phased events (the heal/calm
    /// transition), the firing cycle for one-shots. Open windows never end.
    fn last_transition(&self) -> u64 {
        match self {
            ScenarioEvent::LossWindow { phase, .. }
            | ScenarioEvent::ChurnBurst { phase, .. }
            | ScenarioEvent::Partition { phase, .. }
            | ScenarioEvent::ByzantineConvert { phase, .. }
            | ScenarioEvent::TrafficPhase { phase, .. }
            | ScenarioEvent::RegionalOutage { phase, .. }
            | ScenarioEvent::SlowLinks { phase, .. } => {
                if phase.end == u64::MAX {
                    phase.start
                } else {
                    phase.end
                }
            }
            ScenarioEvent::CatastrophicFailure { at_cycle, .. }
            | ScenarioEvent::MassiveJoin { at_cycle, .. }
            | ScenarioEvent::ReBootstrap { at_cycle, .. } => *at_cycle,
        }
    }

    /// Whether this event changes the network's membership (as opposed to its
    /// connectivity). Membership-stable scenarios allow the runner to keep one
    /// convergence oracle for the whole run.
    pub(crate) fn perturbs_membership(&self) -> bool {
        matches!(
            self,
            ScenarioEvent::ChurnBurst { .. }
                | ScenarioEvent::CatastrophicFailure { .. }
                | ScenarioEvent::MassiveJoin { .. }
        )
    }

    /// Whether this event can degrade already-built tables (membership changes
    /// do, and so does a re-bootstrap, which wipes survivor state without
    /// touching membership). The runner resets a recorded convergence cycle
    /// when a table-perturbing event can strike.
    pub(crate) fn perturbs_tables(&self) -> bool {
        self.perturbs_membership() || matches!(self, ScenarioEvent::ReBootstrap { .. })
    }

    fn validate(&self) -> Result<(), InvalidParams> {
        let in_unit = |field: &'static str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(InvalidParams::OutOfRange {
                    field,
                    value,
                    min: 0.0,
                    max: 1.0,
                })
            }
        };
        match self {
            ScenarioEvent::LossWindow { phase, probability } => {
                phase.validate("loss")?;
                in_unit("loss probability", *probability)
            }
            ScenarioEvent::ChurnBurst { phase, rate } => {
                phase.validate("churn")?;
                in_unit("churn rate", *rate)
            }
            ScenarioEvent::CatastrophicFailure { fraction, .. } => {
                in_unit("failure fraction", *fraction)
            }
            ScenarioEvent::ReBootstrap { fraction, .. } => {
                in_unit("re-bootstrap fraction", *fraction)
            }
            ScenarioEvent::MassiveJoin { count, .. } => {
                if *count == 0 {
                    Err(InvalidParams::from_message(
                        "massive join count must be positive",
                    ))
                } else {
                    Ok(())
                }
            }
            ScenarioEvent::Partition { phase, groups } => {
                phase.validate("partition")?;
                if matches!(groups, PartitionSpec::Explicit(map) if map.is_empty()) {
                    return Err(InvalidParams::from_message(
                        "explicit partition group map must not be empty",
                    ));
                }
                Ok(())
            }
            ScenarioEvent::ByzantineConvert {
                phase, fraction, ..
            } => {
                phase.validate("byzantine")?;
                in_unit("byzantine fraction", *fraction)
            }
            ScenarioEvent::TrafficPhase {
                phase,
                lookups_per_cycle,
                key_dist,
            } => {
                phase.validate("traffic")?;
                if *lookups_per_cycle == 0 {
                    return Err(InvalidParams::from_message(
                        "traffic lookups_per_cycle must be positive",
                    ));
                }
                key_dist.validate()
            }
            ScenarioEvent::RegionalOutage { phase, loss, .. } => {
                phase.validate("regional outage")?;
                in_unit("regional outage loss", *loss)
            }
            ScenarioEvent::SlowLinks { phase, factor, .. } => {
                phase.validate("slow links")?;
                if !factor.is_finite() || *factor < 1.0 {
                    return Err(InvalidParams::OutOfRange {
                        field: "slow links factor",
                        value: *factor,
                        min: 1.0,
                        max: f64::MAX,
                    });
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for ScenarioEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioEvent::LossWindow { phase, probability } => {
                write!(f, "{:.0}% message loss during {phase}", probability * 100.0)
            }
            ScenarioEvent::ChurnBurst { phase, rate } => {
                write!(f, "{:.1}%/cycle churn during {phase}", rate * 100.0)
            }
            ScenarioEvent::CatastrophicFailure { at_cycle, fraction } => {
                write!(
                    f,
                    "catastrophic failure of {:.0}% at cycle {at_cycle}",
                    fraction * 100.0
                )
            }
            ScenarioEvent::MassiveJoin { at_cycle, count } => {
                write!(f, "massive join of {count} nodes at cycle {at_cycle}")
            }
            ScenarioEvent::ReBootstrap { at_cycle, fraction } => {
                write!(
                    f,
                    "re-bootstrap of {:.0}% of survivors at cycle {at_cycle}",
                    fraction * 100.0
                )
            }
            ScenarioEvent::Partition { phase, .. } => {
                write!(f, "network partition during {phase}")
            }
            ScenarioEvent::ByzantineConvert {
                phase,
                fraction,
                behavior,
            } => {
                write!(
                    f,
                    "byzantine conversion of {:.0}% playing {} during {phase}",
                    fraction * 100.0,
                    behavior.label()
                )
            }
            ScenarioEvent::TrafficPhase {
                phase,
                lookups_per_cycle,
                key_dist,
            } => {
                write!(
                    f,
                    "{lookups_per_cycle} {key_dist} lookups/cycle during {phase}"
                )
            }
            ScenarioEvent::RegionalOutage {
                phase,
                region,
                loss,
            } => {
                write!(
                    f,
                    "{:.0}% outage of region {region} during {phase}",
                    loss * 100.0
                )
            }
            ScenarioEvent::SlowLinks {
                phase,
                region,
                factor,
            } => match region {
                Some(region) => {
                    write!(f, "{factor}x slow links in region {region} during {phase}")
                }
                None => write!(f, "{factor}x slow links everywhere during {phase}"),
            },
        }
    }
}

/// A composable timeline of [`ScenarioEvent`]s describing everything that
/// happens *to* the network during a run.
///
/// # Example
///
/// ```rust
/// use bss_core::experiment::ExperimentConfig;
/// use bss_core::scenario::{Phase, Scenario, ScenarioEvent};
///
/// // 20% loss for the first 10 cycles, then a catastrophe, then a flash crowd.
/// let scenario = Scenario::calm()
///     .with(ScenarioEvent::LossWindow {
///         phase: Phase::new(0, 10),
///         probability: 0.2,
///     })
///     .with(ScenarioEvent::CatastrophicFailure { at_cycle: 12, fraction: 0.5 })
///     .with(ScenarioEvent::MassiveJoin { at_cycle: 20, count: 256 });
/// // Building a configuration validates the timeline it is given.
/// assert!(ExperimentConfig::builder().scenario(scenario).build().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scenario {
    events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// The empty timeline: no loss, no churn, no failures (Figure 3's setting).
    pub fn calm() -> Self {
        Scenario::default()
    }

    /// Appends an event to the timeline (builder style). Within one cycle,
    /// membership events apply in timeline order.
    #[must_use]
    pub fn with(mut self, event: ScenarioEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Replaces any whole-run loss window with one of `probability` (removing
    /// it entirely when `probability == 0`). This is what the legacy
    /// `drop_probability` builder setter desugars to; scoped loss windows are
    /// left untouched.
    pub(crate) fn set_whole_run_loss(&mut self, probability: f64) {
        self.events.retain(|event| {
            !matches!(event, ScenarioEvent::LossWindow { phase, .. } if *phase == Phase::whole_run())
        });
        if probability != 0.0 {
            self.events.push(ScenarioEvent::LossWindow {
                phase: Phase::whole_run(),
                probability,
            });
        }
    }

    /// Whether any event changes the network's membership (churn, failure,
    /// join). When false, one convergence oracle serves the whole run.
    pub(crate) fn perturbs_membership(&self) -> bool {
        self.events.iter().any(ScenarioEvent::perturbs_membership)
    }

    /// Whether any event can degrade already-built tables — membership changes
    /// or re-bootstrap orders. When false, a reached perfection can never
    /// degrade, so the runner keeps the first recorded convergence cycle.
    pub(crate) fn perturbs_tables(&self) -> bool {
        self.events.iter().any(ScenarioEvent::perturbs_tables)
    }

    /// Whether the timeline converts any nodes to Byzantine behaviour. An
    /// adversary corrupts tables without perturbing membership, so with one a
    /// recorded convergence is not final.
    pub(crate) fn has_adversary(&self) -> bool {
        self.events
            .iter()
            .any(|event| matches!(event, ScenarioEvent::ByzantineConvert { .. }))
    }

    /// Whether the timeline issues lookup traffic. When false the runner
    /// builds no traffic driver and the report carries no traffic series —
    /// non-traffic runs pay nothing (the analogue of the dead-descriptor and
    /// attack-metric early-outs).
    pub fn has_traffic(&self) -> bool {
        self.events
            .iter()
            .any(|event| matches!(event, ScenarioEvent::TrafficPhase { .. }))
    }

    /// Whether the timeline contains regional connectivity events (outages or
    /// slow links). Such timelines require a [`LatencyModel::Wan`] link model,
    /// since regions only exist under a node placement.
    pub(crate) fn has_regional_events(&self) -> bool {
        self.events.iter().any(|event| {
            matches!(
                event,
                ScenarioEvent::RegionalOutage { .. } | ScenarioEvent::SlowLinks { .. }
            )
        })
    }

    /// The regional outages on the timeline, as `(phase, region, loss)`
    /// triples in timeline order. The traffic layer replays these to fail
    /// lookups touching an outaged region at service level.
    pub(crate) fn regional_outages(&self) -> impl Iterator<Item = (Phase, u32, f64)> + '_ {
        self.events.iter().filter_map(|event| match event {
            ScenarioEvent::RegionalOutage {
                phase,
                region,
                loss,
            } => Some((*phase, *region, *loss)),
            _ => None,
        })
    }

    /// The slow-link windows on the timeline, as `(phase, region, factor)`
    /// triples in timeline order (`region == None` slows every link).
    pub(crate) fn slow_link_windows(&self) -> impl Iterator<Item = (Phase, Option<u32>, f64)> + '_ {
        self.events.iter().filter_map(|event| match event {
            ScenarioEvent::SlowLinks {
                phase,
                region,
                factor,
            } => Some((*phase, *region, *factor)),
            _ => None,
        })
    }

    /// The traffic phases on the timeline, as `(phase, lookups_per_cycle,
    /// key_dist)` triples in timeline order.
    pub(crate) fn traffic_phases(&self) -> impl Iterator<Item = (Phase, u32, KeyDist)> + '_ {
        self.events.iter().filter_map(|event| match event {
            ScenarioEvent::TrafficPhase {
                phase,
                lookups_per_cycle,
                key_dist,
            } => Some((*phase, *lookups_per_cycle, *key_dist)),
            _ => None,
        })
    }

    /// The Byzantine conversion on the timeline compiled to an
    /// [`AdversaryModel`] (its converted set still empty — the churn layer
    /// fills it when the conversion fires), or `None` on honest timelines.
    pub(crate) fn build_adversary(&self) -> Option<AdversaryModel> {
        self.events.iter().find_map(|event| match event {
            ScenarioEvent::ByzantineConvert {
                phase, behavior, ..
            } => Some(AdversaryModel::new(phase.start, phase.end, *behavior)),
            _ => None,
        })
    }

    /// Whether any scenario transition (a one-shot firing, a window opening or
    /// a finite window closing) still lies strictly after `cycle`. The runner
    /// refuses to stop at perfection while this holds — a network that
    /// converges at cycle 8 must still face the catastrophe scheduled for
    /// cycle 12.
    pub(crate) fn changes_after(&self, cycle: u64) -> bool {
        self.events
            .iter()
            .any(|event| event.last_transition() > cycle && event.last_transition() != u64::MAX)
    }

    /// The events that first take effect exactly at `cycle` (used for
    /// [`Observer::on_scenario_event`] notifications).
    pub(crate) fn events_starting_at(&self, cycle: u64) -> impl Iterator<Item = &ScenarioEvent> {
        self.events
            .iter()
            .filter(move |event| event.starts_at() == cycle)
    }

    /// Validates every event and the mutual-exclusion rules: loss windows must
    /// not overlap each other (the active probability would be ambiguous), and
    /// partition windows must not overlap each other.
    ///
    /// # Errors
    ///
    /// Returns the typed [`InvalidParams`] variant describing the first
    /// violation: [`InvalidParams::OutOfRange`] for probabilities, rates and
    /// fractions outside `[0, 1]`, [`InvalidParams::EmptyWindow`] for windows
    /// with `start >= end`, and [`InvalidParams::OverlappingPhases`] for
    /// overlapping exclusive windows.
    pub(crate) fn validate(&self) -> Result<(), InvalidParams> {
        for event in &self.events {
            event.validate()?;
        }
        self.check_exclusive("loss", |event| {
            matches!(event, ScenarioEvent::LossWindow { .. })
        })?;
        self.check_exclusive("partition", |event| {
            matches!(event, ScenarioEvent::Partition { .. })
        })?;
        // Overlapping traffic phases would make the active arrival rate
        // ambiguous, exactly like overlapping loss windows.
        self.check_exclusive("traffic", |event| {
            matches!(event, ScenarioEvent::TrafficPhase { .. })
        })?;
        // A run has one adversary model: two conversions with different
        // behaviours would need per-node behaviour tracking the engines do not
        // (yet) implement, so reject the ambiguity outright.
        if self
            .events
            .iter()
            .filter(|event| matches!(event, ScenarioEvent::ByzantineConvert { .. }))
            .count()
            > 1
        {
            return Err(InvalidParams::from_message(
                "at most one byzantine conversion per scenario",
            ));
        }
        Ok(())
    }

    fn check_exclusive(
        &self,
        kind: &'static str,
        select: impl Fn(&ScenarioEvent) -> bool,
    ) -> Result<(), InvalidParams> {
        let phases: Vec<Phase> = self
            .events
            .iter()
            .filter(|event| select(event))
            .map(|event| match event {
                ScenarioEvent::LossWindow { phase, .. }
                | ScenarioEvent::ChurnBurst { phase, .. }
                | ScenarioEvent::Partition { phase, .. }
                | ScenarioEvent::TrafficPhase { phase, .. } => *phase,
                _ => unreachable!("one-shot events are never exclusive-window kinds"),
            })
            .collect();
        for (i, first) in phases.iter().enumerate() {
            for second in &phases[i + 1..] {
                if first.overlaps(second) {
                    return Err(InvalidParams::OverlappingPhases {
                        kind,
                        first: (first.start, first.end),
                        second: (second.start, second.end),
                    });
                }
            }
        }
        Ok(())
    }

    /// Compiles the timeline's connectivity events — loss, partition,
    /// regional outage and slow-link windows — into the [`Transport`] both
    /// engines run on, over the link model `latency`, for a network of
    /// `network_size` initial nodes. The engines drive its clock through
    /// [`Transport::advance_to_cycle`].
    ///
    /// `placement` must be the shared value of
    /// [`LatencyModel::build_placement`] for this run (or `None` for the
    /// placement-free models).
    pub(crate) fn build_transport(
        &self,
        network_size: usize,
        latency: &LatencyModel,
        placement: Option<&Arc<Placement>>,
        seed: u64,
    ) -> Transport {
        let mut transport = Transport::new(*latency, placement.cloned(), seed);
        for event in &self.events {
            transport = match *event {
                ScenarioEvent::LossWindow { phase, probability } => {
                    transport.with_loss_window(phase.start, phase.end, probability)
                }
                ScenarioEvent::Partition { phase, ref groups } => transport.with_partition_window(
                    phase.start,
                    phase.end,
                    groups.group_map(network_size),
                ),
                ScenarioEvent::RegionalOutage {
                    phase,
                    region,
                    loss,
                } => transport.with_outage_window(phase.start, phase.end, region, loss),
                ScenarioEvent::SlowLinks {
                    phase,
                    region,
                    factor,
                } => transport.with_slow_window(phase.start, phase.end, region, factor),
                _ => transport,
            };
        }
        transport
    }

    /// Compiles the timeline's membership, recovery and conversion events
    /// into the [`Churn`] both engines apply at cycle boundaries — empty when
    /// none is present. Steps keep timeline order, so within one cycle a join
    /// listed before a failure exposes the joiners to that failure, and a
    /// re-bootstrap listed after a failure re-initialises only the survivors.
    pub(crate) fn build_churn(&self) -> Churn {
        Churn::new(self.events.iter().filter_map(|event| match *event {
            ScenarioEvent::ChurnBurst { phase, rate } => Some(ChurnStep::Replace {
                start: phase.start,
                end: phase.end,
                fraction: rate,
            }),
            ScenarioEvent::CatastrophicFailure { at_cycle, fraction } => Some(ChurnStep::Kill {
                at: at_cycle,
                fraction,
            }),
            ScenarioEvent::MassiveJoin { at_cycle, count } => Some(ChurnStep::Join {
                at: at_cycle,
                count,
            }),
            ScenarioEvent::ReBootstrap { at_cycle, fraction } => Some(ChurnStep::ReBootstrap {
                at: at_cycle,
                fraction,
            }),
            ScenarioEvent::ByzantineConvert {
                phase, fraction, ..
            } => Some(ChurnStep::Convert {
                at: phase.start,
                fraction,
            }),
            _ => None,
        }))
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.events.is_empty() {
            return write!(f, "calm");
        }
        for (position, event) in self.events.iter().enumerate() {
            if position > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{event}")?;
        }
        Ok(())
    }
}

/// Which simulation engine drives a run. All three engines execute the same
/// protocol over the same [`Scenario`] timeline behind the same
/// [`Experiment`](crate::experiment::Experiment) entry point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Engine {
    /// The cycle-driven engine — the execution model under which all of the
    /// paper's results were produced (PeerSim's cycle mode) — on every core
    /// the host offers, capped at the network size. One core runs the cycle
    /// inline, with no worker spawned; more stream each cycle's exchanges to
    /// workers. Output is bit-for-bit the same at any core count.
    #[default]
    Cycle,
    /// The cycle-driven engine on exactly `threads` threads: for measuring
    /// scaling and for comparing thread counts. Bit-for-bit identical output
    /// to [`Engine::Cycle`] at any count.
    ParallelCycle {
        /// Number of threads (at least 1, at most the network size; 1 runs
        /// each cycle inline on the calling thread).
        threads: usize,
    },
    /// The discrete-event engine: nodes wake on timers at random phases
    /// within Δ, messages travel with per-link latency, replies can arrive
    /// cycles after their request. Used to confirm the protocol's behaviour
    /// is not an artifact of the synchronous cycle abstraction. Like
    /// [`Engine::Cycle`] it runs on every core, capped at the network size:
    /// the handlers run in event order on the calling thread and their table
    /// work streams to workers. Output is bit-for-bit the same at any core
    /// count; the trace is its own, not the cycle engine's.
    Event {
        /// The per-link latency model.
        latency: LatencyModel,
    },
}

impl Engine {
    /// The thread count this engine pins (1 for `Cycle` and `Event`, which
    /// resolve their own per run).
    pub(crate) fn threads(&self) -> usize {
        match *self {
            Engine::ParallelCycle { threads } => threads,
            _ => 1,
        }
    }

    /// A short machine-readable name (used in report JSON and artifacts).
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Cycle => "cycle",
            Engine::ParallelCycle { .. } => "parallel_cycle",
            Engine::Event { .. } => "event",
        }
    }

    /// Validates the selection.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] for a zero thread count or an inverted
    /// latency range.
    pub(crate) fn validate(&self) -> Result<(), InvalidParams> {
        match self {
            Engine::Cycle => Ok(()),
            Engine::ParallelCycle { threads } => {
                if *threads == 0 {
                    Err(InvalidParams::from_message("threads must be positive"))
                } else {
                    Ok(())
                }
            }
            Engine::Event { latency } => latency.validate(),
        }
    }
}

/// A pluggable run observer: the one interface behind which the closure
/// observers of `CycleEngine::run_with_observer` and the benchmark binaries'
/// ad-hoc series collection are unified.
///
/// Every cycle produces one [`Observer::on_cycle`] call, after its
/// convergence is measured; scenario transitions produce
/// [`Observer::on_scenario_event`] calls. Both engines drive observers
/// identically.
pub trait Observer {
    /// Called after every measured cycle with the network-wide convergence
    /// state. Return [`ControlFlow::Break`] to stop the run early.
    fn on_cycle(&mut self, cycle: u64, measured: &NetworkConvergence) -> ControlFlow<()> {
        let _ = (cycle, measured);
        ControlFlow::Continue(())
    }

    /// Called when a scenario event first takes effect (a window opens or a
    /// one-shot fires).
    fn on_scenario_event(&mut self, cycle: u64, event: &ScenarioEvent) {
        let _ = (cycle, event);
    }
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct NullObserver;

impl Observer for NullObserver {}

/// Every closure over `(cycle, measurement)` is an observer.
impl<F> Observer for F
where
    F: FnMut(u64, &NetworkConvergence) -> ControlFlow<()>,
{
    fn on_cycle(&mut self, cycle: u64, measured: &NetworkConvergence) -> ControlFlow<()> {
        self(cycle, measured)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The timeline the `drop_probability` builder setter desugars to.
    fn whole_run_loss(probability: f64) -> Scenario {
        let mut scenario = Scenario::calm();
        scenario.set_whole_run_loss(probability);
        scenario
    }

    #[test]
    fn phases_know_their_geometry() {
        let phase = Phase::new(5, 10);
        assert!(phase.contains(5));
        assert!(phase.contains(9));
        assert!(!phase.contains(10));
        assert!(phase.overlaps(&Phase::new(9, 20)));
        assert!(!phase.overlaps(&Phase::new(10, 20)));
        assert!(Phase::whole_run().contains(u64::MAX - 1));
        assert_eq!(Phase::new(0, 4).to_string(), "[0, 4)");
        assert_eq!(Phase::new(2, u64::MAX).to_string(), "[2, ∞)");
    }

    #[test]
    fn sugar_constructors_desugar_to_whole_run_windows() {
        let loss = whole_run_loss(0.2);
        assert_eq!(loss.events.len(), 1);
        assert!(!loss.perturbs_membership());

        // A zero knob produces a calm timeline (so no RNG is ever drawn).
        assert!(whole_run_loss(0.0).events.is_empty());

        // Setting the knob twice replaces, like the old scalar field; a scoped
        // window stays where it was.
        let scoped = ScenarioEvent::LossWindow {
            phase: Phase::new(0, 10),
            probability: 0.3,
        };
        let mut replaced = whole_run_loss(0.5).with(scoped.clone());
        replaced.set_whole_run_loss(0.1);
        let moved = Scenario::calm()
            .with(scoped.clone())
            .with(ScenarioEvent::LossWindow {
                phase: Phase::whole_run(),
                probability: 0.1,
            });
        assert_eq!(replaced, moved);
        replaced.set_whole_run_loss(0.0);
        assert_eq!(replaced, Scenario::calm().with(scoped));
    }

    #[test]
    fn validation_rejects_bad_timelines() {
        // Out-of-range probability: the old code silently clamped this.
        let too_lossy = whole_run_loss(1.5);
        assert_eq!(
            too_lossy.validate(),
            Err(InvalidParams::OutOfRange {
                field: "loss probability",
                value: 1.5,
                min: 0.0,
                max: 1.0,
            })
        );
        // Zero-length window.
        let empty = Scenario::calm().with(ScenarioEvent::ChurnBurst {
            phase: Phase::new(7, 7),
            rate: 0.1,
        });
        assert_eq!(
            empty.validate(),
            Err(InvalidParams::EmptyWindow {
                field: "churn",
                start: 7,
                end: 7,
            })
        );
        // Overlapping exclusive loss windows.
        let overlapping = Scenario::calm()
            .with(ScenarioEvent::LossWindow {
                phase: Phase::new(0, 10),
                probability: 0.1,
            })
            .with(ScenarioEvent::LossWindow {
                phase: Phase::new(9, 20),
                probability: 0.4,
            });
        assert_eq!(
            overlapping.validate(),
            Err(InvalidParams::OverlappingPhases {
                kind: "loss",
                first: (0, 10),
                second: (9, 20),
            })
        );
        // Adjacent windows are fine.
        let adjacent = Scenario::calm()
            .with(ScenarioEvent::LossWindow {
                phase: Phase::new(0, 10),
                probability: 0.1,
            })
            .with(ScenarioEvent::LossWindow {
                phase: Phase::new(10, 20),
                probability: 0.4,
            });
        assert!(adjacent.validate().is_ok());
        // Churn bursts may stack (they compose additively).
        let stacked = Scenario::calm()
            .with(ScenarioEvent::ChurnBurst {
                phase: Phase::whole_run(),
                rate: 0.01,
            })
            .with(ScenarioEvent::ChurnBurst {
                phase: Phase::new(5, 10),
                rate: 0.2,
            });
        assert!(stacked.validate().is_ok());
        // Degenerate one-shots.
        assert!(Scenario::calm()
            .with(ScenarioEvent::MassiveJoin {
                at_cycle: 3,
                count: 0
            })
            .validate()
            .is_err());
        assert!(Scenario::calm()
            .with(ScenarioEvent::CatastrophicFailure {
                at_cycle: 3,
                fraction: -0.1
            })
            .validate()
            .is_err());
        assert!(Scenario::calm()
            .with(ScenarioEvent::Partition {
                phase: Phase::new(0, 5),
                groups: PartitionSpec::Explicit(Vec::new()),
            })
            .validate()
            .is_err());
    }

    #[test]
    fn rebootstrap_perturbs_tables_but_not_membership() {
        let scenario = Scenario::calm().with(ScenarioEvent::ReBootstrap {
            at_cycle: 12,
            fraction: 1.0,
        });
        assert!(!scenario.perturbs_membership(), "membership is untouched");
        assert!(scenario.perturbs_tables(), "survivor state is wiped");
        assert!(
            !scenario.build_churn().is_empty(),
            "the recovery order still needs a step at cycle boundaries"
        );
        assert!(scenario.changes_after(11));
        assert!(!scenario.changes_after(12));
        // Validation: the fraction must lie in the unit interval.
        assert!(scenario.validate().is_ok());
        assert_eq!(
            Scenario::calm()
                .with(ScenarioEvent::ReBootstrap {
                    at_cycle: 3,
                    fraction: 1.5,
                })
                .validate(),
            Err(InvalidParams::OutOfRange {
                field: "re-bootstrap fraction",
                value: 1.5,
                min: 0.0,
                max: 1.0,
            })
        );
        // Display names the event for RunReport event logs.
        let text = scenario.events[0].to_string();
        assert!(text.contains("re-bootstrap"), "{text}");
        assert!(text.contains("100%"), "{text}");
        assert!(text.contains("cycle 12"), "{text}");
    }

    #[test]
    fn byzantine_conversion_is_membership_neutral_but_builds_a_model() {
        let scenario = Scenario::calm().with(ScenarioEvent::ByzantineConvert {
            phase: Phase::new(5, 45),
            fraction: 0.2,
            behavior: AdversaryBehavior::IdSpray { target: 7 },
        });
        assert!(scenario.validate().is_ok());
        assert!(!scenario.perturbs_membership());
        assert!(!scenario.perturbs_tables());
        assert!(scenario.has_adversary());
        assert!(
            !scenario.build_churn().is_empty(),
            "the conversion still fires at a cycle boundary"
        );
        let model = scenario.build_adversary().expect("model compiled");
        assert_eq!(model.start(), 5);
        assert_eq!(model.target(), Some(bss_sim::network::NodeIndex::new(7)));
        assert_eq!(model.converted_count(), 0, "conversion happens at runtime");
        // The attack window gates the perfection stop like any finite window.
        assert!(scenario.changes_after(44));
        assert!(!scenario.changes_after(45));
        // Display names the behaviour for RunReport event logs.
        let text = scenario.events[0].to_string();
        assert!(text.contains("byzantine"), "{text}");
        assert!(text.contains("20%"), "{text}");
        assert!(text.contains("id_spray"), "{text}");
        // Validation still applies inside the new arm.
        assert!(Scenario::calm()
            .with(ScenarioEvent::ByzantineConvert {
                phase: Phase::new(5, 5),
                fraction: 0.2,
                behavior: AdversaryBehavior::ForgeDescriptors,
            })
            .validate()
            .is_err());
        assert!(Scenario::calm()
            .with(ScenarioEvent::ByzantineConvert {
                phase: Phase::new(0, u64::MAX),
                fraction: 1.2,
                behavior: AdversaryBehavior::HubAttack,
            })
            .validate()
            .is_err());
        // At most one conversion per scenario.
        assert!(scenario
            .clone()
            .with(ScenarioEvent::ByzantineConvert {
                phase: Phase::new(50, u64::MAX),
                fraction: 0.1,
                behavior: AdversaryBehavior::HubAttack,
            })
            .validate()
            .is_err());
    }

    #[test]
    fn traffic_phases_are_condition_neutral_but_gate_the_stop() {
        let scenario = Scenario::calm().with(ScenarioEvent::TrafficPhase {
            phase: Phase::new(20, 40),
            lookups_per_cycle: 100,
            key_dist: KeyDist::Uniform,
        });
        assert!(scenario.validate().is_ok());
        assert!(scenario.has_traffic());
        assert!(!scenario.perturbs_membership());
        assert!(!scenario.perturbs_tables());
        assert!(!scenario.has_adversary());
        assert!(
            scenario.build_churn().is_empty(),
            "traffic alone changes no membership"
        );
        // A finite traffic window keeps a converged run alive until it closes.
        assert!(scenario.changes_after(19));
        assert!(scenario.changes_after(39));
        assert!(!scenario.changes_after(40));
        let phases: Vec<_> = scenario.traffic_phases().collect();
        assert_eq!(phases, vec![(Phase::new(20, 40), 100, KeyDist::Uniform)]);
        // Display names the workload for RunReport event logs.
        let text = scenario.events[0].to_string();
        assert!(text.contains("100 uniform lookups/cycle"), "{text}");
        assert_eq!(KeyDist::Zipf { exponent: 1.2 }.to_string(), "zipf(1.2)");
        // Validation: zero arrivals, bad zipf exponents and overlapping
        // windows are rejected.
        assert!(Scenario::calm()
            .with(ScenarioEvent::TrafficPhase {
                phase: Phase::new(0, 5),
                lookups_per_cycle: 0,
                key_dist: KeyDist::Uniform,
            })
            .validate()
            .is_err());
        assert!(Scenario::calm()
            .with(ScenarioEvent::TrafficPhase {
                phase: Phase::new(0, 5),
                lookups_per_cycle: 1,
                key_dist: KeyDist::Zipf { exponent: 0.0 },
            })
            .validate()
            .is_err());
        assert!(scenario
            .clone()
            .with(ScenarioEvent::TrafficPhase {
                phase: Phase::new(30, 50),
                lookups_per_cycle: 1,
                key_dist: KeyDist::Uniform,
            })
            .validate()
            .is_err());
    }

    #[test]
    fn pending_changes_gate_the_perfection_stop() {
        let scenario = Scenario::calm()
            .with(ScenarioEvent::CatastrophicFailure {
                at_cycle: 12,
                fraction: 0.5,
            })
            .with(ScenarioEvent::Partition {
                phase: Phase::new(0, 25),
                groups: PartitionSpec::IndexParity,
            });
        assert!(scenario.changes_after(0), "failure and heal still ahead");
        assert!(scenario.changes_after(11));
        assert!(scenario.changes_after(24), "the heal at 25 is a change");
        assert!(!scenario.changes_after(25));
        // Whole-run windows never block the stop (compatibility path).
        assert!(!whole_run_loss(0.2).changes_after(0));
        let churn = Scenario::calm().with(ScenarioEvent::ChurnBurst {
            phase: Phase::whole_run(),
            rate: 0.05,
        });
        assert!(!churn.changes_after(0));
    }

    #[test]
    fn compilation_splits_connectivity_from_membership() {
        let scenario = Scenario::calm()
            .with(ScenarioEvent::LossWindow {
                phase: Phase::new(0, 10),
                probability: 0.2,
            })
            .with(ScenarioEvent::Partition {
                phase: Phase::new(5, 15),
                groups: PartitionSpec::IndexParity,
            })
            .with(ScenarioEvent::MassiveJoin {
                at_cycle: 8,
                count: 16,
            });
        let transport = scenario.build_transport(4, &LatencyModel::default(), None, 0);
        assert_eq!(transport.active_loss(), 0.2);
        assert!(!transport.partition_active(), "partition starts at 5");
        assert!(!scenario.build_churn().is_empty());
        assert!(whole_run_loss(0.3).build_churn().is_empty());
    }

    #[test]
    fn engine_selection_validates_and_labels() {
        assert_eq!(Engine::default(), Engine::Cycle);
        assert_eq!(Engine::Cycle.threads(), 1);
        assert_eq!(Engine::ParallelCycle { threads: 8 }.threads(), 8);
        assert_eq!(Engine::Cycle.label(), "cycle");
        assert_eq!(
            Engine::Event {
                latency: LatencyModel::default()
            }
            .label(),
            "event"
        );
        assert!(Engine::ParallelCycle { threads: 0 }.validate().is_err());
        assert!(Engine::Event {
            latency: LatencyModel::Uniform {
                min_millis: 9,
                max_millis: 3
            }
        }
        .validate()
        .is_err());
        assert_eq!(LatencyModel::Constant { millis: 7 }.bounds(), (7, 7));
    }

    /// Records what an [`Observer`] is shown: the leaf series and the cycles
    /// at which scenario events fired (shared with `experiment::tests`).
    #[derive(Default)]
    pub(crate) struct Recording {
        pub(crate) leaf: Vec<(u64, f64)>,
        pub(crate) events: Vec<u64>,
    }

    impl Observer for Recording {
        fn on_cycle(&mut self, cycle: u64, measured: &NetworkConvergence) -> ControlFlow<()> {
            self.leaf.push((cycle, measured.leaf_proportion()));
            ControlFlow::Continue(())
        }

        fn on_scenario_event(&mut self, cycle: u64, _event: &ScenarioEvent) {
            self.events.push(cycle);
        }
    }

    #[test]
    fn observers_compose_with_recorders_and_closures() {
        let mut recorder = Recording::default();
        let convergence = NetworkConvergence::default();
        assert!(recorder.on_cycle(0, &convergence).is_continue());
        recorder.on_scenario_event(
            3,
            &ScenarioEvent::MassiveJoin {
                at_cycle: 3,
                count: 5,
            },
        );
        assert_eq!(recorder.leaf.len(), 1);
        assert_eq!(recorder.events.len(), 1);

        let mut seen = Vec::new();
        let mut closure = |cycle: u64, _m: &NetworkConvergence| {
            seen.push(cycle);
            if cycle >= 1 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        assert!(Observer::on_cycle(&mut closure, 0, &convergence).is_continue());
        assert!(Observer::on_cycle(&mut closure, 1, &convergence).is_break());
        assert_eq!(seen, vec![0, 1]);
        let _ = NullObserver.on_cycle(9, &convergence);
    }

    #[test]
    fn event_displays_are_informative() {
        let text = Scenario::calm()
            .with(ScenarioEvent::CatastrophicFailure {
                at_cycle: 2,
                fraction: 0.7,
            })
            .events[0]
            .to_string();
        assert!(text.contains("70%"));
        assert!(text.contains("cycle 2"));
        assert!(ScenarioEvent::LossWindow {
            phase: Phase::whole_run(),
            probability: 0.2
        }
        .to_string()
        .contains("20%"));
    }
}
