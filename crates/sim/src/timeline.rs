//! The one vocabulary of a run's timeline.
//!
//! The paper evaluates the bootstrapping service under a fixed menu of adverse
//! conditions — uniform message loss (Figure 4), continuous churn, catastrophic
//! failure of up to 70 % of the nodes, massive joins and network partitions
//! that later merge (§1–2, §5). A [`ScenarioEvent`] names one of them: either
//! a one-shot (catastrophic failure, massive join, re-bootstrap order) or a
//! [`Phase`]-windowed condition (loss window, churn burst, partition, …).
//!
//! The simulators read the same list of events: a
//! [`Churn`](crate::churn::Churn) keeps the membership, recovery and
//! conversion events and applies them at cycle boundaries, and a
//! [`Transport`](crate::transport::Transport) keeps the connectivity events
//! and consults them per message. Each ignores the events the other reads, and
//! both ignore traffic phases, which only the lookup driver consumes.

use crate::adversary::AdversaryBehavior;
use bss_util::config::InvalidParams;
use std::fmt;

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
    pub fn whole_run() -> Self {
        Phase {
            start: 0,
            end: u64::MAX,
        }
    }

    /// Whether `cycle` lies inside the window.
    pub fn contains(&self, cycle: u64) -> bool {
        cycle >= self.start && cycle < self.end
    }

    /// Whether this window shares at least one cycle with `other`.
    pub fn overlaps(&self, other: &Phase) -> bool {
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
    /// `probability` (the paper's Figure 4 uses 0.2 for the whole run). A
    /// dropped request also suppresses its response, but that compounding
    /// happens in the engine: the window only flips the per-message coin.
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
    /// A network partition during a window: even node indices form one
    /// group and odd indices the other, so both halves span the whole
    /// identifier space; nodes that join later belong to the even group.
    /// Messages crossing the groups are dropped while the window is active,
    /// and the halves merge when it ends (§1–2's split/merge scenario).
    Partition {
        /// When the partition is in force; its end is the merge.
        phase: Phase,
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
    /// the nodes' *current* tables (open-loop arrival; the experiment
    /// configuration selects the router). The phase is condition-neutral — it
    /// kills nobody and corrupts nothing — but it composes with every other
    /// event on the timeline: lookups routed through a churn burst or an
    /// id-spray window measure what users experience *while* the overlay
    /// degrades and recovers.
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
    /// [`LatencyModel::Wan`](crate::transport::LatencyModel::Wan) link model
    /// (regions come from its placement); lookups from or to the region fail
    /// with the same probability while the outage lasts.
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
    /// consult latency. Requires a
    /// [`LatencyModel::Wan`](crate::transport::LatencyModel::Wan) link model.
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
    pub fn starts_at(&self) -> u64 {
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
    pub fn last_transition(&self) -> u64 {
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
    /// connectivity).
    pub fn perturbs_membership(&self) -> bool {
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
    pub fn perturbs_tables(&self) -> bool {
        self.perturbs_membership() || matches!(self, ScenarioEvent::ReBootstrap { .. })
    }

    /// Checks the event on its own: probabilities, rates and fractions in
    /// `[0, 1]`, non-empty windows, positive counts.
    ///
    /// # Errors
    ///
    /// Returns the typed [`InvalidParams`] variant describing the violation.
    pub fn validate(&self) -> Result<(), InvalidParams> {
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
            ScenarioEvent::Partition { phase } => phase.validate("partition"),
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
            ScenarioEvent::Partition { phase } => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::tests::{convert, join, kill, membership_stream, rebootstrap, replace};
    use crate::churn::Churn;
    use crate::transport::tests::{decision_stream, loss, outage, slow, wan};

    #[test]
    fn churn_and_transport_each_read_their_own_events() {
        let membership = [
            replace(2, 6, 0.05),
            join(3, 20),
            kill(3, 0.3),
            convert(4, 0.2),
            rebootstrap(5, 0.5),
        ];
        let parity = ScenarioEvent::Partition {
            phase: Phase::new(0, 3),
        };
        let connectivity = [
            loss(1, 5, 0.3),
            parity,
            outage(2, 5, 1, 0.4),
            slow(3, 6, Some(2), 2.0),
        ];
        let traffic = ScenarioEvent::TrafficPhase {
            phase: Phase::new(0, 8),
            lookups_per_cycle: 10,
            key_dist: KeyDist::Uniform,
        };
        // Every kind, the two families interleaved around a traffic phase;
        // each family keeps its own order.
        let [burst, join, failure, convert, rebootstrap] = &membership;
        let [loss, partition, outage, slow] = &connectivity;
        let mixed = [
            loss,
            burst,
            partition,
            join,
            &traffic,
            failure,
            outage,
            convert,
            slow,
            rebootstrap,
        ];

        let churn = membership_stream(Churn::new(mixed));
        assert_eq!(churn, membership_stream(Churn::new(&membership)));
        assert_ne!(churn, membership_stream(Churn::default()));

        let decisions = |timeline: &[&ScenarioEvent]| {
            decision_stream(wan(20).with_timeline(timeline.iter().copied(), 16), 20)
        };
        let mixed = decisions(&mixed);
        assert_eq!(mixed, decisions(&connectivity.each_ref()));
        assert_ne!(mixed, decisions(&[]));
    }
}
