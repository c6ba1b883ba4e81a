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
//!   condition (loss window, churn burst, partition). The events, [`Phase`]
//!   and [`KeyDist`] live in [`bss_sim::timeline`] and are re-exported here;
//!   the run hands the one list to the simulators, whose
//!   [`Churn`](bss_sim::churn::Churn) and
//!   [`Transport`](bss_sim::transport::Transport) each read their own events,
//!   and to the lookup driver, which reads the traffic phases;
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
use bss_util::config::InvalidParams;
use std::fmt;
use std::ops::ControlFlow;

pub use bss_sim::adversary::{AdversaryBehavior, AdversaryModel};
pub use bss_sim::link::WanParams;
pub use bss_sim::timeline::{KeyDist, Phase, ScenarioEvent};
pub use bss_sim::transport::LatencyModel;
pub use bss_util::coords::PlacementSpec;

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

    /// The events, in timeline order.
    pub(crate) fn events(&self) -> &[ScenarioEvent] {
        &self.events
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
    use bss_sim::churn::Churn;

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
        assert!(!loss.events[0].perturbs_membership());

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
    }

    #[test]
    fn rebootstrap_perturbs_tables_but_not_membership() {
        let scenario = Scenario::calm().with(ScenarioEvent::ReBootstrap {
            at_cycle: 12,
            fraction: 1.0,
        });
        assert!(
            !scenario.events()[0].perturbs_membership(),
            "membership is untouched"
        );
        assert!(scenario.perturbs_tables(), "survivor state is wiped");
        assert!(
            !Churn::new(scenario.events()).is_empty(),
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
        assert!(!scenario.events()[0].perturbs_membership());
        assert!(!scenario.perturbs_tables());
        assert!(scenario.has_adversary());
        assert!(
            !Churn::new(scenario.events()).is_empty(),
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
        assert!(!scenario.events()[0].perturbs_membership());
        assert!(!scenario.perturbs_tables());
        assert!(!scenario.has_adversary());
        assert!(
            Churn::new(scenario.events()).is_empty(),
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
