//! A batteries-included, engine-agnostic experiment runner.
//!
//! [`Experiment`] wires together everything a single simulation run needs — the
//! network registry, the selected engine, the scenario timeline's transport and
//! churn models, the peer sampling layer and the bootstrap protocol — and
//! records, cycle by cycle, the proportion of missing leaf-set and prefix-table
//! entries (the series plotted in the paper's Figures 3 and 4). The examples,
//! the integration tests and the benchmark harness are all thin wrappers around
//! this module.
//!
//! The heart of the module is [`Experiment::run_observed`]: one entry point
//! that drives a `BootstrapProtocol` through an [`ExperimentConfig`]'s
//! [`Scenario`] on whichever [`Engine`] the configuration selects — the
//! deterministic cycle engine, on every core or on a pinned thread count, or
//! the discrete-event engine with per-link latency — reporting to a pluggable
//! [`Observer`] and returning one serializable [`RunReport`].

use crate::compact::CompactNode;
use crate::convergence::{ConvergenceOracle, ConvergenceTracker, NetworkConvergence};
use crate::node::BootstrapNode;
use crate::protocol::{BootstrapMessage, BootstrapProtocol, TrafficStats};
use crate::routing::RouterKind;
use crate::scenario::{Engine, LatencyModel, NullObserver, Observer, Scenario, ScenarioEvent};
use crate::traffic::{LookupTraffic, LookupTrafficReport};
use bss_sampling::newscast::NewscastProtocol;
use bss_sampling::sampler::{OracleSampler, PeerSampler};
use bss_sim::churn::Churn;
use bss_sim::engine::cycle::{CycleEngine, EngineContext, PhaseProfile};
use bss_sim::engine::event::EventEngine;
use bss_sim::network::{Network, NodeIndex};
use bss_sim::transport::Transport;
use bss_util::config::{BootstrapParams, InvalidParams, NewscastParams};
use bss_util::coords::Placement;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use bss_util::stats::{JsonObject, Series};
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Which peer sampling implementation an experiment runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerChoice {
    /// The idealised, globally uniform sampler (isolates the bootstrap protocol
    /// from sampling quality; this is also the closest match to the paper's
    /// assumption that the sampling service is "already functional").
    Oracle,
    /// A real NEWSCAST instance gossiping underneath the bootstrap protocol.
    Newscast(NewscastParams),
}

/// Full description of one simulation run: *what* is simulated (network size,
/// protocol parameters, sampler), *what happens to it* (the
/// [`Scenario`] timeline) and *how it executes* (the [`Engine`] selection).
///
/// One scalar builder setter is sugar:
/// [`drop_probability`](ExperimentConfigBuilder::drop_probability) installs a
/// whole-run loss window.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Number of nodes in the network.
    pub network_size: usize,
    /// Seed for the deterministic random number generator.
    pub seed: u64,
    /// Bootstrapping-service parameters (`b`, `k`, `c`, `cr`, Δ).
    pub params: BootstrapParams,
    /// Peer sampling implementation.
    pub sampler: SamplerChoice,
    /// The timeline of adverse conditions applied during the run.
    pub scenario: Scenario,
    /// Which routing substrate resolves the lookups of the scenario's traffic
    /// phases (ignored — and free — when the scenario schedules none).
    pub traffic_router: RouterKind,
    /// Which engine executes the run.
    pub engine: Engine,
    /// The link model every engine consults per `(src, dst)` message: latency
    /// on the event engine, structural loss everywhere, and — with
    /// [`LatencyModel::Wan`] — the node placement that defines regions for
    /// regional scenario events and per-region report series. `None` falls
    /// back to the event engine's latency selection (or a constant model on
    /// the cycle engines), which keeps legacy configurations byte-identical.
    pub link: Option<LatencyModel>,
    /// Hard cycle budget.
    pub max_cycles: u64,
    /// Stop as soon as every node's tables are perfect (the paper's termination
    /// rule). When false the run always uses the full cycle budget. The stop
    /// never triggers while a scenario transition still lies ahead.
    pub stop_when_perfect: bool,
    /// Accumulate per-phase wall time (plan / execute / commit / measure) on
    /// any engine and attach it to the [`RunReport`]. Off by default: timing
    /// is observational only — it never changes the simulated outcome — but
    /// costs clock reads around every hand-off between threads.
    pub profile: bool,
}

impl ExperimentConfig {
    /// Starts building a configuration from sensible defaults (256 nodes, paper
    /// parameters, oracle sampling, calm scenario, cycle engine, 100-cycle
    /// budget).
    pub fn builder() -> ExperimentConfigBuilder {
        ExperimentConfigBuilder {
            config: ExperimentConfig {
                network_size: 256,
                seed: 0,
                params: BootstrapParams::paper_default(),
                sampler: SamplerChoice::Oracle,
                scenario: Scenario::calm(),
                traffic_router: RouterKind::Pastry,
                engine: Engine::Cycle,
                link: None,
                max_cycles: 100,
                stop_when_perfect: true,
                profile: false,
            },
            aging_sugar: None,
        }
    }

    /// The thread count the engine selection pins: `ParallelCycle`'s, else 1.
    /// [`Engine::Cycle`] and [`Engine::Event`] resolve their count from the
    /// host's cores inside each run, so this — the value the report's
    /// `"threads"` field echoes — does not depend on the host.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// The link model in force for this run: the explicit [`link`] selection
    /// when present, else the event engine's latency model, else the default
    /// constant model — exactly what the pre-topology code charged.
    ///
    /// [`link`]: ExperimentConfig::link
    pub fn link_model(&self) -> LatencyModel {
        if let Some(model) = self.link {
            return model;
        }
        match self.engine {
            Engine::Event { latency } => latency,
            _ => LatencyModel::default(),
        }
    }

    /// The node placement of the run's link model, shared by the transport,
    /// the measurement layer and the traffic driver. `None` for the
    /// placement-free (constant/uniform) models. Coordinates come from a
    /// salted private stream, so building the placement never perturbs the
    /// run's main RNG.
    pub(crate) fn placement(&self) -> Option<Arc<Placement>> {
        self.link_model()
            .build_placement(self.network_size, self.seed)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] when the protocol parameters are invalid or
    /// allow tables the packed node store cannot index (`c` or
    /// `rows · columns · k` beyond `u16::MAX`), the
    /// network has fewer than two nodes or more than a `u32` index can count,
    /// the cycle budget is zero, the engine selection is invalid or asks
    /// for more threads than there are nodes, or the scenario timeline is rejected
    /// (out-of-range probabilities, empty windows, overlapping exclusive
    /// phases — see `Scenario::validate`).
    pub fn validate(&self) -> Result<(), InvalidParams> {
        self.params.validate()?;
        CompactNode::check_shape(&self.params)?;
        if let SamplerChoice::Newscast(p) = self.sampler {
            p.validate()?;
        }
        if self.network_size < 2 {
            return Err(InvalidParams::from_message(
                "network_size must be at least 2",
            ));
        }
        // Node indices and packed descriptor addresses are `u32`.
        if u32::try_from(self.network_size).is_err() {
            return Err(InvalidParams::OutOfRange {
                field: "network_size",
                value: self.network_size as f64,
                min: 2.0,
                max: f64::from(u32::MAX),
            });
        }
        if self.max_cycles == 0 {
            return Err(InvalidParams::from_message("max_cycles must be positive"));
        }
        self.engine.validate()?;
        // At most N/2 disjoint exchanges run at once, so workers beyond the
        // node count could only idle (and a large enough count aborts on spawn).
        if self.threads() > self.network_size {
            return Err(InvalidParams::OutOfRange {
                field: "threads",
                value: self.threads() as f64,
                min: 1.0,
                max: self.network_size as f64,
            });
        }
        self.scenario.validate()?;
        self.link_model().validate()?;
        // Regional connectivity events only mean something under a placement:
        // without a Wan link model no region exists to outage or slow down,
        // so the event would silently do nothing. A region the placement
        // never populates would likewise be a silent no-op: reject it while
        // both are in scope.
        let regions = self
            .link_model()
            .placement_spec()
            .map(|spec| spec.region_count());
        for event in self.scenario.events() {
            let (field, region) = match *event {
                ScenarioEvent::RegionalOutage { region, .. } => {
                    ("regional outage region", Some(region))
                }
                ScenarioEvent::SlowLinks { region, .. } => ("slow links region", region),
                _ => continue,
            };
            let Some(regions) = regions else {
                return Err(InvalidParams::from_message(
                    "regional scenario events require a wan link model (regions only exist under a node placement)",
                ));
            };
            if let Some(region) = region.filter(|&region| region >= regions) {
                return Err(InvalidParams::OutOfRange {
                    field,
                    value: f64::from(region),
                    min: 0.0,
                    max: f64::from(regions.saturating_sub(1)),
                });
            }
        }
        // An id-spray attack names its eclipse target by node index; a target
        // outside the registry would silently never act, so reject it here
        // (typed, no clamping) while the network size is in scope.
        if let Some(target) = self.scenario.build_adversary().and_then(|m| m.target()) {
            if target.as_usize() >= self.network_size {
                return Err(InvalidParams::NodeOutOfBounds {
                    field: "id_spray target",
                    node: target.as_usize() as u64,
                    network_size: self.network_size as u64,
                });
            }
        }
        Ok(())
    }
}

/// Non-consuming builder for [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct ExperimentConfigBuilder {
    config: ExperimentConfig,
    /// The bound the [`ExperimentConfigBuilder::descriptor_max_age`] sugar was
    /// last called with, resolved into the configuration by
    /// [`ExperimentConfigBuilder::build`] — so it composes with `params()` and
    /// `sampler()` in any call order.
    aging_sugar: Option<Option<u64>>,
}

impl ExperimentConfigBuilder {
    /// Sets the number of nodes.
    pub fn network_size(&mut self, n: usize) -> &mut Self {
        self.config.network_size = n;
        self
    }

    /// Sets the random seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Sets the bootstrapping-service parameters.
    pub fn params(&mut self, params: BootstrapParams) -> &mut Self {
        self.config.params = params;
        self
    }

    /// Selects the peer sampling implementation.
    pub fn sampler(&mut self, sampler: SamplerChoice) -> &mut Self {
        self.config.sampler = sampler;
        self
    }

    /// Sugar: sets (or, with `None`, disables) the descriptor aging bound on
    /// the protocol parameters — the failure detector that lets
    /// post-catastrophe scenarios recover — whatever `params()` calls come
    /// before or after. With a NEWSCAST sampler the same bound is applied to
    /// the sampler's views, unless the selected
    /// [`NewscastParams::descriptor_max_age`](bss_util::config::NewscastParams)
    /// carries an explicit bound of its own.
    pub fn descriptor_max_age(&mut self, max_age: Option<u64>) -> &mut Self {
        self.aging_sugar = Some(max_age);
        self
    }

    /// Replaces the scenario timeline wholesale.
    pub fn scenario(&mut self, scenario: Scenario) -> &mut Self {
        self.config.scenario = scenario;
        self
    }

    /// Appends one event to the scenario timeline.
    pub fn event(&mut self, event: crate::scenario::ScenarioEvent) -> &mut Self {
        self.config.scenario = std::mem::take(&mut self.config.scenario).with(event);
        self
    }

    /// Selects the routing substrate the scenario's traffic phases resolve
    /// their lookups with (Pastry-style greedy prefix descent by default).
    pub fn traffic_router(&mut self, router: RouterKind) -> &mut Self {
        self.config.traffic_router = router;
        self
    }

    /// Selects the engine executing the run.
    pub fn engine(&mut self, engine: Engine) -> &mut Self {
        self.config.engine = engine;
        self
    }

    /// Selects the link model explicitly (see [`ExperimentConfig::link`]).
    /// Required for [`LatencyModel::Wan`] on the cycle engines, where no
    /// event-engine latency selection exists to infer it from.
    pub fn link_model(&mut self, model: LatencyModel) -> &mut Self {
        self.config.link = Some(model);
        self
    }

    /// Legacy sugar: sets the per-message drop probability by installing (or,
    /// at zero, removing) a whole-run loss window on the scenario timeline.
    pub fn drop_probability(&mut self, p: f64) -> &mut Self {
        self.config.scenario.set_whole_run_loss(p);
        self
    }

    /// Sets the cycle budget.
    pub fn max_cycles(&mut self, cycles: u64) -> &mut Self {
        self.config.max_cycles = cycles;
        self
    }

    /// Controls whether the run stops at perfect convergence.
    pub fn stop_when_perfect(&mut self, stop: bool) -> &mut Self {
        self.config.stop_when_perfect = stop;
        self
    }

    /// Enables per-phase wall-time profiling on the cycle engines (see
    /// [`ExperimentConfig::profile`]).
    pub fn profile(&mut self, profile: bool) -> &mut Self {
        self.config.profile = profile;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] when [`ExperimentConfig::validate`] fails.
    pub fn build(&self) -> Result<ExperimentConfig, InvalidParams> {
        let mut config = self.config.clone();
        if let Some(max_age) = self.aging_sugar {
            config.params.descriptor_max_age = max_age;
            if let SamplerChoice::Newscast(ref mut newscast) = config.sampler {
                newscast.descriptor_max_age = newscast.descriptor_max_age.or(max_age);
            }
        }
        config.validate()?;
        Ok(config)
    }
}

/// End-of-run proximity statistics of the converged overlay under a WAN
/// placement: how geographically close the links nodes actually keep are,
/// against a seeded random-pairs baseline over the same population. A
/// bootstrap service that fills leaf sets purely by identifier distance
/// should land near the baseline (identifiers are location-blind); a ratio
/// well below 1 would indicate locality bias.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProximityReport {
    /// Mean coordinate distance over every stored leaf-set link.
    pub mean_leaf_distance: f64,
    /// Mean coordinate distance over the same number of random alive pairs,
    /// drawn from a salted private stream.
    pub mean_random_distance: f64,
    /// Number of leaf-set links measured.
    pub leaf_links: u64,
}

impl ProximityReport {
    /// `mean_leaf_distance / mean_random_distance` (0 when the baseline is
    /// degenerate).
    pub fn ratio(&self) -> f64 {
        if self.mean_random_distance == 0.0 {
            0.0
        } else {
            self.mean_leaf_distance / self.mean_random_distance
        }
    }
}

/// The names — JSON keys — of the per-measured-cycle series every run
/// records, in report order. WAN runs add `leaf_series_r<region>` after them;
/// traffic runs carry theirs on [`RunReport::lookups`]
/// ([`LOOKUP_SERIES_KEYS`](crate::traffic::LOOKUP_SERIES_KEYS)).
///
/// * `leaf_series`, `prefix_series` — the proportion of missing leaf-set and
///   prefix-table entries (Figure 3/4, top and bottom panels);
/// * `dead_series` — the fraction of stored descriptors (leaf sets and prefix
///   tables over every alive node) that point at dead nodes, the recovery
///   metric of the post-catastrophe scenarios;
/// * `poisoned_series` — the fraction of stored descriptors whose address is
///   a converted adversary;
/// * `eclipse_series` — the fraction of the eclipse target's leaf-set slots
///   held by adversarial addresses (zero unless the adversary names a target:
///   the id-spray behaviour);
/// * `in_degree_mean_series`, `in_degree_max_series`, `in_degree_gini_series`,
///   `dead_pointer_series` — the sampling overlay's mean and largest
///   in-degree (a hub attack spikes the latter), the Gini coefficient of its
///   in-degree distribution (0 balanced, → 1 hub) and the fraction of view
///   entries pointing at departed nodes. Empty when the sampler maintains no
///   overlay to measure (the oracle).
pub(crate) const SERIES_KEYS: [&str; 9] = [
    "leaf_series",
    "prefix_series",
    "dead_series",
    "poisoned_series",
    "eclipse_series",
    "in_degree_mean_series",
    "in_degree_max_series",
    "in_degree_gini_series",
    "dead_pointer_series",
];

/// The serializable result of one simulation run, produced identically by all
/// engines and consumed by every experiment binary, the lookup evaluator and
/// the examples. It keeps typed fields for what code branches on; every
/// per-cycle curve is a named [`Series`] read through [`RunReport::series`].
#[derive(Debug, Clone)]
pub struct RunReport {
    config: ExperimentConfig,
    /// [`SERIES_KEYS`], then one `leaf_series_r<region>` per placement region.
    series: Vec<Series>,
    convergence_cycle: Option<u64>,
    degraded_cycle: Option<u64>,
    recovered_cycle: Option<u64>,
    time_to_eclipse: Option<u64>,
    cycles_executed: u64,
    final_state: NetworkConvergence,
    traffic: TrafficStats,
    lookups: Option<LookupTrafficReport>,
    proximity: Option<ProximityReport>,
    events_fired: Vec<(u64, String)>,
    phase_profile: Option<PhaseProfile>,
}

impl RunReport {
    /// The configuration that produced this report.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Per-cycle proportion of missing leaf-set entries (Figure 3/4, top panels).
    pub fn leaf_series(&self) -> &Series {
        &self.series[0]
    }

    /// Per-cycle proportion of missing prefix-table entries (Figure 3/4, bottom
    /// panels).
    pub fn prefix_series(&self) -> &Series {
        &self.series[1]
    }

    /// Every series of the run in the order [`RunReport::to_json`] writes
    /// them: the run's own, then the lookup traffic's.
    fn all_series(&self) -> impl Iterator<Item = &Series> {
        let lookups = self.lookups.iter().flat_map(|l| l.all_series());
        self.series.iter().chain(lookups)
    }

    /// The series written out as `name`: one of `SERIES_KEYS`,
    /// `leaf_series_r<region>` under a WAN link model (position `r` is region
    /// `r`; cost-free and absent without a placement), or one of the lookup
    /// traffic's when a traffic phase was scheduled.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.all_series().find(|series| series.name() == name)
    }

    /// The first measured cycle at which the eclipse target's leaf set was
    /// *entirely* adversarial (eclipse fraction at 1.0) — the attack's
    /// time-to-eclipse. `None` when the eclipse never completed (or no attack
    /// targeted a node).
    pub fn time_to_eclipse(&self) -> Option<u64> {
        self.time_to_eclipse
    }

    /// Whether the eclipse completed at some measured cycle.
    pub fn eclipsed(&self) -> bool {
        self.time_to_eclipse.is_some()
    }

    /// The first measured cycle at which stale (dead-node) descriptors
    /// appeared in the tables — typically the catastrophe cycle.
    pub fn degraded_cycle(&self) -> Option<u64> {
        self.degraded_cycle
    }

    /// The first measured cycle after the *last* degradation at which the
    /// dead-descriptor fraction returned to zero — and stayed there to the end
    /// of the run: every trace of the failed nodes has been aged out or
    /// displaced. `None` while stale descriptors linger (the detector-free
    /// protocol's permanent state after a catastrophe) or when a later event
    /// re-degraded the overlay and it never came back — a re-degradation voids
    /// a previously recorded recovery.
    pub fn recovered_cycle(&self) -> Option<u64> {
        self.recovered_cycle
    }

    /// Number of cycles the overlay took to purge every dead descriptor after
    /// the first degradation (`recovered - degraded`), when it recovered.
    pub fn cycles_to_recover(&self) -> Option<u64> {
        match (self.degraded_cycle, self.recovered_cycle) {
            (Some(degraded), Some(recovered)) => Some(recovered - degraded),
            _ => None,
        }
    }

    /// The cycle from which the run counts as converged (every node's tables
    /// perfect), or `None`. What it means depends on the timeline:
    ///
    /// * one that can degrade tables — a membership event, a re-bootstrap
    ///   order or an adversary: the first cycle of the *last* streak of
    ///   perfect cycles, and `None` when the run ended imperfect;
    /// * any other: the *first* perfect cycle, kept even when descriptor
    ///   aging later expires live entries and the tables stop being perfect.
    pub fn convergence_cycle(&self) -> Option<u64> {
        self.convergence_cycle
    }

    /// Whether [`RunReport::convergence_cycle`] is set.
    pub fn converged(&self) -> bool {
        self.convergence_cycle.is_some()
    }

    /// Number of cycles actually executed.
    pub fn cycles_executed(&self) -> u64 {
        self.cycles_executed
    }

    /// The missing-entry counts measured after the last executed cycle.
    pub fn final_state(&self) -> NetworkConvergence {
        self.final_state
    }

    /// Traffic statistics of the run.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The lookup-traffic summary (totals plus the per-measured-cycle success,
    /// hop and latency series). `None` — and cost-free — unless the scenario
    /// scheduled a [`TrafficPhase`](crate::scenario::ScenarioEvent).
    pub fn lookups(&self) -> Option<&LookupTrafficReport> {
        self.lookups.as_ref()
    }

    /// End-of-run leaf-set proximity statistics under the WAN placement;
    /// `None` without one.
    pub fn proximity(&self) -> Option<&ProximityReport> {
        self.proximity.as_ref()
    }

    /// The scenario events that took effect, as `(cycle, description)` pairs.
    pub fn events_fired(&self) -> &[(u64, String)] {
        &self.events_fired
    }

    /// Per-phase wall time accumulated by the engine, when the run was
    /// configured with [`ExperimentConfig::profile`]. On the event engine
    /// `plan` is the handlers' time on the calling thread.
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.phase_profile.as_ref()
    }

    /// Renders the report as a self-contained JSON document (engine, scenario,
    /// convergence, traffic, fired events and every per-cycle series). This is
    /// the artifact format the scenario smoke suite uploads from CI. Its
    /// `"threads"` echoes [`ExperimentConfig::threads`]: 1 for
    /// [`Engine::Cycle`] and [`Engine::Event`], however many cores the run
    /// took.
    pub fn to_json(&self) -> String {
        let config = &self.config;
        let fixed = |value: f64| format!("{value:.6}");
        let scientific = |value: f64| format!("{value:.6e}");
        let seconds = |duration: Duration| fixed(duration.as_secs_f64());
        let traffic = &self.traffic;
        let mut json = JsonObject::new();
        json.string("engine", config.engine.label())
            .field("threads", config.threads())
            .string("scenario", &config.scenario)
            .field("network_size", config.network_size)
            .field("seed", config.seed)
            .field("max_cycles", config.max_cycles)
            .field("cycles_executed", self.cycles_executed)
            .optional("convergence_cycle", self.convergence_cycle)
            .optional("degraded_cycle", self.degraded_cycle)
            .optional("recovered_cycle", self.recovered_cycle)
            .optional("cycles_to_recover", self.cycles_to_recover())
            .optional("time_to_eclipse", self.time_to_eclipse)
            .field("eclipsed", self.eclipsed())
            .field(
                "final_missing_leaf",
                scientific(self.final_state.leaf_proportion()),
            )
            .field(
                "final_missing_prefix",
                scientific(self.final_state.prefix_proportion()),
            )
            .field(
                "traffic",
                JsonObject::inline()
                    .field("requests_sent", traffic.requests_sent)
                    .field("requests_delivered", traffic.requests_delivered)
                    .field("answers_sent", traffic.answers_sent)
                    .field("answers_delivered", traffic.answers_delivered)
                    .field(
                        "mean_message_size",
                        format_args!("{:.2}", traffic.mean_message_size()),
                    )
                    .field("max_message_size", traffic.max_message_size())
                    .finish(),
            );
        if let Some(lookups) = self.lookups.as_ref() {
            json.field(
                "lookup_traffic",
                JsonObject::inline()
                    .string("router", lookups.router())
                    .field("issued", lookups.issued())
                    .field("delivered", lookups.delivered())
                    .field("success_rate", fixed(lookups.success_rate()))
                    .field("mean_hops", fixed(lookups.mean_hops()))
                    .field("max_hops", lookups.max_hops())
                    .finish(),
            );
        }
        json.optional(
            "proximity",
            self.proximity.map(|proximity| {
                JsonObject::inline()
                    .field("mean_leaf_distance", fixed(proximity.mean_leaf_distance))
                    .field(
                        "mean_random_distance",
                        fixed(proximity.mean_random_distance),
                    )
                    .field("ratio", fixed(proximity.ratio()))
                    .field("leaf_links", proximity.leaf_links)
                    .finish()
            }),
        )
        .optional(
            "phase_profile",
            self.phase_profile.map(|profile| {
                JsonObject::inline()
                    .field("plan_seconds", seconds(profile.plan))
                    .field("execute_seconds", seconds(profile.execute))
                    .field("commit_seconds", seconds(profile.commit))
                    .field("measure_seconds", seconds(profile.measure))
                    .field("profiled_cycles", profile.cycles)
                    .finish()
            }),
        )
        .array(
            "events",
            self.events_fired.iter().map(|(cycle, description)| {
                JsonObject::inline()
                    .field("cycle", cycle)
                    .string("event", description)
                    .finish()
            }),
        );
        for series in self.all_series() {
            json.series(series);
        }
        json.finish()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={} seed={} {}: ",
            self.config.network_size, self.config.seed, self.config.scenario
        )?;
        match self.convergence_cycle {
            Some(cycle) => write!(f, "perfect tables after {cycle} cycles"),
            None => write!(
                f,
                "not converged after {} cycles (missing leaf {:.2e}, prefix {:.2e})",
                self.cycles_executed,
                self.final_state.leaf_proportion(),
                self.final_state.prefix_proportion()
            ),
        }
    }
}

/// Every node's bootstrapped state at the end of a run, indexed by identifier.
/// This is what routing-substrate consumers (`bss-overlay`) operate on: it is
/// exactly the information a real deployment would hand over to Pastry /
/// Kademlia / Bamboo maintenance once the bootstrap completes.
///
/// The snapshot is the run's packed population itself: each captured node's
/// [`CompactNode`], moved out of the protocol, with the shared identifier
/// arena and the run's parameters, so ending a run copies no table. A node's
/// fat [`BootstrapNode`] is built the first time [`node_at`](Self::node_at)
/// or [`node_by_id`](Self::node_by_id) asks for it, and kept; a clone carries
/// the nodes built so far.
#[derive(Debug, Clone, Default)]
pub struct PopulationSnapshot {
    /// The packed states by registry index; `None` for every node not captured.
    states: Vec<Option<CompactNode>>,
    /// The registry index of each captured node, in capture order.
    captured: Vec<NodeIndex>,
    /// Each captured node's fat form, built on first read. Boxed, so a node
    /// nobody reads costs a pointer, not a whole `BootstrapNode`.
    fat: Vec<OnceLock<Box<BootstrapNode<NodeIndex>>>>,
    index_by_id: HashMap<NodeId, usize>,
    ids: Arc<Vec<NodeId>>,
    params: BootstrapParams,
}

impl PopulationSnapshot {
    /// Takes the alive, initialised nodes' states out of a finished protocol
    /// run (a departed node's state is already gone).
    pub(crate) fn capture<S: PeerSampler>(
        protocol: &mut BootstrapProtocol<S>,
        ctx: &EngineContext,
    ) -> Self {
        let (states, ids, params) = protocol.take_population();
        let captured: Vec<NodeIndex> = (ctx.network.alive_indices())
            .filter(|node| states.get(node.as_usize()).is_some_and(Option::is_some))
            .collect();
        let index_by_id = (captured.iter().enumerate())
            .map(|(position, node)| (ids[node.as_usize()], position))
            .collect();
        PopulationSnapshot {
            fat: captured.iter().map(|_| OnceLock::new()).collect(),
            states,
            captured,
            index_by_id,
            ids,
            params,
        }
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.captured.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.captured.is_empty()
    }

    /// All identifiers in the snapshot, in capture order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.captured.iter().map(|node| self.ids[node.as_usize()])
    }

    /// The node state with the given identifier, if present.
    pub fn node_by_id(&self, id: NodeId) -> Option<&BootstrapNode<NodeIndex>> {
        self.index_by_id
            .get(&id)
            .and_then(|&position| self.node_at(position))
    }

    /// The node state at a dense position (useful for picking random nodes).
    pub fn node_at(&self, position: usize) -> Option<&BootstrapNode<NodeIndex>> {
        let node = *self.captured.get(position)?;
        let fat = self.fat[position].get_or_init(|| {
            let state = self.states[node.as_usize()].as_ref();
            let state = state.expect("a captured node holds a state");
            Box::new(state.unpack(node, &self.ids, &self.params))
        });
        Some(fat)
    }
}

/// Per-run measurement bookkeeping shared by every engine path: convergence
/// measured every cycle (incremental while membership stands still), the two
/// figure series, the perfection stop and observer dispatch.
struct MeasurementDriver {
    /// No event ever degrades built tables (membership changes *or*
    /// re-bootstrap orders): a recorded convergence cycle is final.
    tables_stable: bool,
    /// The node an id-spray adversary eclipses, when the timeline carries one.
    eclipse_target: Option<NodeIndex>,
    /// The oracle of the current membership, and the `(network.len(),
    /// network.alive_count())` it was built for: a join grows the first and a
    /// departure shrinks the second, so the pair moves exactly when
    /// membership does.
    oracle: ConvergenceOracle,
    membership: (usize, usize),
    /// The per-node counts of the last measured cycle: kept up to date over
    /// the dirty set while the oracle stands, refilled by a full pass
    /// whenever it is rebuilt.
    tracker: ConvergenceTracker,
    /// Per-region measurement state; only under a WAN node placement.
    regions: Option<RegionWalk>,
    /// The report being filled, cycle by cycle; [`MeasurementDriver::finish`]
    /// adds what is only known when the run ends.
    report: RunReport,
    /// The live lookup-traffic driver; built only when the scenario schedules
    /// a traffic phase, so every other run pays nothing.
    lookup_traffic: Option<LookupTraffic>,
}

/// What the per-region bucketing reuses from cycle to cycle.
struct RegionWalk {
    /// The run's placement, shared with the transport and the network.
    placement: Arc<Placement>,
    /// One aggregation bucket per placement region.
    buckets: Vec<NetworkConvergence>,
}

/// The eclipse is complete when every leaf-set slot of the target points at an
/// adversary. The fraction is a ratio of small integers, so exact comparison
/// with 1.0 is meaningful.
const ECLIPSE_THRESHOLD: f64 = 1.0;

impl MeasurementDriver {
    fn new<S: PeerSampler>(
        config: &ExperimentConfig,
        protocol: &BootstrapProtocol<S>,
        ctx: &EngineContext,
        placement: Option<Arc<Placement>>,
        lookup_traffic: Option<LookupTraffic>,
    ) -> Self {
        MeasurementDriver {
            // An adversary corrupts tables without perturbing membership, so a
            // convergence recorded before the attack window must not be final.
            tables_stable: !config.scenario.perturbs_tables() && !config.scenario.has_adversary(),
            eclipse_target: config.scenario.build_adversary().and_then(|m| m.target()),
            oracle: protocol.oracle_for(ctx),
            membership: (ctx.network.len(), ctx.network.alive_count()),
            tracker: ConvergenceTracker::new(),
            report: RunReport {
                config: config.clone(),
                series: (SERIES_KEYS.into_iter().map(Series::new))
                    .chain(
                        (0..placement.as_ref().map_or(0, |p| p.region_count()))
                            .map(|region| Series::new(format!("leaf_series_r{region}"))),
                    )
                    .collect(),
                convergence_cycle: None,
                degraded_cycle: None,
                recovered_cycle: None,
                time_to_eclipse: None,
                cycles_executed: 0,
                final_state: NetworkConvergence::default(),
                traffic: TrafficStats::default(),
                lookups: None,
                proximity: None,
                events_fired: Vec::new(),
                phase_profile: None,
            },
            regions: placement.map(|placement| RegionWalk {
                buckets: vec![NetworkConvergence::default(); placement.region_count() as usize],
                placement,
            }),
            lookup_traffic,
        }
    }

    /// Runs the per-cycle bookkeeping; returns `Break` when the run should
    /// stop (perfection reached with nothing scheduled ahead, or the observer
    /// asked to stop).
    fn observe_cycle<S: PeerSampler>(
        &mut self,
        protocol: &mut BootstrapProtocol<S>,
        ctx: &EngineContext,
        cycle: u64,
        observer: &mut dyn Observer,
    ) -> ControlFlow<()> {
        for event in self.report.config.scenario.events_starting_at(cycle) {
            observer.on_scenario_event(cycle, event);
            self.report.events_fired.push((cycle, event.to_string()));
        }
        // The lookup workload runs every cycle a traffic phase is active, in
        // the observer phase of every engine, while no table changes.
        if let Some(traffic) = self.lookup_traffic.as_mut() {
            traffic.drive_cycle(protocol, ctx, cycle);
            traffic.flush_window(cycle);
        }
        // While membership stands still the oracle does too, and the counts
        // follow the protocol's dirty set; a change rebuilds both.
        let membership = (ctx.network.len(), ctx.network.alive_count());
        let measured = if membership == self.membership {
            protocol.measure_incremental(&self.oracle, &mut self.tracker, ctx)
        } else {
            self.oracle = protocol.oracle_for(ctx);
            self.membership = membership;
            protocol.measure(&self.oracle, &mut self.tracker, ctx)
        };
        self.measure_regions(cycle);
        // Each of the three table walks gates itself: no node has died, no
        // adversary is installed or nobody is converted yet, and it returns
        // zero without visiting a table.
        let fraction = |(part, total): (u64, u64)| {
            if total == 0 {
                0.0
            } else {
                part as f64 / total as f64
            }
        };
        let dead_fraction = fraction(protocol.dead_descriptor_stats(ctx));
        let poisoned_fraction = fraction(protocol.poisoned_stats(ctx));
        let eclipse_fraction = self
            .eclipse_target
            .map_or(0.0, |target| protocol.eclipse_fraction(target, ctx));
        if eclipse_fraction >= ECLIPSE_THRESHOLD && self.report.time_to_eclipse.is_none() {
            self.report.time_to_eclipse = Some(cycle);
        }
        // Overlay-quality diagnostics, whenever the sampler maintains an
        // overlay to measure (a real NEWSCAST instance; the oracle has none).
        let overlay = protocol.sampling_quality(&ctx.network).map(|quality| {
            [
                quality.in_degree_mean,
                quality.in_degree_max,
                quality.in_degree_gini,
                quality.dead_pointer_fraction,
            ]
        });
        // One value per entry of `SERIES_KEYS`, in its order.
        let values = [
            measured.leaf_proportion(),
            measured.prefix_proportion(),
            dead_fraction,
            poisoned_fraction,
            eclipse_fraction,
        ];
        let values = values.into_iter().chain(overlay.into_iter().flatten());
        for (series, value) in self.report.series.iter_mut().zip(values) {
            series.push(cycle, value);
        }
        if dead_fraction > 0.0 {
            if self.report.degraded_cycle.is_none() {
                self.report.degraded_cycle = Some(cycle);
            }
            // A later degradation (second failure, ongoing churn) voids a
            // previously recorded recovery: "recovered" always refers to the
            // state the run actually ended in.
            self.report.recovered_cycle = None;
        } else if self.report.degraded_cycle.is_some() && self.report.recovered_cycle.is_none() {
            self.report.recovered_cycle = Some(cycle);
        }
        self.report.final_state = measured;
        let mut flow = observer.on_cycle(cycle, &measured);
        if measured.is_perfect() {
            if self.report.convergence_cycle.is_none() {
                self.report.convergence_cycle = Some(cycle);
            }
            // The stop never fires while a scenario transition lies ahead: a
            // network perfect at cycle 8 must still face the catastrophe
            // scheduled for cycle 12.
            let config = &self.report.config;
            if config.stop_when_perfect && !config.scenario.changes_after(cycle) {
                flow = ControlFlow::Break(());
            }
        } else {
            // Under membership churn or a re-bootstrap order a previously
            // perfect network can degrade.
            self.report.convergence_cycle =
                self.report.convergence_cycle.filter(|_| self.tables_stable);
        }
        flow
    }

    /// Per-region convergence: the per-node counts the global pass just
    /// produced, bucketed by placement region. Only WAN runs (a placement is
    /// attached) pay for it; every other run returns immediately.
    fn measure_regions(&mut self, cycle: u64) {
        let Some(walk) = self.regions.as_mut() else {
            return;
        };
        walk.buckets.fill(NetworkConvergence::default());
        for (index, counts) in self.tracker.per_node() {
            walk.buckets[walk.placement.region(index) as usize].accumulate(counts);
        }
        let region_series = &mut self.report.series[SERIES_KEYS.len()..];
        for (series, bucket) in region_series.iter_mut().zip(&walk.buckets) {
            series.push(cycle, bucket.leaf_proportion());
        }
    }

    /// The tear-down every engine shares: measures proximity under a WAN
    /// placement, completes the report with what is only known once the run
    /// has ended, and hands the population over to the snapshot.
    fn finish<S: PeerSampler>(
        self,
        protocol: &mut BootstrapProtocol<S>,
        ctx: &EngineContext,
        cycles_executed: u64,
        phase_profile: Option<PhaseProfile>,
    ) -> (RunReport, PopulationSnapshot) {
        let seed = self.report.config.seed;
        let proximity = (self.regions.as_ref())
            .map(|walk| measure_proximity(protocol, ctx, &walk.placement, seed));
        let report = RunReport {
            cycles_executed,
            traffic: protocol.traffic().clone(),
            lookups: self.lookup_traffic.map(LookupTraffic::into_report),
            proximity,
            phase_profile,
            ..self.report
        };
        (report, PopulationSnapshot::capture(protocol, ctx))
    }
}

/// Salt of the proximity baseline's private draw stream (ASCII "baseline"),
/// disjoint from the engine, protocol and traffic streams.
const PROXIMITY_SALT: u64 = 0x6261_7365_6c69_6e65;

/// End-of-run proximity measurement: mean coordinate distance over every
/// stored leaf-set link, against the same number of random alive pairs drawn
/// from a salted private stream. WAN runs only (the caller gates on the
/// placement).
fn measure_proximity<S: PeerSampler>(
    protocol: &BootstrapProtocol<S>,
    ctx: &EngineContext,
    placement: &Placement,
    seed: u64,
) -> ProximityReport {
    let alive: Vec<NodeIndex> = ctx.network.alive_indices().collect();
    let mut links = 0u64;
    let mut leaf_sum = 0.0;
    for &node in &alive {
        if let Some(packed) = protocol.packed_node(node) {
            for entry in packed.leaf_entries() {
                leaf_sum += placement.distance(node.as_usize(), entry.address() as usize);
                links += 1;
            }
        }
    }
    let mut rng = SimRng::seed_from(seed ^ PROXIMITY_SALT);
    let mut random_sum = 0.0;
    if alive.len() >= 2 {
        for _ in 0..links {
            let a = alive[rng.index(alive.len())];
            let mut b = a;
            while b == a {
                b = alive[rng.index(alive.len())];
            }
            random_sum += placement.distance(a.as_usize(), b.as_usize());
        }
    }
    ProximityReport {
        mean_leaf_distance: if links == 0 {
            0.0
        } else {
            leaf_sum / links as f64
        },
        mean_random_distance: if links == 0 {
            0.0
        } else {
            random_sum / links as f64
        },
        leaf_links: links,
    }
}

/// The engine-agnostic entry point: drives `protocol` through `config`'s
/// scenario on whichever engine the configuration selects, reporting every
/// measured cycle and scenario transition to `observer`. `lookup_traffic`
/// serves the scenario's traffic phases (`None` when it has none).
///
/// All engines share the same measurement semantics (one measurement per
/// cycle, perfection stop, series) and produce the same [`RunReport`] shape;
/// every engine is additionally bit-for-bit deterministic across thread
/// counts.
pub(crate) fn run_scenario<S: PeerSampler>(
    config: &ExperimentConfig,
    protocol: &mut BootstrapProtocol<S>,
    lookup_traffic: Option<LookupTraffic>,
    observer: &mut dyn Observer,
) -> (RunReport, PopulationSnapshot) {
    let cores = thread::available_parallelism().map_or(1, usize::from);
    let threads = run_threads(config.engine, cores, config.network_size);
    match config.engine {
        Engine::Cycle | Engine::ParallelCycle { .. } => {
            run_on_cycle_engine(config, protocol, lookup_traffic, observer, threads)
        }
        Engine::Event { .. } => {
            run_on_event_engine(config, protocol, lookup_traffic, observer, threads)
        }
    }
}

/// The world every engine starts from. Built in one order, so every engine
/// sees the same RNG stream: the identifiers are the only draws from the run's
/// generator; placement and transport come from salted private streams.
struct World {
    network: Network,
    rng: SimRng,
    placement: Option<Arc<Placement>>,
    transport: Transport,
    churn: Churn,
}

impl World {
    fn new(config: &ExperimentConfig) -> Self {
        let mut rng = SimRng::seed_from(config.seed);
        let network = Network::with_random_ids(config.network_size, &mut rng);
        let placement = config.placement();
        let timeline = config.scenario.events();
        let transport = Transport::new(config.link_model(), placement.clone(), config.seed)
            .with_timeline(timeline, config.network_size);
        World {
            network,
            rng,
            placement,
            transport,
            churn: Churn::new(timeline),
        }
    }
}

/// The threads a run uses: the pinned count of [`Engine::ParallelCycle`],
/// else — [`Engine::Cycle`] and [`Engine::Event`] — one per core of the
/// `cores` the host offers, capped at the network size as a pinned count is;
/// at least one. The count stays inside the run: output is the same at any
/// count.
fn run_threads(engine: Engine, cores: usize, network_size: usize) -> usize {
    match engine {
        Engine::ParallelCycle { threads } => threads,
        _ => cores.min(network_size).max(1),
    }
}

/// Runs on the cycle engine — on every core for [`Engine::Cycle`], on the
/// pinned count for [`Engine::ParallelCycle`] — which applies the membership
/// timeline itself at every cycle boundary.
fn run_on_cycle_engine<S: PeerSampler>(
    config: &ExperimentConfig,
    protocol: &mut BootstrapProtocol<S>,
    lookup_traffic: Option<LookupTraffic>,
    observer: &mut dyn Observer,
    threads: usize,
) -> (RunReport, PopulationSnapshot) {
    let world = World::new(config);
    let mut engine = CycleEngine::new(world.network, world.rng)
        .with_transport(world.transport)
        .with_churn(world.churn);
    if config.profile {
        engine.enable_profiling();
    }
    engine.context_mut().adversary = config.scenario.build_adversary();
    protocol.init_all(engine.context_mut());
    let mut driver = MeasurementDriver::new(
        config,
        protocol,
        engine.context(),
        world.placement,
        lookup_traffic,
    );

    let cycles_executed = engine.run_with_observer(
        protocol,
        config.max_cycles,
        threads,
        |protocol, ctx, cycle| driver.observe_cycle(protocol, ctx, cycle, observer),
    );
    let phase_profile = engine.phase_profile().copied();
    driver.finish(protocol, engine.context(), cycles_executed, phase_profile)
}

/// Runs on the discrete-event engine: one `run_until` slice per cycle Δ, with
/// scenario membership events applied and measured at the slice boundaries.
/// Nodes wake on their own timers at random phases within Δ and messages
/// travel with the configured per-link latency. Each slice streams its table
/// work on `threads` threads; the profile reads as the cycle engine's, with
/// the handlers' time as `plan`.
fn run_on_event_engine<S: PeerSampler>(
    config: &ExperimentConfig,
    protocol: &mut BootstrapProtocol<S>,
    lookup_traffic: Option<LookupTraffic>,
    observer: &mut dyn Observer,
    threads: usize,
) -> (RunReport, PopulationSnapshot) {
    let mut world = World::new(config);
    let mut engine: EventEngine<BootstrapMessage> =
        EventEngine::new(world.network, world.rng).with_transport(world.transport);
    engine.context_mut().adversary = config.scenario.build_adversary();
    protocol.init_all(engine.context_mut());
    let mut driver = MeasurementDriver::new(
        config,
        protocol,
        engine.context(),
        world.placement,
        lookup_traffic,
    );
    // Start the initial membership *before* applying cycle-0 scenario events:
    // joiners added at cycle 0 are started individually below, and must not be
    // started a second time by run_until's deferred start phase.
    protocol.event_slice(threads, None, |events| engine.start(events));

    let delta = config.params.cycle_millis;
    let mut profile = config.profile.then(PhaseProfile::default);
    let mut stepping = Duration::ZERO;
    let mut cycles_executed = 0;
    for cycle in 0..config.max_cycles {
        let started = Instant::now();
        let ctx = engine.context_mut();
        ctx.transport.advance_to_cycle(cycle);
        // Re-bootstrapped survivors and converted nodes keep their running
        // exchange timers: the hooks replace table state or mark the node,
        // not its schedule.
        let events = world.churn.apply(cycle, &mut ctx.network, &mut ctx.rng);
        events.deliver(protocol, cycle, ctx);
        // Nodes killed this cycle must generate zero traffic from now on:
        // purge their pending exchange timers and in-flight answer slots from
        // the event queue.
        if !events.departed.is_empty() {
            engine.cancel_dead();
        }
        protocol.event_slice(threads, profile.as_mut(), |slice| {
            // Late joiners schedule their first exchange timers from "now".
            for node in events.joined {
                engine.start_node(slice, node);
            }
            engine.run_until(slice, (cycle + 1) * delta);
        });
        cycles_executed = cycle + 1;
        let measuring = Instant::now();
        stepping += measuring - started;
        let flow = driver.observe_cycle(protocol, engine.context(), cycle, observer);
        if let Some(profile) = profile.as_mut() {
            profile.measure += measuring.elapsed();
        }
        if flow.is_break() {
            break;
        }
    }
    // As on the cycle engine, what of the cycles is neither `execute` nor
    // `commit` is `plan`.
    let profile = profile.map(|profile| PhaseProfile {
        plan: stepping.saturating_sub(profile.execute + profile.commit),
        cycles: cycles_executed,
        ..profile
    });
    driver.finish(protocol, engine.context(), cycles_executed, profile)
}

/// A single, ready-to-run simulation.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates an experiment from a validated configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// Runs the simulation to completion and returns the recorded report. The
    /// population snapshot it drops holds the run's packed states as they
    /// were, so this costs no copy of the tables.
    pub fn run(&self) -> RunReport {
        self.run_with_snapshot().0
    }

    /// Runs the simulation and additionally returns a [`PopulationSnapshot`] of
    /// every node's final leaf set and prefix table, ready to be handed to the
    /// routing-substrate consumers in `bss-overlay`.
    pub fn run_with_snapshot(&self) -> (RunReport, PopulationSnapshot) {
        self.run_observed(&mut NullObserver)
    }

    /// Runs the simulation with a caller-supplied [`Observer`] receiving every
    /// measured cycle and scenario transition.
    pub fn run_observed(&self, observer: &mut dyn Observer) -> (RunReport, PopulationSnapshot) {
        let traffic = LookupTraffic::for_config(&self.config);
        match self.config.sampler {
            SamplerChoice::Oracle => {
                let mut protocol = BootstrapProtocol::new(self.config.params, OracleSampler::new());
                run_scenario(&self.config, &mut protocol, traffic, observer)
            }
            SamplerChoice::Newscast(params) => {
                let mut protocol =
                    BootstrapProtocol::new(self.config.params, NewscastProtocol::new(params));
                run_scenario(&self.config, &mut protocol, traffic, observer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::tests::fingerprint;
    use crate::scenario::tests::Recording;
    use crate::scenario::{AdversaryBehavior, Phase, ScenarioEvent};
    use crate::scenario::{KeyDist, PlacementSpec, WanParams};

    /// A WAN link model over `regions` clusters on a square plane.
    fn clustered_wan(regions: u32, side: f64, spread: f64) -> LatencyModel {
        LatencyModel::Wan {
            placement: PlacementSpec::Clustered {
                regions,
                width: side,
                height: side,
                spread,
            },
            params: WanParams::default(),
        }
    }

    /// The NEWSCAST instance the adversarial experiments run over.
    fn newscast() -> NewscastParams {
        NewscastParams {
            view_size: 20,
            ..NewscastParams::paper_default()
        }
    }

    #[test]
    fn tables_the_packed_store_cannot_index_are_rejected() {
        let paper = BootstrapParams::paper_default();
        let build = |params| ExperimentConfig::builder().params(params).build();
        let rejects = |params, name: &str| matches!(build(params), Err(InvalidParams::OutOfRange { field, .. }) if field == name);
        // Leaf positions and the split are u16: 65 534 is the largest even c.
        assert!(build(BootstrapParams {
            leaf_set_size: 65_534,
            ..paper
        })
        .is_ok());
        let c = BootstrapParams {
            leaf_set_size: 65_536,
            ..paper
        };
        assert!(rejects(c, "leaf_set_size"));
        // At b = 1 the table has 64 x 2 slots: k = 511 fills 65 408 positions,
        // k = 512 would need 65 536.
        let binary = BootstrapParams {
            bits_per_digit: 1,
            ..paper
        };
        assert!(build(BootstrapParams {
            entries_per_slot: 511,
            ..binary
        })
        .is_ok());
        let k = BootstrapParams {
            entries_per_slot: 512,
            ..binary
        };
        assert!(rejects(k, "entries_per_slot"));
    }

    #[test]
    fn builder_validates_inputs() {
        assert!(ExperimentConfig::builder().network_size(1).build().is_err());
        assert!(ExperimentConfig::builder().max_cycles(0).build().is_err());
        assert!(ExperimentConfig::builder()
            .drop_probability(1.5)
            .build()
            .is_err());
        assert!(ExperimentConfig::builder()
            .event(ScenarioEvent::ChurnBurst {
                phase: Phase::whole_run(),
                rate: -0.1,
            })
            .build()
            .is_err());
        assert!(ExperimentConfig::builder()
            .engine(Engine::ParallelCycle { threads: 0 })
            .build()
            .is_err());
        // More nodes than a `u32` index counts, more workers than nodes.
        let mut builder = ExperimentConfig::builder();
        assert!(matches!(
            builder.network_size(u32::MAX as usize + 1).build(),
            Err(InvalidParams::OutOfRange {
                field: "network_size",
                ..
            })
        ));
        builder
            .network_size(64)
            .engine(Engine::ParallelCycle { threads: 65 });
        assert!(matches!(
            builder.build(),
            Err(InvalidParams::OutOfRange {
                field: "threads",
                ..
            })
        ));
        // Typed scenario rejections surface through the config builder.
        let err = ExperimentConfig::builder()
            .event(ScenarioEvent::LossWindow {
                phase: Phase::new(5, 5),
                probability: 0.1,
            })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            bss_util::config::InvalidParams::EmptyWindow { .. }
        ));
        let ok = ExperimentConfig::builder()
            .network_size(64)
            .seed(3)
            .max_cycles(50)
            .build()
            .unwrap();
        assert_eq!(ok.network_size, 64);
        assert_eq!(ok.seed, 3);
        assert!(ok.stop_when_perfect);
        assert_eq!(ok.scenario, Scenario::calm());
        assert_eq!(ok.engine, Engine::Cycle);
    }

    #[test]
    fn regional_events_require_a_wan_link_model() {
        let outage = ScenarioEvent::RegionalOutage {
            phase: Phase::new(10, 20),
            region: 1,
            loss: 1.0,
        };
        // Without a placement there are no regions to affect.
        let err = ExperimentConfig::builder()
            .network_size(64)
            .event(outage.clone())
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("wan link model"),
            "unexpected error: {err}"
        );
        // With one, the same timeline is accepted…
        let wan = clustered_wan(4, 100.0, 10.0);
        let ok = ExperimentConfig::builder()
            .network_size(64)
            .link_model(wan)
            .event(outage)
            .build()
            .unwrap();
        assert_eq!(ok.link_model(), wan);
        // …but a region id past the placement's region count is rejected
        // typed, for outages and slow-links windows alike.
        for event in [
            ScenarioEvent::RegionalOutage {
                phase: Phase::new(10, 20),
                region: 4,
                loss: 0.5,
            },
            ScenarioEvent::SlowLinks {
                phase: Phase::new(10, 20),
                region: Some(4),
                factor: 2.0,
            },
        ] {
            let err = ExperimentConfig::builder()
                .network_size(64)
                .link_model(wan)
                .event(event)
                .build()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    InvalidParams::OutOfRange {
                        value, max, ..
                    } if value == 4.0 && max == 3.0
                ),
                "unexpected error: {err}"
            );
        }
        // Zero-area placements are rejected typed through the same path.
        let err = ExperimentConfig::builder()
            .network_size(64)
            .link_model(LatencyModel::Wan {
                placement: PlacementSpec::UniformPlane {
                    width: 0.0,
                    height: 100.0,
                },
                params: WanParams::default(),
            })
            .build()
            .unwrap_err();
        assert!(
            matches!(err, InvalidParams::OutOfRange { field, .. } if field.contains("width")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn wan_runs_report_per_region_series_and_proximity() {
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(64)
            .seed(9)
            .max_cycles(40)
            .link_model(clustered_wan(3, 400.0, 30.0));
        let report = Experiment::new(builder.build().unwrap()).run();
        assert!(report.converged(), "{report}");
        for region in 0..3 {
            let series = report.series(&format!("leaf_series_r{region}")).unwrap();
            let last = series.final_value().expect("measured cycles");
            assert_eq!(last, 0.0, "every region converged: {report}");
        }
        assert!(report.series("leaf_series_r3").is_none());
        let proximity = report.proximity().expect("wan runs measure proximity");
        assert!(proximity.leaf_links > 0);
        assert!(proximity.mean_leaf_distance > 0.0);
        assert!(proximity.mean_random_distance > 0.0);
        assert!(proximity.ratio() > 0.0);
        // The JSON carries the per-region series and the proximity block.
        let json = report.to_json();
        assert!(json.contains("\"leaf_series_r2\""));
        assert!(json.contains("\"mean_leaf_distance\""));

        // A legacy run reports neither.
        let calm = Experiment::new(
            ExperimentConfig::builder()
                .network_size(64)
                .seed(9)
                .max_cycles(40)
                .build()
                .unwrap(),
        )
        .run();
        assert!(calm.series("leaf_series_r0").is_none());
        assert!(calm.proximity().is_none());
        assert!(calm.to_json().contains("\"proximity\": null"));
    }

    #[test]
    fn id_spray_target_must_name_a_node() {
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(64)
            .event(ScenarioEvent::ByzantineConvert {
                phase: Phase::new(5, 20),
                fraction: 0.2,
                behavior: AdversaryBehavior::IdSpray { target: 64 },
            });
        let err = builder.build().unwrap_err();
        assert!(
            matches!(
                err,
                InvalidParams::NodeOutOfBounds {
                    field: "id_spray target",
                    node: 64,
                    network_size: 64,
                }
            ),
            "unexpected error: {err}"
        );
        // The largest valid index passes; no clamping happens anywhere.
        let ok = ExperimentConfig::builder()
            .network_size(64)
            .event(ScenarioEvent::ByzantineConvert {
                phase: Phase::new(5, 20),
                fraction: 0.2,
                behavior: AdversaryBehavior::IdSpray { target: 63 },
            })
            .build()
            .unwrap();
        assert!(ok.scenario.has_adversary());
    }

    #[test]
    fn id_spray_eclipses_the_target_and_the_verifier_defends() {
        // Small-scale version of the headline experiment: a quarter of a
        // 64-node network converts to id-spraying at cycle 5. Undefended, the
        // victim's leaf set fills with attacker addresses; with descriptor
        // verification on, the sprayed (forged-id) descriptors are rejected at
        // receive time and the eclipse fraction stays bounded.
        let attack = ScenarioEvent::ByzantineConvert {
            phase: Phase::new(5, 35),
            fraction: 0.25,
            behavior: AdversaryBehavior::IdSpray { target: 0 },
        };
        let mut undefended_builder = ExperimentConfig::builder();
        undefended_builder
            .network_size(64)
            .seed(41)
            .max_cycles(40)
            .stop_when_perfect(false)
            .event(attack.clone());
        let undefended = Experiment::new(undefended_builder.build().unwrap()).run();
        let defended = Experiment::new(
            undefended_builder
                .params(BootstrapParams {
                    descriptor_verifier: Some(0x5eed_cafe),
                    ..BootstrapParams::paper_default()
                })
                .build()
                .unwrap(),
        )
        .run();
        let peak = |report: &RunReport| report.series("eclipse_series").unwrap().peak();
        assert!(
            undefended.eclipsed(),
            "undefended target should be fully eclipsed (peak {})",
            peak(&undefended)
        );
        assert!(undefended.time_to_eclipse().unwrap() >= 5);
        assert!(
            peak(&defended) < 0.5,
            "verifier should keep the eclipse bounded (peak {})",
            peak(&defended)
        );
        assert!(!defended.eclipsed());
        // The poisoned series is live in both runs (the adversaries are real
        // nodes, so their addresses legitimately appear in some tables), and
        // the JSON carries the attack fields.
        assert!(peak(&undefended) > 0.0);
        let json = undefended.to_json();
        assert!(json.contains("\"eclipsed\": true"));
        assert!(json.contains("\"poisoned_series\""));
        assert!(json.contains("\"eclipse_series\""));
        let json = defended.to_json();
        assert!(json.contains("\"eclipsed\": false"));
        assert!(json.contains("\"time_to_eclipse\": null"));
    }

    #[test]
    fn aging_sugar_composes_with_the_sampler_in_either_order() {
        let newscast = newscast();
        // Sugar before the sampler selection: the bound still reaches the views.
        let sugar_first = ExperimentConfig::builder()
            .descriptor_max_age(Some(8))
            .sampler(SamplerChoice::Newscast(newscast))
            .build()
            .unwrap();
        // Sampler first, sugar after: same result.
        let sampler_first = ExperimentConfig::builder()
            .sampler(SamplerChoice::Newscast(newscast))
            .descriptor_max_age(Some(8))
            .build()
            .unwrap();
        for config in [&sugar_first, &sampler_first] {
            assert_eq!(config.params.descriptor_max_age, Some(8));
            let SamplerChoice::Newscast(params) = config.sampler else {
                panic!("newscast sampler expected");
            };
            assert_eq!(params.descriptor_max_age, Some(8));
        }
        // An explicit view bound wins over the sugar — in either call order.
        let sugar_then_explicit = ExperimentConfig::builder()
            .descriptor_max_age(Some(8))
            .sampler(SamplerChoice::Newscast(NewscastParams {
                descriptor_max_age: Some(3),
                ..newscast
            }))
            .build()
            .unwrap();
        let explicit_then_sugar = ExperimentConfig::builder()
            .sampler(SamplerChoice::Newscast(NewscastParams {
                descriptor_max_age: Some(3),
                ..newscast
            }))
            .descriptor_max_age(Some(8))
            .build()
            .unwrap();
        for config in [&sugar_then_explicit, &explicit_then_sugar] {
            assert_eq!(config.params.descriptor_max_age, Some(8));
            let SamplerChoice::Newscast(params) = config.sampler else {
                panic!("newscast sampler expected");
            };
            assert_eq!(params.descriptor_max_age, Some(3));
        }
        // A parameter set swapped in after the sugar does not lose it.
        let custom = BootstrapParams {
            leaf_set_size: 8,
            ..BootstrapParams::paper_default()
        };
        let sugar_then_params = ExperimentConfig::builder()
            .descriptor_max_age(Some(8))
            .params(custom)
            .build()
            .unwrap();
        assert_eq!(sugar_then_params.params.leaf_set_size, 8);
        assert_eq!(sugar_then_params.params.descriptor_max_age, Some(8));
    }

    #[test]
    fn cycle_runs_take_every_core_up_to_the_network_size() {
        for (cores, nodes, threads) in [(1, 64, 1), (2, 64, 2), (8, 3, 3), (4, 4, 4), (0, 64, 1)] {
            assert_eq!(run_threads(Engine::Cycle, cores, nodes), threads);
        }
        // A pinned count is taken as configured, whatever the host offers.
        let pinned = Engine::ParallelCycle { threads: 3 };
        assert_eq!(run_threads(pinned, 1, 64), 3);
        assert_eq!(run_threads(pinned, 8, 64), 3);
    }

    /// Runs `config` on the event engine at exactly `threads` threads, through
    /// the seam [`run_scenario`] resolves the core count into: the report JSON
    /// and every node's final tables.
    fn event_run_on(
        config: &ExperimentConfig,
        threads: usize,
    ) -> (String, Vec<impl PartialEq + fmt::Debug>) {
        let traffic = LookupTraffic::for_config(config);
        let (report, snapshot) = match config.sampler {
            SamplerChoice::Oracle => {
                let mut protocol = BootstrapProtocol::new(config.params, OracleSampler::new());
                run_on_event_engine(config, &mut protocol, traffic, &mut NullObserver, threads)
            }
            SamplerChoice::Newscast(params) => {
                let mut protocol =
                    BootstrapProtocol::new(config.params, NewscastProtocol::new(params));
                run_on_event_engine(config, &mut protocol, traffic, &mut NullObserver, threads)
            }
        };
        let nodes =
            (0..snapshot.len()).map(|position| fingerprint(snapshot.node_at(position).unwrap()));
        (report.to_json(), nodes.collect())
    }

    /// The event engine streams its table work, and its output does not
    /// depend on the thread count: a serve-like run (aging, churn, a loss
    /// window, Zipf lookups), NEWSCAST under the hub attack, forgery and
    /// id-spray against the verifier, and a catastrophe with re-bootstrap and
    /// a massive join whose late replies to the dead `cancel_dead` purges.
    #[test]
    fn event_runs_are_identical_at_any_thread_count() {
        let build = |events: &[ScenarioEvent], adjust: &dyn Fn(&mut ExperimentConfigBuilder)| {
            let mut builder = ExperimentConfig::builder();
            builder
                .network_size(96)
                .seed(29)
                .max_cycles(18)
                .stop_when_perfect(false)
                .engine(Engine::Event {
                    latency: LatencyModel::Uniform {
                        min_millis: 5,
                        max_millis: 1500,
                    },
                });
            for event in events {
                builder.event(event.clone());
            }
            adjust(&mut builder);
            builder.build().unwrap()
        };
        let verified = |builder: &mut ExperimentConfigBuilder| {
            builder.params(BootstrapParams {
                descriptor_verifier: Some(0x5eed_cafe),
                ..BootstrapParams::paper_default()
            });
        };
        let convert = |behavior| ScenarioEvent::ByzantineConvert {
            phase: Phase::new(3, 14),
            fraction: 0.2,
            behavior,
        };
        let configs = [
            build(
                &[
                    ScenarioEvent::ChurnBurst {
                        phase: Phase::new(4, 8),
                        rate: 0.05,
                    },
                    ScenarioEvent::LossWindow {
                        phase: Phase::new(6, 10),
                        probability: 0.2,
                    },
                    ScenarioEvent::TrafficPhase {
                        phase: Phase::new(2, 18),
                        lookups_per_cycle: 200,
                        key_dist: KeyDist::Zipf { exponent: 1.1 },
                    },
                ],
                &|builder| {
                    builder.descriptor_max_age(Some(4));
                },
            ),
            build(&[convert(AdversaryBehavior::HubAttack)], &|builder| {
                builder.sampler(SamplerChoice::Newscast(newscast()));
            }),
            build(&[convert(AdversaryBehavior::ForgeDescriptors)], &verified),
            build(
                &[convert(AdversaryBehavior::IdSpray { target: 0 })],
                &verified,
            ),
            build(
                &[
                    ScenarioEvent::CatastrophicFailure {
                        at_cycle: 6,
                        fraction: 0.3,
                    },
                    ScenarioEvent::ReBootstrap {
                        at_cycle: 9,
                        fraction: 1.0,
                    },
                    ScenarioEvent::MassiveJoin {
                        at_cycle: 12,
                        count: 48,
                    },
                ],
                &|_| {},
            ),
        ];
        for config in &configs {
            let [one, rest @ ..] = [1, 2, 3, 8].map(|threads| event_run_on(config, threads));
            for (threads, other) in [2, 3, 8].into_iter().zip(rest) {
                assert!(one == other, "{} at {threads} threads", config.scenario);
            }
        }
    }

    #[test]
    fn legacy_knobs_desugar_into_the_scenario() {
        let churn = ScenarioEvent::ChurnBurst {
            phase: Phase::whole_run(),
            rate: 0.01,
        };
        let config = ExperimentConfig::builder()
            .event(churn.clone())
            .drop_probability(0.5)
            .drop_probability(0.2)
            .engine(Engine::ParallelCycle { threads: 4 })
            .build()
            .unwrap();
        assert_eq!(config.threads(), 4);
        assert_eq!(config.engine, Engine::ParallelCycle { threads: 4 });
        // Setting the knob again replaces its window at the end of the
        // timeline and leaves every other event where it was.
        let loss = ScenarioEvent::LossWindow {
            phase: Phase::whole_run(),
            probability: 0.2,
        };
        assert_eq!(config.scenario, Scenario::calm().with(churn).with(loss));
        // Setting a knob back to zero removes its event.
        let calm = ExperimentConfig::builder()
            .drop_probability(0.2)
            .drop_probability(0.0)
            .build()
            .unwrap();
        assert_eq!(calm.scenario, Scenario::calm());
    }

    #[test]
    fn small_network_converges_and_reports_series() {
        let config = ExperimentConfig::builder()
            .network_size(100)
            .seed(42)
            .max_cycles(60)
            .build()
            .unwrap();
        let outcome = Experiment::new(config).run();
        assert!(outcome.converged(), "{outcome}");
        let convergence = outcome.convergence_cycle().unwrap();
        assert!(convergence < 40);
        // The series cover every executed cycle and end at zero.
        assert_eq!(
            outcome.leaf_series().len(),
            outcome.cycles_executed() as usize
        );
        assert_eq!(
            outcome.prefix_series().len(),
            outcome.cycles_executed() as usize
        );
        assert_eq!(outcome.leaf_series().final_value(), Some(0.0));
        assert_eq!(outcome.prefix_series().final_value(), Some(0.0));
        assert!(outcome.final_state().is_perfect());
        assert!(outcome.traffic().requests_sent > 0);
        assert_eq!(outcome.config().network_size, 100);
        let text = outcome.to_string();
        assert!(text.contains("perfect tables"));
        let json = outcome.to_json();
        assert!(json.contains("\"engine\": \"cycle\""));
        assert!(json.contains("\"scenario\": \"calm\""));
        assert!(json.contains("leaf_series"));
    }

    #[test]
    fn identical_seeds_give_identical_outcomes() {
        let config = ExperimentConfig::builder()
            .network_size(80)
            .seed(7)
            .max_cycles(50)
            .build()
            .unwrap();
        let (a, snapshot_a) = Experiment::new(config.clone()).run_with_snapshot();
        let (b, snapshot_b) = Experiment::new(config).run_with_snapshot();
        // The whole convergence trace must replay exactly: cycle counts, both
        // per-cycle series, traffic counters and every node's final tables.
        assert_eq!(a.convergence_cycle(), b.convergence_cycle());
        assert_eq!(a.cycles_executed(), b.cycles_executed());
        assert_eq!(a.leaf_series().points(), b.leaf_series().points());
        assert_eq!(a.prefix_series().points(), b.prefix_series().points());
        assert_eq!(a.traffic().requests_sent, b.traffic().requests_sent);
        assert_eq!(
            a.traffic().requests_delivered,
            b.traffic().requests_delivered
        );
        assert_eq!(a.traffic().answers_delivered, b.traffic().answers_delivered);
        assert_eq!(snapshot_a.len(), snapshot_b.len());
        for (node_a, node_b) in (0..snapshot_a.len()).map(|i| {
            (
                snapshot_a.node_at(i).unwrap(),
                snapshot_b.node_at(i).unwrap(),
            )
        }) {
            assert_eq!(node_a.id(), node_b.id());
            assert_eq!(node_a.leaf_set().to_vec(), node_b.leaf_set().to_vec());
            assert_eq!(
                node_a.prefix_table().to_vec(),
                node_b.prefix_table().to_vec()
            );
        }

        // A different seed must actually change the trace, otherwise the
        // comparison above proves nothing.
        let reseeded = Experiment::new(
            ExperimentConfig::builder()
                .network_size(80)
                .seed(8)
                .max_cycles(50)
                .build()
                .unwrap(),
        )
        .run();
        assert_ne!(a.leaf_series().points(), reseeded.leaf_series().points());
    }

    #[test]
    fn message_loss_slows_but_does_not_prevent_convergence() {
        // Average over several seeds: any individual pair of runs is noisy, but on
        // average 20 % loss must cost extra cycles (Figure 4 vs Figure 3).
        let mut reliable_total = 0u64;
        let mut lossy_total = 0u64;
        for seed in 0..5u64 {
            let reliable = Experiment::new(
                ExperimentConfig::builder()
                    .network_size(100)
                    .seed(seed)
                    .max_cycles(150)
                    .build()
                    .unwrap(),
            )
            .run();
            let lossy = Experiment::new(
                ExperimentConfig::builder()
                    .network_size(100)
                    .seed(seed)
                    .drop_probability(0.2)
                    .max_cycles(150)
                    .build()
                    .unwrap(),
            )
            .run();
            assert!(reliable.converged());
            assert!(lossy.converged(), "{lossy}");
            reliable_total += reliable.convergence_cycle().unwrap();
            lossy_total += lossy.convergence_cycle().unwrap();
        }
        assert!(
            lossy_total >= reliable_total,
            "on average, loss must slow convergence (reliable {reliable_total}, lossy {lossy_total})"
        );
    }

    #[test]
    fn newscast_sampling_also_converges() {
        let config = ExperimentConfig::builder()
            .network_size(100)
            .seed(11)
            .sampler(SamplerChoice::Newscast(newscast()))
            .max_cycles(80)
            .build()
            .unwrap();
        let outcome = Experiment::new(config).run();
        assert!(outcome.converged(), "{outcome}");
    }

    #[test]
    fn churn_keeps_tables_imperfect_but_close() {
        let config = ExperimentConfig::builder()
            .network_size(100)
            .seed(13)
            .event(ScenarioEvent::ChurnBurst {
                phase: Phase::whole_run(),
                rate: 0.01,
            })
            .max_cycles(30)
            .stop_when_perfect(false)
            .build()
            .unwrap();
        let outcome = Experiment::new(config).run();
        assert_eq!(outcome.cycles_executed(), 30);
        // The protocol has no failure detector (it is designed for a short burst),
        // so descriptors of departed nodes accumulate in the leaf sets: after T
        // cycles of replacement churn at rate r the live fraction of the nearest
        // neighbours is roughly 1 / (1 + rT), and the missing-entry proportion
        // settles near rT / (1 + rT). With r = 1 % and T = 30 that bound is ~0.23;
        // quality must stay well within it, and far from collapse.
        let final_leaf = outcome.leaf_series().final_value().unwrap();
        assert!(
            final_leaf < 0.35,
            "leaf quality too poor under churn: {final_leaf}"
        );
        let final_prefix = outcome.prefix_series().final_value().unwrap();
        assert!(
            final_prefix < 0.35,
            "prefix quality too poor under churn: {final_prefix}"
        );
        assert!(!outcome.converged());
        let text = outcome.to_string();
        assert!(text.contains("churn"));
    }

    #[test]
    fn snapshot_exposes_every_nodes_final_state() {
        let config = ExperimentConfig::builder()
            .network_size(64)
            .seed(21)
            .max_cycles(50)
            .build()
            .unwrap();
        let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
        assert!(outcome.converged());
        assert_eq!(snapshot.len(), 64);
        assert!(!snapshot.is_empty());
        assert_eq!(snapshot.ids().count(), 64);
        let some_id = snapshot.node_at(0).unwrap().id();
        let by_id = snapshot.node_by_id(some_id).unwrap();
        assert_eq!(by_id.id(), some_id);
        assert!(!by_id.leaf_set().is_empty());
        // The run is seeded, so no node drew the id u64::MAX; looking it up
        // must miss.
        assert!(snapshot
            .node_by_id(bss_util::id::NodeId::new(u64::MAX))
            .is_none());
        assert!(snapshot.node_at(64).is_none());
    }

    #[test]
    fn stop_when_perfect_false_runs_full_budget() {
        let config = ExperimentConfig::builder()
            .network_size(64)
            .seed(17)
            .max_cycles(30)
            .stop_when_perfect(false)
            .build()
            .unwrap();
        let outcome = Experiment::new(config).run();
        assert_eq!(outcome.cycles_executed(), 30);
        assert!(outcome.converged());
        assert!(outcome.convergence_cycle().unwrap() < 30);
    }

    #[test]
    fn perfection_stop_waits_for_pending_scenario_events() {
        // A 64-node network converges well before cycle 25, but the scheduled
        // catastrophe must still strike: the perfection stop defers while a
        // scenario transition lies ahead. The protocol has no failure detector
        // (it bootstraps; the substrate's own maintenance would take over), so
        // after half the network dies the survivors' tables keep dead entries
        // and perfection against the survivor oracle is never re-reached —
        // the run uses its full budget and reports the degradation honestly.
        let config = ExperimentConfig::builder()
            .network_size(64)
            .seed(19)
            .max_cycles(80)
            .event(ScenarioEvent::CatastrophicFailure {
                at_cycle: 25,
                fraction: 0.5,
            })
            .build()
            .unwrap();
        let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
        assert_eq!(
            outcome.cycles_executed(),
            80,
            "run must not stop at the pre-catastrophe perfection"
        );
        assert_eq!(
            outcome.leaf_series().value_at(24),
            Some(0.0),
            "the network was perfect right before the catastrophe"
        );
        assert!(
            outcome.leaf_series().value_at(25).unwrap() > 0.0,
            "the catastrophe degrades the survivor-oracle measurement"
        );
        assert!(
            !outcome.converged(),
            "membership churn resets the recorded convergence: {outcome}"
        );
        assert_eq!(snapshot.len(), 32, "half the nodes died");
        assert_eq!(outcome.events_fired().len(), 1);
        assert_eq!(outcome.events_fired()[0].0, 25);
    }

    #[test]
    fn rebootstrap_wipes_survivor_state_and_reconverges() {
        // A re-bootstrap order with no failure: membership stays static (the
        // incremental measurement path keeps serving), but every node's tables
        // are wiped at cycle 20 and rebuilt. The recorded convergence must be
        // the *second* one — table-perturbing events reset it.
        let config = ExperimentConfig::builder()
            .network_size(64)
            .seed(37)
            .max_cycles(80)
            .event(ScenarioEvent::ReBootstrap {
                at_cycle: 20,
                fraction: 1.0,
            })
            .build()
            .unwrap();
        let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
        assert_eq!(
            outcome.leaf_series().value_at(19),
            Some(0.0),
            "perfect before the order"
        );
        assert!(
            outcome.leaf_series().value_at(20).unwrap() > 0.0,
            "the wipe degrades the measurement at the order cycle"
        );
        assert!(outcome.converged(), "{outcome}");
        assert!(
            outcome.convergence_cycle().unwrap() > 20,
            "pre-wipe perfection must not be the recorded convergence"
        );
        assert_eq!(snapshot.len(), 64, "membership untouched");
        assert_eq!(outcome.events_fired().len(), 1);
        // No node ever died, so the dead-descriptor series is identically zero
        // and no degradation/recovery is recorded.
        assert!(outcome
            .series("dead_series")
            .unwrap()
            .points()
            .iter()
            .all(|&(_, v)| v == 0.0));
        assert_eq!(outcome.degraded_cycle(), None);
        assert_eq!(outcome.recovered_cycle(), None);
        assert_eq!(outcome.cycles_to_recover(), None);
        // The report JSON carries the recovery fields and the new series.
        let json = outcome.to_json();
        assert!(json.contains("\"dead_series\""));
        assert!(json.contains("\"recovered_cycle\": null"));
        assert!(json.contains("re-bootstrap"));
    }

    #[test]
    fn massive_join_is_absorbed() {
        let config = ExperimentConfig::builder()
            .network_size(64)
            .seed(23)
            .max_cycles(80)
            .event(ScenarioEvent::MassiveJoin {
                at_cycle: 10,
                count: 64,
            })
            .build()
            .unwrap();
        let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
        assert!(outcome.converged(), "{outcome}");
        assert_eq!(snapshot.len(), 128, "the flash crowd doubled the network");
    }

    #[test]
    fn partition_heals_and_merges() {
        // While the partition is in force, direct exchanges across the split
        // are blocked (cross-half descriptors still circulate through the
        // independent sampling service, which is the paper's premise), so
        // convergence is slower than in a calm run; once the window closes the
        // halves merge and the run reaches full-membership perfection.
        let mut calm_builder = ExperimentConfig::builder();
        calm_builder.network_size(256).seed(29).max_cycles(120);
        let calm = Experiment::new(calm_builder.build().unwrap()).run();
        let partitioned = Experiment::new(
            calm_builder
                .event(ScenarioEvent::Partition {
                    phase: Phase::new(0, 12),
                })
                .build()
                .unwrap(),
        )
        .run();
        assert!(calm.converged());
        assert!(partitioned.converged(), "{partitioned}");
        assert!(
            partitioned.convergence_cycle().unwrap() >= calm.convergence_cycle().unwrap(),
            "blocking half of all exchanges must not speed convergence up \
             (calm {:?}, partitioned {:?})",
            calm.convergence_cycle(),
            partitioned.convergence_cycle()
        );
        // The heal at cycle 12 counts as a pending change, so even a network
        // perfect during the split would have kept running until the merge.
        assert_eq!(partitioned.events_fired().len(), 1);
        assert_eq!(partitioned.events_fired()[0].0, 0);
    }

    #[test]
    fn observers_see_cycles_and_events() {
        let mut recorder = Recording::default();
        let config = ExperimentConfig::builder()
            .network_size(64)
            .seed(31)
            .max_cycles(40)
            .event(ScenarioEvent::MassiveJoin {
                at_cycle: 5,
                count: 16,
            })
            .build()
            .unwrap();
        let (outcome, _) = Experiment::new(config).run_observed(&mut recorder);
        assert_eq!(recorder.leaf.len(), outcome.cycles_executed() as usize);
        assert_eq!(recorder.leaf, outcome.leaf_series().points());
        assert_eq!(recorder.events, [5]);
    }

    #[test]
    fn report_json_is_pinned() {
        // FNV-1a digests of `to_json()` recorded with the hand-rolled writer
        // this one replaced; the WAN run's re-recorded when each lookup got
        // its own keyed generator and latencies their 1 ms buckets, which
        // moved its lookup keys and nothing else. Between them the two runs switch on every
        // capability-gated part of the document: the attack and overlay
        // series and a completed eclipse; per-region series, the traffic
        // block and its series, proximity, degradation and recovery.
        let digest = |config: &ExperimentConfigBuilder| {
            let json = Experiment::new(config.build().unwrap()).run().to_json();
            json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |digest, byte| {
                (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        // A digest as the literal its pin holds, for a failing run to print.
        let literal = |value: u64| {
            let hex = format!("{value:016x}");
            let groups: Vec<_> = (0..16).step_by(4).map(|at| &hex[at..at + 4]).collect();
            format!("0x{}", groups.join("_"))
        };
        let mut spray = ExperimentConfig::builder();
        spray
            .network_size(32)
            .seed(5)
            .max_cycles(12)
            .stop_when_perfect(false)
            .sampler(SamplerChoice::Newscast(newscast()))
            .event(ScenarioEvent::ByzantineConvert {
                phase: Phase::new(3, 10),
                fraction: 0.25,
                behavior: AdversaryBehavior::IdSpray { target: 0 },
            });
        let spray = digest(&spray);
        assert_eq!(
            spray,
            0x71d1_0bf5_7cfe_8f68,
            "the spray pin wants {}",
            literal(spray)
        );

        let mut wan = ExperimentConfig::builder();
        wan.network_size(32)
            .seed(6)
            .max_cycles(12)
            .stop_when_perfect(false)
            .descriptor_max_age(Some(4))
            .engine(Engine::Event {
                latency: LatencyModel::default(),
            })
            .link_model(clustered_wan(2, 400.0, 30.0))
            .event(ScenarioEvent::TrafficPhase {
                phase: Phase::new(2, 12),
                lookups_per_cycle: 20,
                key_dist: KeyDist::Uniform,
            })
            .event(ScenarioEvent::ChurnBurst {
                phase: Phase::new(4, 6),
                rate: 0.1,
            });
        let wan = digest(&wan);
        assert_eq!(
            wan,
            0x4438_22e3_01ea_af37,
            "the WAN pin wants {}",
            literal(wan)
        );
    }

    /// Runs `config` on its engine (the cycle engine with its timeline and
    /// adversary, or the event engine calm) and returns the snapshot next to
    /// the capture it replaced: every alive node unpacked at once while the
    /// protocol still held the packed store.
    fn lazy_and_eager_capture(
        config: &ExperimentConfig,
    ) -> (PopulationSnapshot, Vec<BootstrapNode<NodeIndex>>) {
        let world = World::new(config);
        let mut protocol = BootstrapProtocol::new(config.params, OracleSampler::new());
        let capture = |protocol: &mut BootstrapProtocol<_>, ctx: &EngineContext| {
            let alive = ctx.network.alive_indices();
            let eager = alive.filter_map(|node| protocol.node(node)).collect();
            (PopulationSnapshot::capture(protocol, ctx), eager)
        };
        if let Engine::Event { .. } = config.engine {
            let mut engine: EventEngine<BootstrapMessage> =
                EventEngine::new(world.network, world.rng).with_transport(world.transport);
            protocol.init_all(engine.context_mut());
            let end = config.max_cycles * config.params.cycle_millis;
            protocol.event_slice(1, None, |events| engine.run_until(events, end));
            return capture(&mut protocol, engine.context());
        }
        let mut engine = CycleEngine::new(world.network, world.rng)
            .with_transport(world.transport)
            .with_churn(world.churn);
        engine.context_mut().adversary = config.scenario.build_adversary();
        protocol.init_all(engine.context_mut());
        engine.run(&mut protocol, config.max_cycles);
        capture(&mut protocol, engine.context())
    }

    /// The snapshot serves the nodes the eager capture built, by position and
    /// by identifier, and a clone taken with half of them built serves the
    /// same: on a run with an id-spray adversary and a catastrophe (forged
    /// entries under aliases, dead nodes), on one with descriptor aging and
    /// churn, and on the event engine.
    #[test]
    fn snapshot_serves_the_nodes_an_eager_capture_built() {
        let build = |builder: &mut ExperimentConfigBuilder| {
            builder
                .network_size(64)
                .seed(23)
                .max_cycles(16)
                .stop_when_perfect(false);
            builder.build().unwrap()
        };
        let spray = build(
            ExperimentConfig::builder()
                .event(ScenarioEvent::ByzantineConvert {
                    phase: Phase::new(3, 16),
                    fraction: 0.25,
                    behavior: AdversaryBehavior::IdSpray { target: 0 },
                })
                .event(ScenarioEvent::CatastrophicFailure {
                    at_cycle: 10,
                    fraction: 0.2,
                }),
        );
        let aging = build(
            ExperimentConfig::builder()
                .descriptor_max_age(Some(3))
                .event(ScenarioEvent::ChurnBurst {
                    phase: Phase::new(4, 12),
                    rate: 0.1,
                }),
        );
        let event = build(ExperimentConfig::builder().engine(Engine::Event {
            latency: LatencyModel::default(),
        }));
        let mut forged_and_dead = Vec::new();
        for config in [spray, aging, event] {
            let (snapshot, eager) = lazy_and_eager_capture(&config);
            let ids = &snapshot.ids;
            let forged = |node: &BootstrapNode<NodeIndex>| {
                let mut entries = node.leaf_set().iter().chain(node.prefix_table().iter());
                entries.any(|entry| ids[entry.address().as_usize()] != entry.id())
            };
            forged_and_dead.push((eager.iter().any(forged), eager.len() < 64));
            assert!(snapshot.ids().eq(eager.iter().map(BootstrapNode::id)));
            for (position, expected) in eager.iter().enumerate().step_by(2) {
                let node = snapshot.node_at(position).unwrap();
                assert_eq!(fingerprint(node), fingerprint(expected));
            }
            let partly_built = snapshot.clone();
            for (position, expected) in eager.iter().enumerate() {
                let node = snapshot.node_at(position).unwrap();
                assert_eq!(fingerprint(node), fingerprint(expected));
                let by_id = snapshot.node_by_id(expected.id()).unwrap();
                assert!(std::ptr::eq(by_id, node));
                let cloned = partly_built.node_at(position).unwrap();
                assert_eq!(fingerprint(cloned), fingerprint(expected));
            }
            assert_eq!(snapshot.len(), eager.len());
            assert!(snapshot.node_at(eager.len()).is_none());
        }
        // The spray run kept forgeries and lost nodes to the catastrophe.
        assert_eq!(forged_and_dead[0], (true, true));
    }

    #[test]
    fn every_measurement_equals_a_full_pass_against_a_fresh_oracle() {
        // A churn window and a catastrophe (the oracle rebuilt), a quiet tail
        // and a re-bootstrap (incremental passes over the dirty set).
        let config = ExperimentConfig::builder()
            .network_size(128)
            .seed(9)
            .max_cycles(24)
            .stop_when_perfect(false)
            .event(ScenarioEvent::ChurnBurst {
                phase: Phase::new(2, 6),
                rate: 0.05,
            })
            .event(ScenarioEvent::CatastrophicFailure {
                at_cycle: 10,
                fraction: 0.3,
            })
            .event(ScenarioEvent::ReBootstrap {
                at_cycle: 15,
                fraction: 0.5,
            })
            .build()
            .unwrap();
        let world = World::new(&config);
        let mut engine = CycleEngine::new(world.network, world.rng)
            .with_transport(world.transport)
            .with_churn(world.churn);
        let mut protocol = BootstrapProtocol::new(config.params, OracleSampler::new());
        protocol.init_all(engine.context_mut());
        let mut driver = MeasurementDriver::new(&config, &protocol, engine.context(), None, None);
        let mut rebuilt = Vec::new();
        engine.run_with_observer(
            &mut protocol,
            config.max_cycles,
            1,
            |protocol, ctx, cycle| {
                let membership = driver.membership;
                let flow = driver.observe_cycle(protocol, ctx, cycle, &mut NullObserver);
                if driver.membership != membership {
                    rebuilt.push(cycle);
                }
                let oracle = protocol.oracle_for(ctx);
                let full = protocol.measure(&oracle, &mut ConvergenceTracker::new(), ctx);
                assert_eq!(driver.report.final_state, full, "cycle {cycle}");
                flow
            },
        );
        assert_eq!(rebuilt, [2, 3, 4, 5, 10], "rebuilt when membership moved");
    }
}
