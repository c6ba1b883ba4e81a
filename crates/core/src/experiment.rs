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
//! The heart of the module is [`run_scenario`]: one entry point that drives a
//! [`BootstrapProtocol`] through an [`ExperimentConfig`]'s
//! [`Scenario`] on whichever
//! [`Engine`] the configuration selects — the
//! sequential cycle engine, the deterministic parallel cycle engine, or the
//! discrete-event engine with per-link latency — reporting to a pluggable
//! [`Observer`] and returning one serializable [`RunReport`].

use crate::convergence::{ConvergenceOracle, ConvergenceTracker, NetworkConvergence};
use crate::node::BootstrapNode;
use crate::protocol::{BootstrapMessage, BootstrapProtocol, TrafficStats};
use crate::routing::RouterKind;
use crate::scenario::{Engine, LatencyModel, NullObserver, Observer, Scenario};
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
use bss_util::descriptor::Descriptor;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use bss_util::stats::Series;
use std::fmt;
use std::fmt::Write as _;
use std::ops::ControlFlow;
use std::sync::Arc;

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
/// The scalar builder setters are sugar:
/// [`drop_probability`](ExperimentConfigBuilder::drop_probability) and
/// [`churn_rate`](ExperimentConfigBuilder::churn_rate) install one-phase
/// whole-run scenario windows, and
/// [`threads`](ExperimentConfigBuilder::threads) selects the engine.
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
    /// Observer cadence: convergence is measured every `measure_every` cycles
    /// (1 = every cycle). Larger cadences make huge sweeps cheaper at the cost
    /// of coarser series; the perfection stop only triggers on measured cycles.
    pub measure_every: u64,
    /// Accumulate per-phase wall time (plan / execute / commit / measure) on
    /// the cycle engines and attach it to the [`RunReport`]. Off by default:
    /// timing is observational only — it never changes the simulated outcome —
    /// but costs two clock reads per wave.
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
                measure_every: 1,
                profile: false,
            },
            aging_sugar: None,
        }
    }

    /// The probability of the scenario's whole-run loss window (0 when none):
    /// the value the legacy `drop_probability` field used to hold.
    pub fn drop_probability(&self) -> f64 {
        self.scenario.whole_run_loss()
    }

    /// The rate of the scenario's whole-run churn burst (0 when none): the
    /// value the legacy `churn_rate` field used to hold.
    pub fn churn_rate(&self) -> f64 {
        self.scenario.whole_run_churn()
    }

    /// The worker thread count implied by the engine selection.
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
    pub fn placement(&self) -> Option<Arc<Placement>> {
        self.link_model()
            .build_placement(self.network_size, self.seed)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] when the protocol parameters are invalid, the
    /// network has fewer than two nodes, a budget or cadence is zero, the
    /// engine selection is invalid, or the scenario timeline is rejected
    /// (out-of-range probabilities, empty windows, overlapping exclusive
    /// phases — see [`Scenario::validate`]).
    pub fn validate(&self) -> Result<(), InvalidParams> {
        self.params.validate()?;
        if let SamplerChoice::Newscast(p) = self.sampler {
            p.validate()?;
        }
        if self.network_size < 2 {
            return Err(InvalidParams::from_message(
                "network_size must be at least 2",
            ));
        }
        if self.max_cycles == 0 {
            return Err(InvalidParams::from_message("max_cycles must be positive"));
        }
        if self.measure_every == 0 {
            return Err(InvalidParams::from_message(
                "measure_every must be positive",
            ));
        }
        self.engine.validate()?;
        self.scenario.validate()?;
        self.link_model().validate()?;
        // Regional connectivity events only mean something under a placement:
        // without a Wan link model no region exists to outage or slow down,
        // so the event would silently do nothing.
        if self.scenario.has_regional_events() && !self.link_model().is_wan() {
            return Err(InvalidParams::from_message(
                "regional scenario events require a wan link model (regions only exist under a node placement)",
            ));
        }
        // A regional event naming a region the placement never populates
        // would likewise be a silent no-op: reject it while both are in scope.
        if let Some(spec) = self.link_model().placement_spec() {
            let regions = spec.region_count();
            let named = self
                .scenario
                .regional_outages()
                .map(|(_, region, _)| ("regional outage region", region))
                .chain(
                    self.scenario
                        .slow_link_windows()
                        .filter_map(|(_, region, _)| region.map(|r| ("slow links region", r))),
                );
            for (field, region) in named {
                if region >= regions {
                    return Err(InvalidParams::OutOfRange {
                        field,
                        value: f64::from(region),
                        min: 0.0,
                        max: f64::from(regions.saturating_sub(1)),
                    });
                }
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

    /// Legacy sugar: sets the per-cycle replacement churn rate by installing
    /// (or, at zero, removing) a whole-run churn burst on the scenario
    /// timeline.
    pub fn churn_rate(&mut self, rate: f64) -> &mut Self {
        self.config.scenario.set_whole_run_churn(rate);
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

    /// Sets the observer cadence (convergence measured every `cycles` cycles).
    pub fn measure_every(&mut self, cycles: u64) -> &mut Self {
        self.config.measure_every = cycles;
        self
    }

    /// Enables per-phase wall-time profiling on the cycle engines (see
    /// [`ExperimentConfig::profile`]).
    pub fn profile(&mut self, profile: bool) -> &mut Self {
        self.config.profile = profile;
        self
    }

    /// Legacy sugar: sets the number of worker threads by selecting
    /// [`Engine::Cycle`] (1) or [`Engine::ParallelCycle`] (more). The outcome
    /// is bit-for-bit identical at any value.
    pub fn threads(&mut self, threads: usize) -> &mut Self {
        self.config.engine = Engine::with_threads(threads);
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

/// The serializable result of one simulation run, produced identically by all
/// engines and consumed by every experiment binary, the lookup evaluator and
/// the examples.
#[derive(Debug, Clone)]
pub struct RunReport {
    config: ExperimentConfig,
    leaf_series: Series,
    prefix_series: Series,
    dead_series: Series,
    poisoned_series: Series,
    eclipse_series: Series,
    in_degree_mean_series: Series,
    in_degree_max_series: Series,
    in_degree_gini_series: Series,
    dead_pointer_series: Series,
    /// One missing-leaf-proportion series per placement region (empty without
    /// a WAN link model).
    region_leaf_series: Vec<Series>,
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
        &self.leaf_series
    }

    /// Per-cycle proportion of missing prefix-table entries (Figure 3/4, bottom
    /// panels).
    pub fn prefix_series(&self) -> &Series {
        &self.prefix_series
    }

    /// Per-cycle fraction of stored descriptors (leaf sets and prefix tables,
    /// over every alive node) that point at dead nodes — the *dead-descriptor
    /// fraction*, the recovery metric of the post-catastrophe scenarios. The
    /// measurement walks every table, so it only runs when the scenario can
    /// actually kill nodes (a churn burst or a catastrophe is on the
    /// timeline); in every other run the fraction is structurally zero and
    /// recorded as such without the walk.
    pub fn dead_series(&self) -> &Series {
        &self.dead_series
    }

    /// Per measured cycle, the fraction of all stored descriptors (leaf sets
    /// and prefix tables over every alive node) whose address is a converted
    /// adversary — the *poisoned-descriptor fraction*. Structurally zero (and
    /// recorded without the walk) on honest timelines.
    pub fn poisoned_series(&self) -> &Series {
        &self.poisoned_series
    }

    /// Per measured cycle, the fraction of the eclipse target's leaf-set slots
    /// held by adversarial addresses. Only populated when the scenario's
    /// adversary names a target (the id-spray behaviour); structurally zero
    /// otherwise.
    pub fn eclipse_series(&self) -> &Series {
        &self.eclipse_series
    }

    /// Per measured cycle, the mean in-degree of the sampling overlay (close
    /// to the view size when healthy). Empty when the sampler maintains no
    /// overlay to measure (the oracle).
    pub fn in_degree_mean_series(&self) -> &Series {
        &self.in_degree_mean_series
    }

    /// Per measured cycle, the largest in-degree any alive node holds in the
    /// sampling overlay — a hub attack spikes this. Empty under the oracle
    /// sampler.
    pub fn in_degree_max_series(&self) -> &Series {
        &self.in_degree_max_series
    }

    /// Per measured cycle, the Gini coefficient of the sampling overlay's
    /// in-degree distribution (0 balanced, → 1 hub). Empty under the oracle
    /// sampler.
    pub fn in_degree_gini_series(&self) -> &Series {
        &self.in_degree_gini_series
    }

    /// Per measured cycle, the fraction of sampler view entries pointing at
    /// departed nodes. Empty under the oracle sampler.
    pub fn dead_pointer_series(&self) -> &Series {
        &self.dead_pointer_series
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

    /// The first cycle at which every node had perfect tables, if that happened
    /// within the budget.
    pub fn convergence_cycle(&self) -> Option<u64> {
        self.convergence_cycle
    }

    /// Whether the run reached perfect tables at every node.
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

    /// Per placement region, the per-measured-cycle proportion of missing
    /// leaf-set entries over that region's nodes. Empty — and cost-free —
    /// without a WAN link model; with one, position `r` is region `r`.
    pub fn region_leaf_series(&self) -> &[Series] {
        &self.region_leaf_series
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
    /// configured with [`ExperimentConfig::profile`] and executed on a cycle
    /// engine (the event engine has no phase structure to attribute).
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.phase_profile.as_ref()
    }

    /// Renders the report as a self-contained JSON document (engine, scenario,
    /// convergence, traffic, fired events and both per-cycle series). This is
    /// the artifact format the scenario smoke suite uploads from CI.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"engine\": \"{}\",", self.config.engine.label());
        let _ = writeln!(out, "  \"threads\": {},", self.config.threads());
        let _ = writeln!(out, "  \"scenario\": \"{}\",", self.config.scenario);
        let _ = writeln!(out, "  \"network_size\": {},", self.config.network_size);
        let _ = writeln!(out, "  \"seed\": {},", self.config.seed);
        let _ = writeln!(out, "  \"max_cycles\": {},", self.config.max_cycles);
        let _ = writeln!(out, "  \"cycles_executed\": {},", self.cycles_executed);
        let optional =
            |cycle: Option<u64>| cycle.map_or_else(|| "null".to_owned(), |c| c.to_string());
        let _ = writeln!(
            out,
            "  \"convergence_cycle\": {},",
            optional(self.convergence_cycle)
        );
        let _ = writeln!(
            out,
            "  \"degraded_cycle\": {},",
            optional(self.degraded_cycle)
        );
        let _ = writeln!(
            out,
            "  \"recovered_cycle\": {},",
            optional(self.recovered_cycle)
        );
        let _ = writeln!(
            out,
            "  \"cycles_to_recover\": {},",
            optional(self.cycles_to_recover())
        );
        let _ = writeln!(
            out,
            "  \"time_to_eclipse\": {},",
            optional(self.time_to_eclipse)
        );
        let _ = writeln!(out, "  \"eclipsed\": {},", self.eclipsed());
        let _ = writeln!(
            out,
            "  \"final_missing_leaf\": {:.6e},",
            self.final_state.leaf_proportion()
        );
        let _ = writeln!(
            out,
            "  \"final_missing_prefix\": {:.6e},",
            self.final_state.prefix_proportion()
        );
        let _ = writeln!(
            out,
            "  \"traffic\": {{\"requests_sent\": {}, \"requests_delivered\": {}, \
             \"answers_sent\": {}, \"answers_delivered\": {}, \"mean_message_size\": {:.2}, \
             \"max_message_size\": {}}},",
            self.traffic.requests_sent,
            self.traffic.requests_delivered,
            self.traffic.answers_sent,
            self.traffic.answers_delivered,
            self.traffic.mean_message_size(),
            self.traffic.max_message_size(),
        );
        if let Some(lookups) = self.lookups.as_ref() {
            let _ = writeln!(
                out,
                "  \"lookup_traffic\": {{\"router\": \"{}\", \"issued\": {}, \
                 \"delivered\": {}, \"success_rate\": {:.6}, \"mean_hops\": {:.6}, \
                 \"max_hops\": {}}},",
                lookups.router(),
                lookups.issued(),
                lookups.delivered(),
                lookups.success_rate(),
                lookups.mean_hops(),
                lookups.max_hops(),
            );
        }
        match self.proximity.as_ref() {
            Some(proximity) => {
                let _ = writeln!(
                    out,
                    "  \"proximity\": {{\"mean_leaf_distance\": {:.6}, \
                     \"mean_random_distance\": {:.6}, \"ratio\": {:.6}, \
                     \"leaf_links\": {}}},",
                    proximity.mean_leaf_distance,
                    proximity.mean_random_distance,
                    proximity.ratio(),
                    proximity.leaf_links,
                );
            }
            None => {
                let _ = writeln!(out, "  \"proximity\": null,");
            }
        }
        match self.phase_profile.as_ref() {
            Some(profile) => {
                let _ = writeln!(
                    out,
                    "  \"phase_profile\": {{\"plan_seconds\": {:.6}, \"execute_seconds\": {:.6}, \
                     \"commit_seconds\": {:.6}, \"measure_seconds\": {:.6}, \
                     \"profiled_cycles\": {}}},",
                    profile.plan.as_secs_f64(),
                    profile.execute.as_secs_f64(),
                    profile.commit.as_secs_f64(),
                    profile.measure.as_secs_f64(),
                    profile.cycles,
                );
            }
            None => {
                let _ = writeln!(out, "  \"phase_profile\": null,");
            }
        }
        out.push_str("  \"events\": [");
        for (position, (cycle, description)) in self.events_fired.iter().enumerate() {
            if position > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"cycle\": {cycle}, \"event\": \"{description}\"}}");
        }
        out.push_str("],\n");
        let mut series_list: Vec<(String, &Series)> = vec![
            ("leaf_series".to_owned(), &self.leaf_series),
            ("prefix_series".to_owned(), &self.prefix_series),
            ("dead_series".to_owned(), &self.dead_series),
            ("poisoned_series".to_owned(), &self.poisoned_series),
            ("eclipse_series".to_owned(), &self.eclipse_series),
            (
                "in_degree_mean_series".to_owned(),
                &self.in_degree_mean_series,
            ),
            (
                "in_degree_max_series".to_owned(),
                &self.in_degree_max_series,
            ),
            (
                "in_degree_gini_series".to_owned(),
                &self.in_degree_gini_series,
            ),
            ("dead_pointer_series".to_owned(), &self.dead_pointer_series),
        ];
        for (region, series) in self.region_leaf_series.iter().enumerate() {
            series_list.push((format!("leaf_series_r{region}"), series));
        }
        if let Some(lookups) = self.lookups.as_ref() {
            series_list.extend([
                ("lookup_success_series".to_owned(), lookups.success_series()),
                (
                    "lookup_hop_mean_series".to_owned(),
                    lookups.hop_mean_series(),
                ),
                ("lookup_hop_max_series".to_owned(), lookups.hop_max_series()),
                (
                    "lookup_latency_p50_series".to_owned(),
                    lookups.latency_p50_series(),
                ),
                (
                    "lookup_latency_p95_series".to_owned(),
                    lookups.latency_p95_series(),
                ),
                (
                    "lookup_latency_p99_series".to_owned(),
                    lookups.latency_p99_series(),
                ),
            ]);
            for (region, series) in lookups.region_success_series().iter().enumerate() {
                series_list.push((format!("lookup_success_series_r{region}"), series));
            }
            for (region, series) in lookups.region_p50_series().iter().enumerate() {
                series_list.push((format!("lookup_latency_p50_series_r{region}"), series));
            }
            for (region, series) in lookups.region_p99_series().iter().enumerate() {
                series_list.push((format!("lookup_latency_p99_series_r{region}"), series));
            }
        }
        let last = series_list.len() - 1;
        for (index, (name, series)) in series_list.into_iter().enumerate() {
            let _ = write!(out, "  \"{name}\": [");
            for (position, (cycle, value)) in series.points().iter().enumerate() {
                if position > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{cycle}, {value:.6e}]");
            }
            out.push_str(if index < last { "],\n" } else { "]\n" });
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "N={} seed={} drop={:.0}% churn={:.1}%/cycle: ",
            self.config.network_size,
            self.config.seed,
            self.config.drop_probability() * 100.0,
            self.config.churn_rate() * 100.0
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

/// A frozen copy of every node's bootstrapped state at the end of a run, indexed
/// by identifier. This is what routing-substrate consumers (`bss-overlay`) operate
/// on: it is exactly the information a real deployment would hand over to Pastry /
/// Kademlia / Bamboo maintenance once the bootstrap completes.
#[derive(Debug, Clone, Default)]
pub struct PopulationSnapshot {
    nodes: Vec<crate::node::BootstrapNode<bss_sim::network::NodeIndex>>,
    index_by_id: std::collections::HashMap<bss_util::id::NodeId, usize>,
}

impl PopulationSnapshot {
    /// Builds a snapshot from the alive, initialised nodes of a protocol run.
    /// Both engines expose the required [`EngineContext`].
    pub fn capture<S: PeerSampler>(protocol: &BootstrapProtocol<S>, ctx: &EngineContext) -> Self {
        let mut snapshot = PopulationSnapshot::default();
        for node in ctx.network.alive_indices() {
            if let Some(state) = protocol.node(node) {
                snapshot
                    .index_by_id
                    .insert(state.id(), snapshot.nodes.len());
                snapshot.nodes.push(state);
            }
        }
        snapshot
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All identifiers in the snapshot, in capture order.
    pub fn ids(&self) -> impl Iterator<Item = bss_util::id::NodeId> + '_ {
        self.nodes.iter().map(|n| n.id())
    }

    /// The node state with the given identifier, if present.
    pub fn node_by_id(
        &self,
        id: bss_util::id::NodeId,
    ) -> Option<&crate::node::BootstrapNode<bss_sim::network::NodeIndex>> {
        self.index_by_id.get(&id).map(|&i| &self.nodes[i])
    }

    /// The node state at a dense position (useful for picking random nodes).
    pub fn node_at(
        &self,
        position: usize,
    ) -> Option<&crate::node::BootstrapNode<bss_sim::network::NodeIndex>> {
        self.nodes.get(position)
    }
}

/// Per-run measurement bookkeeping shared by every engine path: cadenced
/// convergence measurement (incremental when membership is static), the two
/// figure series, the perfection stop and observer dispatch.
struct MeasurementDriver {
    /// No event ever degrades built tables (membership changes *or*
    /// re-bootstrap orders): a recorded convergence cycle is final.
    tables_stable: bool,
    /// Some event can kill nodes (churn or catastrophe), so dead descriptors
    /// are possible and worth the per-cycle table walk; otherwise the
    /// dead-descriptor fraction is recorded as a structural zero.
    deaths_possible: bool,
    /// A Byzantine conversion is on the timeline, so poisoned descriptors are
    /// possible and worth the per-cycle table walk; otherwise the poisoned
    /// fraction (and the eclipse fraction) is a structural zero.
    adversary_possible: bool,
    /// The node an id-spray adversary eclipses, when the timeline carries one.
    eclipse_target: Option<NodeIndex>,
    static_oracle: Option<ConvergenceOracle>,
    tracker: ConvergenceTracker,
    /// The WAN node placement, when the link model defines one — the gate for
    /// per-region measurement. Shared with the transport and the network.
    placement: Option<Arc<Placement>>,
    /// Reused per-region aggregation buckets (one per placement region).
    region_buckets: Vec<NetworkConvergence>,
    /// Reused rehydration target of the per-region walk (WAN runs only).
    region_scratch: Option<BootstrapNode<NodeIndex>>,
    /// The report being filled, cycle by cycle; [`MeasurementDriver::finish`]
    /// adds what is only known when the run ends.
    report: RunReport,
    /// The live lookup-traffic driver; built only when the scenario schedules
    /// a traffic phase, so every other run pays nothing.
    lookup_traffic: Option<LookupTraffic>,
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
    ) -> Self {
        // Under membership churn the live population changes, so the oracle has
        // to be rebuilt per measurement; with static membership one oracle
        // serves the whole run and the convergence can be tracked incrementally
        // over the protocol's dirty set.
        let membership_stable = !config.scenario.perturbs_membership();
        let static_oracle = membership_stable.then(|| protocol.oracle_for(ctx));
        MeasurementDriver {
            // An adversary corrupts tables without perturbing membership, so a
            // convergence recorded before the attack window must not be final.
            tables_stable: !config.scenario.perturbs_tables() && !config.scenario.has_adversary(),
            deaths_possible: config.scenario.can_kill_nodes(),
            adversary_possible: config.scenario.has_adversary(),
            eclipse_target: config.scenario.build_adversary().and_then(|m| m.target()),
            static_oracle,
            tracker: ConvergenceTracker::new(),
            region_buckets: Vec::new(),
            region_scratch: placement.as_ref().map(|_| {
                let placeholder = Descriptor::new(NodeId::new(0), NodeIndex::new(0), 0);
                BootstrapNode::new(placeholder, &config.params)
                    .expect("parameters validated by the config builder")
            }),
            report: RunReport {
                config: config.clone(),
                leaf_series: Series::new("missing_leafset_proportion"),
                prefix_series: Series::new("missing_prefix_proportion"),
                dead_series: Series::new("dead_descriptor_fraction"),
                poisoned_series: Series::new("poisoned_descriptor_fraction"),
                eclipse_series: Series::new("eclipse_fraction"),
                in_degree_mean_series: Series::new("in_degree_mean"),
                in_degree_max_series: Series::new("in_degree_max"),
                in_degree_gini_series: Series::new("in_degree_gini"),
                dead_pointer_series: Series::new("dead_pointer_fraction"),
                region_leaf_series: (0..placement.as_ref().map_or(0, |p| p.region_count()))
                    .map(|region| Series::new(format!("missing_leafset_r{region}")))
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
            placement,
            lookup_traffic: LookupTraffic::for_config(config),
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
        // The lookup workload runs every cycle a traffic phase is active —
        // cadence only coarsens the *series*, not the traffic itself. It rides
        // in the sequential observer phase of every engine, so the parallel
        // cycle engine stays bit-for-bit deterministic.
        if let Some(traffic) = self.lookup_traffic.as_mut() {
            traffic.drive_cycle(protocol, ctx, cycle);
        }
        // Off-cadence cycles skip the (global) convergence pass entirely.
        if cycle % self.report.config.measure_every != 0 {
            return ControlFlow::Continue(());
        }
        if let Some(traffic) = self.lookup_traffic.as_mut() {
            traffic.flush_window(cycle);
        }
        let measured = match &self.static_oracle {
            Some(oracle) => protocol.measure_incremental(oracle, &mut self.tracker, ctx),
            None => {
                let oracle = protocol.oracle_for(ctx);
                protocol.measure(&oracle, ctx)
            }
        };
        self.report
            .leaf_series
            .push(cycle, measured.leaf_proportion());
        self.report
            .prefix_series
            .push(cycle, measured.prefix_proportion());
        self.measure_regions(protocol, ctx, cycle);
        // The dead-descriptor fraction: only a scenario with churn or a
        // catastrophe can ever kill a node, so every other run (calm, joins,
        // re-bootstrap) records a structural zero without walking the tables.
        let dead_fraction = if !self.deaths_possible {
            0.0
        } else {
            let (dead, total) = protocol.dead_descriptor_stats(ctx);
            if total == 0 {
                0.0
            } else {
                dead as f64 / total as f64
            }
        };
        self.report.dead_series.push(cycle, dead_fraction);
        // The attack metrics: like the dead-descriptor fraction, honest
        // timelines record structural zeros without walking the tables.
        let (poisoned_fraction, eclipse_fraction) = if !self.adversary_possible {
            (0.0, 0.0)
        } else {
            let (poisoned, total) = protocol.poisoned_stats(ctx);
            let poisoned_fraction = if total == 0 {
                0.0
            } else {
                poisoned as f64 / total as f64
            };
            let eclipse_fraction = self
                .eclipse_target
                .map_or(0.0, |target| protocol.eclipse_fraction(target));
            (poisoned_fraction, eclipse_fraction)
        };
        self.report.poisoned_series.push(cycle, poisoned_fraction);
        self.report.eclipse_series.push(cycle, eclipse_fraction);
        if self.eclipse_target.is_some()
            && eclipse_fraction >= ECLIPSE_THRESHOLD
            && self.report.time_to_eclipse.is_none()
        {
            self.report.time_to_eclipse = Some(cycle);
        }
        // Overlay-quality diagnostics, whenever the sampler maintains an
        // overlay to measure (a real NEWSCAST instance; the oracle has none).
        if let Some(quality) = protocol.sampling_quality(&ctx.network) {
            self.report
                .in_degree_mean_series
                .push(cycle, quality.in_degree_mean);
            self.report
                .in_degree_max_series
                .push(cycle, quality.in_degree_max);
            self.report
                .in_degree_gini_series
                .push(cycle, quality.in_degree_gini);
            self.report
                .dead_pointer_series
                .push(cycle, quality.dead_pointer_fraction);
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

    /// Per-region convergence: one table walk over the alive population,
    /// bucketing each node's counts by its placement region. Only WAN runs
    /// (a placement is attached) pay the walk; every other run returns
    /// immediately.
    fn measure_regions<S: PeerSampler>(
        &mut self,
        protocol: &BootstrapProtocol<S>,
        ctx: &EngineContext,
        cycle: u64,
    ) {
        let Some(placement) = self.placement.clone() else {
            return;
        };
        let scratch = self
            .region_scratch
            .as_mut()
            .expect("scratch is built whenever a placement is");
        self.region_buckets.clear();
        self.region_buckets.resize(
            placement.region_count() as usize,
            NetworkConvergence::default(),
        );
        // Under churn the static oracle is absent; rebuild one for this pass,
        // mirroring what the global measurement just did.
        let rebuilt;
        let oracle = match self.static_oracle.as_ref() {
            Some(oracle) => oracle,
            None => {
                rebuilt = protocol.oracle_for(ctx);
                &rebuilt
            }
        };
        for node in ctx.network.alive_indices() {
            if protocol.unpack_node_into(node, scratch) {
                let region = placement.region(node.as_usize()) as usize;
                self.region_buckets[region].accumulate(oracle.measure_node(scratch));
            }
        }
        for (region, bucket) in self.region_buckets.iter().enumerate() {
            self.report.region_leaf_series[region].push(cycle, bucket.leaf_proportion());
        }
    }

    /// The tear-down every engine shares: freezes the population, measures
    /// proximity under a WAN placement, and completes the report with what is
    /// only known once the run has ended.
    fn finish<S: PeerSampler>(
        self,
        protocol: &BootstrapProtocol<S>,
        ctx: &EngineContext,
        cycles_executed: u64,
        phase_profile: Option<PhaseProfile>,
    ) -> (RunReport, PopulationSnapshot) {
        let proximity = self
            .placement
            .as_ref()
            .map(|p| measure_proximity(protocol, ctx, p, self.report.config.seed));
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
/// measured cycle and scenario transition to `observer`.
///
/// All engines share the same measurement semantics (cadence, perfection stop,
/// series) and produce the same [`RunReport`] shape; the cycle engines are
/// additionally bit-for-bit deterministic across thread counts.
pub fn run_scenario<S: PeerSampler>(
    config: &ExperimentConfig,
    protocol: &mut BootstrapProtocol<S>,
    observer: &mut dyn Observer,
) -> (RunReport, PopulationSnapshot) {
    // Compile the scenario's Byzantine conversion (when one is on the
    // timeline) into the adversary model the protocol and the sampler consult
    // at plan time. The churn layer marks the converted nodes when the
    // conversion fires; installation itself is behaviour-neutral.
    if let Some(model) = config.scenario.build_adversary() {
        protocol.install_adversary(model);
    }
    match config.engine {
        Engine::Cycle | Engine::ParallelCycle { .. } => {
            run_on_cycle_engine(config, protocol, observer)
        }
        Engine::Event { .. } => run_on_event_engine(config, protocol, observer),
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
        let mut network = Network::with_random_ids(config.network_size, &mut rng);
        let placement = config.placement();
        if let Some(placement) = placement.as_ref() {
            network.set_placement(Arc::clone(placement));
        }
        let transport = config.scenario.build_transport(
            config.network_size,
            &config.link_model(),
            placement.as_ref(),
            config.seed,
        );
        World {
            network,
            rng,
            placement,
            transport,
            churn: config.scenario.build_churn(),
        }
    }
}

/// Runs on the (possibly parallel) cycle engine, which applies the membership
/// timeline itself at every cycle boundary.
fn run_on_cycle_engine<S: PeerSampler>(
    config: &ExperimentConfig,
    protocol: &mut BootstrapProtocol<S>,
    observer: &mut dyn Observer,
) -> (RunReport, PopulationSnapshot) {
    let world = World::new(config);
    let mut engine = CycleEngine::new(world.network, world.rng)
        .with_transport(world.transport)
        .with_churn(world.churn);
    if config.profile {
        engine.enable_profiling();
    }
    protocol.init_all(engine.context_mut());
    let mut driver = MeasurementDriver::new(config, protocol, engine.context(), world.placement);

    let cycles_executed = engine.run_parallel_with_observer(
        protocol,
        config.max_cycles,
        config.engine.threads(),
        |protocol, ctx, cycle| driver.observe_cycle(protocol, ctx, cycle, observer),
    );
    let phase_profile = engine.phase_profile().copied();
    driver.finish(protocol, engine.context(), cycles_executed, phase_profile)
}

/// Runs on the discrete-event engine: one `run_until` slice per cycle Δ, with
/// scenario membership events applied and measured at the slice boundaries.
/// Nodes wake on their own timers at random phases within Δ and messages
/// travel with the configured per-link latency.
fn run_on_event_engine<S: PeerSampler>(
    config: &ExperimentConfig,
    protocol: &mut BootstrapProtocol<S>,
    observer: &mut dyn Observer,
) -> (RunReport, PopulationSnapshot) {
    let mut world = World::new(config);
    let mut engine: EventEngine<BootstrapMessage> =
        EventEngine::new(world.network, world.rng).with_transport(world.transport);
    protocol.init_all(engine.context_mut());
    let mut driver = MeasurementDriver::new(config, protocol, engine.context(), world.placement);
    // Start the initial membership *before* applying cycle-0 scenario events:
    // joiners added at cycle 0 are started individually below, and must not be
    // started a second time by run_until's deferred start phase.
    engine.start(protocol);

    let delta = config.params.cycle_millis;
    let mut cycles_executed = 0;
    for cycle in 0..config.max_cycles {
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
        // Late joiners schedule their first exchange timers from "now".
        for node in events.joined {
            engine.start_node(protocol, node);
        }

        engine.run_until(protocol, (cycle + 1) * delta);
        cycles_executed = cycle + 1;
        if driver
            .observe_cycle(protocol, engine.context(), cycle, observer)
            .is_break()
        {
            break;
        }
    }
    driver.finish(protocol, engine.context(), cycles_executed, None)
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

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the simulation to completion and returns the recorded report.
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
        match self.config.sampler {
            SamplerChoice::Oracle => {
                let mut protocol = BootstrapProtocol::new(self.config.params, OracleSampler::new());
                run_scenario(&self.config, &mut protocol, observer)
            }
            SamplerChoice::Newscast(params) => {
                let mut protocol =
                    BootstrapProtocol::new(self.config.params, NewscastProtocol::new(params))
                        .with_sampler_steps();
                run_scenario(&self.config, &mut protocol, observer)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::tests::Recording;
    use crate::scenario::{AdversaryBehavior, PartitionSpec, Phase, ScenarioEvent};

    #[test]
    fn builder_validates_inputs() {
        assert!(ExperimentConfig::builder().network_size(1).build().is_err());
        assert!(ExperimentConfig::builder().max_cycles(0).build().is_err());
        assert!(ExperimentConfig::builder()
            .drop_probability(1.5)
            .build()
            .is_err());
        assert!(ExperimentConfig::builder()
            .churn_rate(-0.1)
            .build()
            .is_err());
        assert!(ExperimentConfig::builder().threads(0).build().is_err());
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
        assert!(ok.scenario.is_calm());
        assert_eq!(ok.engine, Engine::Cycle);
    }

    #[test]
    fn regional_events_require_a_wan_link_model() {
        use crate::scenario::{LatencyModel, PlacementSpec, WanParams};
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
        let wan = LatencyModel::Wan {
            placement: PlacementSpec::Clustered {
                regions: 4,
                width: 100.0,
                height: 100.0,
                spread: 10.0,
            },
            params: WanParams::default(),
        };
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
        use crate::scenario::{LatencyModel, PlacementSpec, WanParams};
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(64)
            .seed(9)
            .max_cycles(40)
            .link_model(LatencyModel::Wan {
                placement: PlacementSpec::Clustered {
                    regions: 3,
                    width: 400.0,
                    height: 400.0,
                    spread: 30.0,
                },
                params: WanParams::default(),
            });
        let report = Experiment::new(builder.build().unwrap()).run();
        assert!(report.converged(), "{report}");
        assert_eq!(report.region_leaf_series().len(), 3);
        for series in report.region_leaf_series() {
            let last = series.points().last().expect("measured cycles").1;
            assert_eq!(last, 0.0, "every region converged: {report}");
        }
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
        assert!(calm.region_leaf_series().is_empty());
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
        let peak = |report: &RunReport| {
            report
                .eclipse_series()
                .points()
                .iter()
                .map(|&(_, v)| v)
                .fold(0.0f64, f64::max)
        };
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
        let newscast = NewscastParams {
            view_size: 20,
            period_millis: 1000,
            ..NewscastParams::paper_default()
        };
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
    fn legacy_knobs_desugar_into_the_scenario() {
        let config = ExperimentConfig::builder()
            .drop_probability(0.2)
            .churn_rate(0.01)
            .threads(4)
            .build()
            .unwrap();
        assert_eq!(config.drop_probability(), 0.2);
        assert_eq!(config.churn_rate(), 0.01);
        assert_eq!(config.threads(), 4);
        assert_eq!(config.engine, Engine::ParallelCycle { threads: 4 });
        assert_eq!(config.scenario.events().len(), 2);
        // Setting a knob back to zero removes its event.
        let calm = ExperimentConfig::builder()
            .drop_probability(0.2)
            .drop_probability(0.0)
            .build()
            .unwrap();
        assert!(calm.scenario.is_calm());
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
            .sampler(SamplerChoice::Newscast(NewscastParams {
                view_size: 20,
                period_millis: 1000,
                ..NewscastParams::paper_default()
            }))
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
            .churn_rate(0.01)
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
            .dead_series()
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
                    groups: PartitionSpec::IndexParity,
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
}
