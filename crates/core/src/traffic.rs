//! Live lookup traffic over the bootstrapping overlay.
//!
//! The paper's argument is that the bootstrapped tables are *useful*: once the
//! service has built everyone's leaf set and prefix table, a routing substrate
//! can serve key lookups over them. `bss_overlay::LookupEvaluator` proves that
//! for a frozen post-run snapshot; this module proves it *during* the run.
//! [`LookupTraffic`] drives an open-loop workload — a configured number of
//! lookups per cycle, keys drawn uniformly or Zipf-skewed — and resolves every
//! lookup iteratively against nodes' **current** tables through
//! [`BootstrapProtocol::unpack_node_into`], so routing quality degrades when a
//! churn burst or an id-spray attack corrupts the tables and recovers as the
//! protocol repairs them.
//!
//! Per measured cycle the driver folds its window counters into six series on
//! the [`RunReport`](crate::experiment::RunReport): lookup success rate, hop
//! mean and max, and latency percentiles p50/p95/p99 computed by charging each
//! hop of the path what a message on that link costs — the driver asks its own
//! copy of the run's [`Transport`]
//! ([`ExperimentConfig::link_model`](crate::experiment::ExperimentConfig)
//! plus the scenario's windows). The same copy replays the scenario's regional
//! outages at the service level: a lookup issued from — or targeting — an
//! outaged region fails before routing starts. Under a
//! [`LatencyModel::Wan`](crate::scenario::LatencyModel) link model the driver
//! additionally keeps one window per placement region (keyed by the
//! *client*'s region). Everything is capability-gated on
//! [`Scenario::has_traffic`](crate::scenario::Scenario): runs without a
//! traffic phase build no driver, draw no random numbers and emit no traffic
//! series, so their reports stay byte-identical.
//!
//! Determinism: the driver owns a private [`SimRng`] stream seeded from
//! `config.seed ^ TRAFFIC_SALT`, never touching the engine or protocol
//! streams. Lookups run in the sequential observer phase of every engine, so
//! the parallel cycle engine stays bit-for-bit identical at any thread count.

use crate::experiment::ExperimentConfig;
use crate::node::BootstrapNode;
use crate::protocol::BootstrapProtocol;
use crate::routing::{route, Contact, RouterKind, TableSource, DEFAULT_MAX_HOPS};
use crate::scenario::{KeyDist, Phase};
use bss_sampling::sampler::PeerSampler;
use bss_sim::engine::cycle::EngineContext;
use bss_sim::network::{Network, NodeIndex};
use bss_sim::transport::Transport;
use bss_util::coords::Placement;
use bss_util::descriptor::Descriptor;
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use bss_util::stats::{Histogram, Series};
use std::sync::Arc;

/// XOR-folded into the experiment seed for the traffic RNG stream, so lookup
/// draws never perturb the protocol or engine streams (ASCII "traffic!").
/// Public so parity tests can replay the exact lookup sequence a run issued.
pub const TRAFFIC_SALT: u64 = 0x7472_6166_6669_6321;

/// A [`TableSource`] over the live packed population: contacts resolve by
/// registry address and must answer to the identifier the descriptor
/// advertised — a node that is dead, uninitialised, or holds a different
/// identifier (a forged id-spray descriptor) fails the hop.
struct LiveTables<'a, S: PeerSampler> {
    protocol: &'a BootstrapProtocol<S>,
    network: &'a Network,
    scratch: &'a mut BootstrapNode<NodeIndex>,
}

impl<S: PeerSampler> TableSource for LiveTables<'_, S> {
    fn with_node<R>(
        &mut self,
        contact: Contact,
        f: impl FnOnce(&BootstrapNode<NodeIndex>) -> R,
    ) -> Option<R> {
        if !self.network.is_alive(contact.address)
            || !self
                .protocol
                .unpack_node_into(contact.address, self.scratch)
            || self.scratch.id() != contact.id
        {
            return None;
        }
        Some(f(self.scratch))
    }
}

/// Counters accumulated over one measurement window (and, separately, over the
/// whole run).
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    issued: u64,
    delivered: u64,
    hops_sum: u64,
    hops_max: u64,
}

impl Counters {
    fn absorb(&mut self, delivered: bool, hops: u64) {
        self.issued += 1;
        if delivered {
            self.delivered += 1;
            self.hops_sum += hops;
            self.hops_max = self.hops_max.max(hops);
        }
    }

    fn success_rate(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.delivered as f64 / self.issued as f64
        }
    }

    fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered as f64
        }
    }
}

/// Per-region window state of a WAN traffic run: counters and latency
/// histogram over the lookups *issued by* clients of one placement region,
/// flushed into the report's per-region series on measured cycles.
#[derive(Debug)]
struct RegionWindow {
    window: Counters,
    latency: Histogram,
}

/// WAN-only traffic state: the run's placement and one [`RegionWindow`] per
/// placement region.
#[derive(Debug)]
struct WanTraffic {
    placement: Arc<Placement>,
    regions: Vec<RegionWindow>,
}

impl WanTraffic {
    fn new(placement: Arc<Placement>, bucket_width: u64) -> Self {
        let regions = (0..placement.region_count())
            .map(|_| RegionWindow {
                window: Counters::default(),
                latency: Histogram::with_buckets(bucket_width, DEFAULT_MAX_HOPS + 2),
            })
            .collect();
        WanTraffic { placement, regions }
    }

    /// The window of the region a client's registry address lies in.
    fn window_of(&mut self, client: NodeIndex) -> &mut RegionWindow {
        let region = self.placement.region(client.as_usize());
        &mut self.regions[region as usize]
    }
}

/// Total latency of one delivered lookup: every hop of `path` charged what a
/// message on that link costs at the transport's current cycle. Draws one
/// latency per hop from the traffic stream under a uniform model and nothing
/// otherwise.
fn charge_path(transport: &Transport, path: &[Contact], rng: &mut SimRng) -> u64 {
    path.windows(2)
        .map(|hop| transport.latency_millis(hop[0].address, hop[1].address, rng))
        .sum()
}

/// The per-run lookup traffic driver. Built by the measurement layer only when
/// the scenario carries a [`TrafficPhase`](crate::scenario::ScenarioEvent);
/// every other run pays nothing.
#[derive(Debug)]
pub struct LookupTraffic {
    phases: Vec<(Phase, u32, KeyDist)>,
    /// The driver's own copy of the run's transport: the lookups' outage gate
    /// and per-hop latency, fed from the traffic stream.
    transport: Transport,
    rng: SimRng,
    scratch: BootstrapNode<NodeIndex>,
    path: Vec<Contact>,
    /// The alive population, rebuilt each active cycle in ascending registry
    /// order (so Zipf rank 0 is registry index 0 — the id-spray attack's
    /// default victim, letting skewed traffic compose with the attack).
    alive: Vec<Contact>,
    /// Cumulative Zipf weights over `alive` positions (empty under uniform
    /// keys).
    zipf_cumulative: Vec<f64>,
    window: Counters,
    window_latency: Histogram,
    /// WAN-only state (placement, regional windows); `None` under the
    /// placement-free link models.
    wan: Option<WanTraffic>,
    /// The summary being filled: run totals per lookup, series per flush.
    report: LookupTrafficReport,
}

impl LookupTraffic {
    /// Builds the driver for `config`, or `None` when its scenario schedules
    /// no traffic phase — the capability gate that keeps every other run free
    /// of traffic costs.
    pub fn for_config(config: &ExperimentConfig) -> Option<Self> {
        if !config.scenario.has_traffic() {
            return None;
        }
        let latency = config.link_model();
        let placement = config.placement();
        // One bucket per possible hop at the per-hop latency ceiling keeps the
        // window histogram exact for constant latency and allocation-free
        // either way; anything past the ceiling saturates into the last
        // bucket.
        let (_, max_millis) = latency.bounds();
        let bucket_width = max_millis.max(1);
        let placeholder = Descriptor::new(NodeId::new(0), NodeIndex::new(0), 0);
        let scratch =
            BootstrapNode::new(placeholder, &config.params).expect("config validated by builder");
        let regions = placement.as_ref().map_or(0, |p| p.region_count());
        let region_series = |name: &str| {
            (0..regions)
                .map(|region| Series::new(format!("{name}_r{region}")))
                .collect()
        };
        Some(LookupTraffic {
            phases: config.scenario.traffic_phases().collect(),
            transport: config.scenario.build_transport(
                config.network_size,
                &latency,
                placement.as_ref(),
                config.seed,
            ),
            wan: placement.map(|placement| WanTraffic::new(placement, bucket_width)),
            rng: SimRng::seed_from(config.seed ^ TRAFFIC_SALT),
            scratch,
            path: Vec::with_capacity(DEFAULT_MAX_HOPS + 1),
            alive: Vec::with_capacity(config.network_size),
            zipf_cumulative: Vec::new(),
            window: Counters::default(),
            window_latency: Histogram::with_buckets(bucket_width, DEFAULT_MAX_HOPS + 2),
            report: LookupTrafficReport {
                router: config.traffic_router,
                totals: Counters::default(),
                success_series: Series::new("lookup_success"),
                hop_mean_series: Series::new("lookup_hop_mean"),
                hop_max_series: Series::new("lookup_hop_max"),
                p50_series: Series::new("lookup_latency_p50"),
                p95_series: Series::new("lookup_latency_p95"),
                p99_series: Series::new("lookup_latency_p99"),
                region_success_series: region_series("lookup_success"),
                region_p50_series: region_series("lookup_latency_p50"),
                region_p99_series: region_series("lookup_latency_p99"),
            },
        })
    }

    /// The workload scheduled for `cycle`, if any.
    fn active(&self, cycle: u64) -> Option<(u32, KeyDist)> {
        self.phases
            .iter()
            .find(|(phase, _, _)| phase.contains(cycle))
            .map(|&(_, rate, dist)| (rate, dist))
    }

    /// Issues this cycle's lookups against the live tables. Runs every cycle a
    /// traffic phase is active (not just measured ones), so the totals really
    /// are the sustained workload.
    pub fn drive_cycle<S: PeerSampler>(
        &mut self,
        protocol: &BootstrapProtocol<S>,
        ctx: &EngineContext,
        cycle: u64,
    ) {
        let Some((rate, dist)) = self.active(cycle) else {
            return;
        };
        self.alive.clear();
        self.alive
            .extend(ctx.network.alive_indices().map(|node| Contact {
                id: ctx.network.id(node),
                address: node,
            }));
        if self.alive.is_empty() {
            return;
        }
        if let KeyDist::Zipf { exponent } = dist {
            self.zipf_cumulative.clear();
            let mut total = 0.0;
            for rank in 0..self.alive.len() {
                total += 1.0 / ((rank + 1) as f64).powf(exponent);
                self.zipf_cumulative.push(total);
            }
        }
        self.transport.advance_to_cycle(cycle);
        let LookupTraffic {
            transport,
            rng,
            scratch,
            path,
            alive,
            zipf_cumulative,
            window,
            window_latency,
            wan,
            report,
            ..
        } = self;
        let mut tables = LiveTables {
            protocol,
            network: &ctx.network,
            scratch,
        };
        for _ in 0..rate {
            let source = alive[rng.index(alive.len())];
            let target = match dist {
                KeyDist::Uniform => alive[rng.index(alive.len())],
                KeyDist::Zipf { .. } => {
                    let total = *zipf_cumulative.last().expect("population is non-empty");
                    let draw = rng.unit_f64() * total;
                    let position = zipf_cumulative.partition_point(|&cum| cum < draw);
                    alive[position.min(alive.len() - 1)]
                }
            };
            // Service-level regional outages: a lookup issued from — or
            // targeting — an outaged region fails before routing starts, the
            // way a real client behind a dead uplink would time out.
            let (delivered, hops) = if transport.outage_drops(source.address, target.address, rng) {
                (false, 0)
            } else {
                let routed = route(
                    &mut tables,
                    report.router,
                    source,
                    target.id,
                    DEFAULT_MAX_HOPS,
                    path,
                );
                (routed.delivered(), routed.hops)
            };
            let millis = delivered.then(|| charge_path(transport, path, rng));
            let region = wan.as_mut().map(|state| state.window_of(source.address));
            window.absorb(delivered, hops);
            report.totals.absorb(delivered, hops);
            if let Some(millis) = millis {
                window_latency.record(millis);
            }
            if let Some(bucket) = region {
                bucket.window.absorb(delivered, hops);
                if let Some(millis) = millis {
                    bucket.latency.record(millis);
                }
            }
        }
    }

    /// Folds the current window into the per-cycle series (measured cycles
    /// only). Windows in which no lookup was issued push nothing, so calm
    /// stretches outside the traffic phase leave no points.
    pub fn flush_window(&mut self, cycle: u64) {
        let report = &mut self.report;
        if let Some(state) = self.wan.as_mut() {
            for (region, bucket) in state.regions.iter_mut().enumerate() {
                if bucket.window.issued == 0 {
                    continue;
                }
                report.region_success_series[region].push(cycle, bucket.window.success_rate());
                report.region_p50_series[region].push(cycle, bucket.latency.percentile(0.50));
                report.region_p99_series[region].push(cycle, bucket.latency.percentile(0.99));
                bucket.window = Counters::default();
                bucket.latency.reset();
            }
        }
        if self.window.issued == 0 {
            return;
        }
        let latency = &self.window_latency;
        report
            .success_series
            .push(cycle, self.window.success_rate());
        report.hop_mean_series.push(cycle, self.window.mean_hops());
        report
            .hop_max_series
            .push(cycle, self.window.hops_max as f64);
        report.p50_series.push(cycle, latency.percentile(0.50));
        report.p95_series.push(cycle, latency.percentile(0.95));
        report.p99_series.push(cycle, latency.percentile(0.99));
        self.window = Counters::default();
        self.window_latency.reset();
    }

    /// Hands over the summary the driver has been filling.
    pub fn into_report(self) -> LookupTrafficReport {
        self.report
    }
}

/// The traffic summary a [`RunReport`](crate::experiment::RunReport) carries
/// for runs that scheduled a traffic phase: run totals plus the six
/// per-measured-cycle series.
#[derive(Debug, Clone)]
pub struct LookupTrafficReport {
    router: RouterKind,
    totals: Counters,
    success_series: Series,
    hop_mean_series: Series,
    hop_max_series: Series,
    p50_series: Series,
    p95_series: Series,
    p99_series: Series,
    region_success_series: Vec<Series>,
    region_p50_series: Vec<Series>,
    region_p99_series: Vec<Series>,
}

impl LookupTrafficReport {
    /// The router kind that resolved the lookups.
    pub fn router(&self) -> RouterKind {
        self.router
    }

    /// Total lookups issued over the run.
    pub fn issued(&self) -> u64 {
        self.totals.issued
    }

    /// Total lookups that reached the node owning the target identifier.
    pub fn delivered(&self) -> u64 {
        self.totals.delivered
    }

    /// Delivered over issued (1.0 when no lookup was issued).
    pub fn success_rate(&self) -> f64 {
        self.totals.success_rate()
    }

    /// Mean hops over delivered lookups (0 when none were delivered).
    pub fn mean_hops(&self) -> f64 {
        self.totals.mean_hops()
    }

    /// The longest delivered lookup, in hops.
    pub fn max_hops(&self) -> u64 {
        self.totals.hops_max
    }

    /// Per measured cycle, delivered / issued within the window.
    pub fn success_series(&self) -> &Series {
        &self.success_series
    }

    /// Per measured cycle, mean hops over the window's delivered lookups.
    pub fn hop_mean_series(&self) -> &Series {
        &self.hop_mean_series
    }

    /// Per measured cycle, the window's longest delivered lookup in hops.
    pub fn hop_max_series(&self) -> &Series {
        &self.hop_max_series
    }

    /// Per measured cycle, the median delivered-lookup latency in
    /// milliseconds.
    pub fn latency_p50_series(&self) -> &Series {
        &self.p50_series
    }

    /// Per measured cycle, the 95th-percentile delivered-lookup latency in
    /// milliseconds.
    pub fn latency_p95_series(&self) -> &Series {
        &self.p95_series
    }

    /// Per measured cycle, the 99th-percentile delivered-lookup latency in
    /// milliseconds.
    pub fn latency_p99_series(&self) -> &Series {
        &self.p99_series
    }

    /// Per placement region, the window success rate of lookups issued by
    /// that region's clients. Empty under the placement-free link models;
    /// with a WAN model, position `r` is region `r`.
    pub fn region_success_series(&self) -> &[Series] {
        &self.region_success_series
    }

    /// Per placement region, the median delivered-lookup latency of that
    /// region's clients (empty without a WAN link model).
    pub fn region_p50_series(&self) -> &[Series] {
        &self.region_p50_series
    }

    /// Per placement region, the 99th-percentile delivered-lookup latency of
    /// that region's clients (empty without a WAN link model).
    pub fn region_p99_series(&self) -> &[Series] {
        &self.region_p99_series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LatencyModel, Scenario, ScenarioEvent};

    fn traffic_config(dist: KeyDist) -> ExperimentConfig {
        ExperimentConfig::builder()
            .network_size(64)
            .seed(11)
            .max_cycles(40)
            .scenario(Scenario::calm().with(ScenarioEvent::TrafficPhase {
                phase: Phase::new(20, 30),
                lookups_per_cycle: 50,
                key_dist: dist,
            }))
            .build()
            .unwrap()
    }

    #[test]
    fn the_capability_gate_builds_no_driver_for_calm_runs() {
        let calm = ExperimentConfig::builder().build().unwrap();
        assert!(LookupTraffic::for_config(&calm).is_none());
        assert!(LookupTraffic::for_config(&traffic_config(KeyDist::Uniform)).is_some());
    }

    #[test]
    fn constant_latency_charges_hops_times_millis_without_randomness() {
        let path: Vec<Contact> = (0..5u32)
            .map(|hop| Contact {
                id: NodeId::new(u64::from(hop)),
                address: NodeIndex::new(hop),
            })
            .collect();
        let mut rng = SimRng::seed_from(1);
        let before = rng.clone();
        let constant = Transport::new(LatencyModel::Constant { millis: 7 }, None, 0);
        assert_eq!(charge_path(&constant, &path[..4], &mut rng), 21);
        assert_eq!(rng, before, "constant latency must not advance the stream");
        let uniform = LatencyModel::Uniform {
            min_millis: 10,
            max_millis: 20,
        };
        let total = charge_path(&Transport::new(uniform, None, 0), &path, &mut rng);
        assert!((40..=80).contains(&total), "{total}");
        assert_ne!(rng, before, "uniform latency draws per hop");
    }

    #[test]
    fn zipf_draws_favour_the_first_alive_position() {
        let config = traffic_config(KeyDist::Zipf { exponent: 1.2 });
        let mut traffic = LookupTraffic::for_config(&config).unwrap();
        // Build the cumulative table the way drive_cycle does and sample it.
        let population = 64usize;
        let mut total = 0.0;
        for rank in 0..population {
            total += 1.0 / ((rank + 1) as f64).powf(1.2);
            traffic.zipf_cumulative.push(total);
        }
        let mut hits = vec![0u64; population];
        for _ in 0..20_000 {
            let draw = traffic.rng.unit_f64() * total;
            let position = traffic.zipf_cumulative.partition_point(|&cum| cum < draw);
            hits[position.min(population - 1)] += 1;
        }
        assert!(
            hits[0] > hits[population / 2] * 10,
            "rank 0 ({}) should dwarf rank {} ({})",
            hits[0],
            population / 2,
            hits[population / 2]
        );
        assert!(hits.iter().all(|&h| h < 20_000), "not degenerate");
    }

    #[test]
    fn empty_windows_push_no_points() {
        let config = traffic_config(KeyDist::Uniform);
        let mut traffic = LookupTraffic::for_config(&config).unwrap();
        traffic.flush_window(3);
        assert!(traffic.report.success_series.is_empty());
        // A window with traffic pushes exactly one point per series.
        traffic.window.absorb(true, 2);
        traffic.window_latency.record(2);
        traffic.flush_window(21);
        assert_eq!(traffic.report.success_series.points(), &[(21, 1.0)]);
        assert_eq!(traffic.report.hop_mean_series.points(), &[(21, 2.0)]);
        assert_eq!(traffic.report.p50_series.points(), &[(21, 2.0)]);
        // ... and the flush resets the window.
        assert_eq!(traffic.window.issued, 0);
        assert_eq!(traffic.window_latency.count(), 0);
    }
}
