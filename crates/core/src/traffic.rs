//! Live lookup traffic over the bootstrapping overlay.
//!
//! The paper's argument is that the bootstrapped tables are *useful*: once the
//! service has built everyone's leaf set and prefix table, a routing substrate
//! can serve key lookups over them. `bss_overlay::LookupEvaluator` proves that
//! for a frozen post-run snapshot; this module proves it *during* the run.
//! `LookupTraffic` drives an open-loop workload — a configured number of
//! lookups per cycle, keys drawn uniformly or Zipf-skewed — and resolves every
//! lookup iteratively against nodes' **current** tables, read in place in
//! the packed store through `BootstrapProtocol::packed_view`, so routing
//! quality degrades when a churn burst or an id-spray attack corrupts the
//! tables and recovers as the protocol repairs them.
//!
//! Per measured cycle the driver folds its window counters into six series
//! (`LOOKUP_SERIES_KEYS`) on the [`RunReport`](crate::experiment::RunReport):
//! lookup success rate, hop
//! mean and max, and latency percentiles p50/p95/p99 computed by charging each
//! hop of the path what a message on that link costs — the driver asks its own
//! copy of the run's [`Transport`]
//! ([`ExperimentConfig::link_model`](crate::experiment::ExperimentConfig)
//! plus the scenario's windows). The same copy replays the scenario's regional
//! outages at the service level: a lookup issued from — or targeting — an
//! outaged region fails before routing starts. Under a
//! [`LatencyModel::Wan`](crate::scenario::LatencyModel) link model the driver
//! additionally keeps one window per placement region (keyed by the
//! *client*'s region; `<key>_r<region>`). Everything is capability-gated on
//! [`Scenario::has_traffic`](crate::scenario::Scenario): runs without a
//! traffic phase build no driver, draw no random numbers and emit no traffic
//! series, so their reports stay byte-identical.
//!
//! Determinism: the driver owns a private [`SimRng`] stream seeded from
//! `config.seed ^ TRAFFIC_SALT`, never touching the engine or protocol
//! streams. Lookups run in the sequential observer phase of every engine, so
//! the parallel cycle engine stays bit-for-bit identical at any thread count.

use crate::compact::PackedView;
use crate::experiment::ExperimentConfig;
use crate::protocol::BootstrapProtocol;
use crate::routing::{route_with, step, Contact, NodeView, RouteEnd, RouterKind, DEFAULT_MAX_HOPS};
use crate::scenario::{KeyDist, Phase};
use bss_sampling::sampler::PeerSampler;
use bss_sim::engine::cycle::EngineContext;
use bss_sim::network::{Network, NodeIndex};
use bss_sim::transport::Transport;
use bss_util::coords::Placement;
use bss_util::rng::SimRng;
use bss_util::stats::{Histogram, Series};
use std::sync::Arc;

/// XOR-folded into the experiment seed for the traffic RNG stream, so lookup
/// draws never perturb the protocol or engine streams (ASCII "traffic!").
/// Public so parity tests can replay the exact lookup sequence a run issued.
pub const TRAFFIC_SALT: u64 = 0x7472_6166_6669_6321;

/// The names — JSON keys — of the six per-measured-cycle series of a traffic
/// run, in report order: within the window, delivered / issued; mean and
/// longest delivered lookup in hops; median, 95th- and 99th-percentile
/// delivered-lookup latency in milliseconds.
pub(crate) const LOOKUP_SERIES_KEYS: [&str; 6] = [
    "lookup_success_series",
    "lookup_hop_mean_series",
    "lookup_hop_max_series",
    "lookup_latency_p50_series",
    "lookup_latency_p95_series",
    "lookup_latency_p99_series",
];

/// The positions in [`LOOKUP_SERIES_KEYS`] of the three series — success,
/// p50, p99 — a WAN run also keeps per placement region, over the lookups
/// that region's clients issued: region `r`'s are named `<key>_r<r>` and
/// follow the six above, all regions of one key together.
const REGION_SERIES: [usize; 3] = [0, 3, 5];

/// The live packed population: contacts resolve by registry address and must
/// answer to the identifier the descriptor advertised — a node that is dead,
/// uninitialised, or holds a different identifier (a forged id-spray
/// descriptor) fails the hop.
struct LiveTables<'a, S: PeerSampler> {
    protocol: &'a BootstrapProtocol<S>,
    network: &'a Network,
}

impl<'a, S: PeerSampler> LiveTables<'a, S> {
    #[inline]
    fn view(&self, contact: Contact) -> Option<PackedView<'a>> {
        if !self.network.is_alive(contact.address) {
            return None;
        }
        self.protocol
            .packed_view(contact.address)
            .filter(|view| view.id() == contact.id)
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

/// One measurement window: counters and latency histogram over the lookups
/// issued since the last measured cycle — by anyone (the run's window), or by
/// the clients of one placement region.
#[derive(Debug)]
struct Window {
    counters: Counters,
    latency: Histogram,
}

impl Window {
    /// One bucket per possible hop at the per-hop latency ceiling keeps the
    /// histogram exact for constant latency and allocation-free either way;
    /// anything past the ceiling saturates into the last bucket.
    fn new(bucket_width: u64) -> Self {
        Window {
            counters: Counters::default(),
            latency: Histogram::with_buckets(bucket_width, DEFAULT_MAX_HOPS + 2),
        }
    }

    fn absorb(&mut self, delivered: bool, hops: u64, millis: Option<u64>) {
        self.counters.absorb(delivered, hops);
        if let Some(millis) = millis {
            self.latency.record(millis);
        }
    }

    /// Closes the window: its values in [`LOOKUP_SERIES_KEYS`] order — `None`
    /// when no lookup was issued in it — and a fresh window behind them.
    fn flush(&mut self) -> Option<[f64; 6]> {
        if self.counters.issued == 0 {
            return None;
        }
        let values = [
            self.counters.success_rate(),
            self.counters.mean_hops(),
            self.counters.hops_max as f64,
            self.latency.percentile(0.50),
            self.latency.percentile(0.95),
            self.latency.percentile(0.99),
        ];
        self.counters = Counters::default();
        self.latency.reset();
        Some(values)
    }
}

/// WAN-only traffic state: the run's placement and one [`Window`] per
/// placement region, over the lookups *issued by* that region's clients.
#[derive(Debug)]
struct WanTraffic {
    placement: Arc<Placement>,
    regions: Vec<Window>,
}

impl WanTraffic {
    /// The window of the region a client's registry address lies in.
    fn window_of(&mut self, client: NodeIndex) -> &mut Window {
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
pub(crate) struct LookupTraffic {
    phases: Vec<(Phase, u32, KeyDist)>,
    /// The driver's own copy of the run's transport: the lookups' outage gate
    /// and per-hop latency, fed from the traffic stream.
    transport: Transport,
    rng: SimRng,
    path: Vec<Contact>,
    /// The alive population, rebuilt each active cycle in ascending registry
    /// order (so Zipf rank 0 is registry index 0 — the id-spray attack's
    /// default victim, letting skewed traffic compose with the attack).
    alive: Vec<Contact>,
    /// Cumulative Zipf weights over `alive` positions (empty under uniform
    /// keys).
    zipf_cumulative: Vec<f64>,
    window: Window,
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
    pub(crate) fn for_config(config: &ExperimentConfig) -> Option<Self> {
        if !config.scenario.has_traffic() {
            return None;
        }
        let latency = config.link_model();
        let placement = config.placement();
        let (_, max_millis) = latency.bounds();
        let bucket_width = max_millis.max(1);
        let regions = placement.as_ref().map_or(0, |p| p.region_count());
        let region_series = REGION_SERIES.iter().flat_map(|&key| {
            let key = LOOKUP_SERIES_KEYS[key];
            (0..regions).map(move |region| Series::new(format!("{key}_r{region}")))
        });
        Some(LookupTraffic {
            phases: config.scenario.traffic_phases().collect(),
            transport: config.scenario.build_transport(
                config.network_size,
                &latency,
                placement.as_ref(),
                config.seed,
            ),
            wan: placement.map(|placement| WanTraffic {
                regions: (0..regions).map(|_| Window::new(bucket_width)).collect(),
                placement,
            }),
            rng: SimRng::seed_from(config.seed ^ TRAFFIC_SALT),
            path: Vec::with_capacity(DEFAULT_MAX_HOPS + 1),
            alive: Vec::with_capacity(config.network_size),
            zipf_cumulative: Vec::new(),
            window: Window::new(bucket_width),
            report: LookupTrafficReport {
                router: config.traffic_router,
                totals: Counters::default(),
                series: (LOOKUP_SERIES_KEYS.into_iter().map(Series::new))
                    .chain(region_series)
                    .collect(),
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
    pub(crate) fn drive_cycle<S: PeerSampler>(
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
            path,
            alive,
            zipf_cumulative,
            window,
            wan,
            report,
            ..
        } = self;
        let tables = LiveTables {
            protocol,
            network: &ctx.network,
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
                let routed = route_with(source, DEFAULT_MAX_HOPS, path, |contact| {
                    let node = tables.view(contact).ok_or(RouteEnd::DeadContact)?;
                    step(report.router, &node, target.id)
                });
                (routed.delivered(), routed.hops)
            };
            let millis = delivered.then(|| charge_path(transport, path, rng));
            report.totals.absorb(delivered, hops);
            window.absorb(delivered, hops, millis);
            if let Some(state) = wan.as_mut() {
                let region = state.window_of(source.address);
                region.absorb(delivered, hops, millis);
            }
        }
    }

    /// Folds the current window into the per-cycle series. Windows in which
    /// no lookup was issued push nothing, so calm stretches outside the
    /// traffic phase leave no points.
    pub(crate) fn flush_window(&mut self, cycle: u64) {
        let (run_series, region_series) = self.report.series.split_at_mut(LOOKUP_SERIES_KEYS.len());
        let regions = self
            .wan
            .as_mut()
            .map_or(&mut [][..], |state| &mut state.regions);
        let region_count = regions.len();
        for (region, window) in regions.iter_mut().enumerate() {
            let Some(values) = window.flush() else {
                continue;
            };
            for (kind, key) in REGION_SERIES.into_iter().enumerate() {
                region_series[kind * region_count + region].push(cycle, values[key]);
            }
        }
        let values = self.window.flush().into_iter().flatten();
        for (series, value) in run_series.iter_mut().zip(values) {
            series.push(cycle, value);
        }
    }

    /// Hands over the summary the driver has been filling.
    pub(crate) fn into_report(self) -> LookupTrafficReport {
        self.report
    }
}

/// The traffic summary a [`RunReport`](crate::experiment::RunReport) carries
/// for runs that scheduled a traffic phase: run totals plus the
/// per-measured-cycle series, each under the name the report's JSON writes it
/// as.
#[derive(Debug, Clone)]
pub struct LookupTrafficReport {
    router: RouterKind,
    totals: Counters,
    /// [`LOOKUP_SERIES_KEYS`], then per region the three of `REGION_SERIES`.
    series: Vec<Series>,
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

    /// Per measured cycle, delivered / issued within the window
    /// (`lookup_success_series`).
    pub fn success_series(&self) -> &Series {
        &self.series[0]
    }

    /// Every series of the traffic run, in the order the report writes them.
    pub(crate) fn all_series(&self) -> &[Series] {
        &self.series
    }

    /// The series written out as `name` — one of `LOOKUP_SERIES_KEYS`, or
    /// `<key>_r<region>` for the success, p50 and p99 keys under a WAN link
    /// model (no placement, no region series).
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|series| series.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{LatencyModel, Scenario, ScenarioEvent};
    use bss_util::id::NodeId;

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
        assert!(traffic.report.success_series().is_empty());
        // A window with traffic pushes exactly one point per series.
        traffic.window.absorb(true, 2, Some(2));
        traffic.flush_window(21);
        for key in [
            "lookup_success_series",
            "lookup_hop_mean_series",
            "lookup_latency_p50_series",
        ] {
            let expected = if key == "lookup_success_series" {
                1.0
            } else {
                2.0
            };
            let series = traffic.report.series(key).unwrap();
            assert_eq!(series.points(), &[(21, expected)], "{key}");
        }
        assert!(traffic.report.series("lookup_success_series_r0").is_none());
        // ... and the flush resets the window.
        assert_eq!(traffic.window.counters.issued, 0);
        assert_eq!(traffic.window.latency.count(), 0);
    }
}
