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
//! mean and max, and latency percentiles p50/p95/p99 (at 1 ms resolution)
//! computed by charging each hop of the path what a message on that link
//! costs — the driver asks its own
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
//! Determinism: every lookup draws from its own generator,
//! `SimRng::keyed(config.seed ^ TRAFFIC_SALT, cycle, index)` — its source,
//! its target, its outage coin and the latency of each hop — and never from
//! the engine or protocol streams. No lookup's draws depend on another's, so
//! the driver cuts a cycle's lookups into chunks that the calling thread and
//! one scoped worker per further core claim in any order, while the engine
//! holds every table still in its observer phase. Each thread folds its
//! lookups into its own windows, and these are summed after the join (counts
//! and sums add, maxima take the larger): the report is the same at any core
//! count, and the parallel cycle engine stays bit-for-bit identical at any
//! thread count.

use crate::compact::PackedView;
use crate::experiment::ExperimentConfig;
use crate::protocol::BootstrapProtocol;
use crate::routing::{route_with, step, Contact, NodeView, RouteEnd, RouterKind, DEFAULT_MAX_HOPS};
use crate::scenario::{KeyDist, Phase};
use bss_sampling::sampler::PeerSampler;
use bss_sim::engine::cycle::EngineContext;
use bss_sim::network::Network;
use bss_sim::transport::Transport;
use bss_util::coords::Placement;
use bss_util::rng::SimRng;
use bss_util::stats::{Histogram, Series};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// XOR-folded into the experiment seed to key the lookups' generators, so
/// lookup draws never perturb the protocol or engine streams (ASCII
/// "traffic!"). Lookup `i` of cycle `t` draws from `SimRng::keyed(seed ^
/// TRAFFIC_SALT, t, i)`; public so parity tests can replay any lookup a run
/// issued.
pub const TRAFFIC_SALT: u64 = 0x7472_6166_6669_6321;

/// Lookups a thread claims at a time. Under `serve_churn_event` (1024 nodes,
/// 100 000 Zipf lookups a cycle) a lookup costs about 160 ns, so a chunk is
/// about 40 µs of work. On a two-vCPU x86-64 host it ran 2–4 % slower with
/// chunks of 64 and no faster with chunks of 1024 or 4096, while smaller
/// chunks split a cycle of a few thousand lookups more evenly. A cycle of one
/// chunk or less spawns no worker.
const CHUNK: usize = 256;

/// Buckets a window's latency histogram holds at most: 1 ms buckets while the
/// span it covers (below) fits, wider ones past that.
const LATENCY_BUCKETS: u64 = 1 << 16;

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

    fn add(&mut self, other: &Counters) {
        self.issued += other.issued;
        self.delivered += other.delivered;
        self.hops_sum += other.hops_sum;
        self.hops_max = self.hops_max.max(other.hops_max);
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
    /// Latencies resolve to 1 ms while `max_millis`, the per-hop ceiling,
    /// times every possible hop fits in `LATENCY_BUCKETS` buckets; anything
    /// past that span saturates into the last bucket. The histogram holds
    /// only the buckets its largest latency needs and keeps them across
    /// flushes, so recording stops allocating once that latency is seen.
    fn new(max_millis: u64) -> Self {
        let span = max_millis
            .max(1)
            .saturating_mul(DEFAULT_MAX_HOPS as u64 + 2);
        let width = span.div_ceil(LATENCY_BUCKETS);
        Window {
            counters: Counters::default(),
            latency: Histogram::with_limit(width, span.div_ceil(width) as usize),
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
        self.clear();
        Some(values)
    }

    /// Moves every lookup of `other` into this window.
    fn take(&mut self, other: &mut Window) {
        self.counters.add(&other.counters);
        self.latency.merge(&other.latency);
        other.clear();
    }

    fn clear(&mut self) {
        self.counters = Counters::default();
        self.latency.reset();
    }
}

/// What one thread folds its lookups into: the run's window, one window per
/// placement region (over the lookups *issued by* that region's clients; none
/// without a placement), and the buffer its routes are walked in. Aligned to
/// two cache lines, so that neighbouring lanes, written by different threads
/// on every lookup, never share one.
#[derive(Debug)]
#[repr(align(128))]
struct Lane {
    window: Window,
    regions: Vec<Window>,
    path: Vec<Contact>,
}

impl Lane {
    fn new(max_millis: u64, regions: u32) -> Self {
        Lane {
            window: Window::new(max_millis),
            regions: (0..regions).map(|_| Window::new(max_millis)).collect(),
            path: Vec::with_capacity(DEFAULT_MAX_HOPS + 1),
        }
    }

    fn absorb(&mut self, region: Option<u32>, delivered: bool, hops: u64, millis: Option<u64>) {
        self.window.absorb(delivered, hops, millis);
        if let Some(region) = region {
            self.regions[region as usize].absorb(delivered, hops, millis);
        }
    }

    /// Moves every lookup `other` served into this lane's windows.
    fn take(&mut self, other: &mut Lane) {
        self.window.take(&mut other.window);
        for (mine, theirs) in self.regions.iter_mut().zip(&mut other.regions) {
            mine.take(theirs);
        }
    }
}

/// Total latency of one delivered lookup: every hop of `path` charged what a
/// message on that link costs at the transport's current cycle. Draws one
/// latency per hop from the lookup's generator under a uniform model and
/// nothing otherwise.
fn charge_path(transport: &Transport, path: &[Contact], rng: &mut SimRng) -> u64 {
    path.windows(2)
        .map(|hop| transport.latency_millis(hop[0].address, hop[1].address, rng))
        .sum()
}

/// The position a Zipf draw picks: `cumulative` holds the Zipf weights over
/// the alive positions, summed in rank order.
fn zipf_position(cumulative: &[f64], rng: &mut SimRng) -> usize {
    let total = *cumulative.last().expect("population is non-empty");
    let draw = rng.unit_f64() * total;
    cumulative
        .partition_point(|&cum| cum < draw)
        .min(cumulative.len() - 1)
}

/// One cycle's lookups, shared read-only by every thread serving them: the
/// live packed population (contacts resolve by registry address and must
/// answer to the identifier the descriptor advertised — a node that is dead,
/// uninitialised, or holds a different identifier, such as a forged id-spray
/// descriptor, fails the hop), the driver's transport and key, and the
/// counter the threads claim chunks from.
struct Cycle<'a, S: PeerSampler> {
    protocol: &'a BootstrapProtocol<S>,
    network: &'a Network,
    transport: &'a Transport,
    placement: Option<&'a Placement>,
    alive: &'a [Contact],
    zipf_cumulative: &'a [f64],
    dist: KeyDist,
    router: RouterKind,
    seed: u64,
    cycle: u64,
    lookups: usize,
    claimed: AtomicUsize,
}

impl<'a, S: PeerSampler> Cycle<'a, S> {
    #[inline]
    fn view(&self, contact: Contact) -> Option<PackedView<'a>> {
        if !self.network.is_alive(contact.address) {
            return None;
        }
        self.protocol
            .packed_view(contact.address)
            .filter(|view| view.id() == contact.id)
    }

    /// Claims chunks and serves their lookups into `lane` until none is left.
    fn serve(&self, lane: &mut Lane) {
        loop {
            // Relaxed: the counter only hands out indices; the scope's join
            // orders every lane's writes before they are summed.
            let first = self.claimed.fetch_add(CHUNK, Ordering::Relaxed);
            if first >= self.lookups {
                return;
            }
            for index in first..self.lookups.min(first + CHUNK) {
                self.lookup(index as u64, lane);
            }
        }
    }

    /// Issues lookup `index` of the cycle, drawing from its own generator.
    fn lookup(&self, index: u64, lane: &mut Lane) {
        let mut rng = SimRng::keyed(self.seed, self.cycle, index);
        let alive = self.alive;
        let source = alive[rng.index(alive.len())];
        let target = match self.dist {
            KeyDist::Uniform => alive[rng.index(alive.len())],
            KeyDist::Zipf { .. } => alive[zipf_position(self.zipf_cumulative, &mut rng)],
        };
        // Service-level regional outages: a lookup issued from — or
        // targeting — an outaged region fails before routing starts, the
        // way a real client behind a dead uplink would time out.
        let (from, to) = (source.address, target.address);
        let (delivered, hops) = if self.transport.outage_drops(from, to, &mut rng) {
            (false, 0)
        } else {
            let routed = route_with(source, DEFAULT_MAX_HOPS, &mut lane.path, |contact| {
                let node = self.view(contact).ok_or(RouteEnd::DeadContact)?;
                step(self.router, &node, target.id)
            });
            (routed.delivered(), routed.hops)
        };
        let millis = delivered.then(|| charge_path(self.transport, &lane.path, &mut rng));
        let region = self
            .placement
            .map(|placement| placement.region(from.as_usize()));
        lane.absorb(region, delivered, hops, millis);
    }
}

/// The per-run lookup traffic driver. Built by the measurement layer only when
/// the scenario carries a [`TrafficPhase`](crate::scenario::ScenarioEvent);
/// every other run pays nothing.
#[derive(Debug)]
pub(crate) struct LookupTraffic {
    phases: Vec<(Phase, u32, KeyDist)>,
    /// The driver's own copy of the run's transport: the lookups' outage gate
    /// and per-hop latency.
    transport: Transport,
    /// `config.seed ^ TRAFFIC_SALT`, the seed every lookup's key starts from.
    seed: u64,
    /// The alive population, rebuilt each active cycle in ascending registry
    /// order (so Zipf rank 0 is registry index 0 — the id-spray attack's
    /// default victim, letting skewed traffic compose with the attack).
    alive: Vec<Contact>,
    /// Cumulative Zipf weights over `alive` positions (empty under uniform
    /// keys).
    zipf_cumulative: Vec<f64>,
    /// The run's placement under a WAN link model, which keys the regional
    /// windows.
    placement: Option<Arc<Placement>>,
    /// One per thread that can serve a cycle, the calling thread's first.
    /// The others are emptied into it after every cycle, so between cycles
    /// it holds the run's open windows.
    lanes: Vec<Lane>,
    /// The summary being filled: run totals and series, per flush.
    report: LookupTrafficReport,
}

impl LookupTraffic {
    /// Builds the driver for `config`, or `None` when its scenario schedules
    /// no traffic phase — the capability gate that keeps every other run free
    /// of traffic costs. A cycle's lookups run on every core the host offers.
    pub(crate) fn for_config(config: &ExperimentConfig) -> Option<Self> {
        config.scenario.has_traffic().then(|| {
            let cores = thread::available_parallelism().map_or(1, usize::from);
            Self::with_lanes(config, cores)
        })
    }

    /// The driver for `config`, which must schedule traffic, with `lanes`
    /// threads serving each cycle (at least one): the caller's and a scoped
    /// worker for every further lane.
    pub(crate) fn with_lanes(config: &ExperimentConfig, lanes: usize) -> Self {
        let latency = config.link_model();
        let placement = config.placement();
        let (_, max_millis) = latency.bounds();
        let regions = placement.as_ref().map_or(0, |p| p.region_count());
        let region_series = REGION_SERIES.iter().flat_map(|&key| {
            let key = LOOKUP_SERIES_KEYS[key];
            (0..regions).map(move |region| Series::new(format!("{key}_r{region}")))
        });
        LookupTraffic {
            phases: config.scenario.traffic_phases().collect(),
            transport: Transport::new(latency, placement.clone(), config.seed)
                .with_timeline(config.scenario.events(), config.network_size),
            seed: config.seed ^ TRAFFIC_SALT,
            alive: Vec::with_capacity(config.network_size),
            zipf_cumulative: Vec::new(),
            placement,
            lanes: (0..lanes.max(1))
                .map(|_| Lane::new(max_millis, regions))
                .collect(),
            report: LookupTrafficReport {
                router: config.traffic_router,
                totals: Counters::default(),
                series: (LOOKUP_SERIES_KEYS.into_iter().map(Series::new))
                    .chain(region_series)
                    .collect(),
            },
        }
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
        let lookups = rate as usize;
        let shared = Cycle {
            protocol,
            network: &ctx.network,
            transport: &self.transport,
            placement: self.placement.as_deref(),
            alive: &self.alive,
            zipf_cumulative: &self.zipf_cumulative,
            dist,
            router: self.report.router,
            seed: self.seed,
            cycle,
            lookups,
            claimed: AtomicUsize::new(0),
        };
        let (own, workers) = self.lanes.split_first_mut().expect("at least one lane");
        let helpers = workers.len().min(lookups.div_ceil(CHUNK).saturating_sub(1));
        thread::scope(|scope| {
            for lane in &mut workers[..helpers] {
                let shared = &shared;
                scope.spawn(move || shared.serve(lane));
            }
            shared.serve(own);
        });
        for lane in &mut workers[..helpers] {
            own.take(lane);
        }
    }

    /// Folds the current window into the run totals and the per-cycle
    /// series. Windows in which no lookup was issued push nothing, so calm
    /// stretches outside the traffic phase leave no points.
    pub(crate) fn flush_window(&mut self, cycle: u64) {
        let lane = &mut self.lanes[0];
        self.report.totals.add(&lane.window.counters);
        let (run_series, region_series) = self.report.series.split_at_mut(LOOKUP_SERIES_KEYS.len());
        let region_count = lane.regions.len();
        for (region, window) in lane.regions.iter_mut().enumerate() {
            let Some(values) = window.flush() else {
                continue;
            };
            for (kind, key) in REGION_SERIES.into_iter().enumerate() {
                region_series[kind * region_count + region].push(cycle, values[key]);
            }
        }
        let values = lane.window.flush().into_iter().flatten();
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
    use crate::experiment::{run_scenario, Experiment};
    use crate::scenario::{Engine, LatencyModel, NullObserver, Scenario, ScenarioEvent};
    use crate::scenario::{PlacementSpec, WanParams};
    use bss_sampling::sampler::OracleSampler;
    use bss_sim::network::NodeIndex;
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
        let population = 64usize;
        let mut total = 0.0;
        let cumulative: Vec<f64> = (0..population)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(1.2);
                total
            })
            .collect();
        let mut rng = SimRng::seed_from(11);
        let mut hits = vec![0u64; population];
        for _ in 0..20_000 {
            hits[zipf_position(&cumulative, &mut rng)] += 1;
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
        traffic.lanes[0].window.absorb(true, 2, Some(2));
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
        assert_eq!(traffic.lanes[0].window.counters.issued, 0);
        assert_eq!(traffic.lanes[0].window.latency.count(), 0);
        assert_eq!(traffic.report.issued(), 1, "the run totals keep it");
    }

    #[test]
    fn uniform_latency_resolves_below_the_hop_ceiling() {
        let config = ExperimentConfig::builder()
            .network_size(128)
            .seed(3)
            .max_cycles(30)
            .stop_when_perfect(false)
            .engine(Engine::Event {
                latency: LatencyModel::Uniform {
                    min_millis: 5,
                    max_millis: 85,
                },
            })
            .scenario(Scenario::calm().with(ScenarioEvent::TrafficPhase {
                phase: Phase::new(20, 30),
                lookups_per_cycle: 200,
                key_dist: KeyDist::Uniform,
            }))
            .build()
            .unwrap();
        let report = Experiment::new(config).run();
        let lookups = report.lookups().expect("traffic was scheduled");
        assert!(lookups.mean_hops() > 1.0, "{}", lookups.mean_hops());
        let points = |key| lookups.series(key).expect(key).points();
        let p50 = points("lookup_latency_p50_series");
        let hop_max = points("lookup_hop_max_series");
        assert_eq!(p50.len(), 10);
        for (&(cycle, p50), &(_, hop_max)) in p50.iter().zip(hop_max) {
            assert!(
                (5.0..=85.0 * hop_max).contains(&p50),
                "cycle {cycle}: p50 {p50} ms over at most {hop_max} hops"
            );
        }
        // Resolved to the millisecond, not to the per-hop ceiling.
        assert!(p50.iter().any(|&(_, p50)| p50 % 85.0 != 0.0), "{p50:?}");
    }

    /// A run serving a Zipf workload of several chunks a cycle through a
    /// churn burst, on the event engine over `link`.
    fn chunked_config(link: LatencyModel, router: RouterKind) -> ExperimentConfig {
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(96)
            .seed(17)
            .max_cycles(16)
            .stop_when_perfect(false)
            .engine(Engine::Event {
                latency: LatencyModel::default(),
            })
            .link_model(link)
            .traffic_router(router)
            .event(ScenarioEvent::TrafficPhase {
                phase: Phase::new(2, 16),
                lookups_per_cycle: (5 * CHUNK + 17) as u32,
                key_dist: KeyDist::Zipf { exponent: 1.1 },
            })
            .event(ScenarioEvent::ChurnBurst {
                phase: Phase::new(6, 8),
                rate: 0.1,
            });
        if link.is_wan() {
            builder.event(ScenarioEvent::RegionalOutage {
                phase: Phase::new(9, 12),
                region: 1,
                loss: 0.6,
            });
        }
        builder.build().unwrap()
    }

    #[test]
    fn the_report_does_not_depend_on_the_worker_count() {
        let uniform = LatencyModel::Uniform {
            min_millis: 5,
            max_millis: 85,
        };
        let wan = LatencyModel::Wan {
            placement: PlacementSpec::Clustered {
                regions: 3,
                width: 400.0,
                height: 400.0,
                spread: 30.0,
            },
            params: WanParams::default(),
        };
        for link in [uniform, wan] {
            for router in RouterKind::ALL {
                let config = chunked_config(link, router);
                let [one, rest @ ..] = [1, 2, 3, 8].map(|lanes| {
                    let mut protocol = BootstrapProtocol::new(config.params, OracleSampler::new());
                    let traffic = Some(LookupTraffic::with_lanes(&config, lanes));
                    run_scenario(&config, &mut protocol, traffic, &mut NullObserver).0
                });
                let lookups = one.lookups().expect("traffic was scheduled");
                assert!(lookups.delivered() < lookups.issued(), "{link:?} {router}");
                for (lanes, other) in [2, 3, 8].into_iter().zip(rest) {
                    assert_eq!(one.to_json(), other.to_json(), "{link:?} {router} {lanes}");
                }
            }
        }
    }
}
