//! Live-vs-snapshot routing parity.
//!
//! The live traffic driver routes lookups against nodes' *current* tables
//! mid-run; `bss_overlay`'s evaluator routes against a frozen post-run
//! snapshot. Both walk the shared step in `bss_core::routing`, so on a calm
//! converged overlay — where the tables the lookups saw are exactly the tables
//! the final snapshot froze — replaying the run's lookup stream over the
//! snapshot must reproduce the live hop counts *exactly*, window by window, on
//! the cycle engine and the event engine alike. A drift here means the two
//! routing paths diverged.

use bss_core::experiment::{Experiment, ExperimentConfig, PopulationSnapshot, RunReport};
use bss_core::routing::{route, Contact, RouteEnd, RouterKind, SnapshotTables, DEFAULT_MAX_HOPS};
use bss_core::scenario::{Engine, KeyDist, LatencyModel, Phase, Scenario, ScenarioEvent};
use bss_core::traffic::TRAFFIC_SALT;
use bss_util::rng::SimRng;
use proptest::prelude::*;
use std::sync::OnceLock;

const SIZE: usize = 512;
const SEED: u64 = 42;
const CYCLES: u64 = 40;
const TRAFFIC_START: u64 = 30;
/// Lookups per cycle: enough for the live driver to split each cycle into
/// several chunks, served by every core.
const RATE: u32 = 600;

fn traffic_scenario() -> Scenario {
    Scenario::calm().with(ScenarioEvent::TrafficPhase {
        phase: Phase::new(TRAFFIC_START, CYCLES),
        lookups_per_cycle: RATE,
        key_dist: KeyDist::Uniform,
    })
}

fn run(engine: Engine, router: RouterKind) -> (RunReport, PopulationSnapshot) {
    let config = ExperimentConfig::builder()
        .network_size(SIZE)
        .seed(SEED)
        .max_cycles(CYCLES)
        .stop_when_perfect(false)
        .scenario(traffic_scenario())
        .traffic_router(router)
        .engine(engine)
        .build()
        .expect("valid parity configuration");
    Experiment::new(config).run_with_snapshot()
}

fn contact_at(population: &PopulationSnapshot, position: usize) -> Contact {
    let node = population.node_at(position).expect("position in range");
    Contact {
        id: node.id(),
        address: node.own_descriptor().address(),
    }
}

/// What the replay reconstructs: the run totals and the three per-window hop
/// series, computed with the same arithmetic as the live driver.
#[derive(Debug, PartialEq)]
struct Replay {
    issued: u64,
    delivered: u64,
    mean_hops: f64,
    max_hops: u64,
    success: Vec<(u64, f64)>,
    hop_mean: Vec<(u64, f64)>,
    hop_max: Vec<(u64, f64)>,
}

/// Replays the exact lookups a run issued — lookup `i` of cycle `t` from
/// `SimRng::keyed(seed ^ TRAFFIC_SALT, t, i)`, in the same draw order — over
/// the frozen snapshot. On a calm run every node is alive
/// and initialised for the whole traffic phase, so snapshot position `i` is
/// the live driver's alive-list position `i` and the sequences coincide.
fn replay(snapshot: &PopulationSnapshot, router: RouterKind) -> Replay {
    assert_eq!(snapshot.len(), SIZE, "calm run keeps everyone alive");
    let mut tables = SnapshotTables(snapshot);
    let mut path = Vec::new();
    let (mut issued, mut delivered, mut hops_sum, mut max_hops) = (0u64, 0u64, 0u64, 0u64);
    let (mut success, mut hop_mean, mut hop_max) = (Vec::new(), Vec::new(), Vec::new());
    for cycle in TRAFFIC_START..CYCLES {
        let (mut w_delivered, mut w_hops_sum, mut w_hops_max) = (0u64, 0u64, 0u64);
        for index in 0..RATE {
            let mut rng = SimRng::keyed(SEED ^ TRAFFIC_SALT, cycle, u64::from(index));
            let source = contact_at(snapshot, rng.index(SIZE));
            let target = snapshot
                .node_at(rng.index(SIZE))
                .expect("position in range")
                .id();
            let routed = route(
                &mut tables,
                router,
                source,
                target,
                DEFAULT_MAX_HOPS,
                &mut path,
            );
            issued += 1;
            if routed.delivered() {
                delivered += 1;
                hops_sum += routed.hops;
                max_hops = max_hops.max(routed.hops);
                w_delivered += 1;
                w_hops_sum += routed.hops;
                w_hops_max = w_hops_max.max(routed.hops);
            }
        }
        success.push((cycle, w_delivered as f64 / f64::from(RATE)));
        let window_mean = if w_delivered == 0 {
            0.0
        } else {
            w_hops_sum as f64 / w_delivered as f64
        };
        hop_mean.push((cycle, window_mean));
        hop_max.push((cycle, w_hops_max as f64));
    }
    Replay {
        issued,
        delivered,
        mean_hops: hops_sum as f64 / delivered as f64,
        max_hops,
        success,
        hop_mean,
        hop_max,
    }
}

fn assert_parity(engine: Engine, engine_name: &str) {
    for router in RouterKind::ALL {
        let (report, snapshot) = run(engine, router);
        assert!(
            report
                .convergence_cycle()
                .is_some_and(|c| c < TRAFFIC_START),
            "{engine_name}/{router}: overlay must converge before traffic starts"
        );
        let live = report.lookups().expect("traffic phase was scheduled");
        let replayed = replay(&snapshot, router);
        assert_eq!(live.issued(), replayed.issued, "{engine_name}/{router}");
        assert_eq!(
            live.delivered(),
            replayed.delivered,
            "{engine_name}/{router}"
        );
        assert_eq!(
            live.mean_hops(),
            replayed.mean_hops,
            "{engine_name}/{router}"
        );
        assert_eq!(live.max_hops(), replayed.max_hops, "{engine_name}/{router}");
        assert_eq!(
            live.success_series().points(),
            replayed.success.as_slice(),
            "{engine_name}/{router}"
        );
        assert_eq!(
            live.series("lookup_hop_mean_series").unwrap().points(),
            replayed.hop_mean.as_slice(),
            "{engine_name}/{router}"
        );
        assert_eq!(
            live.series("lookup_hop_max_series").unwrap().points(),
            replayed.hop_max.as_slice(),
            "{engine_name}/{router}"
        );
        // A calm converged overlay serves everything.
        assert_eq!(live.delivered(), live.issued(), "{engine_name}/{router}");
    }
}

#[test]
fn live_routing_matches_snapshot_routing_on_the_cycle_engine() {
    assert_parity(Engine::Cycle, "cycle");
}

#[test]
fn live_routing_matches_snapshot_routing_on_the_event_engine() {
    assert_parity(
        Engine::Event {
            latency: LatencyModel::Constant { millis: 1 },
        },
        "event",
    );
}

/// A converged honest snapshot, shared across proptest cases.
fn proptest_snapshot() -> &'static PopulationSnapshot {
    static SNAPSHOT: OnceLock<PopulationSnapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let config = ExperimentConfig::builder()
            .network_size(128)
            .seed(7)
            .max_cycles(60)
            .build()
            .expect("valid proptest configuration");
        let (report, snapshot) = Experiment::new(config).run_with_snapshot();
        assert!(report.converged(), "proptest needs a converged overlay");
        snapshot
    })
}

proptest! {
    /// Greedy descent strictly improves its metric every hop, so an honest
    /// lookup can never visit the same node twice — for any source, target
    /// and router.
    #[test]
    fn a_lookup_never_visits_the_same_node_twice(
        source in 0usize..128,
        target in 0usize..128,
        router in prop::sample::select(RouterKind::ALL.to_vec()),
    ) {
        let snapshot = proptest_snapshot();
        let mut tables = SnapshotTables(snapshot);
        let mut path = Vec::new();
        let routed = route(
            &mut tables,
            router,
            contact_at(snapshot, source),
            snapshot.node_at(target).expect("position in range").id(),
            DEFAULT_MAX_HOPS,
            &mut path,
        );
        prop_assert!(routed.end != RouteEnd::Cycle, "{router}: honest tables cycled");
        prop_assert_eq!(routed.hops as usize, path.len() - 1);
        for (i, a) in path.iter().enumerate() {
            for b in &path[i + 1..] {
                prop_assert!(a.id != b.id, "{}: {} revisited", router, a.id);
            }
        }
    }
}
