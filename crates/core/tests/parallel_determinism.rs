//! The cycle engine must produce the same output bit for bit at every thread
//! count, for every scenario: samplers, message loss, churn, membership
//! events, aging, perfection-stop on and off.
//!
//! The reference is `ParallelCycle { threads: 1 }`, which runs each cycle
//! inline on the calling thread. Every run is compared against it at 2, 3 and
//! 8 pinned threads, which stream each cycle's exchanges to worker threads as
//! they are planned, and on `Engine::Cycle`, which takes every core of the
//! host. That exercises the whole plan → execute → commit machinery on every
//! run — a planner waiting for a node's or a peer's state included.

use bss_core::experiment::{Experiment, ExperimentConfig, PopulationSnapshot, SamplerChoice};
use bss_core::scenario::{AdversaryBehavior, Engine, Phase, ScenarioEvent};
use bss_util::config::{BootstrapParams, NewscastParams};
use proptest::prelude::*;

/// The reference engine: each cycle inline on the calling thread.
const INLINE: Engine = Engine::ParallelCycle { threads: 1 };

/// The engines every run is compared against the reference on.
const STREAMED: [Engine; 4] = [
    Engine::ParallelCycle { threads: 2 },
    Engine::ParallelCycle { threads: 3 },
    Engine::ParallelCycle { threads: 8 },
    Engine::Cycle,
];

/// Everything observable about a finished run, in comparable form.
#[derive(Debug, PartialEq)]
struct RunTrace {
    leaf_series: Vec<(u64, f64)>,
    prefix_series: Vec<(u64, f64)>,
    poisoned_series: Vec<(u64, f64)>,
    eclipse_series: Vec<(u64, f64)>,
    dead_series: Vec<(u64, f64)>,
    time_to_eclipse: Option<u64>,
    convergence_cycle: Option<u64>,
    cycles_executed: u64,
    requests_sent: u64,
    requests_delivered: u64,
    answers_sent: u64,
    answers_delivered: u64,
    max_message_size: u64,
    mean_message_size: f64,
    nodes: Vec<NodeDigest>,
}

#[derive(Debug, PartialEq)]
struct NodeDigest {
    id: u64,
    leaf: Vec<(u64, u64)>,
    prefix: Vec<(u64, u64)>,
    exchanges_initiated: u64,
    descriptors_received: u64,
}

fn run(config: &ExperimentConfig, engine: Engine) -> RunTrace {
    run_with(config, engine, false).0
}

fn run_with(
    config: &ExperimentConfig,
    engine: Engine,
    profile: bool,
) -> (RunTrace, Option<bss_sim::PhaseProfile>) {
    let mut config = config.clone();
    config.engine = engine;
    config.profile = profile;
    let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
    let phase_profile = outcome.phase_profile().copied();
    let trace = RunTrace {
        leaf_series: outcome.leaf_series().points().to_vec(),
        prefix_series: outcome.prefix_series().points().to_vec(),
        poisoned_series: outcome.series("poisoned_series").unwrap().points().to_vec(),
        eclipse_series: outcome.series("eclipse_series").unwrap().points().to_vec(),
        dead_series: outcome.series("dead_series").unwrap().points().to_vec(),
        time_to_eclipse: outcome.time_to_eclipse(),
        convergence_cycle: outcome.convergence_cycle(),
        cycles_executed: outcome.cycles_executed(),
        requests_sent: outcome.traffic().requests_sent,
        requests_delivered: outcome.traffic().requests_delivered,
        answers_sent: outcome.traffic().answers_sent,
        answers_delivered: outcome.traffic().answers_delivered,
        max_message_size: outcome.traffic().max_message_size(),
        mean_message_size: outcome.traffic().mean_message_size(),
        nodes: digest_nodes(&snapshot),
    };
    (trace, phase_profile)
}

fn digest_nodes(snapshot: &PopulationSnapshot) -> Vec<NodeDigest> {
    (0..snapshot.len())
        .map(|i| {
            let node = snapshot.node_at(i).unwrap();
            NodeDigest {
                id: node.id().raw(),
                leaf: node
                    .leaf_set()
                    .iter()
                    .map(|d| (d.id().raw(), d.timestamp()))
                    .collect(),
                prefix: node
                    .prefix_table()
                    .iter()
                    .map(|d| (d.id().raw(), d.timestamp()))
                    .collect(),
                exchanges_initiated: node.exchanges_initiated(),
                descriptors_received: node.descriptors_received(),
            }
        })
        .collect()
}

fn assert_thread_invariant(config: ExperimentConfig) {
    let inline = run(&config, INLINE);
    for engine in STREAMED {
        assert_eq!(
            inline,
            run(&config, engine),
            "trace diverged on {engine:?} for {config:?}"
        );
    }
}

#[test]
fn oracle_run_is_thread_count_invariant() {
    let config = ExperimentConfig::builder()
        .network_size(300)
        .seed(11)
        .max_cycles(40)
        .build()
        .unwrap();
    assert_thread_invariant(config);
}

#[test]
fn waves_shorter_than_the_pool_are_thread_count_invariant() {
    // Sixteen nodes: an exchange's peer is often still out in an earlier one,
    // the planner often waits for the node it plans, and at eight threads
    // most workers find nothing queued.
    let config = ExperimentConfig::builder()
        .network_size(16)
        .seed(14)
        .drop_probability(0.2)
        .max_cycles(30)
        .stop_when_perfect(false)
        .build()
        .unwrap();
    assert_thread_invariant(config);
}

#[test]
fn lossy_run_is_thread_count_invariant() {
    let config = ExperimentConfig::builder()
        .network_size(250)
        .seed(12)
        .drop_probability(0.2)
        .max_cycles(60)
        .build()
        .unwrap();
    assert_thread_invariant(config);
}

#[test]
fn churned_newscast_run_is_thread_count_invariant() {
    // The hardest setting: a stateful sampler gossiping under the protocol
    // (sampler steps consume RNG and mutate views during planning) plus
    // membership churn at every cycle boundary.
    let config = ExperimentConfig::builder()
        .network_size(200)
        .seed(13)
        .sampler(SamplerChoice::Newscast(NewscastParams {
            view_size: 20,
            ..NewscastParams::paper_default()
        }))
        .event(ScenarioEvent::ChurnBurst {
            phase: Phase::new(0, u64::MAX),
            rate: 0.02,
        })
        .drop_probability(0.1)
        .max_cycles(25)
        .stop_when_perfect(false)
        .build()
        .unwrap();
    assert_thread_invariant(config);
}

#[test]
fn paper_default_newscast_runs_are_thread_count_invariant() {
    // The paper's NEWSCAST sampler, unmodified (view size, period and all),
    // at 2^9 nodes with and without the Fig. 4 loss.
    for loss in [0.0, 0.2] {
        let config = ExperimentConfig::builder()
            .network_size(1 << 9)
            .seed(10)
            .sampler(SamplerChoice::Newscast(NewscastParams::paper_default()))
            .drop_probability(loss)
            .max_cycles(60)
            .build()
            .unwrap();
        assert_thread_invariant(config);
    }
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    // The per-phase profiler is observational: with it enabled — inline and
    // on worker threads — the simulation trace must stay bit-identical to
    // the unprofiled inline run, and the profile itself must cover every
    // executed cycle.
    let config = ExperimentConfig::builder()
        .network_size(200)
        .seed(21)
        .drop_probability(0.1)
        .max_cycles(30)
        .build()
        .unwrap();
    let baseline = run(&config, INLINE);
    for engine in std::iter::once(INLINE).chain(STREAMED) {
        let (profiled, profile) = run_with(&config, engine, true);
        assert_eq!(
            baseline, profiled,
            "profiling changed the trace on {engine:?}"
        );
        let profile = profile.expect("profile requested but absent");
        assert_eq!(profile.cycles, profiled.cycles_executed);
        assert!(
            profile.total() > std::time::Duration::ZERO,
            "profile accumulated no time on {engine:?}"
        );
    }
    // Unprofiled runs must not grow a profile.
    let (_, no_profile) = run_with(&config, Engine::Cycle, false);
    assert!(no_profile.is_none());
}

#[test]
fn recovery_partition_and_join_timeline_is_thread_count_invariant() {
    // Every membership hook on one timeline, with aging on: half the network
    // dies, the survivors re-bootstrap, a partition splits and merges the
    // rest, and a batch of fresh nodes joins — over both samplers.
    for newscast in [false, true] {
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(256)
            .seed(29)
            .max_cycles(30)
            .stop_when_perfect(false)
            .descriptor_max_age(Some(6))
            .event(ScenarioEvent::CatastrophicFailure {
                at_cycle: 5,
                fraction: 0.5,
            })
            .event(ScenarioEvent::ReBootstrap {
                at_cycle: 7,
                fraction: 1.0,
            })
            .event(ScenarioEvent::Partition {
                phase: Phase::new(10, 16),
            })
            .event(ScenarioEvent::MassiveJoin {
                at_cycle: 19,
                count: 64,
            });
        if newscast {
            builder.sampler(SamplerChoice::Newscast(NewscastParams {
                view_size: 20,
                ..NewscastParams::paper_default()
            }));
        }
        assert_thread_invariant(builder.build().unwrap());
    }
}

#[test]
fn adversarial_runs_are_thread_count_invariant() {
    // Every adversarial behaviour, with the countermeasures both off and on:
    // the attack mutations happen in the deterministic plan pass (honest RNG
    // draws first, overrides after), so the parallel engine must replay them
    // bit-identically at any thread count — including the attack metrics.
    let behaviors = [
        AdversaryBehavior::ForgeDescriptors,
        AdversaryBehavior::IdSpray { target: 3 },
        AdversaryBehavior::HubAttack,
    ];
    for behavior in behaviors {
        for defended in [false, true] {
            let config = ExperimentConfig::builder()
                .network_size(128)
                .seed(17)
                .max_cycles(20)
                .stop_when_perfect(false)
                .params(BootstrapParams {
                    descriptor_verifier: defended.then_some(0xb0b),
                    ..BootstrapParams::paper_default()
                })
                .sampler(SamplerChoice::Newscast(NewscastParams {
                    view_size: 15,
                    view_diversity_quota: defended.then_some(2),
                    ..NewscastParams::paper_default()
                }))
                .event(ScenarioEvent::ByzantineConvert {
                    phase: Phase::new(3, 18),
                    fraction: 0.15,
                    behavior,
                })
                .build()
                .unwrap();
            assert_thread_invariant(config);
        }
    }
}

#[test]
fn traffic_series_are_thread_count_invariant() {
    // The lookup-traffic driver runs in the observer phase, between cycles,
    // and each lookup draws from its own salted keyed generator, so a run
    // serving traffic — including through
    // churn, where the alive list shifts under the lookups — must produce a
    // byte-identical RunReport JSON at every thread count. Only the engine
    // label and the threads tag themselves may differ.
    use bss_core::scenario::KeyDist;
    let config = ExperimentConfig::builder()
        .network_size(256)
        .seed(23)
        .max_cycles(30)
        .stop_when_perfect(false)
        .event(ScenarioEvent::ChurnBurst {
            phase: Phase::new(0, u64::MAX),
            rate: 0.02,
        })
        .descriptor_max_age(Some(8))
        .event(ScenarioEvent::TrafficPhase {
            phase: Phase::new(0, 30),
            lookups_per_cycle: 50,
            key_dist: KeyDist::Zipf { exponent: 1.1 },
        })
        .build()
        .unwrap();
    let normalized_json = |engine: Engine| {
        let mut config = config.clone();
        config.engine = engine;
        Experiment::new(config)
            .run()
            .to_json()
            .lines()
            .filter(|line| {
                !line.trim_start().starts_with("\"engine\":")
                    && !line.trim_start().starts_with("\"threads\":")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let inline = normalized_json(INLINE);
    assert!(
        inline.contains("\"lookup_traffic\""),
        "traffic summary missing from the report"
    );
    assert!(inline.contains("\"lookup_success_series\""));
    for engine in STREAMED {
        assert_eq!(
            inline,
            normalized_json(engine),
            "traffic JSON diverged on {engine:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary small scenarios, with and without descriptor aging: the
    /// engine at 2, 3 and 8 threads and on every core produces snapshots
    /// identical to the inline reference.
    #[test]
    fn parallel_engine_matches_sequential_on_arbitrary_scenarios(
        size in 50usize..200,
        seed in any::<u64>(),
        drop_permille in 0u32..300,
        churn_permille in 0u32..30,
        newscast in any::<bool>(),
        cycles in 5u64..20,
        max_age in (any::<bool>(), 4u64..13).prop_map(|(aging, age)| aging.then_some(age)),
    ) {
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(size)
            .seed(seed)
            .drop_probability(f64::from(drop_permille) / 1000.0);
        if churn_permille > 0 {
            builder.event(ScenarioEvent::ChurnBurst {
                phase: Phase::new(0, u64::MAX),
                rate: f64::from(churn_permille) / 1000.0,
            });
        }
        builder
            .descriptor_max_age(max_age)
            .max_cycles(cycles)
            .stop_when_perfect(false);
        if newscast {
            builder.sampler(SamplerChoice::Newscast(NewscastParams {
                view_size: 15,
                ..NewscastParams::paper_default()
            }));
        }
        let config = builder.build().unwrap();
        let inline = run(&config, INLINE);
        for engine in STREAMED {
            prop_assert_eq!(&inline, &run(&config, engine), "{:?}", engine);
        }
    }
}
