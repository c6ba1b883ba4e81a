//! Cycle-vs-event engine consistency: the bootstrap protocol's result must not
//! be an artifact of the synchronous cycle abstraction.
//!
//! The same scenario is run on the cycle engine and on the discrete-event
//! engine with zero latency jitter (a constant per-link latency). The two
//! traces are *not* byte-identical — the event engine interleaves exchanges by
//! wall-clock time and answers arrive after their requests — but both engines
//! must reach the same converged membership: perfect tables at every node, and
//! since perfect leaf sets are uniquely determined by the membership, the same
//! leaf-set content node for node.

use bss_core::experiment::{Experiment, ExperimentConfig};
use bss_core::scenario::{Engine, LatencyModel, Phase, ScenarioEvent};

#[test]
fn both_engines_reach_the_same_converged_membership_at_512_nodes() {
    // Both engines route delivery through the same explicit `Uniform` link
    // model: the cycle engine never consults per-link latency (so its trace
    // is the legacy one), while the event engine draws every delivery from
    // it — membership agreement must survive the spread.
    let mut builder = ExperimentConfig::builder();
    builder
        .network_size(512)
        .seed(42)
        .max_cycles(80)
        .link_model(LatencyModel::Uniform {
            min_millis: 1,
            max_millis: 9,
        });
    let cycle_config = builder.engine(Engine::Cycle).build().unwrap();
    let event_config = builder
        .engine(Engine::Event {
            latency: LatencyModel::Constant { millis: 1 },
        })
        .build()
        .unwrap();

    let (cycle_report, cycle_population) = Experiment::new(cycle_config).run_with_snapshot();
    let (event_report, event_population) = Experiment::new(event_config).run_with_snapshot();

    assert!(cycle_report.converged(), "cycle engine: {cycle_report}");
    assert!(event_report.converged(), "event engine: {event_report}");
    assert!(cycle_report.final_state().is_perfect());
    assert!(event_report.final_state().is_perfect());

    // Same membership: the seed fixes the identifier population, and neither
    // engine lost or added nodes in a calm scenario.
    let mut cycle_ids: Vec<u64> = cycle_population.ids().map(|id| id.raw()).collect();
    let mut event_ids: Vec<u64> = event_population.ids().map(|id| id.raw()).collect();
    cycle_ids.sort_unstable();
    event_ids.sort_unstable();
    assert_eq!(cycle_ids.len(), 512);
    assert_eq!(cycle_ids, event_ids);

    // Perfect leaf sets are uniquely determined by the membership, so the two
    // engines must agree on every node's leaf-set content (timestamps and
    // traces differ; the converged structure does not).
    for id in cycle_population.ids() {
        let from_cycle = cycle_population.node_by_id(id).unwrap();
        let from_event = event_population.node_by_id(id).unwrap();
        let mut leaf_cycle: Vec<u64> = from_cycle.leaf_set().iter().map(|d| d.id().raw()).collect();
        let mut leaf_event: Vec<u64> = from_event.leaf_set().iter().map(|d| d.id().raw()).collect();
        leaf_cycle.sort_unstable();
        leaf_event.sort_unstable();
        assert_eq!(leaf_cycle, leaf_event, "leaf sets diverged at node {id}");
    }

    // Both engines really exchanged traffic with the unified accounting.
    assert!(cycle_report.traffic().requests_sent > 0);
    assert!(event_report.traffic().requests_sent > 0);
    assert!(event_report.traffic().answers_delivered > 0);
}

#[test]
fn event_engine_converges_under_latency_jitter_and_loss() {
    // Latency jitter wider than the cycle period plus 20% loss: replies now
    // arrive whole cycles after their requests, which is exactly the regime
    // the synchronous engine cannot express. The protocol must still converge.
    let config = ExperimentConfig::builder()
        .network_size(256)
        .seed(7)
        .max_cycles(120)
        .drop_probability(0.2)
        .engine(Engine::Event {
            latency: LatencyModel::Uniform {
                min_millis: 10,
                max_millis: 1500,
            },
        })
        .build()
        .unwrap();
    let report = Experiment::new(config).run();
    assert!(report.converged(), "{report}");
    assert!(
        report.traffic().answers_delivered < report.traffic().answers_sent,
        "loss must be visible in the unified traffic accounting"
    );
}

#[test]
fn cycle_zero_joiners_start_exactly_once() {
    // Regression: membership events effective at cycle 0 (here a flash crowd;
    // a whole-run churn burst hits the same path) start their
    // joiners via start_node before the engine's own deferred start phase
    // runs. A double start would give those nodes two self-rescheduling
    // exchange-timer chains — observable as roughly twice as many initiated
    // exchanges as executed cycles.
    let cycles = 20;
    let config = ExperimentConfig::builder()
        .network_size(64)
        .seed(5)
        .max_cycles(cycles)
        .stop_when_perfect(false)
        .event(ScenarioEvent::MassiveJoin {
            at_cycle: 0,
            count: 32,
        })
        .engine(Engine::Event {
            latency: LatencyModel::Constant { millis: 1 },
        })
        .build()
        .unwrap();
    let (report, population) = Experiment::new(config).run_with_snapshot();
    assert_eq!(report.cycles_executed(), cycles);
    assert_eq!(population.len(), 96);
    for position in 0..population.len() {
        let node = population.node_at(position).unwrap();
        assert!(
            node.exchanges_initiated() <= cycles + 1,
            "node {} initiated {} exchanges in {} cycles: started twice?",
            node.id(),
            node.exchanges_initiated(),
            cycles
        );
    }
}

#[test]
fn event_engine_runs_scenario_timelines() {
    // A full timeline — loss window, partition that merges, flash crowd —
    // executed event-driven. The run must survive every transition and
    // converge after the last one.
    let config = ExperimentConfig::builder()
        .network_size(128)
        .seed(11)
        .max_cycles(120)
        .event(ScenarioEvent::LossWindow {
            phase: Phase::new(0, 10),
            probability: 0.3,
        })
        .event(ScenarioEvent::Partition {
            phase: Phase::new(0, 15),
            groups: bss_core::scenario::PartitionSpec::IndexParity,
        })
        .event(ScenarioEvent::MassiveJoin {
            at_cycle: 20,
            count: 64,
        })
        .engine(Engine::Event {
            latency: LatencyModel::Constant { millis: 5 },
        })
        .build()
        .unwrap();
    let (report, population) = Experiment::new(config).run_with_snapshot();
    assert!(report.converged(), "{report}");
    assert!(report.convergence_cycle().unwrap() >= 20, "after the join");
    assert_eq!(population.len(), 192, "the flash crowd joined event-driven");
    assert_eq!(report.events_fired().len(), 3);
}
