//! Recovery after catastrophic failure: the regression suite for descriptor
//! aging, the `ReBootstrap` scenario event and the recovery metrics.
//!
//! The bug these tests pin: the paper's protocol has no failure detector, so
//! after a `CatastrophicFailure` the survivors keep gossiping descriptors of
//! dead nodes forever — the overlay never recovers. Descriptor aging
//! (`descriptor_max_age`) turns the NEWSCAST-style freshness timestamps into a
//! failure detector, and a `ReBootstrap` order re-seeds survivor views, after
//! which the overlay re-converges on both the cycle and the event engine.

use bootstrapping_service::core::experiment::{Experiment, ExperimentConfig, RunReport};
use bootstrapping_service::core::scenario::{Engine, LatencyModel, ScenarioEvent};
use bootstrapping_service::util::stats::Series;

const CATASTROPHE_CYCLE: u64 = 15;

/// A 50 % catastrophe at cycle 15, with the given aging bound and (optionally)
/// a full re-bootstrap order two cycles later.
fn catastrophe_config(
    network_size: usize,
    engine: Engine,
    max_age: Option<u64>,
    rebootstrap: bool,
    max_cycles: u64,
) -> ExperimentConfig {
    let mut builder = ExperimentConfig::builder();
    builder
        .network_size(network_size)
        .seed(7)
        .max_cycles(max_cycles)
        .stop_when_perfect(false)
        .engine(engine)
        .descriptor_max_age(max_age)
        .event(ScenarioEvent::CatastrophicFailure {
            at_cycle: CATASTROPHE_CYCLE,
            fraction: 0.5,
        });
    if rebootstrap {
        builder.event(ScenarioEvent::ReBootstrap {
            at_cycle: CATASTROPHE_CYCLE + 2,
            fraction: 1.0,
        });
    }
    builder.build().expect("valid recovery configuration")
}

/// The per-cycle fraction of stored descriptors pointing at dead nodes.
fn dead_series(report: &RunReport) -> &Series {
    report.series("dead_series").expect("every run records it")
}

fn dead_fraction_at(report: &RunReport, cycle: u64) -> f64 {
    dead_series(report)
        .value_at(cycle)
        .unwrap_or_else(|| panic!("no dead-descriptor sample at cycle {cycle}"))
}

/// The bug itself, pinned: with aging off, the dead-descriptor fraction jumps
/// at the catastrophe and never returns to zero — survivors gossip the dead
/// forever and the overlay never reaches perfect tables again.
#[test]
fn without_aging_the_overlay_never_recovers_on_either_engine() {
    for engine in [
        Engine::Cycle,
        Engine::Event {
            latency: LatencyModel::Constant { millis: 1 },
        },
    ] {
        let config = catastrophe_config(256, engine, None, false, 60);
        let report = Experiment::new(config).run();
        assert_eq!(report.cycles_executed(), 60);
        assert_eq!(
            report.degraded_cycle(),
            Some(CATASTROPHE_CYCLE),
            "[{}] staleness must appear exactly at the catastrophe",
            engine.label()
        );
        for cycle in CATASTROPHE_CYCLE..60 {
            assert!(
                dead_fraction_at(&report, cycle) > 0.0,
                "[{}] dead-descriptor fraction dropped to zero at cycle {cycle} \
                 without a failure detector",
                engine.label()
            );
        }
        assert_eq!(report.recovered_cycle(), None, "[{}]", engine.label());
        assert_eq!(report.cycles_to_recover(), None);
        assert!(
            !report.final_state().is_perfect(),
            "[{}] a detector-free overlay must not look perfect while it \
             holds dead descriptors",
            engine.label()
        );
    }
}

/// With `descriptor_max_age` set, the aging merge path purges every dead
/// descriptor within O(view-size) cycles of the catastrophe — no re-bootstrap
/// needed — on both engines.
#[test]
fn aging_alone_purges_dead_descriptors_within_view_size_cycles() {
    let max_age = 8u64;
    let view_size = 20u64; // the paper's c — the O(view-size) recovery bound
    for engine in [
        Engine::Cycle,
        Engine::Event {
            latency: LatencyModel::Constant { millis: 1 },
        },
    ] {
        let config = catastrophe_config(256, engine, Some(max_age), false, 60);
        let report = Experiment::new(config).run();
        assert_eq!(report.degraded_cycle(), Some(CATASTROPHE_CYCLE));
        let recovered = report.recovered_cycle().unwrap_or_else(|| {
            panic!(
                "[{}] aging never purged the dead descriptors: final fraction {:.3e}",
                engine.label(),
                dead_series(&report).final_value().unwrap()
            )
        });
        let took = report.cycles_to_recover().expect("recovered");
        assert_eq!(took, recovered - CATASTROPHE_CYCLE);
        assert!(
            took <= view_size,
            "[{}] recovery took {took} cycles, beyond the O(view-size) bound \
             of {view_size}",
            engine.label()
        );
        assert_eq!(dead_series(&report).final_value(), Some(0.0));
    }
}

/// A second catastrophe after a completed recovery: the recorded recovery
/// must refer to the state the run ended in, not to the first episode — a
/// re-degradation voids a previously recorded `recovered_cycle`.
#[test]
fn a_second_catastrophe_voids_and_then_renews_the_recorded_recovery() {
    let second_strike = CATASTROPHE_CYCLE + 20;
    let config = {
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(256)
            .seed(7)
            .max_cycles(70)
            .stop_when_perfect(false)
            .descriptor_max_age(Some(6))
            .event(ScenarioEvent::CatastrophicFailure {
                at_cycle: CATASTROPHE_CYCLE,
                fraction: 0.3,
            })
            .event(ScenarioEvent::CatastrophicFailure {
                at_cycle: second_strike,
                fraction: 0.3,
            });
        builder.build().unwrap()
    };
    let report = Experiment::new(config).run();
    assert_eq!(report.degraded_cycle(), Some(CATASTROPHE_CYCLE));
    // The overlay recovered from the first strike (fraction hit zero before
    // cycle 35), but that interim recovery must not be what the report says.
    assert!(
        dead_series(&report)
            .points()
            .iter()
            .any(|&(cycle, value)| cycle < second_strike
                && value == 0.0
                && cycle > CATASTROPHE_CYCLE),
        "the interim recovery never happened; the timeline assumption broke"
    );
    let recovered = report
        .recovered_cycle()
        .expect("recovers from the second strike too");
    assert!(
        recovered > second_strike,
        "recovered_cycle {recovered} must postdate the second strike at {second_strike}"
    );
    assert_eq!(dead_series(&report).final_value(), Some(0.0));
}

/// The acceptance pin: a 50 % catastrophe at N = 1024 with aging *and* a
/// full ReBootstrap order reaches zero dead descriptors and re-converges to
/// perfect tables on both the cycle and the event engine.
#[test]
fn catastrophe_with_aging_and_rebootstrap_reconverges_at_n1024() {
    for engine in [
        Engine::Cycle,
        Engine::Event {
            latency: LatencyModel::Constant { millis: 1 },
        },
    ] {
        let config = catastrophe_config(1024, engine, Some(10), true, 60);
        let report = Experiment::new(config).run();
        let label = engine.label();

        // Both scheduled events fired, in order.
        assert_eq!(report.events_fired().len(), 2, "[{label}]");
        assert_eq!(report.events_fired()[0].0, CATASTROPHE_CYCLE);
        assert_eq!(report.events_fired()[1].0, CATASTROPHE_CYCLE + 2);

        // The overlay degraded, then purged every dead descriptor...
        assert_eq!(
            report.degraded_cycle(),
            Some(CATASTROPHE_CYCLE),
            "[{label}]"
        );
        assert!(
            report.recovered_cycle().is_some(),
            "[{label}] dead descriptors were never fully purged: {:.3e}",
            dead_series(&report).final_value().unwrap()
        );
        assert_eq!(dead_series(&report).final_value(), Some(0.0), "[{label}]");

        // ... and re-converged to perfect tables over the survivor population.
        assert!(
            report.final_state().is_perfect(),
            "[{label}] survivors did not re-converge: {report}"
        );
        assert!(
            report.converged(),
            "[{label}] the re-convergence must be recorded: {report}"
        );
        assert!(
            report.convergence_cycle().unwrap() > CATASTROPHE_CYCLE,
            "[{label}] the recorded convergence must postdate the catastrophe \
             (pre-catastrophe perfection is reset by the degradation)"
        );
    }
}

/// The cycle-vs-event traffic pin for dead-node silencing: on the event
/// engine every alive node fires exactly one exchange timer per cycle Δ and
/// sends exactly one request, so after a catastrophe the per-cycle request
/// count must drop to the survivor count — dead nodes generate zero traffic
/// from the moment of the failure (their pending timers and answer slots are
/// cancelled).
#[test]
fn dead_nodes_generate_zero_event_engine_traffic_after_the_catastrophe() {
    let network_size = 64usize;
    let max_cycles = 30u64;
    let config = catastrophe_config(
        network_size,
        Engine::Event {
            latency: LatencyModel::Constant { millis: 1 },
        },
        None,
        false,
        max_cycles,
    );
    let report = Experiment::new(config).run();
    let survivors = network_size as u64 - (network_size as f64 * 0.5).round() as u64;
    // Victims fire for the pre-catastrophe cycles only; survivors for the
    // whole run. Any extra request would be a dead node still gossiping.
    let expected =
        network_size as u64 * CATASTROPHE_CYCLE + survivors * (max_cycles - CATASTROPHE_CYCLE);
    assert_eq!(
        report.traffic().requests_sent,
        expected,
        "dead nodes kept sending after the catastrophe"
    );
    assert!(report.traffic().answers_sent <= report.traffic().requests_delivered);
}
