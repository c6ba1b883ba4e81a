//! Integration tests spanning the whole workspace: bootstrap end to end (with and
//! without failures and churn), hand the result to routing substrates, and check
//! the paper's qualitative claims on small networks.

use bootstrapping_service::core::experiment::{Experiment, ExperimentConfig, SamplerChoice};
use bootstrapping_service::core::routing::RouterKind;
use bootstrapping_service::core::scenario::{Phase, ScenarioEvent};
use bootstrapping_service::overlay::lookup::LookupEvaluator;
use bootstrapping_service::util::config::{BootstrapParams, NewscastParams};

#[test]
fn full_stack_bootstrap_over_newscast_then_route() {
    // The complete architecture of Figure 1: NEWSCAST sampling at the bottom, the
    // bootstrapping service above it, a routing substrate consuming the result.
    let config = ExperimentConfig::builder()
        .network_size(256)
        .seed(1)
        .sampler(SamplerChoice::Newscast(NewscastParams::paper_default()))
        .max_cycles(80)
        .build()
        .unwrap();
    let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
    assert!(outcome.converged(), "{outcome}");

    let mut evaluator = LookupEvaluator::new(snapshot, 11);
    for router in [RouterKind::Pastry, RouterKind::Kademlia, RouterKind::Chord] {
        let report = evaluator.evaluate(router, 200);
        assert_eq!(report.success_rate(), 1.0, "{report}");
        assert!(report.mean_hops() < 8.0, "{report}");
    }
}

#[test]
fn convergence_time_grows_additively_with_network_size() {
    // The paper's scalability observation (Figure 3): a 4x larger network needs
    // only an additive constant more cycles.
    let mut cycles = Vec::new();
    for exponent in [8u32, 10, 12] {
        let config = ExperimentConfig::builder()
            .network_size(1 << exponent)
            .seed(3)
            .max_cycles(80)
            .build()
            .unwrap();
        let outcome = Experiment::new(config).run();
        assert!(
            outcome.converged(),
            "N=2^{exponent} did not converge: {outcome}"
        );
        cycles.push(outcome.convergence_cycle().unwrap());
    }
    assert!(cycles[1] >= cycles[0]);
    assert!(cycles[2] >= cycles[1]);
    let first_step = cycles[1].saturating_sub(cycles[0]);
    let second_step = cycles[2].saturating_sub(cycles[1]);
    assert!(
        first_step <= 12 && second_step <= 12,
        "growth per 4x size should be a small additive constant: {cycles:?}"
    );
}

#[test]
fn larger_networks_take_more_cycles_but_only_logarithmically_more() {
    // Figure 3's sweep in small: the mean convergence cycle over two runs per
    // size, seeded as `bss-bench fig3 --seed 11` seeds them.
    let mean_convergence = |exponent: u64| {
        let cycles: Vec<u64> = (0..2)
            .filter_map(|run| {
                let config = ExperimentConfig::builder()
                    .network_size(1 << exponent)
                    .seed(11 + 1000 * exponent + run)
                    .max_cycles(80)
                    .build()
                    .unwrap();
                Experiment::new(config).run().convergence_cycle()
            })
            .collect();
        assert!(!cycles.is_empty(), "no run at N=2^{exponent} converged");
        cycles.iter().sum::<u64>() as f64 / cycles.len() as f64
    };
    let (small, large) = (mean_convergence(6), mean_convergence(8));
    assert!(
        large >= small,
        "a 4x larger network should not converge faster on average ({small} vs {large})"
    );
    assert!(
        large <= small + 12.0,
        "convergence should grow by an additive constant, not multiplicatively ({small} vs {large})"
    );
}

#[test]
fn twenty_percent_message_loss_only_slows_convergence_down() {
    // Figure 4 vs Figure 3 on a small network, averaged over seeds.
    let mut reliable = 0u64;
    let mut lossy = 0u64;
    for seed in 0..3u64 {
        let base = ExperimentConfig::builder()
            .network_size(512)
            .seed(seed)
            .max_cycles(200)
            .build()
            .unwrap();
        let outcome = Experiment::new(base).run();
        assert!(outcome.converged());
        reliable += outcome.convergence_cycle().unwrap();

        let dropped = ExperimentConfig::builder()
            .network_size(512)
            .seed(seed)
            .drop_probability(0.2)
            .max_cycles(200)
            .build()
            .unwrap();
        let outcome = Experiment::new(dropped).run();
        assert!(outcome.converged(), "loss must not prevent convergence");
        lossy += outcome.convergence_cycle().unwrap();
    }
    assert!(
        lossy >= reliable,
        "loss should cost cycles ({reliable} vs {lossy})"
    );
    assert!(
        lossy <= reliable * 4,
        "the paper reports a proportional slow-down, not a collapse ({reliable} vs {lossy})"
    );
}

#[test]
fn combined_churn_and_loss_at_2048_nodes_keeps_tables_usable() {
    // The harshest sustained scenario the paper's deployment would face: a
    // 2048-node network bootstrapping under 20 % message loss *and* 0.5 %/cycle
    // replacement churn at the same time. Perfection is unreachable (the
    // protocol has no failure detector), but table quality must settle near the
    // rT / (1 + rT) staleness bound rather than collapse, and the run must stay
    // deterministic.
    let config = ExperimentConfig::builder()
        .network_size(1 << 11)
        .seed(9)
        .drop_probability(0.2)
        .event(ScenarioEvent::ChurnBurst {
            phase: Phase::new(0, u64::MAX),
            rate: 0.005,
        })
        .max_cycles(40)
        .stop_when_perfect(false)
        .build()
        .unwrap();
    let outcome = Experiment::new(config.clone()).run();
    assert_eq!(outcome.cycles_executed(), 40);
    assert!(!outcome.converged(), "churn never reaches perfection");
    // With r = 0.5 %/cycle and T = 40, the staleness bound is ~0.17; allow
    // headroom for the loss-slowed start-up.
    let final_leaf = outcome.leaf_series().final_value().unwrap();
    let final_prefix = outcome.prefix_series().final_value().unwrap();
    assert!(
        final_leaf < 0.30,
        "leaf quality collapsed under churn+loss: {final_leaf}"
    );
    assert!(
        final_prefix < 0.30,
        "prefix quality collapsed under churn+loss: {final_prefix}"
    );
    // The mid-run epidemic must still have made fast progress despite both
    // adversities: by cycle 15 the bulk of the entries are in place.
    let mid = outcome.leaf_series().value_at(15).unwrap();
    assert!(mid < 0.15, "epidemic too slow under churn+loss: {mid}");
    // Determinism survives the full churn+loss machinery.
    let replay = Experiment::new(config).run();
    assert_eq!(
        outcome.leaf_series().points(),
        replay.leaf_series().points()
    );
    assert_eq!(
        outcome.prefix_series().points(),
        replay.prefix_series().points()
    );
}

#[test]
fn missing_entry_proportion_decays_roughly_exponentially() {
    // "Convergence of the leaf sets clearly follows an exponential behavior" (§5):
    // the proportion should fall by a large factor within a few cycles of the
    // mid-phase rather than linearly.
    let config = ExperimentConfig::builder()
        .network_size(1 << 11)
        .seed(5)
        .max_cycles(60)
        .build()
        .unwrap();
    let outcome = Experiment::new(config).run();
    assert!(outcome.converged());
    let series = outcome.leaf_series();
    let early = series.value_at(2).unwrap();
    let later = series.value_at(6).unwrap();
    assert!(
        later < early / 5.0,
        "leaf convergence too slow to be exponential: {early} -> {later}"
    );
}

#[test]
fn non_default_geometries_also_converge() {
    // b = 2 (base-4 digits) and k = 1: a different table shape must bootstrap too.
    let params = BootstrapParams {
        bits_per_digit: 2,
        entries_per_slot: 1,
        leaf_set_size: 12,
        random_samples: 20,
        ..BootstrapParams::paper_default()
    };
    let config = ExperimentConfig::builder()
        .network_size(256)
        .seed(7)
        .params(params)
        .max_cycles(80)
        .build()
        .unwrap();
    let outcome = Experiment::new(config).run();
    assert!(outcome.converged(), "{outcome}");
}

#[test]
fn churn_during_bootstrap_keeps_quality_high_but_imperfect() {
    let config = ExperimentConfig::builder()
        .network_size(512)
        .seed(9)
        .event(ScenarioEvent::ChurnBurst {
            phase: Phase::new(0, u64::MAX),
            rate: 0.005,
        })
        .max_cycles(30)
        .stop_when_perfect(false)
        .build()
        .unwrap();
    let outcome = Experiment::new(config).run();
    let leaf = outcome.leaf_series().final_value().unwrap();
    let prefix = outcome.prefix_series().final_value().unwrap();
    assert!(
        leaf < 0.2,
        "leaf quality under light churn too poor: {leaf}"
    );
    assert!(
        prefix < 0.2,
        "prefix quality under light churn too poor: {prefix}"
    );
}

#[test]
fn deterministic_replay_across_the_whole_stack() {
    let config = ExperimentConfig::builder()
        .network_size(300)
        .seed(123)
        .drop_probability(0.1)
        .max_cycles(100)
        .build()
        .unwrap();
    let first = Experiment::new(config.clone()).run();
    let second = Experiment::new(config).run();
    assert_eq!(first.convergence_cycle(), second.convergence_cycle());
    assert_eq!(first.leaf_series().points(), second.leaf_series().points());
    assert_eq!(
        first.prefix_series().points(),
        second.prefix_series().points()
    );
    assert_eq!(
        first.traffic().requests_delivered,
        second.traffic().requests_delivered
    );
}
