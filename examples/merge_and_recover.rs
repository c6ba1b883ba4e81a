//! The scenarios that motivate the paper (§1–2): merging two resource pools and
//! recovering from a catastrophic failure — expressed as scenario timelines and
//! driven through the engine-agnostic experiment runner.
//!
//! Phase 1+2 is one timeline: a network partition that bootstraps two halves
//! independently and heals at cycle 20 (the merge). Phase 3 is a second
//! timeline: a catastrophic failure of 50 % of the nodes at cycle 5, measured
//! against the surviving membership. The same partition timeline is then run
//! again on the discrete-event engine to show that the result is not an
//! artifact of the synchronous cycle abstraction.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example merge_and_recover
//! ```

use bootstrapping_service::core::experiment::{Experiment, ExperimentConfig};
use bootstrapping_service::core::scenario::{Engine, LatencyModel, Phase, ScenarioEvent};

fn main() {
    let size = 1 << 10;
    let merge_at = 20;

    // ---- Phases 1+2: two pools bootstrap independently, then merge. ----
    // One timeline: the partition window's end *is* the merge. The perfection
    // stop waits for pending scenario transitions, so the run ends at the
    // first full-membership perfection after the heal.
    let merge_config = ExperimentConfig::builder()
        .network_size(size)
        .seed(7)
        .max_cycles(100)
        .event(ScenarioEvent::Partition {
            phase: Phase::new(0, merge_at),
        })
        .build()
        .expect("valid configuration");
    let report = Experiment::new(merge_config.clone()).run();
    println!(
        "after {} partitioned cycles: {:.1}% of full-membership leaf entries missing \
         (each half is internally converged)",
        merge_at,
        report
            .leaf_series()
            .value_at(merge_at - 1)
            .unwrap_or(f64::NAN)
            * 100.0
    );
    match report.convergence_cycle() {
        Some(cycle) => println!(
            "merged network reached perfect tables {} cycles after the merge",
            cycle.saturating_sub(merge_at) + 1
        ),
        None => println!("the merged network did not reach perfect tables within the budget"),
    }

    // ---- Phase 3: catastrophic failure of half the nodes at cycle 5. ----
    // The protocol has no failure detector (the substrate's own maintenance
    // would take over after the bootstrap burst), so descriptors of dead nodes
    // linger; the report states the survivor-membership quality honestly.
    let recover_config = ExperimentConfig::builder()
        .network_size(size)
        .seed(8)
        .max_cycles(80)
        .event(ScenarioEvent::CatastrophicFailure {
            at_cycle: 5,
            fraction: 0.5,
        })
        .build()
        .expect("valid configuration");
    let report = Experiment::new(recover_config).run();
    match report.convergence_cycle() {
        Some(cycle) => println!(
            "after losing 50% of the nodes at cycle 5, the survivors had perfect tables \
             again {} cycles later",
            cycle - 5
        ),
        None => println!(
            "after losing 50% of the nodes at cycle 5, the survivors settled at \
             {:.1}% missing leaf entries (stale descriptors linger: the protocol \
             has no failure detector)",
            report.final_state().leaf_proportion() * 100.0
        ),
    }

    // ---- The same merge scenario, event-driven. ----
    // Identical timeline, different engine: nodes wake on timers at random
    // phases within Δ and messages travel with 10–100 ms latency.
    let mut event_config = merge_config;
    event_config.engine = Engine::Event {
        latency: LatencyModel::Uniform {
            min_millis: 10,
            max_millis: 100,
        },
    };
    let report = Experiment::new(event_config).run();
    match report.convergence_cycle() {
        Some(cycle) => println!(
            "event-driven replay of the merge: perfect tables {} cycles after the merge \
             (same scenario, latency-driven execution)",
            cycle.saturating_sub(merge_at) + 1
        ),
        None => println!("event-driven replay did not converge within the budget"),
    }
}
