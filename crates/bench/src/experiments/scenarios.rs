//! The scenario smoke suite: one timeline per scenario-event kind, each run on
//! both the cycle engine and the discrete-event engine, through the same
//! engine-agnostic entry point as every other experiment.
//!
//! For every cell the suite writes the full serializable `RunReport` as JSON
//! (`<out-dir>/<kind>_<engine>.json`) — CI runs this as a dedicated job, gates
//! on three of the reports and uploads all of them as artifacts — and prints a
//! one-line summary per run.

use crate::cli::Args;
use crate::report::or_dash;
use crate::sweep::{Cell, Sweep};
use bss_core::scenario::{AdversaryBehavior, KeyDist, Phase, ScenarioEvent};

/// One timeline per scenario-event kind, sized relative to the network.
fn cells(network_size: usize) -> Vec<Cell> {
    let catastrophe = ScenarioEvent::CatastrophicFailure {
        at_cycle: 10,
        fraction: 0.5,
    };
    // The recovery timeline: a catastrophe followed by a full re-bootstrap of
    // the survivors, with descriptor aging enabled so the stale descriptors
    // of the dead actually age out and the overlay re-converges (the paper's
    // recovery claim, end to end).
    let mut catastrophe_recover = Cell::new(
        "catastrophe_recover",
        [
            catastrophe.clone(),
            ScenarioEvent::ReBootstrap {
                at_cycle: 12,
                fraction: 1.0,
            },
        ],
    );
    catastrophe_recover.config.descriptor_max_age(Some(8));
    // The adversarial cells: a fifth of the network converts to id-spraying
    // node 0. Undefended the victim is eclipsed; with the verifier and the
    // view diversity quota on, it must not be (CI gates on `eclipsed`).
    let eclipse = |name, quota, verifier| {
        let mut cell = Cell::new(
            name,
            [ScenarioEvent::ByzantineConvert {
                phase: Phase::new(5, 20),
                fraction: 0.2,
                behavior: AdversaryBehavior::IdSpray { target: 0 },
            }],
        );
        cell.over_newscast(quota, verifier);
        cell
    };
    // Live lookup traffic served straight through a churn burst: the success
    // series must dip while the tables are stale and recover once the failure
    // detector ages the dead out (CI gates the final window).
    let mut traffic_churn = Cell::new(
        "traffic_churn",
        [
            ScenarioEvent::TrafficPhase {
                phase: Phase::new(0, 40),
                lookups_per_cycle: 200,
                key_dist: KeyDist::Uniform,
            },
            ScenarioEvent::ChurnBurst {
                phase: Phase::new(10, 18),
                rate: 0.02,
            },
        ],
    );
    traffic_churn.config.descriptor_max_age(Some(8));
    vec![
        Cell::new("calm", []),
        Cell::new(
            "loss_window",
            [ScenarioEvent::LossWindow {
                phase: Phase::new(5, 15),
                probability: 0.4,
            }],
        ),
        Cell::new(
            "churn_burst",
            [ScenarioEvent::ChurnBurst {
                phase: Phase::new(5, 15),
                rate: 0.05,
            }],
        ),
        Cell::new("catastrophic_failure", [catastrophe]),
        Cell::new(
            "massive_join",
            [ScenarioEvent::MassiveJoin {
                at_cycle: 10,
                count: network_size,
            }],
        ),
        Cell::new(
            "partition_merge",
            [ScenarioEvent::Partition {
                phase: Phase::new(0, 10),
            }],
        ),
        catastrophe_recover,
        eclipse("eclipse_undefended", None, None),
        eclipse("eclipse_defended", Some(2), Some(0xde7e_c7ed)),
        traffic_churn,
    ]
}

pub(super) fn run(args: &Args) -> super::Outcome {
    let sweep = Sweep::from_args(args, "Scenario smoke suite", true)?;
    println!(
        "scenario\tengine\tcycles_executed\tconvergence_cycle\tfinal_leaf_missing\tevents_fired\
         \teclipsed\ttime_to_eclipse"
    );
    sweep.run(&cells(1usize << sweep.sizes[0]), |run| {
        println!(
            "{}\t{}\t{}\t{}\t{:.3e}\t{}\t{}\t{}",
            run.name,
            run.engine,
            run.report.cycles_executed(),
            or_dash(run.report.convergence_cycle()),
            run.report.final_state().leaf_proportion(),
            run.report.events_fired().len(),
            run.report.eclipsed(),
            or_dash(run.report.time_to_eclipse()),
        );
    })?;
    Ok(())
}
