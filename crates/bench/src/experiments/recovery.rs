//! The catastrophe-then-recover experiment: demonstrates that descriptor
//! aging plus a `ReBootstrap` order turns a post-catastrophe overlay from
//! "gossips the dead forever" into "purges every stale descriptor and
//! re-converges" — the recovery claim the paper's architecture rests on
//! (§1–2: bootstrapping is what you re-run after a catastrophic failure).
//!
//! On each engine the same timeline — half the network dies at cycle
//! [`CATASTROPHE_AT`] — runs twice, detector-free and with aging +
//! re-bootstrap; the per-cycle dead-descriptor fractions are printed side by
//! side and the full `RunReport` JSONs written
//! (`<out-dir>/recovery_<mode>_<engine>.json`). With `--require-recovery` the
//! process exits non-zero unless every aged run reached zero dead descriptors
//! and perfect tables again; CI runs it as a recovery gate.

use crate::cli::Args;
use crate::report::{or_dash, series_table};
use crate::sweep::{Cell, Sweep};
use bss_core::scenario::ScenarioEvent;

/// The cycle at which half of the nodes die.
const CATASTROPHE_AT: u64 = 15;
/// The descriptor aging bound of the aged mode, in cycles.
const MAX_AGE: u64 = 10;

pub(super) fn run(args: &Args) -> super::Outcome {
    let sweep = Sweep::from_args(args, "Recovery experiment", false)?;
    let catastrophe = ScenarioEvent::CatastrophicFailure {
        at_cycle: CATASTROPHE_AT,
        fraction: 0.5,
    };
    let mut aged = Cell::new(
        "recovery_aging_rebootstrap",
        [
            catastrophe.clone(),
            ScenarioEvent::ReBootstrap {
                at_cycle: CATASTROPHE_AT + 2,
                fraction: 1.0,
            },
        ],
    );
    aged.config.descriptor_max_age(Some(MAX_AGE));
    let cells = [Cell::new("recovery_detector_free", [catastrophe]), aged];

    let mut rows = Vec::new();
    let mut all_recovered = true;
    sweep.run(&cells, |run| {
        let report = run.report;
        let dead = report.series("dead_series").expect("every run records it");
        let mode = run.name.trim_start_matches("recovery_");
        let summary = format!(
            "{mode}\t{}\t{}\t{}\t{}\t{:.3e}\t{:.3e}\n",
            run.engine,
            or_dash(report.degraded_cycle()),
            or_dash(report.recovered_cycle()),
            or_dash(report.cycles_to_recover()),
            dead.final_value().unwrap_or(f64::NAN),
            report.leaf_series().final_value().unwrap_or(f64::NAN),
        );
        let column = (format!("{mode}/{}", run.engine), dead.clone());
        rows.push((run.engine, summary, column));
        if mode == "aging_rebootstrap" {
            all_recovered &= report.recovered_cycle().is_some()
                && dead.final_value() == Some(0.0)
                && report.final_state().is_perfect();
        }
    })?;
    // The tables list both modes of the cycle engine, then both of the event
    // engine; the sweep ran them mode by mode.
    rows.sort_by_key(|&(engine, ..)| engine);
    let (summaries, columns): (String, Vec<_>) = rows
        .into_iter()
        .map(|(_, summary, column)| (summary, column))
        .unzip();

    println!("## Dead-descriptor fraction vs cycles, per mode and engine");
    print!("{}", series_table(&columns));
    println!();
    println!("## Summary");
    println!(
        "mode\tengine\tdegraded_cycle\trecovered_cycle\tcycles_to_recover\t\
         final_dead_fraction\tfinal_leaf_missing"
    );
    print!("{summaries}");

    if args.flag("require-recovery") && !all_recovered {
        eprintln!("# FAIL: an aged run did not reach zero dead descriptors + perfect tables");
        std::process::exit(1);
    }
    Ok(())
}
