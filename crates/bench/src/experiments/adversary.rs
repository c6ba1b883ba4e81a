//! The adversary sweep: behaviour × attacker fraction × countermeasure matrix,
//! run on both engines over a real NEWSCAST sampler.
//!
//! For every cell the sweep writes the full serializable `RunReport` as JSON
//! (`<out-dir>/<behavior>_f<pct>_<defense>_<engine>.json`), prints a one-line
//! summary per run, and appends every measured cycle of the attack metrics to
//! a long-format timeline TSV
//! (`<out-dir>/adversary_timeline.tsv`: behaviour, fraction, defense, engine,
//! cycle, eclipse fraction, poisoned fraction, in-degree Gini/max) — the data
//! behind the time-to-eclipse numbers in the roadmap.

use crate::cli::Args;
use crate::report::or_dash;
use crate::sweep::{Cell, Sweep};
use bss_core::scenario::{AdversaryBehavior, Phase, ScenarioEvent};
use bss_util::stats::{append_cycle_rows, Series};

/// The attack window every sweep cell uses: the overlay converges first, then
/// the conversion fires and stays active for 25 cycles.
const ATTACK: Phase = Phase { start: 5, end: 30 };

const VERIFIER_KEY: u64 = 0xad5e_ca7e;
const QUOTA: usize = 2;

/// The countermeasure configurations: name, verifier key, view diversity quota.
const DEFENSES: [(&str, Option<u64>, Option<usize>); 4] = [
    ("none", None, None),
    ("verifier", Some(VERIFIER_KEY), None),
    ("quota", None, Some(QUOTA)),
    ("both", Some(VERIFIER_KEY), Some(QUOTA)),
];

pub(super) fn run(args: &Args) -> super::Outcome {
    let sweep = Sweep::from_args(args, &format!("Adversary sweep, attack {ATTACK}"), false)?;
    let fractions = args.list::<u32>("fractions")?;
    let mut cells = Vec::new();
    let mut labels = Vec::new();
    for behavior in [
        AdversaryBehavior::ForgeDescriptors,
        AdversaryBehavior::IdSpray { target: 0 },
        AdversaryBehavior::HubAttack,
    ] {
        for &percent in &fractions {
            for (defense, verifier, quota) in DEFENSES {
                let mut cell = Cell::new(
                    format!("{}_f{percent}_{defense}", behavior.label()),
                    [ScenarioEvent::ByzantineConvert {
                        phase: ATTACK,
                        fraction: f64::from(percent) / 100.0,
                        behavior,
                    }],
                );
                cell.over_newscast(quota, verifier);
                cells.push(cell);
                labels.push(format!("{}\t{percent}\t{defense}", behavior.label()));
            }
        }
    }

    println!(
        "behavior\tfraction_pct\tdefense\tengine\teclipsed\ttime_to_eclipse\tpeak_eclipse\
         \tpeak_poisoned\tconvergence_cycle"
    );
    let mut timeline = String::from(
        "behavior\tfraction_pct\tdefense\tengine\tcycle\teclipse_fraction\tpoisoned_fraction\
         \tin_degree_gini\tin_degree_max\n",
    );
    sweep.run(&cells, |run| {
        let report = run.report;
        let coordinates = format!("{}\t{}", labels[run.cell], run.engine);
        let (eclipse, poisoned) = (
            report.series("eclipse_series"),
            report.series("poisoned_series"),
        );
        let peak = |series: Option<&Series>| series.map_or(0.0, Series::peak);
        println!(
            "{coordinates}\t{}\t{}\t{:.3}\t{:.3}\t{}",
            report.eclipsed(),
            or_dash(report.time_to_eclipse()),
            peak(eclipse),
            peak(poisoned),
            or_dash(report.convergence_cycle()),
        );
        append_cycle_rows(
            &mut timeline,
            &coordinates,
            &[
                (eclipse, 6),
                (poisoned, 6),
                (report.series("in_degree_gini_series"), 6),
                (report.series("in_degree_max_series"), 1),
            ],
        );
    })?;
    sweep.write("adversary_timeline.tsv", &timeline)?;
    Ok(())
}
