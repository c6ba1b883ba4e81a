//! The architectural scenario of §1–2: a network that splits into independent
//! partitions and later merges back into one.
//!
//! Two halves of a network bootstrap while a partition blocks all traffic between
//! them (the "split" phase: each half converges internally). At cycle
//! [`MERGE_AT`] the partition heals (the "merge" phase) and the run continues
//! until the merged network's tables are perfect for the full membership. The
//! whole experiment is one scenario timeline — a single `Partition` event whose
//! window end is the merge.
//!
//! The output reports the missing-entry proportions over time, measured against
//! the full-membership oracle. The partition blocks messages, not peer
//! sampling: the default oracle sampler draws from the whole network, so each
//! half still receives descriptors from the other and the split phase falls
//! close to perfect (at `--size 11`, 7.8e-3 of the leaf entries are missing at
//! cycle 24). The merge phase completes the tables within a few cycles; a
//! small network can be perfect before the merge, and the report says so.

use crate::cli::Args;
use crate::report::series_table;
use bss_core::experiment::{Experiment, ExperimentConfig};
use bss_core::scenario::{Phase, ScenarioEvent};

/// The cycle at which the partition heals.
const MERGE_AT: u64 = 25;

pub(super) fn run(args: &Args) -> super::Outcome {
    let exponent = args.sizes()?[0];
    let cycles: u64 = args.parsed("cycles")?;
    if cycles <= MERGE_AT {
        return Err(
            format!("--cycles must exceed the merge cycle {MERGE_AT}, got {cycles}").into(),
        );
    }

    eprintln!("# Merge/split scenario: N=2^{exponent}, partition heals at cycle {MERGE_AT}");

    // Even indices form partition 0, odd indices partition 1, so both halves span
    // the whole identifier space — the interesting case for merging prefix tables.
    // The perfection stop waits for the heal (a pending scenario transition), so
    // the run ends at the first full-membership perfection after the merge.
    let config = ExperimentConfig::builder()
        .network_size(1usize << exponent)
        .seed(args.parsed("seed")?)
        .max_cycles(cycles)
        .event(ScenarioEvent::Partition {
            phase: Phase::new(0, MERGE_AT),
        })
        .engine(args.engine()?)
        .build()?;
    let report = Experiment::new(config).run();

    eprintln!(
        "#   end of split phase: {:.3e} of full-membership leaf entries missing",
        report
            .leaf_series()
            .value_at(MERGE_AT - 1)
            .unwrap_or(f64::NAN)
    );

    println!("## Missing entries vs cycles (partition heals at cycle {MERGE_AT})");
    print!(
        "{}",
        series_table(&[
            ("leaf_set".into(), report.leaf_series().clone()),
            ("prefix_table".into(), report.prefix_series().clone()),
        ])
    );
    println!();
    println!("{}", perfection_line(report.convergence_cycle()));
    Ok(())
}

/// The closing line: the first cycle at whose end every table was perfect,
/// counted from the first cycle of the merge phase.
fn perfection_line(cycle: Option<u64>) -> String {
    match cycle {
        Some(cycle) if cycle < MERGE_AT => format!(
            "## Network reached perfect tables at cycle {cycle}, before the merge at cycle {MERGE_AT}"
        ),
        Some(cycle) => {
            let after = cycle - MERGE_AT + 1;
            let unit = if after == 1 { "cycle" } else { "cycles" };
            format!("## Merged network reached perfect tables at cycle {cycle} ({after} {unit} after the merge)")
        }
        None => "## Merged network did not reach perfect tables within the budget".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_perfection_line_counts_from_the_merge() {
        assert_eq!(
            perfection_line(Some(13)),
            "## Network reached perfect tables at cycle 13, before the merge at cycle 25"
        );
        assert_eq!(
            perfection_line(Some(25)),
            "## Merged network reached perfect tables at cycle 25 (1 cycle after the merge)"
        );
        assert_eq!(
            perfection_line(Some(29)),
            "## Merged network reached perfect tables at cycle 29 (5 cycles after the merge)"
        );
        assert_eq!(
            perfection_line(None),
            "## Merged network did not reach perfect tables within the budget"
        );
    }
}
