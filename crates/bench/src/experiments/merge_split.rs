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
//! the full-membership oracle: the split phase plateaus at the fraction of
//! entries that live on the other side, and the merge phase shows the rapid
//! re-convergence the architecture promises.

use crate::cli::Args;
use crate::report::series_table;
use bss_core::experiment::{Experiment, ExperimentConfig};
use bss_core::scenario::{PartitionSpec, Phase, ScenarioEvent};

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
            groups: PartitionSpec::IndexParity,
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
    match report.convergence_cycle() {
        Some(cycle) => println!(
            "## Merged network reached perfect tables at cycle {cycle} ({} cycles after the merge)",
            cycle.saturating_sub(MERGE_AT) + 1
        ),
        None => println!("## Merged network did not reach perfect tables within the budget"),
    }
    Ok(())
}
