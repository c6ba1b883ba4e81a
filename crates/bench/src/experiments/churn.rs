//! The churn claim of §5: "The protocol is not sensitive to churn either. [...]
//! the quality of the routing tables generated by our protocol is similar to
//! that obtained by known routing substrates in the presence of similar churn."
//!
//! The paper does not plot this experiment; we sweep the per-cycle replacement
//! churn rate and report, per rate, the missing-entry proportions over time. Note
//! that the bootstrap protocol has no failure detector (it is designed to run for
//! a short burst before handing the tables to the substrate's own maintenance), so
//! under sustained replacement churn at rate `r` for `T` cycles the leaf-set
//! quality settles near `rT / (1 + rT)` — the effect of churn during a short
//! bootstrap is what the paper calls "naturally limited".

use crate::cli::Args;
use crate::report::{or_dash, series_table};
use bss_core::experiment::{Experiment, ExperimentConfig};
use bss_core::scenario::{Phase, ScenarioEvent};

/// The swept replacement rates, in percent of the network per cycle.
const RATES: [u32; 4] = [0, 1, 2, 5];

pub(super) fn run(args: &Args) -> super::Outcome {
    let exponent = args.sizes()?[0];
    let cycles: u64 = args.parsed("cycles")?;
    let seed: u64 = args.parsed("seed")?;

    eprintln!("# Churn sweep: N=2^{exponent}, {cycles} cycles, rates {RATES:?} %/cycle");
    let mut leaf_columns = Vec::new();
    let mut prefix_columns = Vec::new();
    let mut summary =
        String::from("rate_percent\tfinal_leaf_missing\tfinal_prefix_missing\tconverged_cycle\n");
    for rate in RATES {
        let mut builder = ExperimentConfig::builder();
        builder
            .network_size(1usize << exponent)
            .seed(seed + u64::from(rate))
            .max_cycles(cycles)
            .stop_when_perfect(rate == 0)
            .engine(args.engine()?);
        if rate > 0 {
            builder.event(ScenarioEvent::ChurnBurst {
                phase: Phase::new(0, u64::MAX),
                rate: f64::from(rate) / 100.0,
            });
        }
        let config = builder.build()?;
        let outcome = Experiment::new(config).run();
        eprintln!("#   churn {rate}%/cycle: {outcome}");
        summary.push_str(&format!(
            "{rate}\t{:.3e}\t{:.3e}\t{}\n",
            outcome.leaf_series().final_value().unwrap_or(f64::NAN),
            outcome.prefix_series().final_value().unwrap_or(f64::NAN),
            or_dash(outcome.convergence_cycle()),
        ));
        leaf_columns.push((format!("churn={rate}%"), outcome.leaf_series().clone()));
        prefix_columns.push((format!("churn={rate}%"), outcome.prefix_series().clone()));
    }

    println!("## Missing leaf set entries vs cycles, per churn rate");
    print!("{}", series_table(&leaf_columns));
    println!();
    println!("## Missing prefix table entries vs cycles, per churn rate");
    print!("{}", series_table(&prefix_columns));
    println!();
    println!("## Summary");
    print!("{summary}");
    Ok(())
}
