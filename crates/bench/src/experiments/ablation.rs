//! Ablations of the design choices called out in §4 of the paper:
//!
//! * `cr` — the number of random samples mixed into every message ("these samples
//!   are free ... since the generic peer sampling layer is assumed to function
//!   independently").
//! * `c` — the leaf-set size, which is also the ring-targeted message budget.
//! * sampler quality — idealised oracle sampling vs. a real NEWSCAST instance.
//! * message loss — how convergence time scales with the drop probability
//!   (generalising Figure 4 beyond 20 %).
//!
//! Each sweep reports the mean convergence cycle (over a few seeds) for each
//! parameter value, at a fixed network size.

use crate::cli::Args;
use crate::report::mean_cycle;
use crate::sweep::Cell;
use bss_core::experiment::{Experiment, ExperimentConfigBuilder, SamplerChoice};
use bss_util::config::{BootstrapParams, NewscastParams};

/// One cell per swept value, named by the value as printed and configured by
/// `set`.
fn cells<T: ToString + Copy>(
    values: &[T],
    set: impl Fn(&mut ExperimentConfigBuilder, T),
) -> Vec<Cell> {
    let cell = |&value: &T| {
        let mut cell = Cell::new(value.to_string(), []);
        set(&mut cell.config, value);
        cell
    };
    values.iter().map(cell).collect()
}

/// The four ablations: title, header of the parameter column, cells.
fn ablations() -> [(&'static str, &'static str, Vec<Cell>); 4] {
    let paper = BootstrapParams::paper_default();
    [
        (
            "A: random samples per message (cr)",
            "cr",
            cells(&[0usize, 5, 15, 30, 60], |config, random_samples| {
                config.params(BootstrapParams {
                    random_samples,
                    ..paper
                });
            }),
        ),
        (
            "B: leaf set size (c)",
            "c",
            cells(&[8usize, 16, 20, 32], |config, leaf_set_size| {
                config.params(BootstrapParams {
                    leaf_set_size,
                    ..paper
                });
            }),
        ),
        (
            "C: peer sampling implementation",
            "sampler",
            cells(&["oracle", "newscast"], |config, sampler| {
                if sampler == "newscast" {
                    config.sampler(SamplerChoice::Newscast(NewscastParams::paper_default()));
                }
            }),
        ),
        (
            "D: message drop probability",
            "drop",
            cells(&[0.0f64, 0.1, 0.2, 0.4], |config, drop| {
                config.drop_probability(drop);
            }),
        ),
    ]
}

pub(super) fn run(args: &Args) -> super::Outcome {
    let exponent = args.sizes()?[0];
    let runs = args.runs()? as u64;
    let seed: u64 = args.parsed("seed")?;
    eprintln!("# Ablations at N=2^{exponent}, {runs} runs per configuration");

    // Ablation A runs on seeds `seed..`, B on `seed + 100..`, and so on.
    for (offset, (title, parameter, cells)) in (0..).step_by(100).zip(ablations()) {
        if offset > 0 {
            println!();
        }
        println!("## Ablation {title}");
        println!("{parameter}\tmean_convergence_cycle\tmean_message_size\tconverged_runs");
        for mut cell in cells {
            let mut converged = Vec::new();
            let mut message_size = 0.0;
            for run in 0..runs {
                let config = cell
                    .config
                    .network_size(1usize << exponent)
                    .seed(seed + offset + run)
                    .max_cycles(args.parsed("cycles")?)
                    .engine(args.engine()?)
                    .build()?;
                let outcome = Experiment::new(config).run();
                message_size += outcome.traffic().mean_message_size();
                converged.extend(outcome.convergence_cycle());
            }
            println!(
                "{}\t{:.1}\t{:.1}\t{}/{runs}",
                cell.name,
                mean_cycle(&converged).unwrap_or(f64::NAN),
                message_size / runs as f64,
                converged.len()
            );
        }
    }
    Ok(())
}
