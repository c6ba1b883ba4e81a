//! Figures 3 and 4 of the paper: convergence of the bootstrapping service
//! without failures, and with 20 % of all messages dropped uniformly at random.
//!
//! Top panel: proportion of missing leaf-set entries vs. cycles; bottom panel:
//! proportion of missing prefix-table entries. One curve per network size,
//! several independent runs per size. Because the protocol works in
//! request/answer pairs, a dropped request also suppresses the answer; the
//! paper computes the effective loss of Figure 4 as 28 %, and the expected
//! result is the shape of Figure 3, only proportionally slower.
//!
//! The paper uses N ∈ {2^14, 2^16, 2^18} with 50/10/4 runs; the default is a
//! laptop-sized subset. Pass `--sizes 14,16,18 --runs 4` for the full setting
//! (2^18 needs several gigabytes of memory and tens of minutes).

use crate::cli::Args;
use crate::figures::{run_figure, FigureConfig};
use crate::report::{panel_table, summary_table};
use bss_core::experiment::ExperimentConfig;

pub(super) fn run(args: &Args, figure: u32, drop: f64) -> super::Outcome {
    let quiet = args.flag("quiet");
    let config = FigureConfig {
        size_exponents: args.sizes()?,
        runs_per_size: args.runs()?,
        base: ExperimentConfig::builder()
            .max_cycles(args.parsed("cycles")?)
            .drop_probability(drop)
            .engine(args.engine()?)
            .build()?,
        base_seed: args.parsed("seed")?,
    };
    // "(20% drop)" on Figure 4's panels, nothing on Figure 3's.
    let suffix = if drop > 0.0 {
        format!(" ({:.0}% drop)", drop * 100.0)
    } else {
        String::new()
    };
    eprintln!("# Figure {figure} reproduction: paper parameters (b=4 k=3 c=20 cr=30){suffix}");
    let result = run_figure(&config, |exponent, run| {
        if !quiet {
            eprintln!("#   finished N=2^{exponent} run {run}");
        }
    });

    println!("## Figure {figure} (top): proportion of missing leaf set entries{suffix}");
    print!("{}", panel_table(&result, false));
    println!();
    println!("## Figure {figure} (bottom): proportion of missing prefix table entries{suffix}");
    print!("{}", panel_table(&result, true));
    println!();
    println!("## Summary");
    print!("{}", summary_table(&result));
    Ok(())
}
