//! Figures 3 and 4 of the paper: convergence of the bootstrapping service
//! without failures, and with 20 % of all messages dropped uniformly at random.
//!
//! Top panel: proportion of missing leaf-set entries vs. cycles; bottom panel:
//! proportion of missing prefix-table entries. One curve per network size —
//! the per-cycle mean over several independent runs per size. Because the
//! protocol works in request/answer pairs, a dropped request also suppresses
//! the answer; the paper computes the effective loss of Figure 4 as 28 %, and
//! the expected result is the shape of Figure 3, only proportionally slower.
//!
//! The paper uses N ∈ {2^14, 2^16, 2^18} with 50/10/4 runs; the default is a
//! laptop-sized subset. Pass `--sizes 14,16,18 --runs 4` for the full setting
//! (2^18 needs several gigabytes of memory and tens of minutes).

use crate::cli::Args;
use crate::report::{mean_cycle, series_table};
use bss_core::experiment::{Experiment, ExperimentConfig};
use bss_util::stats::Series;
use std::fmt::Write as _;
use std::time::Instant;

pub(super) fn run(args: &Args, figure: u32, drop: f64) -> super::Outcome {
    let quiet = args.flag("quiet");
    let sizes = args.sizes()?;
    let runs = args.runs()?;
    let mut builder = ExperimentConfig::builder();
    builder
        .max_cycles(args.parsed("cycles")?)
        .drop_probability(drop)
        .engine(args.engine()?);
    let seed: u64 = args.parsed("seed")?;
    // "(20% drop)" on Figure 4's panels, nothing on Figure 3's.
    let suffix = if drop > 0.0 {
        format!(" ({:.0}% drop)", drop * 100.0)
    } else {
        String::new()
    };
    eprintln!("# Figure {figure} reproduction: paper parameters (b=4 k=3 c=20 cr=30){suffix}");

    let mut leaf_columns = Vec::new();
    let mut prefix_columns = Vec::new();
    let mut summary =
        String::from("size\truns\tmean_convergence_cycle\tmean_message_size\telapsed_seconds\n");
    for exponent in sizes {
        let started = Instant::now();
        let (mut leaf_runs, mut prefix_runs) = (Vec::new(), Vec::new());
        let mut converged = Vec::new();
        let mut message_size = 0.0;
        for run in 0..runs {
            let config = builder
                .clone()
                .network_size(1usize << exponent)
                .seed(seed + 1000 * u64::from(exponent) + run as u64)
                .build()?;
            let outcome = Experiment::new(config).run();
            converged.extend(outcome.convergence_cycle());
            message_size += outcome.traffic().mean_message_size();
            leaf_runs.push(outcome.leaf_series().clone());
            prefix_runs.push(outcome.prefix_series().clone());
            if !quiet {
                eprintln!("#   finished N=2^{exponent} run {run}");
            }
        }
        let name = format!("N=2^{exponent}");
        leaf_columns.push((name.clone(), mean_per_cycle(&leaf_runs)));
        prefix_columns.push((name, mean_per_cycle(&prefix_runs)));
        let _ = writeln!(
            summary,
            "2^{exponent}\t{runs}\t{}\t{:.1}\t{:.2}",
            mean_cycle(&converged)
                .map_or_else(|| "not converged".to_owned(), |c| format!("{c:.1}")),
            message_size / runs as f64,
            started.elapsed().as_secs_f64()
        );
    }

    println!("## Figure {figure} (top): proportion of missing leaf set entries{suffix}");
    print!("{}", series_table(&leaf_columns));
    println!();
    println!("## Figure {figure} (bottom): proportion of missing prefix table entries{suffix}");
    print!("{}", series_table(&prefix_columns));
    println!();
    println!("## Summary");
    print!("{summary}");
    Ok(())
}

/// The per-cycle mean over `runs`, summed in run order. A run that stopped at
/// perfection holds its final value, as the paper draws curves that end there.
fn mean_per_cycle(runs: &[Series]) -> Series {
    let mut mean = Series::new("mean");
    let last = runs.iter().filter_map(Series::final_cycle).max();
    for cycle in 0..=last.unwrap_or(0) {
        let held = runs.iter().filter_map(|run| run.held_value_at(cycle));
        let (sum, count) = held.fold((0.0, 0u32), |(sum, count), value| (sum + value, count + 1));
        if count > 0 {
            mean.push(cycle, sum / f64::from(count));
        }
    }
    mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mean_holds_the_final_value_of_a_converged_run() {
        let mut a = Series::new("m");
        a.push(0, 1.0);
        a.push(1, 0.0); // converged at cycle 1
        let mut b = Series::new("m");
        b.push(0, 1.0);
        b.push(1, 0.5);
        b.push(2, 0.0);
        let mean = mean_per_cycle(&[a, b]);
        assert_eq!(mean.len(), 3);
        assert_eq!(mean.value_at(0), Some(1.0));
        assert_eq!(mean.value_at(1), Some(0.25));
        // Run `a` contributes its final value (0.0) at cycle 2.
        assert_eq!(mean.value_at(2), Some(0.0));
    }

    #[test]
    fn the_mean_of_no_runs_is_empty() {
        assert!(mean_per_cycle(&[]).is_empty());
        assert!(mean_per_cycle(&[Series::new("m")]).is_empty());
    }
}
