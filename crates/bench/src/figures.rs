//! Drivers for the paper's figure sweeps.
//!
//! A figure in the paper is a family of curves: one per network size, each the
//! per-cycle proportion of missing entries, with several independent repetitions
//! per size (50/10/4 runs for 2^14/2^16/2^18). [`run_figure`] executes that sweep
//! for an arbitrary base configuration and returns, per size, the individual runs
//! and their mean curve, which the `fig3` / `fig4` experiments print as
//! tab-separated series.

use bss_core::experiment::{Experiment, ExperimentConfig};
use bss_util::stats::{Series, SeriesBundle};
use std::time::Instant;

/// Description of one figure sweep.
#[derive(Debug, Clone)]
pub(crate) struct FigureConfig {
    /// Exponents of the network sizes to run (`12` means `N = 2^12`).
    pub size_exponents: Vec<u32>,
    /// Number of independent repetitions per size.
    pub runs_per_size: usize,
    /// Base experiment configuration; network size and seed are overridden per run.
    pub base: ExperimentConfig,
    /// Base seed; run `r` of size exponent `e` uses `base_seed + 1000 * e + r`.
    pub base_seed: u64,
}

/// The recorded curves for one network size.
#[derive(Debug, Clone)]
pub(crate) struct SizeSeries {
    /// The size exponent (network size is `2^exponent`).
    pub exponent: u32,
    /// Per-run missing-leaf-set-proportion series.
    pub leaf_runs: SeriesBundle,
    /// Per-run missing-prefix-table-proportion series.
    pub prefix_runs: SeriesBundle,
    /// Convergence cycle of each run that converged.
    pub convergence_cycles: Vec<u64>,
    /// Mean message size (descriptors per message) over all runs.
    pub mean_message_size: f64,
    /// Wall-clock seconds spent simulating this size.
    pub elapsed_seconds: f64,
}

/// The complete result of a figure sweep.
#[derive(Debug, Clone)]
pub(crate) struct FigureResult {
    /// One entry per requested size, in input order.
    pub sizes: Vec<SizeSeries>,
}

/// Runs the sweep described by `config`, calling `progress` after every completed
/// run (useful for long sweeps).
pub(crate) fn run_figure(
    config: &FigureConfig,
    mut progress: impl FnMut(u32, usize),
) -> FigureResult {
    let mut sizes = Vec::with_capacity(config.size_exponents.len());
    for &exponent in &config.size_exponents {
        let started = Instant::now();
        let mut leaf_runs = SeriesBundle::new();
        let mut prefix_runs = SeriesBundle::new();
        let mut convergence_cycles = Vec::new();
        let mut message_size_sum = 0.0;
        for run in 0..config.runs_per_size {
            // The base carries everything — scenario timeline, engine
            // selection, protocol parameters — and the sweep only overrides
            // the network size and the per-run seed.
            let experiment_config = {
                let mut experiment_config = config.base.clone();
                experiment_config.network_size = 1usize << exponent;
                experiment_config.seed = config.base_seed + 1000 * u64::from(exponent) + run as u64;
                experiment_config
                    .validate()
                    .expect("figure sweep configuration is valid");
                experiment_config
            };
            let outcome = Experiment::new(experiment_config).run();
            if let Some(cycle) = outcome.convergence_cycle() {
                convergence_cycles.push(cycle);
            }
            message_size_sum += outcome.traffic().mean_message_size();
            leaf_runs.push(outcome.leaf_series().clone());
            prefix_runs.push(outcome.prefix_series().clone());
            progress(exponent, run);
        }
        sizes.push(SizeSeries {
            exponent,
            leaf_runs,
            prefix_runs,
            convergence_cycles,
            mean_message_size: message_size_sum / config.runs_per_size.max(1) as f64,
            elapsed_seconds: started.elapsed().as_secs_f64(),
        });
    }
    FigureResult { sizes }
}

/// The mean of the cycles at which runs converged, if any did.
pub(crate) fn mean_cycle(cycles: &[u64]) -> Option<f64> {
    (!cycles.is_empty()).then(|| cycles.iter().sum::<u64>() as f64 / cycles.len() as f64)
}

impl SizeSeries {
    /// Mean convergence cycle over the runs that converged, if any did.
    pub(crate) fn mean_convergence_cycle(&self) -> Option<f64> {
        mean_cycle(&self.convergence_cycles)
    }

    /// Mean leaf-set curve across runs.
    pub(crate) fn mean_leaf_curve(&self) -> Series {
        self.leaf_runs.mean_per_cycle()
    }

    /// Mean prefix-table curve across runs.
    pub(crate) fn mean_prefix_curve(&self) -> Series {
        self.prefix_runs.mean_per_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_every_size_and_repetition() {
        let config = FigureConfig {
            size_exponents: vec![6, 7],
            runs_per_size: 2,
            base: ExperimentConfig::builder().max_cycles(60).build().unwrap(),
            base_seed: 5,
        };
        let mut calls = 0;
        let result = run_figure(&config, |_, _| calls += 1);
        assert_eq!(calls, 4);
        assert_eq!(result.sizes.len(), 2);
        for (position, size) in result.sizes.iter().enumerate() {
            assert_eq!(size.exponent, config.size_exponents[position]);
            assert_eq!(size.leaf_runs.len(), 2);
            assert_eq!(size.prefix_runs.len(), 2);
            assert_eq!(size.convergence_cycles.len(), 2, "all runs converge");
            assert!(size.mean_convergence_cycle().unwrap() > 0.0);
            assert!(size.mean_message_size > 0.0);
            assert!(size.elapsed_seconds >= 0.0);
            assert!(!size.mean_leaf_curve().is_empty());
            assert!(!size.mean_prefix_curve().is_empty());
            assert_eq!(size.mean_leaf_curve().final_value(), Some(0.0));
        }
    }

    #[test]
    fn larger_networks_take_more_cycles_but_only_logarithmically_more() {
        let config = FigureConfig {
            size_exponents: vec![6, 8],
            runs_per_size: 2,
            base: ExperimentConfig::builder().max_cycles(80).build().unwrap(),
            base_seed: 11,
        };
        let result = run_figure(&config, |_, _| {});
        let small = result.sizes[0].mean_convergence_cycle().unwrap();
        let large = result.sizes[1].mean_convergence_cycle().unwrap();
        assert!(
            large >= small,
            "a 4x larger network should not converge faster on average ({small} vs {large})"
        );
        assert!(
            large <= small + 12.0,
            "convergence should grow by an additive constant, not multiplicatively ({small} vs {large})"
        );
    }
}
