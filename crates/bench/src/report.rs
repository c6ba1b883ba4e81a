//! Tab-separated report formatting shared by the experiments.
//!
//! The output mirrors the paper's figures: one row per cycle, one column per
//! network size, values being the proportion of missing entries (leaf set or
//! prefix table). The format loads directly into gnuplot, matplotlib or a
//! spreadsheet. The long-format timelines (one row per measured cycle of
//! every run of a sweep) go through `bss_util::stats::append_cycle_rows`.

use crate::figures::FigureResult;
use bss_util::stats::Series;
use std::fmt::Write as _;

/// Renders one panel (leaf set or prefix table) of a figure as a tab-separated
/// table: `cycle <TAB> N=2^a <TAB> N=2^b ...`, one mean curve per size.
pub(crate) fn panel_table(result: &FigureResult, prefix_panel: bool) -> String {
    let curves: Vec<(String, Series)> = result
        .sizes
        .iter()
        .map(|size| {
            let curve = if prefix_panel {
                size.mean_prefix_curve()
            } else {
                size.mean_leaf_curve()
            };
            (format!("N=2^{}", size.exponent), curve)
        })
        .collect();
    series_table(&curves)
}

/// Renders the per-size summary table: convergence cycles, message sizes, wall
/// clock.
pub(crate) fn summary_table(result: &FigureResult) -> String {
    let mut output =
        String::from("size\truns\tmean_convergence_cycle\tmean_message_size\telapsed_seconds\n");
    for size in &result.sizes {
        let _ = writeln!(
            output,
            "2^{}\t{}\t{}\t{:.1}\t{:.2}",
            size.exponent,
            size.leaf_runs.len(),
            size.mean_convergence_cycle()
                .map(|cycle| format!("{cycle:.1}"))
                .unwrap_or_else(|| "not converged".to_owned()),
            size.mean_message_size,
            size.elapsed_seconds
        );
    }
    output
}

/// Renders a named-series table: `cycle <TAB> <name-1> <TAB> <name-2> ...`.
/// A series that ends early holds its final value (zero, for a converged run)
/// once its curve ends, matching how the paper draws curves that simply stop
/// at perfection.
pub(crate) fn series_table(columns: &[(String, Series)]) -> String {
    let max_cycle = columns
        .iter()
        .filter_map(|(_, series)| series.final_cycle())
        .max()
        .unwrap_or(0);
    let mut output = String::from("cycle");
    for (name, _) in columns {
        let _ = write!(output, "\t{name}");
    }
    output.push('\n');
    for cycle in 0..=max_cycle {
        let _ = write!(output, "{cycle}");
        for (_, series) in columns {
            let value = series.held_value_at(cycle).unwrap_or(f64::NAN);
            let _ = write!(output, "\t{value:.3e}");
        }
        output.push('\n');
    }
    output
}

/// A cycle number for a summary column, `-` when the run never got there.
pub(crate) fn or_dash(cycle: Option<u64>) -> String {
    cycle.map_or_else(|| "-".to_owned(), |cycle| cycle.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{run_figure, FigureConfig};
    use bss_core::experiment::ExperimentConfig;

    fn tiny_result() -> FigureResult {
        run_figure(
            &FigureConfig {
                size_exponents: vec![5, 6],
                runs_per_size: 1,
                base: ExperimentConfig::builder().max_cycles(50).build().unwrap(),
                base_seed: 3,
            },
            |_, _| {},
        )
    }

    #[test]
    fn panel_tables_have_one_column_per_size_and_cover_all_cycles() {
        let result = tiny_result();
        for prefix_panel in [false, true] {
            let table = panel_table(&result, prefix_panel);
            let mut lines = table.lines();
            let header = lines.next().unwrap();
            assert_eq!(header, "cycle\tN=2^5\tN=2^6");
            let rows: Vec<&str> = lines.collect();
            assert!(!rows.is_empty());
            for row in &rows {
                assert_eq!(row.split('\t').count(), 3);
            }
            // The last row of every column is zero (converged).
            let last = rows.last().unwrap();
            for value in last.split('\t').skip(1) {
                assert_eq!(value.parse::<f64>().unwrap(), 0.0);
            }
        }
    }

    #[test]
    fn summary_table_lists_every_size() {
        let result = tiny_result();
        let summary = summary_table(&result);
        assert!(summary.contains("2^5"));
        assert!(summary.contains("2^6"));
        assert!(summary.lines().count() == 3);
    }

    #[test]
    fn series_table_renders_named_columns() {
        let mut a = Series::new("a");
        a.push(0, 1.0);
        a.push(1, 0.5);
        let mut b = Series::new("b");
        b.push(0, 0.25);
        let table = series_table(&[("churn=1%".into(), a), ("churn=5%".into(), b)]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "cycle\tchurn=1%\tchurn=5%");
        assert_eq!(lines.len(), 3);
        // Column b holds its final value at cycle 1.
        assert!(lines[2].starts_with('1'));
        assert!(lines[2].contains("2.500e-1"));
    }

    #[test]
    fn an_unreached_cycle_is_a_dash() {
        assert_eq!(or_dash(Some(12)), "12");
        assert_eq!(or_dash(None), "-");
    }
}
