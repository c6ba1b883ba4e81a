//! Tab-separated report formatting shared by the experiments.
//!
//! The output mirrors the paper's figures: one row per cycle, one column per
//! network size, values being the proportion of missing entries (leaf set or
//! prefix table). The format loads directly into gnuplot, matplotlib or a
//! spreadsheet. The long-format timelines (one row per measured cycle of
//! every run of a sweep) go through `bss_util::stats::append_cycle_rows`.

use bss_util::stats::Series;
use std::fmt::Write as _;

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

/// The mean of the cycles at which runs converged, if any did.
pub(crate) fn mean_cycle(cycles: &[u64]) -> Option<f64> {
    (!cycles.is_empty()).then(|| cycles.iter().sum::<u64>() as f64 / cycles.len() as f64)
}

/// A cycle number for a summary column, `-` when the run never got there.
pub(crate) fn or_dash(cycle: Option<u64>) -> String {
    cycle.map_or_else(|| "-".to_owned(), |cycle| cycle.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

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
