//! `golden-diff --old <dir> --new <dir>`: what moved between two directories of
//! tab-separated outputs, e.g. `ci/golden/` across `sh ci/goldens.sh regen`.
//! Nothing here knows a particular golden: a file splits into `##` sections,
//! whose first row is the header naming the columns, and rows align by
//! position. A file reads `identical`, or: rows moved, added and removed; the
//! first moved row; and per changed column the largest |Δ| and its row, or,
//! where a side is text (`not converged`, `-`), the first change old → new.

use crate::cli::{Args, Opt};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::path::Path;

pub(super) const OPTIONS: &[Opt] = &[
    Opt::new("old <dir>", "", "the outputs before the change"),
    Opt::new("new <dir>", "", "the outputs after it"),
];

pub(super) fn run(args: &Args) -> super::Outcome {
    let dir = |key| args.get(key).ok_or(format!("--{key} <dir> is required"));
    let report = diff_dirs(Path::new(dir("old")?), Path::new(dir("new")?))?;
    print!("{report}");
    Ok(())
}

/// What changed in one column of one section; a row is its line in the old
/// file and its first cell.
#[derive(Debug, Default, PartialEq)]
struct Column {
    largest: Option<(f64, (usize, String))>,
    text: Option<(String, String, (usize, String))>,
}

/// What changed in one file; columns keyed by section, position and name.
#[derive(Debug, Default, PartialEq)]
struct FileDiff {
    moved: usize,
    added: usize,
    removed: usize,
    first_moved: Option<(usize, String, String)>,
    columns: BTreeMap<(usize, usize, String), Column>,
}

/// A section's title and its non-blank rows (header first) by line number.
type Section<'a> = (&'a str, Vec<(usize, Vec<&'a str>)>);

fn sections(text: &str) -> Vec<Section<'_>> {
    let mut sections: Vec<Section> = vec![("", Vec::new())];
    for (index, line) in text.lines().enumerate() {
        if let Some(title) = line.strip_prefix("## ") {
            sections.push((title, Vec::new()));
        } else if !line.is_empty() {
            let rows = &mut sections.last_mut().expect("never empty").1;
            rows.push((index + 1, line.split('\t').collect()));
        }
    }
    // The untitled head of the file is a section only if it has rows.
    sections.retain(|(title, rows)| !title.is_empty() || !rows.is_empty());
    sections
}

fn diff(old: &str, new: &str) -> FileDiff {
    let (old, new) = (sections(old), sections(new));
    let mut diff = FileDiff::default();
    let absent = ("", Vec::new());
    for section in 0..old.len().max(new.len()) {
        let (title, old_rows) = old.get(section).unwrap_or(&absent);
        let (new_title, new_rows) = new.get(section).unwrap_or(&absent);
        let title = if title.is_empty() { new_title } else { title };
        diff.added += new_rows.len().saturating_sub(old_rows.len());
        diff.removed += old_rows.len().saturating_sub(new_rows.len());
        let header = old_rows.first().map_or(&[][..], |(_, cells)| cells);
        for ((line, a), (_, b)) in old_rows.iter().zip(new_rows).filter(|(a, b)| a.1 != b.1) {
            diff.moved += 1;
            let row = (*line, a[0].to_owned());
            diff.first_moved
                .get_or_insert_with(|| (*line, a.join("\t"), b.join("\t")));
            for at in (0..a.len().max(b.len())).filter(|&at| a.get(at) != b.get(at)) {
                let (x, y) = (a.get(at).unwrap_or(&""), b.get(at).unwrap_or(&""));
                let name = format!("{title} / {}", header.get(at).unwrap_or(&"?"));
                let name = name.trim_start_matches(" / ").to_owned();
                let column = diff.columns.entry((section, at, name)).or_default();
                let number = |cell: &str| cell.parse::<f64>().ok().filter(|v| v.is_finite());
                if let (Some(x), Some(y)) = (number(x), number(y)) {
                    let delta = (x - y).abs();
                    if delta > column.largest.as_ref().map_or(-1.0, |(most, _)| *most) {
                        column.largest = Some((delta, row.clone()));
                    }
                } else if column.text.is_none() {
                    column.text = Some((x.to_string(), y.to_string(), row.clone()));
                }
            }
        }
    }
    diff
}

impl fmt::Display for FileDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (moved, added, removed) = (self.moved, self.added, self.removed);
        write!(f, "{moved} rows moved, {added} added, {removed} removed")?;
        if let Some((line, old, new)) = &self.first_moved {
            write!(f, "\n    first moved, line {line}: {old} → {new}")?;
        }
        for ((_, _, name), column) in &self.columns {
            write!(f, "\n    {name}:")?;
            if let Some((delta, (line, key))) = &column.largest {
                write!(f, " largest |Δ| {delta:.3e} on line {line} ({key})")?;
            }
            if let Some((old, new, (line, key))) = &column.text {
                write!(f, " {old} → {new} on line {line} ({key})")?;
            }
        }
        Ok(())
    }
}

/// One line per file present in either directory.
fn diff_dirs(old: &Path, new: &Path) -> Result<String, String> {
    let mut names = BTreeSet::new();
    for dir in [old, new] {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let files = entries.flatten().filter(|entry| entry.path().is_file());
        names.extend(files.map(|entry| entry.file_name()));
    }
    let mut report = String::new();
    for name in names {
        let read = |dir: &Path| std::fs::read_to_string(dir.join(&name)).ok();
        let verdict = match (read(old), read(new)) {
            (Some(a), Some(b)) if a == b => "identical".to_owned(),
            (Some(a), Some(b)) => diff(&a, &b).to_string(),
            (Some(_), None) => "only in --old".to_owned(),
            (None, Some(_)) => "only in --new".to_owned(),
            (None, None) => "not readable as text".to_owned(),
        };
        let _ = writeln!(report, "{}: {verdict}", name.to_string_lossy());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG3: &str = include_str!("../../../../ci/golden/fig3_small.tsv");

    #[test]
    fn identical_trees_report_identical_for_every_file() {
        let goldens = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/golden"));
        let report = diff_dirs(goldens, goldens).unwrap();
        let files = std::fs::read_dir(goldens).unwrap().count();
        assert!(files >= 8, "{report}");
        assert_eq!(report.lines().count(), files, "{report}");
        assert!(
            report.lines().all(|line| line.ends_with(".tsv: identical")),
            "{report}"
        );
    }

    #[test]
    fn a_planted_cell_change_is_reported_as_that_row_column_and_delta() {
        let (before, after) = ("2^7\t2\t3.0\t54.8", "2^7\t2\t3.5\t54.8");
        let planted = FIG3.replacen(before, after, 1);
        assert_ne!(planted, FIG3);
        // Line 18, the third section's second row, its third column.
        let name = "Summary / mean_convergence_cycle";
        let column = Column {
            largest: Some((0.5, (18, "2^7".to_owned()))),
            text: None,
        };
        let expected = FileDiff {
            moved: 1,
            first_moved: Some((18, before.to_owned(), after.to_owned())),
            columns: BTreeMap::from([((2, 2, name.to_owned()), column)]),
            ..FileDiff::default()
        };
        assert_eq!(diff(FIG3, &planted), expected);
        let report = expected.to_string();
        assert!(
            report.contains("mean_convergence_cycle: largest |Δ| 5.000e-1 on line 18 (2^7)"),
            "{report}"
        );
        assert_eq!(diff(FIG3, FIG3), FileDiff::default());
    }

    #[test]
    fn lost_rows_are_removed_and_text_cells_change_old_to_new() {
        let old = "## Summary\nsize\tmean_convergence_cycle\n\
                   2^6\tnot converged\n2^7\t4.0\n2^8\t5.0\n";
        let new = "## Summary\nsize\tmean_convergence_cycle\n2^6\t3.0\n";
        let found = diff(old, new);
        assert_eq!((found.moved, found.added, found.removed), (1, 0, 2));
        let text = (
            "not converged".to_owned(),
            "3.0".to_owned(),
            (3, "2^6".to_owned()),
        );
        let name = (0, 1, "Summary / mean_convergence_cycle".to_owned());
        assert_eq!(found.columns.keys().collect::<Vec<_>>(), [&name]);
        assert_eq!(found.columns[&name].text, Some(text));
        assert_eq!(found.columns[&name].largest, None);
        let report = found.to_string();
        assert!(
            report.starts_with("1 rows moved, 0 added, 2 removed"),
            "{report}"
        );
        assert!(
            report.contains("not converged → 3.0 on line 3 (2^6)"),
            "{report}"
        );
    }
}
