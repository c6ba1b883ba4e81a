//! Time series and summary statistics used by the experiment harness.
//!
//! The paper's figures plot the *proportion of missing entries* (leaf set or prefix
//! table) against the cycle number, on a logarithmic y axis, one curve per network
//! size, with several independent repetitions per size. The types here hold one
//! run's per-cycle series ([`Series`]) and the streaming distribution
//! ([`Histogram`]) — and the two writers every report goes out through:
//! [`JsonObject`] for the JSON artifacts, [`append_cycle_rows`] for the
//! long-format TSV timelines.

use std::fmt::{self, Write as _};

/// A single experiment trajectory: one value per cycle.
///
/// # Example
///
/// ```rust
/// use bss_util::stats::Series;
///
/// let mut s = Series::new("leaf_series");
/// s.push(0, 1.0);
/// s.push(1, 0.25);
/// s.push(2, 0.0);
/// assert_eq!(s.len(), 3);
/// assert_eq!(s.final_value(), Some(0.0));
/// assert_eq!(s.value_at(1), Some(0.25));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    name: String,
    points: Vec<(u64, f64)>,
}

impl Series {
    /// Creates an empty series under the one name it is written out as: its
    /// key in a report's JSON, and what a report's readers ask for it by.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name ([`JsonObject::series`] writes it as the key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation for `cycle`.
    pub fn push(&mut self, cycle: u64, value: f64) {
        self.points.push((cycle, value));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(cycle, value)` observations in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The observations as a slice.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// The last observed value, if any.
    pub fn final_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// The last observed cycle, if any.
    pub fn final_cycle(&self) -> Option<u64> {
        self.points.last().map(|&(c, _)| c)
    }

    /// The value observed at `cycle`, if present.
    pub fn value_at(&self, cycle: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|&&(c, _)| c == cycle)
            .map(|&(_, v)| v)
    }

    /// The value at `cycle`, a series that ended earlier holding its final
    /// value (zero, for a converged run) — how the paper draws curves that
    /// simply stop at perfection.
    pub fn held_value_at(&self, cycle: u64) -> Option<f64> {
        let ended = self.final_cycle() < Some(cycle);
        self.value_at(cycle)
            .or_else(|| self.final_value().filter(|_| ended))
    }

    /// The largest observed value (0 when there is none above it).
    pub fn peak(&self) -> f64 {
        self.iter().fold(0.0, |peak, (_, value)| peak.max(value))
    }
}

/// The one JSON object writer beneath every report (`RunReport`,
/// `NetReport`): the only place that knows the layout — one `"key": value`
/// per line at two spaces, or all on one line for an object nested as a
/// value —, that an absent value is `null`, that a series is a list of
/// `[cycle, value]` points in `{:.6e}`, and that the last field takes no comma.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    /// The fields written so far, without the enclosing braces.
    out: String,
    inline: bool,
}

impl JsonObject {
    /// A top-level document: one field per line, ends with a newline.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// An object to be nested as a value: all on one line.
    pub fn inline() -> Self {
        JsonObject {
            inline: true,
            ..JsonObject::default()
        }
    }

    /// Writes `"key": value` with the value as it displays — a number, a
    /// boolean, or an already rendered nested value.
    pub fn field(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        let separator = match (self.inline, self.out.is_empty()) {
            (true, true) => "",
            (true, false) => ", ",
            (false, true) => "\n  ",
            (false, false) => ",\n  ",
        };
        let _ = write!(self.out, "{separator}\"{key}\": {value}");
        self
    }

    /// Writes a string value in quotes (no escaping: every string a report
    /// carries is a label the program wrote).
    pub fn string(&mut self, key: &str, value: impl fmt::Display) -> &mut Self {
        self.field(key, format_args!("\"{value}\""))
    }

    /// Writes the value, or `null` for `None`.
    pub fn optional(&mut self, key: &str, value: Option<impl fmt::Display>) -> &mut Self {
        match value {
            Some(value) => self.field(key, value),
            None => self.field(key, "null"),
        }
    }

    /// Writes a list of already rendered values on one line.
    pub fn array<T: fmt::Display>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
    ) -> &mut Self {
        self.field(key, "[");
        for (position, item) in items.into_iter().enumerate() {
            let separator = if position > 0 { ", " } else { "" };
            let _ = write!(self.out, "{separator}{item}");
        }
        self.out.push(']');
        self
    }

    /// Writes a series under its own name as `[[cycle, value], ...]`.
    pub fn series(&mut self, series: &Series) -> &mut Self {
        self.array(series.name(), series.iter().map(Point))
    }

    /// Closes the object and returns the text, leaving the writer empty.
    pub fn finish(&mut self) -> String {
        let fields = std::mem::take(&mut self.out);
        if self.inline {
            format!("{{{fields}}}")
        } else {
            format!("{{{fields}\n}}\n")
        }
    }
}

/// One observation of a series as JSON writes it.
struct Point((u64, f64));

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cycle, value) = self.0;
        write!(f, "[{cycle}, {value:.6e}]")
    }
}

/// The one row writer beneath every long-format TSV timeline: appends one row
/// per observation of a run — the sweep `coordinates`, the cycle, then one
/// column per `(series, decimal places)`. The first series sets the rows; a
/// shorter or absent one reads 0.
pub fn append_cycle_rows(
    timeline: &mut String,
    coordinates: &str,
    columns: &[(Option<&Series>, usize)],
) {
    let Some(&(Some(lead), _)) = columns.first() else {
        return;
    };
    for (position, &(cycle, _)) in lead.points().iter().enumerate() {
        let _ = write!(timeline, "{coordinates}\t{cycle}");
        for &(series, places) in columns {
            let value = series
                .and_then(|series| series.points().get(position))
                .map_or(0.0, |&(_, value)| value);
            let _ = write!(timeline, "\t{value:.places$}");
        }
        timeline.push('\n');
    }
}

/// A fixed-width histogram over `u64` observations with percentile queries,
/// used for in-degree distributions, message-size accounting and the
/// per-cycle traffic latency series.
///
/// [`Histogram::new`] starts empty and grows on demand up to
/// `Histogram::MAX_BUCKETS` buckets ([`Histogram::with_limit`]: up to a
/// chosen count), so it holds only as many buckets as its largest
/// observation needs. [`Histogram::reset`] keeps them, so a histogram reused
/// across measurement windows stops touching the allocator once it has seen
/// its largest value. Observations past the last bucket saturate into it, so
/// a lone outlier (a u64 latency, say) costs O(1) memory instead of resizing
/// `counts` to `value / bucket_width + 1` entries.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bucket_width: u64,
    /// Bucket-count cap, saturating overflow bucket included.
    limit: usize,
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

impl Histogram {
    /// Upper bound on the number of distinct buckets of a growing histogram,
    /// overflow bucket included. Values mapping to bucket `MAX_BUCKETS - 1`
    /// or beyond all land in that final saturating bucket.
    pub(crate) const MAX_BUCKETS: usize = 4096;

    /// Creates an initially empty histogram whose buckets are `[0, w)`,
    /// `[w, 2w)`, ..., growing on demand up to `Histogram::MAX_BUCKETS`.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: u64) -> Self {
        Self::with_limit(bucket_width, Self::MAX_BUCKETS)
    }

    /// [`Histogram::new`] growing on demand up to `buckets` buckets, the last
    /// saturating.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `buckets` is zero.
    pub fn with_limit(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(buckets > 0, "bucket count must be positive");
        Histogram {
            bucket_width,
            limit: buckets,
            counts: Vec::new(),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = ((value / self.bucket_width) as usize).min(self.limit - 1);
        if bucket >= self.counts.len() {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.total += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Adds every observation of `other`, which must share this histogram's
    /// bucket width, as if each had been recorded here.
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket widths differ"
        );
        let used = other
            .counts
            .iter()
            .rposition(|&count| count > 0)
            .map_or(0, |last| last + 1);
        for (bucket, &count) in other.counts[..used].iter().enumerate() {
            let bucket = bucket.min(self.limit - 1);
            if bucket >= self.counts.len() {
                self.counts.resize(bucket + 1, 0);
            }
            self.counts[bucket] += count;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest observation recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The nearest-rank `q`-percentile (`q` in `[0, 1]`), resolved to the
    /// lower bound of the bucket holding that rank — exact for integer data
    /// recorded at bucket width 1. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (bucket as u64 * self.bucket_width) as f64;
            }
        }
        (self.max / self.bucket_width * self.bucket_width) as f64
    }

    /// Zeroes every counter while keeping the buckets, so a histogram can be
    /// reused across measurement windows without touching the allocator.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|count| *count = 0);
        self.total = 0;
        self.sum = 0;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_basic_accessors() {
        let mut s = Series::new("x");
        assert!(s.is_empty());
        assert_eq!(s.final_value(), None);
        s.push(0, 1.0);
        s.push(1, 0.5);
        s.push(3, 0.1);
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(), "x");
        assert_eq!(s.final_value(), Some(0.1));
        assert_eq!(s.final_cycle(), Some(3));
        assert_eq!(s.value_at(1), Some(0.5));
        assert_eq!(s.value_at(2), None);
        assert_eq!(s.held_value_at(2), None);
        assert_eq!(s.held_value_at(9), Some(0.1));
        assert_eq!(s.peak(), 1.0);
        assert_eq!(Series::new("empty").peak(), 0.0);
        assert_eq!(Series::new("empty").held_value_at(0), None);
        assert_eq!(s.points().len(), 3);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn json_writer_knows_null_empty_series_commas_and_inline_objects() {
        let mut measured = Series::new("leaf_series");
        measured.push(0, 1.0);
        measured.push(3, 0.015625);
        let nested = JsonObject::inline()
            .field("sent", 7)
            .field("mean", format_args!("{:.2}", 2.0))
            .finish();
        assert_eq!(nested, "{\"sent\": 7, \"mean\": 2.00}");
        let json = JsonObject::new()
            .string("engine", "cycle")
            .optional("convergence_cycle", Some(12))
            .optional("recovered_cycle", None::<u64>)
            .field("eclipsed", false)
            .field("traffic", &nested)
            .optional("proximity", None::<String>)
            .array("events", [&nested, &nested])
            .array("none", [0u8; 0])
            .series(&measured)
            .series(&Series::new("dead_series"))
            .finish();
        assert_eq!(
            json,
            "{\n  \"engine\": \"cycle\",\n  \"convergence_cycle\": 12,\n  \
             \"recovered_cycle\": null,\n  \"eclipsed\": false,\n  \
             \"traffic\": {\"sent\": 7, \"mean\": 2.00},\n  \"proximity\": null,\n  \
             \"events\": [{\"sent\": 7, \"mean\": 2.00}, {\"sent\": 7, \"mean\": 2.00}],\n  \
             \"none\": [],\n  \
             \"leaf_series\": [[0, 1.000000e0], [3, 1.562500e-2]],\n  \
             \"dead_series\": []\n}\n"
        );
        // The last field — whichever it is — takes no comma, in either layout.
        assert_eq!(
            JsonObject::new().field("seed", 1).finish(),
            "{\n  \"seed\": 1\n}\n"
        );
        assert_eq!(JsonObject::inline().finish(), "{}");
    }

    #[test]
    fn cycle_rows_follow_the_lead_series_and_zero_fill_the_rest() {
        let mut lead = Series::new("lead");
        lead.push(3, 0.5);
        lead.push(4, 0.25);
        let mut short = Series::new("short");
        short.push(3, 7.0);
        let mut timeline = String::new();
        append_cycle_rows(
            &mut timeline,
            "cell\tcycle",
            &[(Some(&lead), 6), (Some(&short), 1), (None, 1)],
        );
        assert_eq!(
            timeline,
            "cell\tcycle\t3\t0.500000\t7.0\t0.0\ncell\tcycle\t4\t0.250000\t0.0\t0.0\n"
        );
        // Without a lead series there are no rows to write.
        append_cycle_rows(&mut timeline, "x", &[(None, 1), (Some(&lead), 1)]);
        assert_eq!(timeline.lines().count(), 2);
    }

    #[test]
    fn histogram_counts_and_statistics() {
        let mut h = Histogram::new(10);
        for v in [0u64, 5, 9, 10, 25, 25, 99] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 99);
        assert!((h.mean() - (5 + 9 + 10 + 25 + 25 + 99) as f64 / 7.0).abs() < 1e-12);
        // Width 10: buckets [0, 10), [10, 20), [20, 30) and [90, 100).
        assert_eq!(h.counts[..3], [3, 1, 2]);
        assert_eq!(h.counts[9], 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn histogram_rejects_zero_width() {
        Histogram::new(0);
    }

    #[test]
    fn histogram_outlier_saturates_into_overflow_bucket() {
        let mut h = Histogram::new(10);
        h.record(3);
        h.record(u64::MAX);
        // Storage stays bounded by MAX_BUCKETS rather than resizing to
        // u64::MAX / 10 + 1 entries.
        assert!(h.counts.len() <= Histogram::MAX_BUCKETS);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        let overflow = Histogram::MAX_BUCKETS - 1;
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[overflow], 1);
        // A second outlier lands in the same saturating bucket.
        h.record(u64::MAX - 1);
        assert!(h.counts.len() <= Histogram::MAX_BUCKETS);
        assert_eq!(h.counts[overflow], 2);
    }

    #[test]
    fn streaming_histogram_is_allocation_free_once_sized() {
        let mut h = Histogram::with_limit(1, 64);
        assert!(h.counts.is_empty());
        for value in 0..200u64 {
            h.record(value);
        }
        // Storage never grew past the limit; the tail saturated.
        assert_eq!(h.counts.len(), 64);
        assert_eq!(h.count(), 200);
        assert_eq!(h.max(), 199);
        assert_eq!(h.counts[63], 137);
        h.reset();
        assert_eq!(h.counts.len(), 64);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn streaming_percentiles_are_exact_for_unit_width_integers() {
        // 1..=100 at bucket width 1: the nearest-rank percentile of integers.
        let mut h = Histogram::with_limit(1, 128);
        for value in 1..=100u64 {
            h.record(value);
        }
        assert_eq!(h.percentile(0.50), 50.0);
        assert_eq!(h.percentile(0.95), 95.0);
        assert_eq!(h.percentile(0.99), 99.0);
        assert_eq!(h.percentile(1.0), 100.0);
        assert_eq!(h.percentile(0.0), 1.0);
        assert!((h.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn streaming_percentile_resolves_to_bucket_lower_bound() {
        let mut h = Histogram::with_limit(10, 16);
        for value in [3u64, 14, 27, 150, 152] {
            h.record(value);
        }
        assert_eq!(h.percentile(0.5), 20.0);
        // The two saturated outliers dominate the tail.
        assert_eq!(h.percentile(1.0), 150.0);
        assert_eq!(h.bucket_width, 10);
    }

    #[test]
    fn merged_histograms_equal_one_that_recorded_everything() {
        let (a, b) = ([0u64, 5, 17, 17, 90], [3u64, 17, 400, 2]);
        let mut whole = Histogram::with_limit(1, 100);
        let mut left = Histogram::with_limit(1, 100);
        let mut right = Histogram::with_limit(1, 100);
        for (values, part) in [(&a[..], &mut left), (&b[..], &mut right)] {
            for &value in values {
                whole.record(value);
                part.record(value);
            }
        }
        // Grown only as far as the largest observation needs.
        assert_eq!(left.counts.len(), 91);
        right.reset();
        b.iter().for_each(|&v| right.record(v));
        left.merge(&right);
        assert_eq!(left, whole);
        assert_eq!(left.percentile(0.5), 17.0);
        assert_eq!(
            left.percentile(1.0),
            99.0,
            "400 saturates into the last bucket"
        );
    }

    #[test]
    fn streaming_percentile_on_skewed_mass() {
        let mut h = Histogram::with_limit(1, 8);
        for _ in 0..99 {
            h.record(1);
        }
        h.record(5);
        assert_eq!(h.percentile(0.5), 1.0);
        assert_eq!(h.percentile(0.99), 1.0);
        assert_eq!(h.percentile(1.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn streaming_percentile_rejects_bad_quantile() {
        Histogram::with_limit(1, 4).percentile(1.5);
    }

    #[test]
    #[should_panic(expected = "bucket count must be positive")]
    fn streaming_histogram_rejects_zero_buckets() {
        Histogram::with_limit(1, 0);
    }

    #[test]
    fn histogram_percentile_delegates_to_streaming_core() {
        let mut h = Histogram::new(1);
        for value in 0..10u64 {
            h.record(value);
        }
        assert_eq!(h.percentile(0.5), 4.0);
        assert_eq!(h.percentile(1.0), 9.0);
    }
}
