//! Harness-side spans: one record per call into a layer, kept in memory and
//! written out when the benchmark ends.
//!
//! The spans are recorded around calls into the crates' public functions —
//! nothing inside the crates is instrumented — so a span's duration is what a
//! caller of that function pays. A span's *self time* is its duration minus
//! the part of its interval that its child spans cover; for a span that only
//! groups calls (an exchange replay, a rep) the self time is the harness's own
//! bookkeeping, which is how the ledger keeps clock reads out of the numbers
//! it reports.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call this span wraps, e.g. `core.message.create`.
    pub name: &'static str,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct SpanId(Option<u32>);

/// The in-memory span recorder. A disabled tracer records nothing and reads
/// no clock, so untraced reps pay two branches per would-be span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(index);
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        SpanId(Some(index))
    }

    /// Closes a span. Spans close in the reverse order they were opened.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(index), "spans must nest");
        self.spans[index as usize].end_ns = now;
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id);
        result
    }

    /// The current time on the tracer's clock.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Records an already-finished span `[start_ns, now)` as a child of the
    /// innermost open span and returns `now` — for intervals the harness only
    /// learns about at their end (one engine cycle, seen from an observer
    /// callback).
    pub fn record_since(&mut self, name: &'static str, start_ns: u64) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        now
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean over the spans called `name` of `nanoseconds(index, span)`, in
    /// microseconds (0 if there are none).
    fn mean_us_of(&self, name: &str, nanoseconds: impl Fn(usize, &Span) -> u64) -> f64 {
        let (sum, count) = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.name == name)
            .fold((0u64, 0u64), |(sum, count), (index, span)| {
                (sum + nanoseconds(index, span), count + 1)
            });
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 1e3
        }
    }

    /// Mean duration in microseconds of the spans called `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.mean_us_of(name, |_, span| span.duration_ns())
    }

    /// Mean of `duration - self time` in microseconds over the spans called
    /// `name`: the time their children cover, with the grouping span's own
    /// bookkeeping left out.
    pub fn mean_child_covered_us(&self, name: &str) -> f64 {
        let self_times = self_times_ns(&self.spans);
        self.mean_us_of(name, |index, span| span.duration_ns() - self_times[index])
    }

    /// Writes one JSON object per span: name, start, end, parent, self time
    /// and the workload the trace belongs to.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        let self_times = self_times_ns(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 120);
        for (index, (span, self_ns)) in self.spans.iter().zip(&self_times).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"workload\":\"{workload}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the length of the union of its
/// direct children's intervals (clipped to the span itself).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_only_what_children_cover() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("cycle", 10, 40, Some(0)),
            span("merge", 15, 25, Some(1)),
            span("cycle", 50, 90, Some(0)),
            // A grandchild never counts against the grandparent directly.
            span("merge", 60, 70, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            // Clipped to the parent's interval.
            span("c", 190, 230, Some(0)),
        ];
        // Union of [110,170) and [190,200) covers 70 of the parent's 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn a_tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("outer");
        tracer.span("inner", || std::hint::black_box(1 + 1));
        tracer.exit(outer);
        assert_eq!(tracer.len(), 2);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
        assert!(tracer.mean_child_covered_us("outer") <= tracer.mean_us("outer"));

        let mut off = Tracer::new(false);
        let id = off.enter("ignored");
        off.exit(id);
        assert_eq!(off.len(), 0);
        assert_eq!(off.mean_us("ignored"), 0.0);
    }
}
