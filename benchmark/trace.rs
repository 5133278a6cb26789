//! In-memory spans for the traced run.
//!
//! A span is a named interval with the span that caused it and the request
//! (nonce batch, block, sim run, restart pass) it belongs to. Spans are
//! recorded from the benchmark's own code around calls into each layer,
//! kept in memory, and written out when the run ends. A span's self time is
//! its duration minus the part of its interval its child spans cover.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            // Growth of the span buffer stays out of most timed intervals.
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let value = f();
        self.end(id);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span, one per line, plus per-name totals of duration
    /// and self time.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let self_times = self_times(&self.spans);
        let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(&self_times) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns();
            entry.2 += self_ns;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": {},", json::string(workload))?;
        writeln!(out, "\"totals\": {{")?;
        for (i, (name, (count, total, own))) in totals.iter().enumerate() {
            let comma = if i + 1 == totals.len() { "" } else { "," };
            writeln!(
                out,
                "  {}: {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}{comma}",
                json::string(name)
            )?;
        }
        writeln!(out, "}},")?;
        writeln!(out, "\"spans\": [")?;
        for (id, span) in self.spans.iter().enumerate() {
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
                json::string(span.name),
                span.start_ns,
                span.end_ns,
                self_times[id],
                span.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Runs `f` inside a root span when a tracer is given, bare otherwise.
pub fn maybe_span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, None, request, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("hash", 0, 100, None),
            span("gen", 10, 40, Some(0)),
            // Overlaps `gen`: the overlap is subtracted once.
            span("noise", 30, 50, Some(0)),
            span("exec", 60, 90, Some(0)),
            // A grandchild counts against its parent only.
            span("inner", 65, 70, Some(3)),
            // Sticks out past its parent: clipped to the parent's interval.
            span("late", 95, 120, Some(0)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 30 - 5, 30, 20, 25, 5, 25]
        );
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        assert_eq!(self_times(&[span("x", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn tracer_nests_and_totals_spans() {
        let mut tracer = Tracer::new();
        let outer = tracer.begin("outer", None, 1);
        let value = tracer.span("inner", Some(outer), 1, || 41 + 1);
        tracer.end(outer);
        assert_eq!(value, 42);
        assert_eq!(tracer.count("inner"), 1);
        assert_eq!(tracer.spans()[1].parent, Some(outer));
        let outer_total = tracer.total_ns("outer");
        assert!(outer_total >= tracer.total_ns("inner"));
        assert_eq!(
            self_times(tracer.spans())[outer] as f64,
            outer_total - tracer.total_ns("inner")
        );
    }
}
