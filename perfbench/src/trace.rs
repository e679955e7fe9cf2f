//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the Unix epoch, so
//! spans from TCP rank processes line up with the coordinator's), the span that
//! caused it and the run (repetition) it belongs to. Spans are kept in
//! memory and written out once, when the benchmark ends. With tracing off
//! every call is a no-op and nothing is recorded.

use std::time::{SystemTime, UNIX_EPOCH};

use stance_tcp::codec::Wire;

/// Nanoseconds since the Unix epoch.
pub fn now_ns() -> u64 {
    let d = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock is after the Unix epoch");
    u64::try_from(d.as_nanos()).expect("timestamp fits in u64")
}

/// Seconds between two [`now_ns`] stamps.
pub fn secs(start: u64, end: u64) -> f64 {
    end.saturating_sub(start) as f64 * 1e-9
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// `None` for the coordinating process, otherwise the rank that recorded the span.
    pub rank: Option<usize>,
    pub run: usize,
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        secs(self.start, self.end)
    }
}

impl Wire for Span {
    fn put(&self, out: &mut Vec<u8>) {
        self.name.put(out);
        self.rank.put(out);
        self.run.put(out);
        self.start.put(out);
        self.end.put(out);
        self.parent.put(out);
    }
    fn take(input: &mut &[u8]) -> Self {
        Span {
            name: Wire::take(input),
            rank: Wire::take(input),
            run: Wire::take(input),
            start: Wire::take(input),
            end: Wire::take(input),
            parent: Wire::take(input),
        }
    }
}

/// Handle returned by [`Tracer::begin`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    rank: Option<usize>,
    run: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, rank: Option<usize>, run: usize) -> Self {
        Tracer {
            on,
            rank,
            run,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            rank: self.rank,
            run: self.run,
            start: now_ns(),
            end: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end = now_ns();
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Appends spans recorded elsewhere (a rank thread or process) as
    /// children of the innermost open span.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "every span is closed");
        self.spans
    }
}

/// The children of every span, by index.
pub fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// A span's self time: its duration minus the part of it that the union of
/// its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    children(spans)
        .iter()
        .zip(spans)
        .map(|(kids, s)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.secs() - covered as f64 * 1e-9
        })
        .collect()
}

/// Seconds of span `i` that a layer span accounts for. `solve` and
/// `rank.body` are containers whose own time is glue between layer calls
/// (unaccounted); a backend `*.run` span runs the rank bodies in parallel,
/// so it accounts for the slowest body plus the backend's own launch and
/// join overhead; any other span is one layer call and counts whole.
pub fn accounted(spans: &[Span], kids: &[Vec<usize>], i: usize) -> f64 {
    let s = &spans[i];
    match s.name.as_str() {
        "solve" | "rank.body" => kids[i].iter().map(|&k| accounted(spans, kids, k)).sum(),
        name if name.ends_with(".run") => {
            match kids[i]
                .iter()
                .max_by(|&&a, &&b| spans[a].secs().total_cmp(&spans[b].secs()))
            {
                Some(&slowest) => {
                    s.secs() - spans[slowest].secs() + accounted(spans, kids, slowest)
                }
                None => s.secs(),
            }
        }
        _ => s.secs(),
    }
}

/// The spans as a JSON array, with each span's self time.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, self_s)) in spans.iter().zip(&selfs).enumerate() {
        let rank = s.rank.map_or_else(|| "null".to_string(), |r| r.to_string());
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"rank\":{rank},\"run\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_s\":{self_s:e}}}{}\n",
            s.name,
            s.run,
            s.start,
            s.end,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            rank: None,
            run: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("solve", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
        ];
        let s = self_times(&spans);
        assert!((s[0] - 50e-9).abs() < 1e-15);
        assert!((s[1] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn a_run_span_accounts_for_its_slowest_body() {
        let spans = vec![
            span("solve", 0, 100, None),
            span("native.run", 10, 90, Some(0)),
            span("rank.body", 12, 80, Some(1)),
            span("rank.body", 12, 88, Some(1)),
            span("inspector.setup", 12, 20, Some(3)),
            span("executor.run_block", 20, 80, Some(3)),
        ];
        let kids = children(&spans);
        // Launch overhead 80 − 76 = 4, plus 68 of layer calls on the slowest
        // rank: 72 of 100 accounted.
        assert!((accounted(&spans, &kids, 0) - 72e-9).abs() < 1e-15);
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span() {
        let mut t = Tracer::new(true, None, 0);
        let open = t.begin("native.run");
        t.adopt(vec![
            span("rank.body", 1, 2, None),
            span("x", 1, 2, Some(0)),
        ]);
        t.end(open);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn spans_survive_the_wire() {
        let s = span("core.checkpoint", 5, 9, Some(3));
        assert_eq!(Span::from_wire(&s.to_wire()), s);
    }
}
