//! In-memory spans for the traced run.
//!
//! The traced run wraps a span around every call the benchmark makes into
//! a layer's public API, inside one root span per operation (named
//! [`OP`]). A span's self time is its duration minus the time its child
//! spans cover; the sum of layer self times over the sum of operation
//! durations is the trace's coverage, and what is left is glue in the
//! benchmark itself. Spans stay in memory and are written out once, at
//! exit; after the first pass only per-name sums and histograms are kept.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the root span around one operation.
pub const OP: &str = "op";

/// Log2 buckets of span duration in nanoseconds.
const BUCKETS: usize = 48;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything recorded under one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
    pub hist: [u64; BUCKETS],
}

impl Default for Layer {
    fn default() -> Self {
        Layer {
            calls: 0,
            self_ns: 0,
            total_ns: 0,
            hist: [0; BUCKETS],
        }
    }
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// A span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<SpanRecord>,
    keep_spans: bool,
    layers: BTreeMap<&'static str, Layer>,
    counts: BTreeMap<&'static str, f64>,
    next_id: u64,
    op: u64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; recorders that will
    /// be merged with [`Tracer::absorb`] share one epoch.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            open: Vec::new(),
            spans: Vec::new(),
            keep_spans: true,
            layers: BTreeMap::new(),
            counts: BTreeMap::new(),
            next_id: 0,
            op: 0,
        }
    }

    /// Whether finished spans are kept in full (they are always summed).
    pub fn keep_spans(&mut self, keep: bool) {
        self.keep_spans = keep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; a span opened with none open is a new operation.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.begin_at(name, now);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let now = self.now_ns();
        self.end_at(now);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    fn begin_at(&mut self, name: &'static str, start_ns: u64) {
        if self.open.is_empty() {
            self.op += 1;
        }
        self.next_id += 1;
        self.open.push(Open {
            id: self.next_id,
            name,
            start_ns,
            child_ns: 0,
        });
    }

    fn end_at(&mut self, end_ns: u64) {
        let span = self.open.pop().expect("end() without a matching begin()");
        let dur = end_ns.saturating_sub(span.start_ns);
        let layer = self.layers.entry(span.name).or_default();
        layer.calls += 1;
        layer.total_ns += dur;
        layer.self_ns += dur.saturating_sub(span.child_ns);
        layer.hist[(u64::BITS - dur.leading_zeros()).min(BUCKETS as u32 - 1) as usize] += 1;
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        if self.keep_spans {
            self.spans.push(SpanRecord {
                id: span.id,
                parent,
                op: self.op,
                name: span.name,
                start_ns: span.start_ns,
                end_ns,
            });
        }
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// The counter or gauge `name` (0 if never recorded).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The aggregate for span name `name` (empty if never recorded).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Operations recorded.
    pub fn ops(&self) -> u64 {
        self.layer(OP).calls
    }

    /// Sum of every layer's self time over the sum of operation durations.
    pub fn coverage(&self) -> f64 {
        let op_ns = self.layer(OP).total_ns;
        if op_ns == 0 {
            return 0.0;
        }
        let layer_ns: u64 = self
            .layers
            .iter()
            .filter(|(name, _)| **name != OP)
            .map(|(_, l)| l.self_ns)
            .sum();
        layer_ns as f64 / op_ns as f64
    }

    /// Merges another thread's recorder into this one, renumbering its
    /// spans and operations after this one's.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let (ids, ops) = (self.next_id, self.op);
        self.spans
            .extend(other.spans.into_iter().map(|s| SpanRecord {
                id: s.id + ids,
                parent: s.parent.map(|p| p + ids),
                op: s.op + ops,
                ..s
            }));
        self.next_id += other.next_id;
        self.op += other.op;
        for (name, l) in other.layers {
            let mine = self.layers.entry(name).or_default();
            mine.calls += l.calls;
            mine.self_ns += l.self_ns;
            mine.total_ns += l.total_ns;
            for (a, b) in mine.hist.iter_mut().zip(l.hist) {
                *a += b;
            }
        }
        for (name, v) in other.counts {
            self.count(name, v);
        }
    }

    /// One line per span name: calls, self time per operation, and its
    /// share of operation time.
    pub fn summary(&self) -> Vec<String> {
        let ops = self.ops().max(1) as f64;
        let op_ns = self.layer(OP).total_ns.max(1) as f64;
        self.layers
            .iter()
            .map(|(name, l)| {
                format!(
                    "{name:<28} {:>10} calls {:>12.4} ms/op self {:>7.2}% of op time",
                    l.calls,
                    l.self_ns as f64 / 1e6 / ops,
                    100.0 * l.self_ns as f64 / op_ns
                )
            })
            .collect()
    }

    /// Writes the kept spans, the per-name aggregates and the counters as
    /// one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\": \"{workload}\",\n\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        write!(out, "],\n\"layers\": [")?;
        for (i, (name, l)) in self.layers.iter().enumerate() {
            let hist: Vec<String> = l.hist.iter().map(u64::to_string).collect();
            write!(
                out,
                "{}\n{{\"name\": \"{name}\", \"calls\": {}, \"self_ns\": {}, \"total_ns\": {}, \"hist_log2_ns\": [{}]}}",
                if i == 0 { "" } else { "," },
                l.calls,
                l.self_ns,
                l.total_ns,
                hist.join(", ")
            )?;
        }
        write!(out, "],\n\"counts\": {{")?;
        for (i, (name, v)) in self.counts.iter().enumerate() {
            write!(out, "{}\"{name}\": {v}", if i == 0 { "" } else { ", " })?;
        }
        writeln!(out, "}}}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two operations: the first is 100 ns with a 60 ns parse holding a
    /// 20 ns nested lex, the second is 50 ns with a 45 ns parse.
    fn synthetic() -> Tracer {
        let mut tr = Tracer::new(Instant::now());
        tr.begin_at(OP, 0);
        tr.begin_at("ast.parse", 10);
        tr.begin_at("ast.lex", 20);
        tr.end_at(40);
        tr.end_at(70);
        tr.end_at(100);
        tr.begin_at(OP, 200);
        tr.begin_at("ast.parse", 202);
        tr.end_at(247);
        tr.end_at(250);
        tr
    }

    #[test]
    fn self_time_subtracts_children() {
        let tr = synthetic();
        assert_eq!(tr.ops(), 2);
        let parse = tr.layer("ast.parse");
        assert_eq!((parse.calls, parse.total_ns, parse.self_ns), (2, 105, 85));
        assert_eq!(tr.layer("ast.lex").self_ns, 20);
        let op = tr.layer(OP);
        assert_eq!((op.total_ns, op.self_ns), (150, 45));
        assert_eq!(tr.layer("absent"), Layer::default());
    }

    #[test]
    fn coverage_is_layer_self_time_over_op_time() {
        let tr = synthetic();
        // (85 + 20) of 150 ns are inside layer spans.
        assert!((tr.coverage() - 105.0 / 150.0).abs() < 1e-12);
        assert_eq!(Tracer::new(Instant::now()).coverage(), 0.0);
    }

    #[test]
    fn spans_record_parents_and_ops() {
        let tr = synthetic();
        let lex = tr.spans.iter().find(|s| s.name == "ast.lex").unwrap();
        let parse = tr
            .spans
            .iter()
            .find(|s| s.id == lex.parent.unwrap())
            .unwrap();
        assert_eq!(parse.name, "ast.parse");
        let root = tr
            .spans
            .iter()
            .find(|s| Some(s.id) == parse.parent)
            .unwrap();
        assert_eq!((root.name, root.parent, root.op), (OP, None, 1));
        assert_eq!(tr.spans.last().unwrap().op, 2);
    }

    #[test]
    fn absorb_merges_sums_and_renumbers() {
        let mut a = synthetic();
        a.count("ast.bytes", 10.0);
        let mut b = synthetic();
        b.count("ast.bytes", 5.0);
        b.keep_spans(false);
        b.begin_at(OP, 300);
        b.end_at(310);
        a.absorb(b);
        assert_eq!(a.ops(), 5);
        assert_eq!(a.layer("ast.parse").self_ns, 170);
        assert_eq!(a.counter("ast.bytes"), 15.0);
        // The dropped third span of `b` left no record; ids stay unique.
        assert_eq!(a.spans.len(), 10);
        let mut ids: Vec<u64> = a.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }
}
