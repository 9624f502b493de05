//! In-memory spans recorded around the calls into each layer, and the
//! self-time arithmetic that turns them into per-layer shares.
//!
//! A span is `(name, start, end, parent, op)`. Names are
//! `<layer>.<call>`; the layer is everything before the first dot and
//! is a crate name (`sim`, `sensors`, `forecast`, `grid`, `runtime`,
//! `wire`, `server`), `transport` for socket time, or `harness` for the
//! benchmark's own loop. Spans stay in memory during the run and are
//! written to `<out-dir>/trace_<workload>.jsonl` when it ends.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent": the span is the root of its op.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    /// Spans of one op share an identifier.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Interns a span name (do this once, outside the hot loop).
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Nanoseconds since the tracer's epoch: the one clock every span
    /// boundary is read from, so adjacent spans can share a reading.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn record(&mut self, name: u16, parent: u32, op: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Reserves a span whose end is not known yet, so children can name
    /// it as their parent; close it with [`Tracer::close`].
    pub fn open(&mut self, name: u16, parent: u32, op: u32, start_ns: u64) -> u32 {
        self.record(name, parent, op, start_ns, start_ns)
    }

    pub fn close(&mut self, span: u32, end_ns: u64) {
        self.spans[span as usize].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, nanoseconds (see [`self_times`]).
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *by_name.entry(self.names[span.name as usize]).or_insert(0) += own;
        }
        by_name
    }

    /// One JSON object per line — name, start, end, parent, op — for the
    /// first `limit` spans; if there are more, a last line says how many
    /// were recorded in all.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut out = String::new();
        for s in self.spans.iter().take(limit) {
            let mut w = json::Writer::new();
            w.begin_object();
            w.key("name").string(self.names[s.name as usize]);
            w.key("start_ns").integer(s.start_ns);
            w.key("end_ns").integer(s.end_ns);
            if s.parent == ROOT {
                w.key("parent").null();
            } else {
                w.key("parent").integer(u64::from(s.parent));
            }
            w.key("op").integer(u64::from(s.op));
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        if self.spans.len() > limit {
            let mut w = json::Writer::new();
            w.begin_object();
            w.key("truncated_after").integer(limit as u64);
            w.key("spans_recorded").integer(self.spans.len() as u64);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

/// A clock reading if tracing is on and 0 if it is off, so one code
/// path serves both the untimed warm-up (no clock reads at all) and the
/// traced pass. `tracing` pairs the tracer with the caller's span names.
pub fn stamp<N>(tracing: &Option<(&mut Tracer, N)>) -> u64 {
    tracing.as_ref().map_or(0, |(tracer, _)| tracer.now())
}

/// Folds self time per span name into self time per layer (the name's
/// prefix before the first dot).
pub fn by_layer(by_name: &BTreeMap<&'static str, u64>) -> BTreeMap<&'static str, u64> {
    let mut by_layer = BTreeMap::new();
    for (name, ns) in by_name {
        let layer = name.split('.').next().expect("split yields one piece");
        *by_layer.entry(layer).or_insert(0) += ns;
    }
    by_layer
}

/// A span's self time is its duration minus the part of that interval
/// its child spans cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let start = s.start_ns.clamp(p.start_ns, p.end_ns);
            let end = s.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[s.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn child_cover_is_subtracted_once() {
        let spans = [
            span(ROOT, 0, 100), // 0: root
            span(0, 10, 40),    // 1: child
            span(0, 30, 60),    // 2: overlaps child 1 by 10
            span(0, 80, 120),   // 3: sticks out past the parent, clipped to 100
            span(1, 15, 25),    // 4: grandchild, counts against span 1 only
            span(0, 50, 50),    // 5: empty
        ];
        let own = self_times(&spans);
        // Root: 100 − (10..60 = 50) − (80..100 = 20) = 30.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 10);
        assert_eq!(own[5], 0);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_duration() {
        let spans = [
            span(ROOT, 0, 1000),
            span(0, 0, 300),
            span(0, 300, 900),
            span(2, 350, 450),
            span(2, 450, 800),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn layers_are_name_prefixes() {
        let mut t = Tracer::new();
        let op = t.name("harness.op");
        let a = t.name("sim.advance_to");
        let b = t.name("sim.synthetic_step");
        let c = t.name("grid.memory_append");
        assert_eq!(t.name("sim.advance_to"), a);
        let root = t.open(op, ROOT, 7, 0);
        t.record(a, root, 7, 0, 40);
        t.record(b, root, 7, 40, 50);
        t.record(c, root, 7, 50, 90);
        t.close(root, 100);
        let layers = by_layer(&t.self_time_by_name());
        assert_eq!(layers["sim"], 50);
        assert_eq!(layers["grid"], 40);
        assert_eq!(layers["harness"], 10);
        assert_eq!(t.to_jsonl(10).lines().count(), 4);
        assert_eq!(t.to_jsonl(2).lines().count(), 3);
        assert!(t
            .to_jsonl(2)
            .ends_with("{\"truncated_after\":2,\"spans_recorded\":4}\n"));
        let first = json::parse(t.to_jsonl(10).lines().next().expect("line")).expect("json");
        assert_eq!(
            first.get("name").and_then(json::Value::as_str),
            Some("harness.op")
        );
        assert_eq!(first.get("parent"), Some(&json::Value::Null));
    }
}
