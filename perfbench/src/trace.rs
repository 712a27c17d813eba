//! Spans recorded from outside the program: the benchmark wraps each call
//! into a module's public function in a span. Spans stay in memory and
//! are written as one JSON file when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The operation the span belongs to (one layer, one design, one
    /// request); spans of one operation share it.
    pub op: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled tracer runs the same closures and records
/// nothing, which gives the untraced baseline of the same call sequence.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its children. A disabled tracer passes id 0.
    pub fn span<T>(&self, name: &str, parent: Option<u64>, op: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent,
            op,
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, ordered by id (creation order).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}",
                s.id,
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self_ns[&s.id],
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Aggregated spans of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ms: Vec<f64>,
}

impl NameStats {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Spans at or below `root`, aggregated by name.
pub fn by_name(spans: &[Span], root: u64) -> BTreeMap<String, NameStats> {
    let parents: BTreeMap<u64, Option<u64>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let under = |mut id: u64| loop {
        if id == root {
            return true;
        }
        match parents.get(&id).copied().flatten() {
            Some(p) => id = p,
            None => return false,
        }
    };
    let self_ns = self_times(spans);
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for s in spans.iter().filter(|s| under(s.id)) {
        let e = out.entry(s.name.clone()).or_default();
        e.calls += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns[&s.id];
        e.durations_ms.push(s.duration_ns() as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            // Overlaps child 2 (parallel children): counted once.
            span(3, Some(1), 30, 60),
            span(4, Some(1), 80, 90),
            span(5, Some(2), 10, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - (60 - 10) - 10);
        assert_eq!(t[&2], 30 - 10);
        assert_eq!(t[&3], 30);
        assert_eq!(t[&5], 10);
    }

    #[test]
    fn by_name_keeps_only_descendants() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, None, 100, 200),
            span(4, Some(3), 100, 110),
        ];
        let agg = by_name(&spans, 1);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg["s2"].calls, 1);
        assert_eq!(agg["s1"].self_ns, 50);
        assert!(!agg.contains_key("s4"));
    }

    #[test]
    fn tracer_records_nesting_and_disabled_records_nothing() {
        let t = Tracer::new(true);
        let v = t.span("outer", None, 7, |id| t.span("inner", Some(id), 7, |_| 3));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, |id| id), 0);
        assert!(off.spans().is_empty());
    }
}
