//! Host-time spans recorded by the benchmark around calls into the engine.
//!
//! The engine has no host-time tracing of its own yet, so the traced pass
//! drives each layer's public functions itself and brackets every call
//! with a span: name, start, end, the span that caused it, and the pass it
//! belongs to. Spans stay in memory until the run ends. The recorder is
//! single-threaded by design — the traced pass runs the engine at one
//! thread — so the open-span stack is the call stack.

use crate::json::{Json, JsonExt};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// The traced pass this span belongs to (spans of one pass share it).
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    run: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Starts a new pass: later spans carry the next run id.
    pub fn next_run(&mut self) -> u32 {
        assert!(self.open.is_empty(), "a pass starts with no span open");
        self.run += 1;
        self.run
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as SpanId;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: self.run,
        });
        id
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds one empty enter/exit pair costs on this host — the
    /// per-span tax the traced pass pays on top of the engine's own work.
    pub fn calibrate_pair_ns() -> f64 {
        const PAIRS: usize = 200_000;
        let mut rec = Recorder::new();
        rec.spans.reserve(PAIRS);
        let start = Instant::now();
        for _ in 0..PAIRS {
            let id = rec.enter("calibrate");
            rec.exit(id);
        }
        std::hint::black_box(rec.spans.len());
        start.elapsed().as_nanos() as f64 / PAIRS as f64
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each span's interval its children cover.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span). Children recorded on one
/// thread never overlap, but the union is computed honestly so the
/// arithmetic stays right if that ever changes.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Totals per span name. `spans` must be closed under parenthood (one
/// whole pass, as [`from`] returns it).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations in microseconds of every span called `name`, all passes.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// The spans from index `first` on — one pass, when `first` is where the
/// pass began — with parent ids rebased onto the returned vector.
pub fn from(spans: &[Span], first: usize) -> Vec<Span> {
    spans[first..]
        .iter()
        .map(|s| Span {
            parent: if s.parent == NO_PARENT {
                NO_PARENT
            } else {
                s.parent - first as SpanId
            },
            ..*s
        })
        .collect()
}

/// Writes one JSON object per span, one per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            Json::Null
        } else {
            Json::Num(f64::from(s.parent))
        };
        let line = Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("parent", parent),
            ("run", Json::Num(f64::from(s.run))),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

/// Writes the spans as Chrome-trace complete events (`ph: "X"`, times in
/// microseconds), one track per pass — loadable in `chrome://tracing` and
/// Perfetto.
pub fn write_chrome(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"traceEvents\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let ev = Json::obj([
            ("name", Json::str(s.name)),
            ("ph", Json::str("X")),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(f64::from(s.run))),
        ]);
        write!(out, "{}\n{}", if i > 0 { "," } else { "" }, ev.render())?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId, run: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            run,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let spans = [
            span("root", 0, 100, NO_PARENT, 1),
            span("a", 10, 30, 0, 1),
            span("b", 40, 70, 0, 1),
            span("leaf", 45, 50, 2, 1),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 10, 50, NO_PARENT, 1),
            span("a", 0, 30, 0, 1),  // starts before the parent: clipped
            span("b", 20, 40, 0, 1), // overlaps a: only 30..40 is new
            span("c", 45, 90, 0, 1), // runs past the parent: clipped
        ];
        // cover = [10,30) + [30,40) + [45,50) = 35 of 40
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn totals_group_by_name_within_one_pass() {
        let spans = [
            span("root", 0, 100, NO_PARENT, 1),
            span("x", 0, 10, 0, 1),
            span("x", 20, 50, 0, 1),
            span("root", 200, 260, NO_PARENT, 2),
            span("x", 200, 210, 3, 2),
        ];
        let t1 = totals_by_name(&spans[..3]);
        assert_eq!(
            t1["x"],
            NameTotal {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(t1["root"].self_ns, 60);
        let t2 = totals_by_name(&from(&spans, 3));
        assert_eq!((t2["x"].count, t2["root"].self_ns), (1, 50));
        assert_eq!(durations_us(&spans, "x"), vec![0.01, 0.03, 0.01]);
    }

    #[test]
    fn one_pass_is_cut_out_with_rebased_parents() {
        let spans = [
            span("root", 0, 100, NO_PARENT, 1),
            span("x", 0, 10, 0, 1),
            span("root", 200, 260, NO_PARENT, 2),
            span("x", 200, 210, 2, 2),
            span("y", 220, 230, 2, 2),
        ];
        let second = from(&spans, 2);
        assert_eq!(second.len(), 3);
        assert_eq!(
            (second[0].parent, second[1].parent, second[2].parent),
            (NO_PARENT, 0, 0)
        );
        assert_eq!(second[2].name, "y");
        assert!(from(&spans, 5).is_empty());
    }

    #[test]
    fn recorder_nests_by_call_order() {
        let mut rec = Recorder::new();
        let run = rec.next_run();
        let root = rec.enter("root");
        let a = rec.enter("a");
        rec.exit(a);
        let b = rec.enter("b");
        rec.exit(b);
        rec.exit(root);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (NO_PARENT, root, root)
        );
        assert!(s.iter().all(|x| x.run == run && x.end_ns >= x.start_ns));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn writers_emit_parseable_json() {
        let spans = [
            span("root", 0, 2_000, NO_PARENT, 1),
            span("kid", 500, 1_500, 0, 1),
        ];
        let dir = std::env::temp_dir().join(format!("opa-perf-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("s.jsonl");
        write_jsonl(&spans, &jsonl).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let lines: Vec<_> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        let chrome = dir.join("s.chrome.json");
        write_chrome(&spans, &chrome).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents array missing");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
