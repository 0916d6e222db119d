//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A [`Tracer`] is owned by one thread; a phase that runs on several
//! threads gives each its own tracer and [`Tracer::absorb`]s them at the
//! end. Span ids come from one process-wide counter and timestamps from
//! one process-wide origin, so merged spans keep their parent links and
//! their order. A disabled tracer records nothing and allocates nothing:
//! untraced runs pay one branch per call.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// What was called, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the trace origin.
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u64>,
    /// The request (or run) the span served; spans of one request share it.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A handle on an open span, closed with [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    request: u64,
}

/// Records spans for one thread.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, spans: Vec::new(), stack: Vec::new() }
    }

    /// Open a span under the innermost open span of this tracer.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let parent = self.stack.last().copied();
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.stack.push(id);
        Some(Open { id, name, start_ns: now_ns(), parent, request })
    }

    /// Close a span opened by [`enter`](Self::enter); returns its id.
    pub fn exit(&mut self, open: Option<Open>) -> Option<u64> {
        let open = open?;
        let end_ns = now_ns();
        if let Some(pos) = self.stack.iter().rposition(|&id| id == open.id) {
            self.stack.truncate(pos);
        }
        self.spans.push(Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            request: open.request,
        });
        Some(open.id)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, request);
        let result = f();
        self.exit(open);
        result
    }

    /// Move every span of `other` into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Every closed span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name`, in nanoseconds.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Write every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\
                 \"request\":{},\"self_ns\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.request,
                self_ns(s, kids.iter().copied())
            )?;
        }
        out.flush()
    }
}

/// `span`'s duration minus the union of `children` clipped to it.
fn self_ns(span: &Span, children: impl Iterator<Item = (u64, u64)>) -> u64 {
    let clipped = children.map(|(a, b)| (a.max(span.start_ns), b.min(span.end_ns)));
    span.duration_ns().saturating_sub(union_ns(clipped))
}

/// Length of the union of half-open intervals.
fn union_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.filter(|(a, b)| b > a).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in v {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("root", 7);
        t.span("child", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.span("child", 7, || std::thread::sleep(std::time::Duration::from_millis(2)));
        let root_id = t.exit(root).expect("enabled");
        let children: Vec<_> = t.spans().iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|c| c.parent == Some(root_id) && c.request == 7));
        let root_span = t.spans().iter().find(|s| s.id == root_id).expect("root");
        let kids = children.iter().map(|c| (c.start_ns, c.end_ns));
        assert!(self_ns(root_span, kids) < root_span.duration_ns() / 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 1, || 5);
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns([(0, 10), (5, 15), (20, 25)].into_iter()), 20);
    }
}
