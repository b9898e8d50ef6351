//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with the span that caused it as parent.
//! Spans are recorded only around the benchmark's own calls into the
//! repository's crates, kept in memory, and written out once the run
//! ends. A layer's self time is its spans' durations minus the part of
//! each interval that child spans cover; the root's self time is the
//! part of the traced run that no layer explains.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span, used to parent child spans.
pub type SpanId = u32;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<SpanId>,
    /// Layer name.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Records spans when on; every call is a no-op when off, so the
/// untraced run pays nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; the span is recorded when the guard drops.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    open: Option<(SpanId, Option<SpanId>, &'static str, u64)>,
}

impl Guard<'_> {
    /// The span's id, to parent child spans (`None` when tracing is off).
    pub fn id(&self) -> Option<SpanId> {
        self.open.map(|(id, ..)| id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_ns)) = self.open.take() {
            let end_ns = self.tracer.now_ns();
            self.tracer
                .spans
                .lock()
                .expect("span list poisoned")
                .push(Span {
                    id,
                    parent,
                    name,
                    start_ns,
                    end_ns,
                });
        }
    }
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under `parent`.
    pub fn enter(&self, name: &'static str, parent: Option<SpanId>) -> Guard<'_> {
        let open = self.on.then(|| {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            (id, parent, name, self.now_ns())
        });
        Guard { tracer: self, open }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name, parent);
        f()
    }

    /// The spans recorded so far, in the order they finished.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time in seconds of every span, summed by layer name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        #[allow(clippy::cast_precision_loss)]
        let secs = own as f64 / 1e9;
        *out.entry(s.name).or_insert(0.0) += secs;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`. Children of
/// one span may overlap when they run on different threads.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Writes the spans as one JSON document.
///
/// # Errors
///
/// Propagates the file write failure.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{}",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, "root", 0, 100),
            // Two overlapping children (two threads) cover 10..60.
            span(1, Some(0), "a", 10, 50),
            span(2, Some(0), "a", 20, 60),
            span(3, Some(1), "b", 15, 25),
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 50e-9).abs() < 1e-15);
        assert!((t["a"] - (30e-9 + 40e-9)).abs() < 1e-15);
        assert!((t["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.enter("x", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(t.spans().is_empty());
        let on = Tracer::new(true);
        let root = on.enter("root", None);
        on.time("child", root.id(), || ());
        drop(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }
}
