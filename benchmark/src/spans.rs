//! Spans around the benchmark's own calls into the repository's layers.
//!
//! A [`Tracer`] that is off costs one branch per call site, so the timed
//! passes run the same code as the traced pass. Spans stay in memory until
//! the run ends. The benchmark is single-threaded at every call site, so
//! spans nest strictly and a span's parent is whatever was open when it
//! began.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was taken at, e.g. `optimizer.optimize`.
    pub name: &'static str,
    /// Part of the run the span was taken in: `setup`, `primary` or `alt`.
    pub section: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The benchmark operation the span belongs to.
    pub op: u32,
    /// Work done inside the span, in the layer's own unit.
    pub count: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
    section: &'static str,
    counters: BTreeMap<(&'static str, &'static str), u64>,
}

/// Records spans and exact counts, or nothing at all when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Enter a part of the run; spans and counts taken from here on carry
    /// its name.
    pub fn enter(&self, section: &'static str) {
        self.inner.borrow_mut().section = section;
    }

    /// Start the next benchmark operation: spans opened from here on carry
    /// its identifier.
    pub fn next_op(&self) {
        if self.on {
            self.inner.borrow_mut().op += 1;
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, count: u64) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len() as u32;
        let parent = inner.open.last().copied();
        let (op, section) = (inner.op, inner.section);
        inner.open.push(index);
        // Read the clock last, so the bookkeeping above lands outside the
        // span.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            name,
            section,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            count,
        });
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name, count);
        f()
    }

    /// Add to an exact count taken at a layer boundary.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on {
            let mut inner = self.inner.borrow_mut();
            let key = (inner.section, name);
            *inner.counters.entry(key).or_insert(0) += n;
        }
    }

    /// The exact count `name` reached in `section` (0 if never counted).
    pub fn counter(&self, section: &'static str, name: &'static str) -> u64 {
        let inner = self.inner.borrow();
        inner.counters.get(&(section, name)).copied().unwrap_or(0)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }
}

impl SpanGuard<'_> {
    /// Set the span's work count once it is known.
    pub fn set_count(&self, count: u64) {
        if let Some(index) = self.index {
            self.tracer.inner.borrow_mut().spans[index as usize].count = count;
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[index as usize].end_ns = end_ns;
            let closed = inner.open.pop();
            debug_assert_eq!(closed, Some(index), "spans must nest");
        }
    }
}

/// Totals of every span that shares a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Σ (span − the part of it its direct children cover).
    pub self_ns: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ work counts.
    pub count: u64,
    /// Number of spans.
    pub calls: u64,
}

/// Self time, total time, work and calls per `(section, span name)`.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), LayerTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent as usize] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: BTreeMap<(&'static str, &'static str), LayerTotals> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        let duration = span.end_ns - span.start_ns;
        let entry = totals.entry((span.section, span.name)).or_default();
        entry.self_ns += duration.saturating_sub(covered);
        entry.total_ns += duration;
        entry.count += span.count;
        entry.calls += 1;
    }
    totals
}

/// The spans as a JSON array, one object per span.
pub fn spans_to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("section", Json::str(s.section)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("op", Json::Num(f64::from(s.op))),
                    ("count", Json::Num(s.count as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            section: "primary",
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            count: 1,
        }
    }

    fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
        layer_totals(spans)
            .into_iter()
            .map(|((_, name), totals)| (name, totals))
            .collect()
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) ── a [10,40) ── a1 [15,25)
        //            └─ b [50,90)
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        let totals = by_name(&spans);
        // Only direct children count against a parent: 100 − 30 − 40.
        assert_eq!(totals["op"].self_ns, 30);
        assert_eq!(totals["a"].self_ns, 20);
        assert_eq!(totals["a1"].self_ns, 10);
        assert_eq!(totals["b"].self_ns, 40);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![
            span("op", 0, 10, None),
            span("op", 20, 50, None),
            span("x", 25, 30, Some(1)),
        ];
        let totals = by_name(&spans);
        assert_eq!(totals["op"].total_ns, 40);
        assert_eq!(totals["op"].self_ns, 35);
        assert_eq!((totals["op"].calls, totals["op"].count), (2, 2));
    }

    #[test]
    fn guards_record_parents_ops_and_counts() {
        let tracer = Tracer::on();
        tracer.next_op();
        {
            let outer = tracer.span("outer", 0);
            tracer.time("inner", 3, || ());
            tracer.time("inner", 4, || ());
            outer.set_count(7);
        }
        tracer.next_op();
        tracer.enter("alt");
        tracer.time("outer", 1, || ());
        tracer.count("things", 2);
        tracer.count("things", 3);

        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].parent, spans[0].op, spans[0].count), (None, 1, 7));
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert_eq!((spans[3].parent, spans[3].op), (None, 2));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert_eq!((spans[0].section, spans[3].section), ("", "alt"));
        assert_eq!(tracer.counter("alt", "things"), 5);
        assert_eq!(tracer.counter("primary", "things"), 0);
        assert_eq!(layer_totals(&spans)[&("alt", "outer")].calls, 1);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let tracer = Tracer::off();
        tracer.next_op();
        let guard = tracer.span("x", 1);
        guard.set_count(9);
        drop(guard);
        tracer.count("things", 1);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.counter("", "things"), 0);
    }
}
