//! Spans recorded from outside the program, around the calls this
//! harness makes into each layer's public functions.
//!
//! A span has a name (`layer.function`), a start and an end, the span
//! that caused it, and the identifier of the request it belongs to.
//! Spans stay in memory while the run measures and are written to
//! `perf/out/<workload>.trace.json` when it ends. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Content;

use crate::stats;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Threads of a run share `epoch`, so
/// their spans merge onto one time axis.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        // Clock reads sit innermost, so the span covers the call and
        // none of the bookkeeping above.
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = end;
        out
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, keeping its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span (children that overlap
/// each other, or stick out of the parent, are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.nanos() - covered
        })
        .collect()
}

/// Median duration and median self time in microseconds, and the span
/// count, per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.nanos() as f64 / 1e3);
        e.1.push(own as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (mut total, mut own))| {
            stats::sort(&mut total);
            stats::sort(&mut own);
            let n = total.len();
            (
                name,
                (stats::median_sorted(&total), stats::median_sorted(&own), n),
            )
        })
        .collect()
}

/// Median duration in microseconds of the spans called `name` (0 when
/// there are none).
pub fn p50_us(spans: &[Span], name: &str) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.nanos() as f64 / 1e3)
        .collect();
    stats::sort(&mut v);
    stats::median_sorted(&v)
}

/// The trace file: every span, then the per-name summary.
pub fn to_json(spans: &[Span]) -> Content {
    let int = |v: u64| Content::UInt(v);
    let span_rows = spans
        .iter()
        .map(|s| {
            Content::Map(vec![
                ("name".into(), Content::Str(s.name.into())),
                ("start_ns".into(), int(s.start_ns)),
                ("end_ns".into(), int(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Content::Null, |p| int(p as u64)),
                ),
                ("request".into(), int(s.request)),
            ])
        })
        .collect();
    let summary = summarize(spans)
        .into_iter()
        .map(|(name, (total, own, n))| {
            (
                name.to_string(),
                Content::Map(vec![
                    ("count".into(), int(n as u64)),
                    ("p50_us".into(), Content::Float(total)),
                    ("self_p50_us".into(), Content::Float(own)),
                ]),
            )
        })
        .collect();
    Content::Map(vec![
        ("spans".into(), Content::Seq(span_rows)),
        ("summary".into(), Content::Map(summary)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(0, 100, None),    // root: children cover [10,60) and [70,80)
            span(10, 40, Some(0)), // has its own child
            span(30, 60, Some(0)), // overlaps the previous sibling
            span(70, 80, Some(0)),
            span(15, 25, Some(1)), // grandchild: counts against span 1 only
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 10]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(50, 120, Some(0)), // starts early (another thread's clock read)
            span(190, 260, Some(0)), // ends late
            span(300, 400, Some(0)), // wholly outside: ignored
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 10);
    }

    #[test]
    fn tracer_links_parents_and_merges_threads() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        let mut b = Tracer::new(epoch);
        b.span("outer", 8, |t| t.span("inner", 8, |_| ()));
        a.absorb(b);
        let parents: Vec<_> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None, Some(3)]);
        assert!(a.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let summary = summarize(a.spans());
        assert_eq!(summary["outer"].2, 2);
        assert_eq!(summary["inner"].2, 3);
        // The outer span's self time excludes its children.
        assert!(summary["outer"].1 <= summary["outer"].0);
    }
}
