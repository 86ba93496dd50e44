//! In-memory span recording for the traced run, and per-layer self time.
//!
//! The benchmark opens a span around each call it makes into a crate's
//! public API; spans nest on one thread, are kept in a vector and written
//! out once when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span; times are offsets from the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, job: usize) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) -> Duration {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.duration()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, job: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, job);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(Duration::ZERO) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 90),
            // A grandchild counts against its parent `b`, not against `job`.
            span("c", Some(2), 50, 70),
        ];
        let t = self_times(&spans);
        let ms = |d: Duration| d.as_millis();
        assert_eq!(
            t.iter().map(|&d| ms(d)).collect::<Vec<_>>(),
            [30, 20, 30, 20]
        );
        let total: Duration = t.iter().sum();
        assert_eq!(total, spans[0].duration(), "self times partition the root");
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("a", Some(0), 30, 60),
            span("a", Some(0), 90, 120),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["job"], Duration::from_millis(100 - 50 - 10));
        assert_eq!(by_name["a"], Duration::from_millis(40 + 30 + 30));
    }

    #[test]
    fn tracer_nests_and_sums() {
        let mut tr = Tracer::new();
        let root = tr.open("job", 3);
        let x = tr.span("leaf", 3, || 41 + 1);
        tr.close(root);
        assert_eq!(x, 42);
        let s = tr.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].job, 3);
        let by_name = self_time_by_name(s);
        assert_eq!(by_name["job"] + by_name["leaf"], s[0].duration());
    }
}
