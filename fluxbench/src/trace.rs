//! Harness-side spans around the calls into each layer.
//!
//! Spans live in memory and are written out when the benchmark ends. The
//! product is not instrumented: every span here brackets one call made
//! from `run.rs`, so the tracer's whole cost is two clock reads and a
//! `Vec` push per layer call (reported as `trace_overhead_pct`).

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// `workload/sample`: shared by every span of one ladder round.
    pub id: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Tracer::close`] ends it. Open/close rather than a
    /// closure so a parent can stay open across its children's calls.
    pub fn open(&mut self, name: &'static str, id: &str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Ends the span and returns its duration in seconds.
    pub fn close(&mut self, span: usize) -> f64 {
        self.spans[span].end_ns = self.now_ns();
        self.spans[span].seconds()
    }

    /// Times `f` as a child of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        id: &str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, id, Some(parent));
        let value = f();
        (value, self.close(span))
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("span", Json::Int(i as u64)),
                        ("name", Json::str(s.name)),
                        ("id", Json::str(&s.id)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("start_ns", Json::Int(s.start_ns)),
                        ("end_ns", Json::Int(s.end_ns)),
                        ("self_ns", Json::Int(self_ns(&self.spans, i))),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part its child spans cover.
pub fn self_ns(spans: &[Span], span: usize) -> u64 {
    let own = spans[span].end_ns - spans[span].start_ns;
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(span))
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    own.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id: "w/0".into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 50, 90),
            span(Some(1), 15, 20), // grandchild: counts against span 1 only
        ];
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 1), 25);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 3), 5);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::new();
        let round = t.open("round", "w/0", None);
        let ((), inner) = t.span("layer", "w/0", round, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = t.close(round);
        assert!(inner >= 0.002 && outer >= inner);
        assert_eq!(t.spans[1].parent, Some(round));
        assert!(
            t.spans[0].start_ns <= t.spans[1].start_ns && t.spans[1].end_ns <= t.spans[0].end_ns
        );
    }
}
