//! Wall-clock spans around the benchmark's calls into `World`.
//!
//! Every phase is timed in both modes, because the end-to-end metrics are
//! made of those times. Tracing only adds the record: with it on, each
//! span's name, start, end, parent and operation id stay in memory until
//! the run ends, and per-span self time (duration minus the part its
//! children cover) attributes the run's wall time to phases.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Value;

/// One closed span, in nanoseconds since the recorder started.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// A span that has been opened and must be handed back to
/// [`Recorder::close`].
#[must_use]
pub struct Open {
    start_ns: u64,
    idx: Option<usize>,
}

/// Times phases and, when tracing, records them as spans.
pub struct Recorder {
    origin: Instant,
    tracing: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(tracing: bool) -> Self {
        Recorder {
            // The benchmark measures wall time by design.
            origin: Instant::now(), // cruz-lint: allow(wall-clock)
            tracing,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Starts timing a phase; when tracing, the span's parent is the
    /// innermost span still open.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        let idx = self.tracing.then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                op: 0,
            });
            let i = self.spans.len() - 1;
            self.stack.push(i);
            i
        });
        Open { start_ns, idx }
    }

    /// Ends a phase and returns its wall duration in nanoseconds.
    pub fn close(&mut self, open: Open, op: u64) -> u64 {
        let end_ns = self.now_ns();
        if let Some(i) = open.idx {
            let s = &mut self.spans[i];
            s.end_ns = end_ns;
            s.op = op;
            self.stack.retain(|&j| j != i);
        }
        end_ns - open.start_ns
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op", Value::Num(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_untraced_records_nothing() {
        let mut r = Recorder::new(true);
        let outer = r.open("cycle");
        let inner = r.open("ckpt");
        let inner_ns = r.close(inner, 7);
        let outer_ns = r.close(outer, 0);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[1].op, 7);
        let st = r.self_time_by_name();
        assert_eq!(st["ckpt"], inner_ns);
        assert_eq!(st["cycle"], outer_ns - inner_ns);

        let mut off = Recorder::new(false);
        let o = off.open("cycle");
        let _ = off.close(o, 0);
        assert!(off.spans().is_empty());
    }
}
