//! In-memory span recorder for the traced pass.
//!
//! A span is a name, a start, an end and the span that caused it. Spans are
//! kept in memory while the workload runs and written out as JSON (through
//! `loco::json`) when the benchmark ends. A layer's self time is a span's
//! duration minus the part of it that its child spans cover.

use loco::json::Value;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// What the span worked on (a scenario label, a fabric run); may be empty.
    pub label: String,
    /// Shared by every span of one operation (a scenario, a fabric run).
    pub op: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. Workers of a parallel pass each own
/// a tracer with the same origin and are merged afterwards.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        label: &str,
        op: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            label: label.to_string(),
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Appends another tracer's spans (re-basing its parent links).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent_base = self.open.last().copied();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(parent_base);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, indexed like [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Summed self time, in seconds, of every span called `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        let selfs = self.self_times_ns();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum();
        ns as f64 * 1e-9
    }

    /// Durations, in seconds, of every span called `name`, in record order.
    pub fn durations_secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        let selfs = self.self_times_ns();
        let num = |v: u64| Value::Number(v as f64);
        Value::Array(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_ns)| {
                    Value::Object(vec![
                        ("name".into(), Value::String(s.name.into())),
                        ("label".into(), Value::String(s.label.clone())),
                        ("op".into(), num(s.op as u64)),
                        ("start_ns".into(), num(s.start_ns)),
                        ("end_ns".into(), num(s.end_ns)),
                        ("self_ns".into(), num(self_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| num(p as u64)),
                        ),
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
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        t.span("outer", "", 0, |t| {
            t.span("inner", "", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let selfs = t.self_times_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(selfs[0] + selfs[1], t.spans()[0].dur_ns());
        assert!(selfs[1] >= 2_000_000);
    }
}
