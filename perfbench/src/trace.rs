//! In-memory span and counter recorder.
//!
//! Spans wrap the benchmark's own calls into a layer's public function:
//! name, start, end, the enclosing span, and the fleet session they
//! belong to. Calls made once per simulated quantum or per decision
//! (`Board::step`, `Governor::decide_point`) are too frequent for one
//! span each; they go into counters holding a call count and busy time.
//! A counter's busy time is charged to the innermost open span as child
//! time, so a span's self time excludes both its child spans and the
//! counted calls made inside it.
//!
//! Nothing is written while the benchmark measures: [`Tracer::to_jsonl`]
//! dumps everything at the end. A disabled tracer records nothing and
//! [`Tracer::time`] reduces to calling the closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `soc.restore`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Time covered by child spans and counted calls inside this span.
    pub child_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Fleet session index, for spans inside one session.
    pub session: Option<u64>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Wall time not covered by children or counted calls.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// Call count plus busy time of a per-quantum or per-decision call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Calls made.
    pub calls: u64,
    /// Total time inside the calls.
    pub busy_ns: u64,
    /// Whether the busy time was charged to the enclosing spans (false
    /// for a breakdown of time another counter holds).
    pub charged: bool,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Spans recorded.
    pub count: u64,
    /// Summed wall time.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// The recorder. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, Counter>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Whether the tracer records.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`]. Spans nest in the
    /// order they are opened.
    pub fn open(&mut self, name: &'static str, session: Option<u64>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            child_ns: 0,
            parent: self.open.last().copied(),
            session,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an unbalanced open/close in the
    /// benchmark itself).
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("close without a matching open");
        self.spans[index].end_ns = end_ns;
        let duration = self.spans[index].duration_ns();
        if let Some(parent) = self.spans[index].parent {
            self.spans[parent].child_ns += duration;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        session: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.open(name, session);
        let out = f();
        self.close();
        out
    }

    /// Runs `f` as one counted call of `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let busy = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.add(name, 1, busy);
        out
    }

    /// Adds `calls` calls taking `busy_ns` in total to counter `name`.
    pub fn add(&mut self, name: &'static str, calls: u64, busy_ns: u64) {
        if !self.enabled {
            return;
        }
        let counter = self.counters.entry(name).or_default();
        counter.calls += calls;
        counter.busy_ns += busy_ns;
        counter.charged = true;
        if let Some(&parent) = self.open.last() {
            self.spans[parent].child_ns += busy_ns;
        }
    }

    /// Adds to counter `name` without charging the enclosing span: for a
    /// breakdown of time another counter already charged.
    pub fn add_detail(&mut self, name: &'static str, calls: u64, busy_ns: u64) {
        if !self.enabled {
            return;
        }
        let counter = self.counters.entry(name).or_default();
        counter.calls += calls;
        counter.busy_ns += busy_ns;
    }

    /// Counter `name`, zero when never touched.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.get(name).copied().unwrap_or_default()
    }

    /// Totals of every span named `name`.
    pub fn span_total(&self, name: &str) -> SpanTotal {
        let mut total = SpanTotal::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            total.count += 1;
            total.total_ns += span.duration_ns();
            total.self_ns += span.self_ns();
        }
        total
    }

    /// Every span and counter as JSON lines: spans first, in opening
    /// order, then counters by name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for span in &self.spans {
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"session\":{}}}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.self_ns(),
                opt(span.parent.map(|p| p as u64)),
                opt(span.session),
            );
        }
        for (name, counter) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":\"{}\",\"calls\":{},\"busy_ns\":{},\"charged\":{}}}",
                name, counter.calls, counter.busy_ns, counter.charged
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_counted_calls() {
        let mut t = Tracer::on();
        t.open("outer", None);
        t.span("inner", Some(3), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.add("step", 10, 1_000_000);
        t.close();
        let outer = &t.spans[0];
        let inner = &t.spans[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.session, Some(3));
        assert_eq!(outer.child_ns, inner.duration_ns() + 1_000_000);
        assert_eq!(
            outer.self_ns(),
            outer.duration_ns().saturating_sub(outer.child_ns)
        );
        assert_eq!(
            t.counter("step"),
            Counter {
                calls: 10,
                busy_ns: 1_000_000,
                charged: true
            }
        );
        assert_eq!(t.span_total("inner").count, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open("outer", None);
        assert_eq!(t.time("step", || 7), 7);
        t.close();
        assert!(t.spans.is_empty());
        assert_eq!(t.counter("step"), Counter::default());
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn jsonl_lists_spans_then_counters() {
        let mut t = Tracer::on();
        t.span("a", None, || ());
        t.add("c", 2, 5);
        t.add_detail("d", 1, 5);
        let text = t.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"kind\":\"span\",\"name\":\"a\""));
        assert_eq!(
            lines[1],
            "{\"kind\":\"counter\",\"name\":\"c\",\"calls\":2,\"busy_ns\":5,\"charged\":true}"
        );
        assert!(lines[2].ends_with("\"charged\":false}"));
    }
}
