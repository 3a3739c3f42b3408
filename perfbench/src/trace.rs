//! The benchmark's span recorder. Spans are recorded from the
//! benchmark's own code around calls into each layer's public
//! functions; they are kept in memory and summarised when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    /// The item (circuit or request) the span belongs to.
    item: usize,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// Spans plus counters recorded at the same layer boundaries.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    item: usize,
    counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            item: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Starts attributing spans to item `item`.
    pub fn item(&mut self, item: usize) {
        self.item = item;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            item: self.item,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Per span name: (inclusive seconds, self seconds) over the items
    /// `keep` selects. A span's self time is its duration minus the part
    /// its child spans cover.
    pub fn times(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_cover = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_cover[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, cover) in self.spans.iter().zip(&child_cover) {
            if !keep(s.item) {
                continue;
            }
            let total = (s.end - s.start).as_secs_f64();
            let e = out.entry(s.name).or_insert((0.0, 0.0));
            e.0 += total;
            e.1 += total - cover.as_secs_f64();
        }
        out
    }
}

/// Self seconds of span `name` in a [`Trace::times`] summary.
pub fn self_s(times: &BTreeMap<&'static str, (f64, f64)>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |t| t.1)
}

/// Inclusive seconds of span `name` in a [`Trace::times`] summary.
pub fn total_s(times: &BTreeMap<&'static str, (f64, f64)>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |t| t.0)
}
