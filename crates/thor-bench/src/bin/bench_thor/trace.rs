//! Spans recorded in memory around calls into each layer's public
//! functions, and the self-time arithmetic over them.
//!
//! A span is `{name, start, end, parent}`. Names starting with `op.` are
//! the benchmark's own operations (a repetition, a request, a document);
//! every other name is a layer, named after the module it times. A
//! layer's self time is its duration minus the part its child spans
//! cover, and the trace covers the run when the layers' self times add
//! up to the wall-clock of the root spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or operation name.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// A span recorder. A disabled tracer records nothing, so the same code
/// runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Total self time, nanoseconds.
    pub ns: u64,
    /// Spans of this name.
    pub calls: u64,
}

impl SelfTime {
    /// Mean self time per call in microseconds (0 without calls).
    pub fn us_per_call(&self) -> f64 {
        per(self.ns as f64 / 1e3, self.calls as f64)
    }

    /// Mean self time per call in milliseconds (0 without calls).
    pub fn ms_per_call(&self) -> f64 {
        per(self.ns as f64 / 1e6, self.calls as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether a span name is a layer (as opposed to a benchmark operation).
pub fn is_layer(name: &str) -> bool {
    !name.starts_with("op.")
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in
    /// nanoseconds (0 when disabled).
    pub fn exit(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = self.now();
        let i = self.open.pop().expect("exit without a matching enter");
        let span = &mut self.spans[i];
        span.end = end;
        end - span.start
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.ns += (s.end - s.start).saturating_sub(children);
            entry.calls += 1;
        }
        out
    }

    /// Wall-clock the trace spans: the summed durations of root spans,
    /// in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Σ layer self time ÷ wall-clock of the root spans.
    pub fn coverage(&self) -> f64 {
        let layers: u64 = self
            .self_times()
            .iter()
            .filter(|(name, _)| is_layer(name))
            .map(|(_, t)| t.ns)
            .sum();
        per(layers as f64, self.wall_ns() as f64)
    }

    /// Write every span as JSON: `{"names":[…],"spans":[[name, start,
    /// end, parent],…]}` with `name` an index into `names` and `parent`
    /// a span index or `null`.
    pub fn write_json(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut names: Vec<&'static str> = Vec::new();
        let mut index: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &self.spans {
            index.entry(s.name).or_insert_with(|| {
                names.push(s.name);
                names.len() - 1
            });
        }
        let mut out = String::with_capacity(64 + self.spans.len() * 32);
        out.push('{');
        out.push_str(header);
        out.push_str(",\"names\":[");
        for (i, n) in names.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{n}\"");
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}[{},{},{},{parent}]",
                index[s.name], s.start, s.end
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_layers() {
        let mut t = Tracer::new();
        t.enter("op.rep");
        t.span("segment", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.enter("op.doc");
        t.span("match", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        t.exit();
        t.exit();
        let times = t.self_times();
        assert_eq!(times["segment"].calls, 1);
        assert!(times["segment"].ns >= 4_000_000);
        let rep = times["op.rep"].ns + times["op.doc"].ns;
        let wall = t.wall_ns();
        assert_eq!(rep + times["segment"].ns + times["match"].ns, wall);
        assert!(
            t.coverage() > 0.9 && t.coverage() <= 1.0,
            "{}",
            t.coverage()
        );

        let mut off = Tracer::off();
        assert_eq!(off.span("segment", || 7), 7);
        assert_eq!(off.wall_ns(), 0);
        assert_eq!(off.coverage(), 0.0);
    }
}
