//! The traced run's span recorder.
//!
//! A span is (name, start, end, parent). The benchmark opens one around
//! each call it makes into a layer's public function and can also record
//! spans measured elsewhere (the per-pass durations a compile job already
//! returns). Spans stay in memory and are written out once, when the run
//! ends. A span's self time is its duration minus the part of it that its
//! child spans cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    names: Vec<String>,
    ids: HashMap<String, u16>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            names: Vec::new(),
            ids: HashMap::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn name_id(&mut self, name: &str) -> u16 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u16::try_from(self.names.len()).expect("fewer than 65536 span names");
        self.names.push(name.to_string());
        self.ids.insert(name.to_string(), id);
        id
    }

    /// Nanoseconds since the tracer started.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &str) -> u32 {
        let name = self.name_id(name);
        let id = self.spans.len() as u32;
        let start_ns = self.ns_at(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let end_ns = self.ns_at(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished span measured elsewhere; returns its id.
    pub fn record(&mut self, name: &str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> u32 {
        let name = self.name_id(name);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        match self.ids.get(name) {
            None => 0,
            Some(&id) => self.spans.iter().filter(|s| s.name == id).count(),
        }
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        let Some(&id) = self.ids.get(name) else {
            return 0.0;
        };
        let total: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == id)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        total as f64 / 1e6
    }

    /// Summed self time of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let Some(&id) = self.ids.get(name) else {
            return 0.0;
        };
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                if self.spans[parent as usize].name == id {
                    children
                        .entry(parent)
                        .or_default()
                        .push((span.start_ns, span.end_ns));
                }
            }
        }
        let mut total = 0u64;
        for (index, span) in self.spans.iter().enumerate() {
            if span.name != id {
                continue;
            }
            let own = span.end_ns - span.start_ns;
            let covered = children
                .get_mut(&(index as u32))
                .map_or(0, |intervals| union_length(intervals));
            total += own.saturating_sub(covered);
        }
        total as f64 / 1e6
    }

    /// Writes every span as a tab-separated line: id, parent (or -),
    /// name, start ns, end ns.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                self.names[span.name as usize], span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total length covered by a set of possibly overlapping intervals.
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let parent = t.record("job", None, 0, 100);
        t.record("pass", Some(parent), 10, 40);
        t.record("pass", Some(parent), 30, 60);
        t.record("pass", Some(parent), 80, 90);
        assert_eq!(t.self_ms("job"), 40.0 / 1e6);
        assert_eq!(t.self_ms("pass"), 70.0 / 1e6);
        assert_eq!(t.count("pass"), 3);
        assert_eq!(t.self_ms("absent"), 0.0);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        t.span("inner", || std::hint::black_box(1 + 1));
        t.close(outer);
        assert_eq!(t.spans[1].parent, Some(outer));
        assert!(t.self_ms("outer") <= t.self_ms("outer") + t.self_ms("inner"));
    }
}
