//! In-memory spans recorded around the public calls into each layer
//! (only in `--trace 1` runs), written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
    /// Time covered by direct children (filled in as they close).
    child_ns: u64,
}

/// A single-threaded span recorder. Spans nest: the open span stack
/// gives each new span its parent, and every span carries the id of the
/// request that caused it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn begin(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
            child_ns: 0,
        };
        self.open.push(self.spans.len() as u32);
        self.spans.push(span);
        // Stamp last so the bookkeeping above is not charged to the span.
        let now = self.now_ns();
        if let Some(s) = self.spans.last_mut() {
            s.start_ns = now;
        }
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        let now = self.now_ns();
        let Some(idx) = self.open.pop() else {
            return 0;
        };
        let span = &mut self.spans[idx as usize];
        span.end_ns = now;
        let dur = now - span.start_ns;
        let parent = span.parent;
        if parent != NO_PARENT {
            self.spans[parent as usize].child_ns += dur;
        }
        dur
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations (ns) of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Self times (ns) of every span called `name`, in recording order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(s.child_ns) as f64)
            .collect()
    }

    /// Write every span as a tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.next_request();
        t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let (outer_self, outer_total) = (t.self_times("outer"), t.durations("outer"));
        assert_eq!(outer_total.len(), 1);
        assert!(outer_total[0] >= 2e6);
        assert!(outer_self[0] < outer_total[0] - 2e6 + 1.0);
        assert_eq!(t.self_times("inner"), t.durations("inner"));
    }
}
