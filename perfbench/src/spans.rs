//! Outside-in spans: the traced run wraps each call into a layer's
//! public functions in a span (name, start, end, parent), keeps the spans
//! in memory and writes them out when the benchmark ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Span names that are not layers: they group the layer spans of one
/// pass, obligation or batch, and their self time is harness glue.
const GROUPS: &[&str] = &["pass", "obligation", "batch"];

pub struct Span {
    pub name: &'static str,
    pub label: String,
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
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, label: impl Into<String>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            label: label.into(),
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, label);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// Summed self time per layer name, over the spans `keep` selects.
    pub fn layer_totals(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if !GROUPS.contains(&s.name) && keep(i) {
                *out.entry(s.name).or_insert(Duration::ZERO) += t;
            }
        }
        out
    }

    /// Whether span `i` lies inside span `ancestor` (or is it).
    pub fn within(&self, mut i: usize, ancestor: usize) -> bool {
        loop {
            if i == ancestor {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Share of span `root`'s duration covered by layer self time.
    pub fn coverage(&self, root: usize) -> f64 {
        let total: Duration = self.layer_totals(|i| self.within(i, root)).values().sum();
        total.as_secs_f64() / self.spans[root].duration().as_secs_f64().max(1e-9)
    }

    /// Writes the spans as JSON lines (times in microseconds since the
    /// tracer started).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"label\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.label,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_groups() {
        let mut t = Tracer::new();
        let root = t.open("pass", "");
        t.time("bmc", "0", || std::thread::sleep(Duration::from_millis(2)));
        t.time("replay", "", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        t.close(root);
        let totals = t.layer_totals(|_| true);
        assert!(!totals.contains_key("pass"));
        assert!(totals["bmc"] >= Duration::from_millis(2));
        let cov = t.coverage(root);
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
    }
}
