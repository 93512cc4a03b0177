//! In-memory span recorder for traced runs.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer. A span has a name, a start and end (ns since the
//! recorder was created), a parent, and the id of the trial (or pass)
//! it belongs to. Calls made thousands of times per trial (adversary
//! plans, for one) are not spanned one by one: they are folded into one
//! aggregate child span per trial carrying a call count and a total.
//! Spans stay in memory and are written out once, at the end of the run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::util::quote;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trial: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, trial: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            trial,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trial: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, trial, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records `calls` calls totalling `ns` as one aggregate child of
    /// `parent`, laid at the parent's start.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, calls: u64, ns: u64) {
        let p = &self.spans[parent];
        let span = Span {
            name,
            trial: p.trial,
            parent: Some(parent),
            start_ns: p.start_ns,
            end_ns: p.start_ns + ns,
            calls,
        };
        self.spans.push(span);
    }

    /// A span's duration minus the time its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ns)
            .sum();
        self.spans[id].ns().saturating_sub(children)
    }

    /// Sum of self times of spans called `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// Writes every span as JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"trial\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"self_ns\": {}}}{}",
                quote(s.name),
                s.trial,
                s.start_ns,
                s.end_ns,
                s.calls,
                self.self_ns(i),
                if i + 1 == self.spans.len() { "" } else { "," }
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
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Tracer::default();
        let root = t.begin("trial", 0, None);
        t.span("child", 0, Some(root), || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.end(root);
        t.spans[root].end_ns = t.spans[root].start_ns + 10_000_000;
        t.aggregate("calls", root, 5_000, 1_000_000);
        let child_ns = t.spans[1].ns();
        assert!(child_ns >= 2_000_000);
        assert_eq!(t.self_ns(root), 10_000_000 - child_ns - 1_000_000);
        assert_eq!(t.spans[2].calls, 5_000);
        assert_eq!(t.total_self_ns("calls"), 1_000_000);
        assert_eq!(t.total_self_ns("trial"), t.self_ns(root));
    }
}
