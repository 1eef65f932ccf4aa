//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! its name, its start and end on the host clock, and the span that was open
//! when it began. Spans are kept in memory while the benchmark runs and
//! written out once at the end ([`Tracer::write_chrome_trace`]), so the
//! only cost inside a traced pass is two `Instant` reads and a `Vec` push.
//!
//! Recording can be switched off between passes: a switched-off tracer
//! neither reads the clock nor allocates.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer entry point, e.g. `soc.offload.device`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time of the span in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans while enabled.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that starts recording iff `recording`.
    pub fn new(recording: bool) -> Self {
        Self {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off. Must not be called with spans open.
    pub fn set_recording(&mut self, recording: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = recording;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.recording {
            return;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time per span name, in ms, for every root span named `root`:
    /// one map per root, in recording order. A span's self time is its
    /// duration minus the durations of its direct children, so the self
    /// times under one root add up to the root's duration exactly.
    pub fn self_ms_by_root(&self, root: &str) -> Vec<BTreeMap<&'static str, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut root_of = vec![usize::MAX; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
                root_of[i] = root_of[p];
            } else {
                root_of[i] = i;
            }
        }
        let mut per_root: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let r = root_of[i];
            if self.spans[r].name != root {
                continue;
            }
            let self_ns = span.duration_ns().saturating_sub(child_ns[i]);
            *per_root
                .entry(r)
                .or_default()
                .entry(span.name)
                .or_insert(0.0) += self_ns as f64 / 1e6;
        }
        per_root.into_values().collect()
    }

    /// Writes the spans as a Chrome trace-event file (`ph: "X"` complete
    /// events, µs timestamps, span index and parent index in `args`), which
    /// trace viewers such as Perfetto open directly.
    pub fn write_chrome_trace(&self, path: &Path, meta: &[(&str, String)]) -> io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}{}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("],\n\"metadata\": {");
        let fields: Vec<String> = meta
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\": \"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        out.push_str(&fields.join(", "));
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(true);
        t.enter("pass");
        t.call("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.enter("op");
        t.call("b", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit();
        t.exit();
        let roots = t.self_ms_by_root("pass");
        assert_eq!(roots.len(), 1);
        let total: f64 = roots[0].values().sum();
        let root_ms = t.spans()[0].duration_ns() as f64 / 1e6;
        assert!((total - root_ms).abs() < 1e-6, "{total} vs {root_ms}");
        assert!(roots[0]["a"] >= 2.0 && roots[0]["b"] >= 1.0);
        assert_eq!(t.spans()[3].parent, Some(2));
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.call("x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
