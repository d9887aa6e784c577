//! In-memory spans recorded around the benchmark's calls into the library.
//!
//! A span is named `<layer>.<what>` after the workspace module it times
//! (`pg.build_bf2`, `serving.publish`, ...); timed operations open an
//! `op.<name>` parent span around their layer calls, and every span carries
//! the id of the operation sample it belongs to. Nothing is written until
//! [`Tracer::write_jsonl`] runs after the measurement.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Records spans while `on`; a switched-off tracer is a no-op, so the same
/// operation code serves traced and untraced samples.
pub struct Tracer {
    t0: Instant,
    pub on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens an `op.*` span and starts a new operation id.
    pub fn enter_op(&mut self, name: &'static str) -> Open {
        if self.on {
            self.op += 1;
        }
        self.enter(name)
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Durations in seconds of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Self time in seconds per layer (the span name up to its first
    /// dot): each span's duration minus the part its children cover.
    /// Children never overlap one another, since spans nest on one thread.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            *by_layer.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        by_layer
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        tr.on = true;
        let op = tr.enter_op("op.x");
        tr.time("pg.build", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.time("algorithms.sweep", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.exit(op);
        let by = tr.self_seconds_by_layer();
        assert!(by["pg"] >= 0.005 && by["algorithms"] >= 0.005);
        assert!(by["op"] < by["pg"], "op self time excludes its children");
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].op, 1);
    }

    #[test]
    fn switched_off_tracer_records_nothing() {
        let mut tr = Tracer::new();
        let op = tr.enter_op("op.x");
        assert_eq!(tr.time("pg.build", || 7), 7);
        tr.exit(op);
        assert!(tr.spans.is_empty());
    }
}
