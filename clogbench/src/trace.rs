//! In-memory spans around the benchmark's calls into each layer.
//!
//! A tracer that is on records during odd-numbered ops and outside any
//! op, so one run holds traced and untraced ops side by side. A tracer
//! that is off records nothing and reads no clock, so untraced runs pay
//! one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The op number of work done outside any op.
pub const NO_OP: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call enters (`core`, `snap`, `serve`, `noc`, ...).
    pub layer: &'static str,
    /// The call, e.g. `System::run`.
    pub name: &'static str,
    /// Op the span belongs to; probes run outside ops and use [`NO_OP`].
    pub op: u32,
    /// Index of the enclosing span, when nested.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder.
pub struct Tracer {
    /// Whether anything is recorded.
    enabled: bool,
    /// Whether the current op is recorded.
    on: bool,
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            enabled: on,
            on,
            origin: Instant::now(),
            op: NO_OP,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether op `op` is (or would be) recorded.
    pub fn records(&self, op: u32) -> bool {
        self.enabled && (op == NO_OP || op % 2 == 1)
    }

    /// Tag the spans that follow with op `op` ([`NO_OP`]: no op).
    pub fn set_op(&mut self, op: u32) {
        assert!(self.open.is_empty(), "set_op inside a span");
        self.op = op;
        self.on = self.records(op);
    }

    /// Open a span; close it with [`Tracer::exit`]. Spans opened in
    /// between become its children.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let ix = self.open.pop().expect("exit matches an enter");
        self.spans[ix].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(layer, name);
        let out = f();
        self.exit();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("runs last under 584 years")
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ns of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration in ns of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per layer in ns over the span trees rooted at spans
    /// named `root`: each span's duration minus the part its direct
    /// children cover.
    pub fn self_ns_by_layer_under(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        // Parents are opened before their children, so one forward pass
        // finds every span's root.
        let mut root_of = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
            root_of.push(s.parent.map_or(i, |p| root_of[p]));
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if self.spans[root_of[i]].name == root {
                *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{op},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.enter("bench", "op");
        assert_eq!(tr.span("core", "System::run", || 7), 7);
        tr.exit();
        assert!(tr.spans().is_empty());
        assert!(tr.self_ns_by_layer_under("op").is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new(true);
        tr.enter("bench", "op");
        tr.enter("core", "System::run");
        tr.span("noc", "Network::tick", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.exit();
        tr.exit();
        tr.span("dram", "probe", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, None);
        let by_layer = tr.self_ns_by_layer_under("op");
        assert!(
            !by_layer.contains_key("dram"),
            "spans outside an op are left out"
        );
        let total: u64 = by_layer.values().sum();
        assert_eq!(
            total,
            spans[0].dur_ns(),
            "self times partition the root span"
        );
        assert!(by_layer["noc"] >= 2_000_000);
        assert!(by_layer["core"] < by_layer["noc"]);
    }

    #[test]
    fn tracer_skips_even_ops() {
        let mut tr = Tracer::new(true);
        for op in 0..4 {
            tr.set_op(op);
            tr.span("bench", "op", || ());
        }
        tr.set_op(NO_OP);
        tr.span("noc", "probe", || ());
        let ops: Vec<u32> = tr.spans().iter().map(|s| s.op).collect();
        assert_eq!(ops, [1, 3, NO_OP]);
        assert!(!tr.records(2) && tr.records(3) && tr.records(NO_OP));
        assert!(!Tracer::new(false).records(1));
    }
}
