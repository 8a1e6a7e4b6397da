//! In-memory span recorder for the traced run.
//!
//! A span is a named interval with a parent and a job id. Spans around
//! one call carry `busy_ns == end − start`; a layer timed once per tile
//! or per subtile is folded into one span per job whose `busy_ns` is
//! the sum of its timed calls and whose interval runs from the first
//! entry to the last exit. Self time is `busy_ns` minus the children's
//! `busy_ns`. Spans stay in memory and are written once, at the end.

use crate::rebuild::{Layer, LayerTimes};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or call name.
    pub name: String,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: Option<u32>,
    /// Time spent inside the span's calls.
    pub busy_ns: u64,
    /// Calls folded into the span.
    pub calls: u64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in the order they were opened.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &str, parent: Option<usize>, job: Option<u32>) -> usize {
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent,
            job,
            busy_ns: 0,
            calls: 1,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
    }

    /// Run `f` inside a new span; returns its result and the span id.
    pub fn span<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        job: Option<u32>,
        f: impl FnOnce(&mut Self, usize) -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent, job);
        let out = f(self, id);
        self.close(id);
        (out, id)
    }

    /// Fold the layers of `times` selected by `keep` into one child
    /// span of `parent` each.
    pub fn push_layers(
        &mut self,
        times: &LayerTimes,
        parent: usize,
        job: Option<u32>,
        keep: impl Fn(Layer) -> bool,
    ) {
        for layer in Layer::ALL.into_iter().filter(|&l| keep(l)) {
            let i = layer as usize;
            if times.calls[i] == 0 {
                continue;
            }
            self.spans.push(Span {
                name: layer.name().to_string(),
                start_ns: times.first[i],
                end_ns: times.last[i],
                parent: Some(parent),
                job,
                busy_ns: times.ns[i],
                calls: times.calls[i],
            });
        }
    }

    /// Self time of every span (busy time minus the children's).
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.busy_ns);
            }
        }
        own
    }

    /// Total self time per span name.
    #[must_use]
    pub fn self_ns_by_name(&self, name: &str) -> u64 {
        self.self_ns()
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(&ns, _)| ns)
            .sum()
    }

    /// Total busy time per span name.
    #[must_use]
    pub fn busy_ns_by_name(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.busy_ns)
            .sum()
    }

    /// Share of the `root` spans' wall time that named child spans
    /// account for: the sum of every non-root span's self time under a
    /// `root` span, over the roots' total busy time.
    #[must_use]
    pub fn coverage(&self, root: &str) -> f64 {
        let own = self.self_ns();
        let root_of = |mut i: usize| -> Option<usize> {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            (self.spans[i].name == root).then_some(i)
        };
        let mut covered = 0u64;
        let mut wall = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            match (s.parent, root_of(i)) {
                (None, Some(_)) => wall += s.busy_ns,
                (Some(_), Some(_)) => covered += own[i],
                _ => {}
            }
        }
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64
        }
    }

    /// The spans as a JSON array, one object per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{},\"busy_ns\":{},\"calls\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job.map(u64::from)),
                s.busy_ns,
                s.calls,
                if i + 1 < self.spans.len() { "," } else { "" }
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
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let ((), root) = t.span("job", None, Some(0), |t, root| {
            t.span("child", Some(root), Some(0), |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        });
        let own = t.self_ns();
        assert_eq!(own[root] + own[1], t.spans[root].busy_ns);
        let c = t.coverage("job");
        assert!(c > 0.5 && c <= 1.0, "{c}");
    }
}
