//! In-memory span recorder.
//!
//! Spans are recorded by the traced driver around its calls into each
//! layer: name, start, end, parent span and round. Counters are recorded
//! at the same boundaries. Nothing here is on the program's digest path —
//! the driver only times calls it would make anyway.
//!
//! A disabled tracer records nothing, so the same driver code measures
//! the tracing overhead by running once with and once without spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub round: Option<u64>,
}

/// Thread-safe span and counter recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// (`None` when disabled) to parent its own children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        round: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span {
                name,
                start: self.now(),
                end: f64::NAN,
                parent,
                round,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span recorder poisoned")[id].end = end;
        out
    }

    /// Adds `value` to counter `name`.
    pub fn count(&self, name: &'static str, value: u64) {
        if self.enabled {
            *self
                .counters
                .lock()
                .expect("counter recorder poisoned")
                .entry(name)
                .or_insert(0) += value;
        }
    }

    /// The recorded spans and counters.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (
            self.spans.into_inner().expect("span recorder poisoned"),
            self.counters
                .into_inner()
                .expect("counter recorder poisoned"),
        )
    }
}

/// Per-name sum of self time: each span's duration minus the part of its
/// interval that its children cover (children of one span may run in
/// parallel, so their union is taken, clipped to the parent).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children) {
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = s.start;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - covered;
    }
    out
}

/// Sum of top-level span durations (the part of the wall clock the trace
/// accounts for).
pub fn top_level_time(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum()
}

/// Appends `spans` as JSON lines, one object per span, tagged with the
/// traced repetition `rep`.
pub fn write_jsonl(out: &mut String, rep: usize, spans: &[Span]) {
    for (id, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"rep\":{rep},\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{}",
            s.name, s.start, s.end
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, ",\"parent\":{p}");
            }
            None => out.push_str(",\"parent\":null"),
        }
        match s.round {
            Some(r) => {
                let _ = write!(out, ",\"round\":{r}");
            }
            None => out.push_str(",\"round\":null"),
        }
        out.push_str("}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        let spans = vec![
            span("round", 0.0, 10.0, None),
            span("ml.train", 1.0, 5.0, Some(0)),
            span("ml.train", 2.0, 6.0, Some(0)),
            span("consensus.commit", 7.0, 9.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"], 10.0 - 5.0 - 2.0);
        assert_eq!(t["ml.train"], 8.0);
        assert_eq!(top_level_time(&spans), 10.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, None, |id| {
            t.count("c", 3);
            id
        });
        assert!(v.is_none());
        let (spans, counters) = t.finish();
        assert!(spans.is_empty() && counters.is_empty());
    }
}
