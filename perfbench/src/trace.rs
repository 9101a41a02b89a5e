//! In-memory span recording and Chrome `trace_event` export.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name (the call), category (the layer),
//! start, end, parent span and the operation (input or request) id. They
//! stay in memory until the run ends and are then written as one JSON
//! document that Perfetto and `about:tracing` load.

use serde::Value;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The public call, e.g. `SequenceInfo::compute`.
    pub name: &'static str,
    /// The layer, e.g. `analysis`.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id: the input's position in the pass, or the request id.
    pub op: u64,
    /// Recording thread (1 = main/sender, 2 = receiver).
    pub tid: u32,
}

/// A span sink; disabled recorders keep nothing.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes every call a plain timer.
    #[must_use]
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        ns(self.epoch.elapsed())
    }

    /// Nanoseconds from the epoch to `t`.
    #[must_use]
    pub fn at(&self, t: Instant) -> u64 {
        ns(t.saturating_duration_since(self.epoch))
    }

    /// Record a span that already happened; returns its index.
    pub fn push(&mut self, span: Span) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Run `f` as one span; returns its result and duration in ms.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        let start_ns = self.at(start);
        let end_ns = self.at(end);
        self.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            op,
            tid: 1,
        });
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Open a parent span now; close it with [`Recorder::close`].
    pub fn open(&mut self, layer: &'static str, name: &'static str, op: u64) -> Option<usize> {
        let now = self.now_ns();
        self.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: None,
            op,
            tid: 1,
        })
    }

    /// Close a span opened by [`Recorder::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Number of spans kept.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// No spans kept?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as a Chrome `trace_event` document (`ts`/`dur` in µs).
    #[must_use]
    pub fn to_chrome(&self, labels: &dyn Fn(u64) -> String) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("span".to_owned(), Value::UInt(i as u64)),
                    ("op".to_owned(), Value::UInt(s.op)),
                    ("input".to_owned(), Value::String(labels(s.op))),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_owned(), Value::UInt(p as u64)));
                }
                Value::Object(vec![
                    ("name".to_owned(), Value::String(s.name.to_owned())),
                    ("cat".to_owned(), Value::String(s.layer.to_owned())),
                    ("ph".to_owned(), Value::String("X".to_owned())),
                    ("ts".to_owned(), Value::Float(s.start_ns as f64 / 1e3)),
                    (
                        "dur".to_owned(),
                        Value::Float(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".to_owned(), Value::UInt(1)),
                    ("tid".to_owned(), Value::UInt(u64::from(s.tid))),
                    ("args".to_owned(), Value::Object(args)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("traceEvents".to_owned(), Value::Array(events)),
            ("displayTimeUnit".to_owned(), Value::String("ns".to_owned())),
        ])
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
