//! Observability: phase tracing and deterministic analysis metrics.
//!
//! The paper's headline claim is a *cost* claim — polynomial-time
//! certification instead of exponential state enumeration — so the
//! workspace needs a way to see where analysis time goes and how often
//! the pruning rules of §4 actually fire. This module supplies two
//! independent, zero-cost-when-disabled instruments, both threaded
//! through `AnalysisCtx` as optional sinks:
//!
//! * [`TraceSink`] records hierarchical **phase spans** (parse → cfg →
//!   syncgraph → CLG → per-head refined search → stall analysis) with
//!   wall-time and per-span counters, exportable in the Chrome
//!   `trace_event` format that `about:tracing` / Perfetto load directly.
//! * [`Metrics`] accumulates a **deterministic** counter set
//!   ([`Counters`]): graph sizes, CLG cycles enumerated, pruning-rule
//!   hit counts per rule, degradation-ladder rungs abandoned, pool
//!   fan-out widths. Determinism discipline: analyses accumulate into a
//!   local [`Counters`] delta and [`Metrics::commit`] it only when the
//!   whole analysis call completes, so a budget-tripped attempt
//!   contributes exactly zero and the totals are byte-identical for any
//!   worker count. Nothing scheduling-dependent is recorded, so the
//!   wall-clock fields of a report are the only ones that vary between
//!   runs.
//!
//! Both sinks are cheap handles (`Arc` inside); cloning one shares the
//! underlying buffer, which is how a single sink observes every phase of
//! a multi-crate pipeline. When no sink is installed the instrumented
//! code pays one `Option` test per phase — no allocation, no locking.

use serde::{Serialize, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Deterministic counters
// ---------------------------------------------------------------------------

/// The deterministic analysis counter set.
///
/// Every field is a plain event count that depends only on the analysed
/// program and the analysis options — never on scheduling, worker count,
/// or wall-clock luck. The engine embeds a [`Meta`] block carrying these
/// in every JSON report, and the determinism suite asserts the whole
/// struct is byte-identical across `-j 1/2/8`.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Counters {
    /// Sync-graph nodes built (paper §3).
    pub sg_nodes: u64,
    /// Sync-graph control (CFG) edges built.
    pub sg_control_edges: u64,
    /// Sync-graph sync (rendezvous) edges built.
    pub sg_sync_edges: u64,
    /// CLG nodes built (paper §4: B/E plus per-rendezvous b/e pairs).
    pub clg_nodes: u64,
    /// CLG edges built.
    pub clg_edges: u64,
    /// Nontrivial CLG cycle components enumerated by the naive analysis.
    pub clg_cycles: u64,
    /// Candidate heads examined by the refined per-head search.
    pub heads_examined: u64,
    /// SCC computations run during refined marked searches.
    pub scc_runs: u64,
    /// SEQUENCEABLE pruning-rule hits: sync-in edges banned, summed over
    /// the hypotheses that reach a masked search. A hypothesis refuted
    /// for free from the shared SCC builds no bans and counts none.
    pub sequenceable_hits: u64,
    /// COACCEPT pruning-rule hits: co-accepts banned in both directions,
    /// counted like `sequenceable_hits`.
    pub coaccept_hits: u64,
    /// NOT-COEXEC pruning-rule hits: nodes excluded from the search,
    /// counted like `sequenceable_hits`.
    pub not_coexec_hits: u64,
    /// Heads rescued from pruning by Constraint 4 (loop coexecution).
    pub constraint4_rescues: u64,
    /// Path-count combinations checked by the stall odometer (§5).
    pub stall_combinations: u64,
    /// Deadlock cycles enumerated by the exact (exponential) search.
    pub exact_cycles: u64,
    /// Degradation-ladder rungs abandoned before one produced a verdict.
    pub ladder_rungs_abandoned: u64,
    /// Indices fanned out across the worker pool (the fan-out width,
    /// whatever the worker count).
    pub pool_tasks: u64,
    /// Transient io-error attempts retried by `check_batch`'s bounded
    /// retry policy (zero unless retries are enabled).
    pub io_retries: u64,
}

impl Counters {
    /// Add every field of `other` into `self` (saturating).
    pub fn absorb(&mut self, other: &Counters) {
        let Counters {
            sg_nodes,
            sg_control_edges,
            sg_sync_edges,
            clg_nodes,
            clg_edges,
            clg_cycles,
            heads_examined,
            scc_runs,
            sequenceable_hits,
            coaccept_hits,
            not_coexec_hits,
            constraint4_rescues,
            stall_combinations,
            exact_cycles,
            ladder_rungs_abandoned,
            pool_tasks,
            io_retries,
        } = other;
        self.sg_nodes = self.sg_nodes.saturating_add(*sg_nodes);
        self.sg_control_edges = self.sg_control_edges.saturating_add(*sg_control_edges);
        self.sg_sync_edges = self.sg_sync_edges.saturating_add(*sg_sync_edges);
        self.clg_nodes = self.clg_nodes.saturating_add(*clg_nodes);
        self.clg_edges = self.clg_edges.saturating_add(*clg_edges);
        self.clg_cycles = self.clg_cycles.saturating_add(*clg_cycles);
        self.heads_examined = self.heads_examined.saturating_add(*heads_examined);
        self.scc_runs = self.scc_runs.saturating_add(*scc_runs);
        self.sequenceable_hits = self.sequenceable_hits.saturating_add(*sequenceable_hits);
        self.coaccept_hits = self.coaccept_hits.saturating_add(*coaccept_hits);
        self.not_coexec_hits = self.not_coexec_hits.saturating_add(*not_coexec_hits);
        self.constraint4_rescues = self.constraint4_rescues.saturating_add(*constraint4_rescues);
        self.stall_combinations = self.stall_combinations.saturating_add(*stall_combinations);
        self.exact_cycles = self.exact_cycles.saturating_add(*exact_cycles);
        self.ladder_rungs_abandoned = self
            .ladder_rungs_abandoned
            .saturating_add(*ladder_rungs_abandoned);
        self.pool_tasks = self.pool_tasks.saturating_add(*pool_tasks);
        self.io_retries = self.io_retries.saturating_add(*io_retries);
    }

    /// `true` when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == Counters::default()
    }
}

/// The `meta` block embedded in every versioned JSON report
/// (`EngineReport`, `CheckSummary`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Meta {
    /// Deterministic counters — byte-identical across worker counts.
    pub metrics: Counters,
}

/// A shared, thread-safe accumulator for [`Counters`].
///
/// Cheap to clone (an `Arc` handle); all clones feed the same totals.
/// Analyses follow the **commit-on-completion** discipline: build a
/// local `Counters` delta, and [`commit`](Metrics::commit) it in one
/// call only after the analysis succeeds, so partially-executed
/// (budget-tripped) attempts never leak scheduling-dependent partial
/// counts into the totals.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    inner: Arc<Mutex<Counters>>,
}

impl Metrics {
    /// A fresh, all-zero accumulator.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Counters> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold a completed analysis's counter delta into the totals.
    pub fn commit(&self, delta: &Counters) {
        self.lock().absorb(delta);
    }

    /// A copy of the deterministic totals so far.
    #[must_use]
    pub fn snapshot(&self) -> Counters {
        self.lock().clone()
    }

    /// Package the totals as a report-ready [`Meta`] block.
    #[must_use]
    pub fn meta(&self) -> Meta {
        Meta {
            metrics: self.snapshot(),
        }
    }
}

// ---------------------------------------------------------------------------
// Phase tracing
// ---------------------------------------------------------------------------

/// One completed phase span, as recorded by a dropped [`SpanGuard`].
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Category (coarse grouping: `"pipeline"`, `"analysis"`, `"engine"`…).
    pub cat: &'static str,
    /// Phase name (`"syncgraph"`, `"refined"`, `"head 3"`, …).
    pub name: String,
    /// Microseconds since the sink's epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Stable per-thread id (first-use order, 1-based).
    pub tid: u64,
    /// Attached counters (step counts, head counts, graph sizes…).
    pub args: Vec<(&'static str, u64)>,
    /// Sink-wide span-open order (1-based) — the final sort tie-breaker,
    /// so sub-microsecond siblings still render in open order.
    pub seq: u64,
}

#[derive(Debug)]
struct TraceInner {
    epoch: Instant,
    next_seq: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
}

/// A shared sink for hierarchical phase spans.
///
/// Cheap to clone (an `Arc` handle); all clones append to one buffer
/// with one shared epoch, so spans from every crate in the pipeline
/// land on a single timeline. Spans are recorded when their
/// [`SpanGuard`] drops, and nest naturally: a guard held across child
/// spans contains them in time, which is exactly the containment
/// Chrome's flame view reconstructs.
#[derive(Clone, Debug)]
pub struct TraceSink {
    inner: Arc<TraceInner>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

impl TraceSink {
    /// A fresh sink; "now" becomes timestamp zero.
    #[must_use]
    pub fn new() -> Self {
        TraceSink {
            inner: Arc::new(TraceInner {
                epoch: Instant::now(),
                next_seq: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Open a span; it is recorded when the returned guard drops.
    #[must_use]
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> SpanGuard {
        SpanGuard {
            sink: self.clone(),
            cat,
            name: name.into(),
            started: Instant::now(),
            args: Vec::new(),
            seq: self.inner.next_seq.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn record(&self, ev: SpanEvent) {
        self.inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(ev);
    }

    /// All spans recorded so far, sorted by `(start_us, tid)` with longer
    /// (containing) spans first and open order breaking exact ties — a
    /// deterministic, render-ready order even for sub-microsecond spans.
    #[must_use]
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut evs = self
            .inner
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        evs.sort_by(|a, b| {
            (a.start_us, a.tid, std::cmp::Reverse(a.dur_us), a.seq)
                .cmp(&(b.start_us, b.tid, std::cmp::Reverse(b.dur_us), b.seq))
        });
        evs
    }

    /// The spans as a Chrome `trace_event` document: load the rendered
    /// JSON in `about:tracing` or <https://ui.perfetto.dev>.
    #[must_use]
    pub fn to_chrome_trace(&self) -> Value {
        let events = self
            .events()
            .into_iter()
            .map(|ev| {
                let args = Value::Object(
                    ev.args
                        .iter()
                        .map(|&(k, v)| (k.to_owned(), v.to_value()))
                        .collect(),
                );
                Value::Object(vec![
                    ("name".into(), Value::String(ev.name)),
                    ("cat".into(), Value::String(ev.cat.to_owned())),
                    ("ph".into(), Value::String("X".into())),
                    ("ts".into(), ev.start_us.to_value()),
                    ("dur".into(), ev.dur_us.to_value()),
                    ("pid".into(), Value::Int(1)),
                    ("tid".into(), ev.tid.to_value()),
                    ("args".into(), args),
                ])
            })
            .collect();
        Value::Object(vec![("traceEvents".into(), Value::Array(events))])
    }
}

/// An open phase span; records itself into its [`TraceSink`] on drop.
#[derive(Debug)]
pub struct SpanGuard {
    sink: TraceSink,
    cat: &'static str,
    name: String,
    started: Instant,
    args: Vec<(&'static str, u64)>,
    seq: u64,
}

impl SpanGuard {
    /// Attach a counter at creation time (builder style).
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        self.args.push((key, value));
        self
    }

    /// Attach a counter to an already-open span (e.g. a step count
    /// known only when the phase finishes).
    pub fn note(&mut self, key: &'static str, value: u64) {
        self.args.push((key, value));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let started = self.started;
        let dur_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let start_us =
            u64::try_from(started.duration_since(self.sink.inner.epoch).as_micros())
                .unwrap_or(u64::MAX);
        let ev = SpanEvent {
            cat: self.cat,
            name: std::mem::take(&mut self.name),
            start_us,
            dur_us,
            tid: current_tid(),
            args: std::mem::take(&mut self.args),
            seq: self.seq,
        };
        self.sink.record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_absorb_adds_every_field() {
        let mut a = Counters {
            sg_nodes: 1,
            heads_examined: 2,
            ..Counters::default()
        };
        let b = Counters {
            sg_nodes: 10,
            sequenceable_hits: 5,
            ..Counters::default()
        };
        a.absorb(&b);
        assert_eq!(a.sg_nodes, 11);
        assert_eq!(a.heads_examined, 2);
        assert_eq!(a.sequenceable_hits, 5);
        assert!(!a.is_zero());
        assert!(Counters::default().is_zero());
    }

    #[test]
    fn metrics_commits_are_cumulative_and_shared_across_clones() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.commit(&Counters {
            clg_cycles: 3,
            ..Counters::default()
        });
        m2.commit(&Counters {
            clg_cycles: 4,
            pool_tasks: 7,
            ..Counters::default()
        });
        let snap = m.snapshot();
        assert_eq!(snap.clg_cycles, 7);
        assert_eq!(snap.pool_tasks, 7);
        assert_eq!(m.meta().metrics, snap);
    }

    #[test]
    fn meta_serializes_with_stable_field_order() {
        let json = serde_json::to_string(&Meta::default()).unwrap();
        assert!(json.starts_with("{\"metrics\":{\"sg_nodes\":0"), "{json}");
        assert!(json.ends_with("\"io_retries\":0}}"), "{json}");
    }

    #[test]
    fn spans_record_on_drop_with_args() {
        let sink = TraceSink::new();
        {
            let mut outer = sink.span("test", "outer").arg("width", 4);
            let _inner = sink.span("test", "inner");
            outer.note("steps", 9);
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        // Sorted by start: outer opened first.
        assert_eq!(evs[0].name, "outer");
        assert_eq!(evs[0].args, vec![("width", 4), ("steps", 9)]);
        assert_eq!(evs[1].name, "inner");
        assert!(evs[0].start_us <= evs[1].start_us);
    }

    #[test]
    fn chrome_trace_has_the_required_envelope() {
        let sink = TraceSink::new();
        drop(sink.span("test", "phase").arg("n", 1));
        let doc = sink.to_chrome_trace();
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["name"], "phase");
        assert_eq!(events[0]["pid"], 1);
        assert_eq!(events[0]["args"]["n"], 1);
        // The rendered document must be valid JSON.
        let text = serde_json::to_string_pretty(&doc).unwrap();
        serde_json::from_str(&text).expect("chrome trace is valid JSON");
    }

    #[test]
    fn clones_share_one_buffer_across_threads() {
        let sink = TraceSink::new();
        std::thread::scope(|s| {
            for i in 0..4 {
                let sink = sink.clone();
                s.spawn(move || drop(sink.span("t", format!("worker {i}"))));
            }
        });
        let evs = sink.events();
        assert_eq!(evs.len(), 4);
        let tids: std::collections::BTreeSet<u64> = evs.iter().map(|e| e.tid).collect();
        assert!(!tids.is_empty());
    }
}
