//! The unified analysis entry point: [`AnalysisCtx`].
//!
//! Every analysis in this crate used to come as a twin —
//! `foo(args…)` plus `foo_budgeted(args…, &Budget)` — and the twins
//! multiplied as soon as budgets had to thread through worker closures.
//! `AnalysisCtx` collapses the pairs: it carries the execution
//! environment (work [`Budget`] with its deadline and [`CancelToken`],
//! the worker count for the parallel stages, and optional observability
//! sinks), and each analysis is a method on it, and
//! [`AnalysisCtx::builder`] is the one construction path:
//!
//! ```
//! use iwa_analysis::{AnalysisCtx, CertifyOptions};
//! use iwa_core::{Budget, Metrics};
//! use std::time::Duration;
//!
//! let p = iwa_tasklang::parse(
//!     "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
//! ).unwrap();
//!
//! // Unlimited, single-threaded: the default context.
//! let cert = AnalysisCtx::builder().build()
//!     .certify(&p, &CertifyOptions::default()).unwrap();
//! assert!(cert.anomaly_free());
//!
//! // Deadline + 4 workers + metrics: same call shape, no `_budgeted` twin.
//! let metrics = Metrics::new();
//! let ctx = AnalysisCtx::builder()
//!     .budget(Budget::with_deadline(Duration::from_secs(5)))
//!     .workers(4)
//!     .metrics(metrics.clone())
//!     .build();
//! assert!(ctx.certify(&p, &CertifyOptions::default()).unwrap().anomaly_free());
//! assert!(metrics.snapshot().sg_nodes > 0);
//! ```
//!
//! # Determinism
//!
//! Raising the worker count never changes an analysis result: parallel
//! stages fan out over index-addressed work (per-head hypotheses, batch
//! files) and merge in index order, so the output is byte-identical for
//! any worker count. Only budget *trips* are scheduling-sensitive — which
//! worker observes an exhausted budget first — and those surface as
//! [`IwaError::BudgetExceeded`](iwa_core::IwaError), never as a wrong
//! verdict. The same discipline covers the [`Metrics`] sink: analyses
//! accumulate into a local delta and commit it only on completion, so a
//! tripped attempt contributes zero and the committed counters are
//! byte-identical for any worker count too.

use crate::certify::{Certificate, CertifyOptions};
use crate::coexec::CoexecInfo;
use crate::exact::{ConstraintSet, ExactBudget, ExactResult};
use crate::refined::{RefinedOptions, RefinedResult};
use crate::sequence::SequenceInfo;
use crate::stall::{StallOptions, StallReport};
use iwa_core::obs::{Counters, Metrics, SpanGuard, TraceSink};
use iwa_core::{Budget, CancelToken, IwaError};
use iwa_syncgraph::{PortClg, SyncGraph};
use iwa_tasklang::Program;

/// The execution environment shared by every analysis entry point: a
/// cooperative [`Budget`] (deadline, step ceiling, cancel token, progress
/// counters), the worker count for the parallel stages, and the optional
/// observability sinks ([`TraceSink`] spans, [`Metrics`] counters).
///
/// Construct via [`AnalysisCtx::builder`].
#[derive(Clone, Debug)]
pub struct AnalysisCtx {
    budget: Budget,
    workers: usize,
    trace: Option<TraceSink>,
    metrics: Option<Metrics>,
}

impl Default for AnalysisCtx {
    fn default() -> Self {
        AnalysisCtx::builder().build()
    }
}

/// Builder for [`AnalysisCtx`] — the one construction path.
///
/// Defaults: unlimited budget, one worker, no observability sinks.
#[derive(Clone, Debug, Default)]
pub struct AnalysisCtxBuilder {
    budget: Option<Budget>,
    workers: usize,
    trace: Option<TraceSink>,
    metrics: Option<Metrics>,
}

impl AnalysisCtxBuilder {
    /// Run analyses under `budget`. The budget is shared, not copied:
    /// clones (and the caller's handle) see the same step counters and
    /// cancel token; attach an external token with
    /// [`Budget::and_cancel_token`]. Default: [`Budget::unlimited`].
    #[must_use]
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Set the worker count for parallel stages. `0` means one worker
    /// per available core; `1` (the default) runs everything inline.
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = iwa_core::pool::resolve_workers(n);
        self
    }

    /// Attach a phase-trace sink; analyses record hierarchical spans
    /// into it. Default: no tracing (and no tracing overhead).
    #[must_use]
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Attach a deterministic-metrics accumulator; completed analyses
    /// commit their counter deltas into it. Default: no metrics.
    #[must_use]
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Finish: resolve defaults and produce the context.
    #[must_use]
    pub fn build(self) -> AnalysisCtx {
        AnalysisCtx {
            budget: self.budget.unwrap_or_else(Budget::unlimited),
            workers: self.workers.max(1),
            trace: self.trace,
            metrics: self.metrics,
        }
    }
}

impl AnalysisCtx {
    /// Start building a context. See [`AnalysisCtxBuilder`].
    #[must_use]
    pub fn builder() -> AnalysisCtxBuilder {
        AnalysisCtxBuilder::default()
    }

    /// The context's budget.
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The resolved worker count.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.workers
    }

    /// The budget's cancel token: cancelling it trips every analysis
    /// running under this context (on any worker) at its next checkpoint.
    #[must_use]
    pub fn cancel_token(&self) -> &CancelToken {
        self.budget.cancel_token()
    }

    /// The attached trace sink, if any.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// The attached metrics accumulator, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }

    /// Open a phase span when tracing is enabled; `None` (and zero
    /// work) otherwise. Hold the guard for the duration of the phase.
    #[must_use]
    pub fn span(&self, cat: &'static str, name: impl Into<String>) -> Option<SpanGuard> {
        self.trace.as_ref().map(|t| t.span(cat, name))
    }

    /// Commit a completed analysis's counter delta, if metrics are on.
    pub fn commit_metrics(&self, delta: &Counters) {
        if let Some(m) = &self.metrics {
            m.commit(delta);
        }
    }

    /// Run the full certification pipeline (validate → inline → unroll →
    /// naive → refined → stall) on `p`. See
    /// [`Certificate`] for what the driver learns.
    pub fn certify(&self, p: &Program, opts: &CertifyOptions) -> Result<Certificate, IwaError> {
        crate::certify::certify_impl(p, opts, self)
    }

    /// Run the refined analysis (paper §4.2) on `sg` at the configured
    /// tier, fanning the per-head SCC searches across this context's
    /// workers. See [`RefinedResult`].
    pub fn refined(&self, sg: &SyncGraph, opts: &RefinedOptions) -> Result<RefinedResult, IwaError> {
        crate::refined::refined_impl(sg, None, opts, self)
    }

    /// [`refined`](AnalysisCtx::refined) with an explicit head-hypothesis
    /// set instead of the generic [`SyncGraph::poss_heads`] scan — for
    /// frontends that know where deadlock cycles can start (the
    /// lock-order lowering seeds its hold-point nodes). The searches and
    /// pruning rules are identical; only the hypothesis list differs, so
    /// seeding a superset of `poss_heads()` is safe and seeding a subset
    /// restricts the certificate to those heads.
    pub fn refined_seeded(
        &self,
        sg: &SyncGraph,
        seeds: &[usize],
        opts: &RefinedOptions,
    ) -> Result<RefinedResult, IwaError> {
        crate::refined::refined_impl(sg, Some(seeds), opts, self)
    }

    /// [`refined`](AnalysisCtx::refined) with precomputed supporting
    /// tables (the CLG, `SEQUENCEABLE`, `NOT-COEXEC`) — for callers that
    /// amortise the tables across many runs, like the ablation studies.
    /// The search reads `clg` as given and builds no graph of its own.
    pub fn refined_with(
        &self,
        sg: &SyncGraph,
        clg: &PortClg,
        seq: &SequenceInfo,
        cx: &CoexecInfo,
        opts: &RefinedOptions,
    ) -> Result<RefinedResult, IwaError> {
        crate::refined::refined_with_impl(sg, clg, seq, cx, opts, self)
    }

    /// Run the stall analysis (paper §5) on `p`. Budget trips do not
    /// abort: they surface as
    /// [`StallVerdict::Unknown`](crate::stall::StallVerdict::Unknown) so
    /// the deadlock half of a certificate can still be reported.
    #[must_use]
    pub fn stall(&self, p: &Program, opts: &StallOptions) -> StallReport {
        crate::stall::stall_impl(p, opts, self)
    }

    /// Enumerate constraint-valid deadlock cycles of `sg` (the
    /// exponential ground-truth checker). The soft [`ExactBudget`]
    /// truncates gracefully (`complete = false`); this context's hard
    /// budget aborts with
    /// [`IwaError::BudgetExceeded`](iwa_core::IwaError).
    pub fn exact_cycles(
        &self,
        sg: &SyncGraph,
        constraints: &ConstraintSet,
        limits: &ExactBudget,
    ) -> Result<ExactResult, IwaError> {
        crate::exact::exact_impl(sg, constraints, limits, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;
    use std::time::Duration;

    const CLEAN: &str = "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }";
    const CROSSED: &str = "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }";

    fn ctx() -> AnalysisCtx {
        AnalysisCtx::builder().build()
    }

    #[test]
    fn the_default_ctx_is_unlimited_and_single_threaded() {
        let ctx = ctx();
        assert_eq!(ctx.num_workers(), 1);
        assert!(!ctx.budget().is_limited());
        assert!(!ctx.cancel_token().is_cancelled());
        assert!(ctx.trace().is_none());
        assert!(ctx.metrics().is_none());
        assert!(ctx.span("test", "nothing").is_none());
    }

    #[test]
    fn workers_zero_resolves_to_the_core_count() {
        assert!(AnalysisCtx::builder().workers(0).build().num_workers() >= 1);
        assert_eq!(AnalysisCtx::builder().workers(5).build().num_workers(), 5);
    }

    #[test]
    fn an_external_cancel_token_is_tightened_into_the_budget() {
        let token = CancelToken::new();
        let ctx = AnalysisCtx::builder()
            .budget(Budget::unlimited().and_cancel_token(token.clone()))
            .build();
        assert!(!ctx.cancel_token().is_cancelled());
        token.cancel();
        assert!(ctx.cancel_token().is_cancelled());
    }

    #[test]
    fn every_entry_point_answers_through_the_ctx() {
        let clean = parse(CLEAN).unwrap();
        let crossed = parse(CROSSED).unwrap();
        let ctx = ctx();

        assert!(ctx.certify(&clean, &CertifyOptions::default()).unwrap().anomaly_free());
        let sg = SyncGraph::from_program(&crossed);
        assert!(!ctx.refined(&sg, &RefinedOptions::default()).unwrap().deadlock_free);
        assert!(ctx
            .exact_cycles(&sg, &ConstraintSet::all(), &ExactBudget::default())
            .unwrap()
            .any());
        let stall = ctx.stall(&clean, &StallOptions::default());
        assert!(matches!(stall.verdict, crate::stall::StallVerdict::StallFree));
    }

    #[test]
    fn seeded_refined_matches_the_generic_head_scan() {
        let sg = SyncGraph::from_program(&parse(CROSSED).unwrap());
        let generic = ctx().refined(&sg, &RefinedOptions::default()).unwrap();
        let seeded = ctx()
            .refined_seeded(&sg, &sg.poss_heads(), &RefinedOptions::default())
            .unwrap();
        assert_eq!(seeded.deadlock_free, generic.deadlock_free);
        assert_eq!(
            seeded.flagged.iter().map(|f| f.head).collect::<Vec<_>>(),
            generic.flagged.iter().map(|f| f.head).collect::<Vec<_>>()
        );
        // An empty hypothesis set certifies trivially.
        let none = ctx()
            .refined_seeded(&sg, &[], &RefinedOptions::default())
            .unwrap();
        assert!(none.deadlock_free);
    }

    #[test]
    fn a_cancelled_ctx_trips_instead_of_answering() {
        let ctx = ctx();
        ctx.cancel_token().cancel();
        let sg = SyncGraph::from_program(&parse(CROSSED).unwrap());
        let err = ctx.refined(&sg, &RefinedOptions::default()).unwrap_err();
        assert!(err.to_string().contains("cancelled"), "got: {err}");
    }

    #[test]
    fn results_are_identical_for_any_worker_count() {
        // A branchy program with enough heads that the pool actually
        // fans out.
        let src = "task a { send b.x; accept z; }
             task b { send c.y; accept x; }
             task c { send a.z; accept y; }
             task d { if { send a.z; } else { send b.x; } }";
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let base = ctx().refined(&sg, &RefinedOptions::default()).unwrap();
        for workers in [2, 4, 8] {
            let r = AnalysisCtx::builder()
                .workers(workers)
                .build()
                .refined(&sg, &RefinedOptions::default())
                .unwrap();
            assert_eq!(r.deadlock_free, base.deadlock_free);
            assert_eq!(r.scc_runs, base.scc_runs, "workers={workers}");
            assert_eq!(
                r.flagged.iter().map(|f| (f.head, f.partner)).collect::<Vec<_>>(),
                base.flagged.iter().map(|f| (f.head, f.partner)).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn a_dead_deadline_trips_on_every_worker_count() {
        let sg = SyncGraph::from_program(&parse(CROSSED).unwrap());
        for workers in [1, 4] {
            let ctx = AnalysisCtx::builder()
                .budget(Budget::with_deadline(Duration::from_millis(0)))
                .workers(workers)
                .build();
            assert!(ctx.refined(&sg, &RefinedOptions::default()).is_err());
        }
    }

    #[test]
    fn metrics_are_committed_only_on_completion() {
        let crossed = parse(CROSSED).unwrap();
        let sg = SyncGraph::from_program(&crossed);

        // A tripped analysis commits nothing.
        let metrics = iwa_core::Metrics::new();
        let ctx = AnalysisCtx::builder()
            .budget(Budget::with_deadline(Duration::from_millis(0)))
            .metrics(metrics.clone())
            .build();
        assert!(ctx.refined(&sg, &RefinedOptions::default()).is_err());
        assert!(metrics.snapshot().is_zero(), "tripped run must commit zero");

        // A completed one commits its head and pruning counters.
        let metrics = iwa_core::Metrics::new();
        let ctx = AnalysisCtx::builder().metrics(metrics.clone()).build();
        ctx.refined(&sg, &RefinedOptions::default()).unwrap();
        assert!(metrics.snapshot().heads_examined > 0);
    }

    #[test]
    fn spans_cover_the_certify_pipeline() {
        let trace = iwa_core::TraceSink::new();
        let ctx = AnalysisCtx::builder().trace(trace.clone()).build();
        ctx.certify(&parse(CLEAN).unwrap(), &CertifyOptions::default())
            .unwrap();
        let names: Vec<String> = trace.events().into_iter().map(|e| e.name).collect();
        for phase in ["syncgraph", "naive", "refined", "stall"] {
            assert!(
                names.iter().any(|n| n == phase),
                "missing span {phase}: {names:?}"
            );
        }
    }
}
