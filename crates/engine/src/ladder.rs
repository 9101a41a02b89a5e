//! The precision-degradation ladder.
//!
//! [`analyze`] runs the most precise analysis the caller asked for under a
//! slice of the overall [`Budget`]; if that rung trips its slice, the
//! engine falls to the next cheaper rung with the budget that remains,
//! all the way down to a budget-free naive floor that always answers.
//! The resulting [`EngineReport`] records which rung produced the verdict
//! and why every more precise rung was abandoned — a degraded answer is
//! always *labelled* as such, never silently substituted.
//!
//! Ladder, most precise first:
//!
//! 1. [`Rung::Oracle`] — exhaustive wave-space exploration (ground truth,
//!    worst-case exponential); on tasklang its first flagged anomaly
//!    carries the rendezvous schedule that reaches it;
//! 2. [`Rung::HeadTails`] — refined algorithm, head–tail confirmation;
//! 3. [`Rung::HeadPairs`] — refined algorithm, head-pair confirmation;
//! 4. [`Rung::Heads`] — refined algorithm, base tier;
//! 5. [`Rung::Naive`] — §3.1 CLG cycle check plus Lemma 3 signal
//!    balance. Linear time, never budgeted, never fails.
//!
//! Slice policy: a ladder of `k` remaining rungs splits the remaining
//! wall-clock and step budget evenly, so each rung gets
//! `remaining / k`. Under integer division this keeps successive slices
//! stable as rungs trip, which makes rung selection reproducible for a
//! given step ceiling (the engine tests rely on this).

use iwa_analysis::stall::signal_balance;
use iwa_analysis::{
    naive_analysis, AnalysisCtx, CertifyOptions, NaiveResult, RefinedOptions, StallOptions,
    StallVerdict, Tier,
};
use iwa_core::fault::{FaultPlan, FaultSite};
use iwa_core::obs::{Counters, Meta, Metrics, TraceSink};
use iwa_core::{Budget, CancelToken, IwaError};
use iwa_frontend::{LoadedModel, ModelIr, WaitModel};
use iwa_syncgraph::SyncGraph;
use iwa_tasklang::transforms::{inline_procs, unroll_twice};
use iwa_tasklang::validate::check_model;
use iwa_tasklang::Program;
use iwa_wavesim::{explore_budgeted, AnomalyReport, Exploration, ExploreConfig, Verdict};
use serde::Serialize;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Version of the JSON report shapes this crate emits ([`EngineReport`],
/// [`CheckSummary`](crate::check::CheckSummary), and the CLI reports built
/// on them). Bump on any field addition, removal, or rename; the golden
/// schema test pins the shape for each version.
///
/// Version history: `2` added `schema_version` itself and the batch
/// summary; `3` added the shared `meta` observability block
/// ([`Meta`]) to [`EngineReport`] and
/// [`CheckSummary`](crate::check::CheckSummary); `4` added the
/// `io_retries` counter to the `meta.metrics` block; `5` added frontend
/// dispatch — `lang` on [`FileOutcome`](crate::check::FileOutcome) and
/// the `skipped` list on [`CheckSummary`](crate::check::CheckSummary);
/// `6` made [`EngineReport`] the CLI's one `iwa analyze --json` shape
/// for every language (the tasklang-only single-tier report is gone);
/// `7` removed the scheduling-dependent `meta.sched` block, so `meta`
/// holds only the deterministic `metrics` counters.
pub const SCHEMA_VERSION: u32 = 7;

/// One rung of the degradation ladder, most precise first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Rung {
    /// Exhaustive wave-space exploration (the ground-truth oracle).
    Oracle,
    /// Refined algorithm with head–tail confirmation (§4.2 + tails).
    HeadTails,
    /// Refined algorithm with head-pair confirmation.
    HeadPairs,
    /// Refined algorithm, single-head base tier.
    Heads,
    /// Naive CLG cycle check + Lemma 3 balance: the budget-free floor.
    Naive,
}

/// The full ladder, most precise first.
pub const LADDER: [Rung; 5] = [
    Rung::Oracle,
    Rung::HeadTails,
    Rung::HeadPairs,
    Rung::Heads,
    Rung::Naive,
];

impl Rung {
    /// The ladder from this rung down to the floor (inclusive).
    #[must_use]
    pub fn ladder(self) -> &'static [Rung] {
        let idx = LADDER.iter().position(|&r| r == self).expect("in ladder");
        &LADDER[idx..]
    }

    /// The stable lowercase name (`oracle`, `headtails`, `pairs`, `heads`,
    /// `naive`) used by the CLI and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rung::Oracle => "oracle",
            Rung::HeadTails => "headtails",
            Rung::HeadPairs => "pairs",
            Rung::Heads => "heads",
            Rung::Naive => "naive",
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Rung {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "oracle" => Ok(Rung::Oracle),
            "headtails" | "head-tails" | "tails" => Ok(Rung::HeadTails),
            "pairs" | "headpairs" | "head-pairs" => Ok(Rung::HeadPairs),
            "heads" => Ok(Rung::Heads),
            "naive" => Ok(Rung::Naive),
            other => Err(format!(
                "unknown rung '{other}' (expected oracle, headtails, pairs, heads, or naive)"
            )),
        }
    }
}

/// Options for [`analyze`].
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// The most precise rung to attempt (the ladder runs from here down).
    pub start: Rung,
    /// Overall wall-clock deadline for the whole ladder.
    pub deadline: Option<Duration>,
    /// Overall cooperative-checkpoint ceiling for the whole ladder.
    pub max_steps: Option<u64>,
    /// Apply the §5.1 source transforms before the stall analysis.
    pub apply_transforms: bool,
    /// External cancellation: trips every budgeted rung at its next
    /// checkpoint (the naive floor still answers).
    pub cancel: Option<CancelToken>,
    /// Worker threads for the refined rungs' per-head fan-out. `0` means
    /// one per available core; `1` (the default) runs inline. The verdict
    /// is identical for any value — only wall-clock time changes.
    pub workers: usize,
    /// Optional phase-trace sink: when set, every rung and every analysis
    /// phase under it records a hierarchical span (exportable as Chrome
    /// `trace_event` JSON). `None` (the default) costs nothing.
    pub trace: Option<TraceSink>,
    /// Optional metrics accumulator shared with the caller. When absent
    /// the engine still meters itself into a private accumulator so the
    /// report's [`meta`](EngineReport::meta) block is always populated.
    pub metrics: Option<Metrics>,
    /// Optional fault plan: fires [`FaultSite::Certify`] at the top of
    /// every *budgeted* rung (label: the rung name) and additionally
    /// [`FaultSite::RefinedSearch`] on the refined rungs. A budget-trip
    /// or io-error fault abandons the rung and degrades down the ladder
    /// exactly like an organic failure; the naive floor never consults
    /// the plan — it must always answer.
    pub faults: Option<FaultPlan>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            start: Rung::Oracle,
            deadline: None,
            max_steps: None,
            apply_transforms: true,
            cancel: None,
            workers: 1,
            trace: None,
            metrics: None,
            faults: None,
        }
    }
}

/// The three-valued outcome of a ladder run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum EngineVerdict {
    /// The producing rung certified the program free of infinite-wait
    /// anomalies.
    Clean,
    /// The producing rung flagged at least one (potential) anomaly. Every
    /// rung is safe — a real anomaly is never missed — but only the
    /// oracle's flags are exact; the cheaper the rung, the more likely a
    /// flag is a false alarm.
    Anomalous,
    /// The producing rung could certify neither half (e.g. deadlock-free
    /// but the stall analysis abstained).
    Unknown,
}

/// What happened on one rung of the ladder.
#[derive(Clone, Debug, Serialize)]
pub struct RungAttempt {
    /// Which rung ran.
    pub rung: Rung,
    /// `"completed"`, `"budget-exceeded"`, or `"failed"`.
    pub outcome: String,
    /// The error that abandoned this rung (absent when it completed).
    pub detail: Option<String>,
    /// Wall-clock milliseconds this rung consumed.
    pub elapsed_ms: u64,
    /// Cooperative checkpoints this rung consumed.
    pub steps: u64,
}

/// The engine's overall answer.
#[derive(Clone, Debug, Serialize)]
pub struct EngineReport {
    /// The JSON shape version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The verdict from the producing rung.
    pub verdict: EngineVerdict,
    /// The rung that produced the verdict.
    pub rung: Rung,
    /// `true` when the verdict came from a cheaper rung than requested —
    /// a degraded-but-labelled answer.
    pub degraded: bool,
    /// Every rung attempted, in ladder order, with per-rung cost and the
    /// reason each abandoned rung was abandoned.
    pub attempts: Vec<RungAttempt>,
    /// Human-readable descriptions of whatever the producing rung flagged
    /// (empty when `verdict` is `Clean`).
    pub flagged: Vec<String>,
    /// Total wall-clock milliseconds across the whole ladder.
    pub elapsed_ms: u64,
    /// Deterministic analysis counters for this run (only this run's
    /// deltas when the caller supplied no shared
    /// [`EngineOptions::metrics`]; cumulative totals otherwise).
    pub meta: Meta,
}

/// Run the degradation ladder on `p`.
///
/// Returns `Err` only for *input* errors (an invalid program or a call
/// cycle); budget trips never escape — they show up as abandoned
/// [`attempts`](EngineReport::attempts) while the ladder falls through to
/// the budget-free naive floor, so a verdict is always produced.
///
/// ```
/// use iwa_engine::{analyze, EngineOptions, EngineVerdict};
///
/// let p = iwa_tasklang::parse(
///     "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
/// ).unwrap();
/// let report = analyze(&p, &EngineOptions::default()).unwrap();
/// assert_eq!(report.verdict, EngineVerdict::Clean);
/// assert!(!report.degraded);
/// ```
pub fn analyze(p: &Program, opts: &EngineOptions) -> Result<EngineReport, IwaError> {
    check_model(p)?;
    let inlined;
    let p: &Program = if p.has_calls() {
        inlined = inline_procs(p)?;
        &inlined
    } else {
        p
    };
    Ok(run_ladder(opts, |rung, slice, metrics| {
        run_rung(p, rung, opts, slice, metrics)
    }))
}

/// Run the ladder on any loaded frontend model, dispatching on its IR:
/// tasklang models go through [`analyze`] unchanged; `.lok` and `.chan`
/// models run the [wait-graph ladder](analyze_wait). This is the entry
/// point the batch driver, the CLI, and the serve daemon share.
pub fn analyze_model(model: &LoadedModel, opts: &EngineOptions) -> Result<EngineReport, IwaError> {
    match &model.ir {
        ModelIr::Tasklang(p) => analyze(p, opts),
        ModelIr::Lok(m) => Ok(analyze_wait(&**m, opts)),
        ModelIr::Chan(m) => Ok(analyze_wait(&**m, opts)),
    }
}

/// Run the degradation ladder on a wait-graph model (`.lok` or `.chan`).
///
/// The rungs reuse the tasklang machinery against the lowered sync
/// graph (see [`iwa_frontend::wait`] for the lowering and its theorem):
///
/// * the **oracle** explores in deadlock-only mode (`ignore_stalls`) —
///   every lowered task is skippable, so stall-only stuck waves are a
///   legal non-event, not an anomaly;
/// * the **refined** rungs seed the per-head SCC search with the
///   model's hold points, which cover every possible head of the
///   lowered graph, and certify the deadlock half only;
/// * the **naive** floor's CLG cycle check flags exactly the wait-graph
///   cycles, so even the floor never answers `Unknown`.
///
/// Every rung is exact for `.lok`. On `.chan` the oracle alone rules out
/// cycles through both ports of one channel; the cheaper rungs may flag
/// them, so they can over-report but never under-report. Each rung then
/// folds in the model's static **livelock witnesses** (`.chan` only):
/// loops that spin forever without communicating are control-loop
/// properties the loop-free lowering abstracts away, so they are found
/// on the AST at load time and OR-ed into every rung's answer.
/// Anomalous verdicts report the model's witness sentences: one per
/// cycle, then one per livelock.
pub fn analyze_wait(m: &dyn WaitModel, opts: &EngineOptions) -> EngineReport {
    run_ladder(opts, |rung, slice, metrics| {
        run_rung_wait(m, rung, opts, slice, metrics)
    })
}

/// The shared ladder driver: budget slicing, per-rung attempts, the
/// degraded-but-labelled fall-through, and the observability plumbing.
/// `run_rung` does the model-specific work of one rung and must be
/// infallible for [`Rung::Naive`].
fn run_ladder(
    opts: &EngineOptions,
    run_rung: impl Fn(Rung, &Budget, &Metrics) -> Result<(EngineVerdict, Vec<String>), IwaError>,
) -> EngineReport {
    let mut outer = Budget::unlimited();
    if let Some(d) = opts.deadline {
        outer = outer.and_deadline(d);
    }
    if let Some(token) = opts.cancel.clone() {
        outer = outer.and_cancel_token(token);
    }

    let metrics = opts.metrics.clone().unwrap_or_default();
    let ladder_span = opts.trace.as_ref().map(|t| t.span("engine", "ladder"));

    let rungs = opts.start.ladder();
    let mut attempts = Vec::with_capacity(rungs.len());
    let mut spent = 0u64;
    let mut produced = None;

    for (i, &rung) in rungs.iter().enumerate() {
        let rungs_left = (rungs.len() - i) as u64;
        let mut slice = outer.fork();
        if let Some(rem) = outer.remaining_time() {
            slice = slice.and_deadline(rem / rungs_left as u32);
        }
        if let Some(total) = opts.max_steps {
            let left = total.saturating_sub(spent);
            slice = slice.and_max_steps((left / rungs_left).max(1));
        }

        let rung_span = opts
            .trace
            .as_ref()
            .map(|t| t.span("engine", format!("rung {rung}")));
        let run = run_rung(rung, &slice, &metrics);
        let steps = slice.steps();
        if let Some(mut span) = rung_span {
            span.note("steps", steps);
        }
        spent += steps;
        let elapsed_ms = ms(slice.elapsed());
        match run {
            Ok((verdict, flagged)) => {
                attempts.push(RungAttempt {
                    rung,
                    outcome: "completed".to_owned(),
                    detail: None,
                    elapsed_ms,
                    steps,
                });
                produced = Some((rung, verdict, flagged));
                break;
            }
            Err(mut e) => {
                // An abandoned rung is itself an observable event — and
                // unlike the rung's internal counters (which follow
                // commit-on-completion and stay untouched), the abandonment
                // count is exactly as deterministic as rung selection: step
                // ceilings trip reproducibly, wall-clock deadlines do not.
                metrics.commit(&Counters {
                    ladder_rungs_abandoned: 1,
                    ..Counters::default()
                });
                let cheaper_rungs_remain = i + 1 < rungs.len();
                let outcome = if let IwaError::BudgetExceeded { degraded, .. } = &mut e {
                    *degraded = cheaper_rungs_remain;
                    "budget-exceeded"
                } else {
                    "failed"
                };
                attempts.push(RungAttempt {
                    rung,
                    outcome: outcome.to_owned(),
                    detail: Some(e.to_string()),
                    elapsed_ms,
                    steps,
                });
            }
        }
    }
    drop(ladder_span);

    let (rung, verdict, flagged) = produced.expect("the naive floor cannot fail");
    EngineReport {
        schema_version: SCHEMA_VERSION,
        verdict,
        rung,
        degraded: rung != opts.start,
        attempts,
        flagged,
        elapsed_ms: ms(outer.elapsed()),
        meta: metrics.meta(),
    }
}

fn ms(d: Duration) -> u64 {
    d.as_millis().try_into().unwrap_or(u64::MAX)
}

/// Fire the fault plan at the top of a budgeted rung; the naive floor
/// never consults it.
fn fire_faults(rung: Rung, opts: &EngineOptions) -> Result<(), IwaError> {
    match &opts.faults {
        Some(plan) if rung != Rung::Naive => {
            plan.fire(FaultSite::Certify, rung.name())?;
            if rung != Rung::Oracle {
                plan.fire(FaultSite::RefinedSearch, rung.name())?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The refined tier a refined rung runs.
fn tier(rung: Rung) -> Tier {
    match rung {
        Rung::HeadTails => Tier::HeadTails,
        Rung::HeadPairs => Tier::HeadPairs,
        _ => Tier::Heads,
    }
}

/// The analysis context a refined rung runs in: its budget slice, the
/// caller's workers, metrics and trace.
fn analysis_ctx(opts: &EngineOptions, budget: &Budget, metrics: &Metrics) -> AnalysisCtx {
    let mut builder = AnalysisCtx::builder()
        .budget(budget.clone())
        .workers(opts.workers)
        .metrics(metrics.clone());
    if let Some(t) = &opts.trace {
        builder = builder.trace(t.clone());
    }
    builder.build()
}

/// The oracle's wave exploration, metered.
fn explore_counted(
    sg: &SyncGraph,
    config: &ExploreConfig,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<Exploration, IwaError> {
    let e = explore_budgeted(sg, config, budget)?;
    metrics.commit(&Counters {
        sg_nodes: sg.num_nodes() as u64,
        ..Counters::default()
    });
    Ok(e)
}

/// The §3.1 CLG cycle check, metered.
fn naive_counted(sg: &SyncGraph, metrics: &Metrics) -> NaiveResult {
    let naive = naive_analysis(sg);
    metrics.commit(&Counters {
        sg_nodes: sg.num_nodes() as u64,
        clg_cycles: naive.cycle_components.len() as u64,
        ..Counters::default()
    });
    naive
}

fn run_rung(
    p: &Program,
    rung: Rung,
    opts: &EngineOptions,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<(EngineVerdict, Vec<String>), IwaError> {
    fire_faults(rung, opts)?;
    match rung {
        Rung::Oracle => {
            // Trip *before* building the wave space when the slice is
            // already dead (e.g. `--deadline-ms 1`).
            budget.probe("oracle exploration")?;
            let sg = SyncGraph::from_program(p);
            let e = explore_counted(&sg, &ExploreConfig::default(), budget, metrics)?;
            let verdict = match e.verdict {
                Verdict::AnomalyFree => EngineVerdict::Clean,
                Verdict::Anomalous => EngineVerdict::Anomalous,
            };
            let mut flagged: Vec<String> = e
                .anomalies
                .iter()
                .map(|(_, report)| describe_anomaly(&sg, report))
                .collect();
            // The exploration already rebuilt the first anomaly's
            // schedule; name it on that anomaly's line.
            if let (Some(first), Some(schedule)) = (flagged.first_mut(), e.witnesses.first()) {
                first.push_str("; schedule: ");
                if schedule.is_empty() {
                    first.push_str("stuck from the start");
                } else {
                    let steps: Vec<String> = schedule.iter().map(|s| s.render(&sg)).collect();
                    first.push_str(&steps.join(", "));
                }
            }
            Ok((verdict, flagged))
        }
        Rung::HeadTails | Rung::HeadPairs | Rung::Heads => {
            let copts = CertifyOptions {
                refined: RefinedOptions {
                    tier: tier(rung),
                    ..RefinedOptions::default()
                },
                stall: StallOptions {
                    apply_transforms: opts.apply_transforms,
                },
            };
            let cert = analysis_ctx(opts, budget, metrics).certify(p, &copts)?;
            let mut flagged: Vec<String> = cert
                .refined
                .flagged
                .iter()
                .map(|h| {
                    let mut s = format!(
                        "potential deadlock: head {}",
                        describe_node(&cert.sg, h.head)
                    );
                    if let Some(partner) = h.partner {
                        s.push_str(&format!(
                            " confirmed by {}",
                            describe_node(&cert.sg, partner)
                        ));
                    }
                    s.push_str(&format!(" ({} nodes in the witness component)", h.component.len()));
                    s
                })
                .collect();
            let verdict = if !cert.deadlock_free() {
                EngineVerdict::Anomalous
            } else {
                match &cert.stall.verdict {
                    StallVerdict::StallFree => EngineVerdict::Clean,
                    StallVerdict::PossibleStall {
                        signal,
                        sends,
                        accepts,
                    } => {
                        flagged.push(format!(
                            "possible stall: signal {} has {sends} sends vs {accepts} accepts \
                             on a witness path combination",
                            p.symbols.signal_name(*signal)
                        ));
                        EngineVerdict::Anomalous
                    }
                    StallVerdict::Unknown { reason } => {
                        flagged.push(format!("stall analysis abstained: {reason}"));
                        EngineVerdict::Unknown
                    }
                }
            };
            Ok((verdict, flagged))
        }
        Rung::Naive => Ok(naive_floor(p, metrics)),
    }
}

/// One rung of the wait-graph ladder (see [`analyze_wait`]).
fn run_rung_wait(
    m: &dyn WaitModel,
    rung: Rung,
    opts: &EngineOptions,
    budget: &Budget,
    metrics: &Metrics,
) -> Result<(EngineVerdict, Vec<String>), IwaError> {
    fire_faults(rung, opts)?;
    let (sg, seeds) = m.lowered();
    let deadlock_free = match rung {
        Rung::Oracle => {
            budget.probe("oracle exploration")?;
            let config = ExploreConfig {
                ignore_stalls: true,
                ..ExploreConfig::default()
            };
            explore_counted(sg, &config, budget, metrics)?.verdict == Verdict::AnomalyFree
        }
        Rung::HeadTails | Rung::HeadPairs | Rung::Heads => {
            let ropts = RefinedOptions {
                tier: tier(rung),
                ..RefinedOptions::default()
            };
            analysis_ctx(opts, budget, metrics)
                .refined_seeded(sg, seeds, &ropts)?
                .deadlock_free
        }
        Rung::Naive => naive_counted(sg, metrics).deadlock_free,
    };
    Ok(if deadlock_free && m.livelock_free() {
        (EngineVerdict::Clean, Vec::new())
    } else {
        (EngineVerdict::Anomalous, m.witnesses())
    })
}

/// The budget-free floor: §3.1 CLG cycle detection for the deadlock half
/// and the Lemma 3 whole-program balance for the stall half. Linear time,
/// consults no budget, always answers — possibly `Unknown`, but promptly.
fn naive_floor(p: &Program, metrics: &Metrics) -> (EngineVerdict, Vec<String>) {
    let analysed;
    let target: &Program = if p.is_loop_free() {
        p
    } else {
        analysed = unroll_twice(p);
        &analysed
    };
    let naive = naive_counted(&SyncGraph::from_program(target), metrics);

    let mut flagged: Vec<String> = naive
        .cycle_components
        .iter()
        .map(|c| format!("potential deadlock: CLG cycle through {} sync nodes", c.len()))
        .collect();

    let straight_line = p.is_straight_line();
    let unbalanced: Vec<String> = signal_balance(p)
        .into_iter()
        .filter(|&(_, sends, accepts)| sends != accepts)
        .map(|(sig, sends, accepts)| {
            format!(
                "unbalanced signal {}: {sends} sends vs {accepts} accepts",
                p.symbols.signal_name(sig)
            )
        })
        .collect();

    let verdict = if !naive.deadlock_free {
        EngineVerdict::Anomalous
    } else if straight_line {
        // Lemma 3 is exact for straight-line programs.
        if unbalanced.is_empty() {
            EngineVerdict::Clean
        } else {
            flagged.extend(unbalanced);
            EngineVerdict::Anomalous
        }
    } else {
        // Deadlock-free by the (safe) naive check, but the floor cannot
        // decide stalls through branches or loops.
        EngineVerdict::Unknown
    };
    (verdict, flagged)
}

fn describe_node(sg: &SyncGraph, node: usize) -> String {
    let task = sg.symbols.task_name(sg.node(node).task);
    format!("{task}:{}", sg.node_name(node))
}

fn describe_anomaly(sg: &SyncGraph, report: &AnomalyReport) -> String {
    if !report.deadlock_set.is_empty() {
        let members: Vec<String> = report
            .deadlock_set
            .iter()
            .map(|&n| describe_node(sg, n))
            .collect();
        format!("deadlock set: {}", members.join(", "))
    } else {
        let members: Vec<String> = report
            .stall_nodes
            .iter()
            .map(|&n| describe_node(sg, n))
            .collect();
        format!("stalled nodes: {}", members.join(", "))
    }
}
