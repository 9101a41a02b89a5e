//! Stallability analysis (paper §5).
//!
//! * **Lemma 3**: a program without conditional branches or loops is
//!   stall-free if every signal type has equally many send and accept
//!   nodes — checkable in `O(|N|)`.
//! * **Lemma 4**: with branches, stall freedom requires the balance to hold
//!   on every *feasible linearised execution*; we conservatively check
//!   every per-task **path combination** (a superset of the feasible
//!   executions): if all combinations balance, the program is stall-free;
//!   an unbalanced combination is reported as a *possible* stall (it may be
//!   infeasible — exactly the false-alarm behaviour the paper predicts).
//! * The §5.1 transforms run first (when enabled) on a program with a
//!   branch or loop: merging rendezvous common to both branch arms
//!   (Fig 5(b)→(c)) and factoring co-dependent guarded pairs (Fig 5(d))
//!   move rendezvous out of conditionals, often collapsing the path
//!   enumeration entirely. A straight-line program has no arm to merge and
//!   no guard to factor, so Lemma 3 decides it directly from its counts.
//!
//! Programs with loops are out of reach (the paper: enumeration "subsumes
//! the Turing halting problem"); they report [`StallVerdict::Unknown`]
//! unless the transforms eliminate every conditional rendezvous.

use crate::ctx::AnalysisCtx;
use iwa_core::obs::Counters;
use iwa_core::{Budget, IwaError, SignalId};
use iwa_tasklang::cfg::{ProgramCfg, EXIT};
use iwa_tasklang::transforms::{factor_codependent, merge_branch_rendezvous};
use iwa_tasklang::Program;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Options for [`AnalysisCtx::stall`].
#[derive(Clone, Copy, Debug)]
pub struct StallOptions {
    /// Apply the §5.1 source transforms before counting.
    pub apply_transforms: bool,
    /// Budget on per-task path count and on path combinations.
    pub max_paths_per_task: usize,
    /// Budget on the number of path combinations examined.
    pub max_combinations: usize,
}

impl Default for StallOptions {
    fn default() -> Self {
        StallOptions {
            apply_transforms: true,
            max_paths_per_task: 1 << 10,
            max_combinations: 1 << 16,
        }
    }
}

/// The stall verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StallVerdict {
    /// Certified stall-free (Lemma 3 directly, or Lemma 4 over all path
    /// combinations).
    StallFree,
    /// Some path combination is unbalanced. For straight-line programs this
    /// is a certain anomaly; with branches it may be a false alarm.
    PossibleStall {
        /// A signal whose counts differ on the witness combination.
        signal: SignalId,
        /// Send count on the witness.
        sends: usize,
        /// Accept count on the witness.
        accepts: usize,
    },
    /// The analysis could not decide (loops, or budget exhausted).
    Unknown {
        /// Why.
        reason: String,
    },
}

/// Result of [`AnalysisCtx::stall`].
#[derive(Clone, Debug)]
pub struct StallReport {
    /// The verdict.
    pub verdict: StallVerdict,
    /// Whole-program per-signal `(sends, accepts)` counts (Lemma 3's
    /// quantity).
    pub signal_counts: Vec<(SignalId, usize, usize)>,
    /// Whether the §5.1 transforms were applied.
    pub transforms_applied: bool,
    /// Whether the program was straight-line *after* transforms.
    pub straight_line: bool,
    /// Path combinations examined (0 when Lemma 3 sufficed).
    pub combinations_checked: usize,
}

/// Whole-program send/accept counts per signal.
#[must_use]
pub fn signal_balance(p: &Program) -> Vec<(SignalId, usize, usize)> {
    let mut sends = vec![0usize; p.symbols.num_signals()];
    let mut accepts = vec![0usize; p.symbols.num_signals()];
    for t in &p.tasks {
        for s in &t.body {
            s.visit_rendezvous(&mut |st| {
                let r = st.rendezvous().expect("rendezvous");
                if r.sign.is_send() {
                    sends[r.signal.index()] += 1;
                } else {
                    accepts[r.signal.index()] += 1;
                }
            });
        }
    }
    (0..p.symbols.num_signals())
        .map(|i| (SignalId(i as u32), sends[i], accepts[i]))
        .collect()
}

/// Per-task path signatures: each control path through the task yields a
/// vector of per-signal **signed** counts (sends − accepts contributed by
/// that task on that path). Distinct paths with equal signatures merge.
fn task_path_signatures(
    p: &Program,
    opts: &StallOptions,
    budget: &Budget,
) -> Result<Vec<Vec<Vec<i64>>>, IwaError> {
    let nsig = p.symbols.num_signals();
    let cfgs = ProgramCfg::build(p);
    let mut all = Vec::with_capacity(cfgs.tasks.len());
    for cfg in &cfgs.tasks {
        // DFS over the acyclic rendezvous CFG accumulating signatures.
        // Memoised per node: set of signatures from that node to EXIT.
        let n = cfg.graph.num_nodes();
        let mut memo: Vec<Option<Vec<Vec<i64>>>> = vec![None; n];
        // Topological processing: the CFG is a DAG for loop-free programs.
        let order = iwa_graphs::topo::topological_sort(&cfg.graph).ok_or_else(|| {
            IwaError::HasLoops(format!(
                "task {} still has control-flow cycles",
                p.symbols.task_name(cfg.task)
            ))
        })?;
        for &node in order.iter().rev() {
            let mut sigs: Vec<Vec<i64>> = Vec::new();
            let mut first_by_hash: HashMap<u64, usize> = HashMap::new();
            if node == EXIT {
                sigs.push(vec![0; nsig]);
            } else {
                for &succ in cfg.graph.successors(node) {
                    let succ_sigs = memo[succ as usize]
                        .as_ref()
                        .expect("reverse topological order");
                    for s in succ_sigs {
                        budget.checkpoint("enumerating task path signatures")?;
                        let mut sig = s.clone();
                        if node != iwa_tasklang::cfg::ENTRY {
                            let rv = cfg.rv(node).rendezvous;
                            let delta = if rv.sign.is_send() { 1 } else { -1 };
                            sig[rv.signal.index()] += delta;
                        }
                        if is_new_signature(&mut first_by_hash, &sigs, &sig) {
                            sigs.push(sig);
                        }
                        if sigs.len() > opts.max_paths_per_task {
                            return Err(IwaError::BudgetExceeded {
                                what: format!(
                                    "enumerating control paths of task {}",
                                    p.symbols.task_name(cfg.task)
                                ),
                                limit: opts.max_paths_per_task,
                                steps: 0,
                                items: sigs.len(),
                                degraded: false,
                            });
                        }
                    }
                }
            }
            memo[node] = Some(sigs);
        }
        all.push(memo[iwa_tasklang::cfg::ENTRY].take().unwrap_or_default());
    }
    Ok(all)
}

/// Is `sig` missing from `sigs`? `first_by_hash` maps the hash of every
/// signature in `sigs` to the first index holding that hash. A repeated
/// hash is confirmed by an exact comparison, and a collision falls back to
/// a scan, so the answer is exact while `sigs` stays the only copy of the
/// signatures. A new signature is recorded at index `sigs.len()`, where
/// the caller pushes it.
fn is_new_signature(
    first_by_hash: &mut HashMap<u64, usize>,
    sigs: &[Vec<i64>],
    sig: &[i64],
) -> bool {
    let mut hasher = DefaultHasher::new();
    sig.hash(&mut hasher);
    match first_by_hash.entry(hasher.finish()) {
        Entry::Vacant(slot) => {
            slot.insert(sigs.len());
            true
        }
        Entry::Occupied(first) => sigs[*first.get()] != sig && !sigs.iter().any(|s| s == sig),
    }
}

/// [`AnalysisCtx::stall`]: the stall analysis pipeline.
///
/// Budget trips do not abort: in keeping with this module's error
/// discipline they surface as [`StallVerdict::Unknown`] carrying the
/// budget error's message, so the certify pipeline can still report the
/// deadlock half of the certificate.
#[must_use]
pub(crate) fn stall_impl(p: &Program, opts: &StallOptions, ctx: &AnalysisCtx) -> StallReport {
    let mut span = ctx.span("analysis", "stall combinations");
    let report = stall_run(p, opts, ctx.budget());
    if let Some(span) = &mut span {
        span.note("combinations", report.combinations_checked as u64);
    }
    // The odometer is sequential, so its partial progress under a *step*
    // trip is as deterministic as a completed run; only wall-clock trips
    // perturb it, and those change the verdict itself anyway.
    ctx.commit_metrics(&Counters {
        stall_combinations: report.combinations_checked as u64,
        ..Counters::default()
    });
    report
}

/// The analysis body, budget-driven and sink-free.
#[must_use]
fn stall_run(p: &Program, opts: &StallOptions, budget: &Budget) -> StallReport {
    // Rendezvous hidden in procedures must be counted: inline first.
    let inlined;
    let p: &Program = if p.has_calls() {
        match iwa_tasklang::transforms::inline_procs(p) {
            Ok(q) => {
                inlined = q;
                &inlined
            }
            Err(e) => {
                return StallReport {
                    verdict: StallVerdict::Unknown {
                        reason: e.to_string(),
                    },
                    signal_counts: Vec::new(),
                    transforms_applied: false,
                    straight_line: false,
                    combinations_checked: 0,
                }
            }
        }
    } else {
        p
    };
    // Both transforms leave a straight-line program as it is.
    let transformed;
    let target: &Program = if opts.apply_transforms && !p.is_straight_line() {
        transformed = factor_codependent(&merge_branch_rendezvous(p));
        &transformed
    } else {
        p
    };

    let signal_counts = signal_balance(target);
    let straight_line = target.is_straight_line();

    if straight_line {
        // Lemma 3.
        let verdict = match signal_counts
            .iter()
            .find(|(_, s, a)| s != a)
        {
            None => StallVerdict::StallFree,
            Some(&(signal, sends, accepts)) => StallVerdict::PossibleStall {
                signal,
                sends,
                accepts,
            },
        };
        return StallReport {
            verdict,
            signal_counts,
            transforms_applied: opts.apply_transforms,
            straight_line,
            combinations_checked: 0,
        };
    }

    if !target.is_loop_free() {
        return StallReport {
            verdict: StallVerdict::Unknown {
                reason: "program has loops; stall analysis subsumes halting (paper §5)"
                    .into(),
            },
            signal_counts,
            transforms_applied: opts.apply_transforms,
            straight_line,
            combinations_checked: 0,
        };
    }

    // Lemma 4 over all path combinations.
    let per_task = match task_path_signatures(target, opts, budget) {
        Ok(s) => s,
        Err(e) => {
            return StallReport {
                verdict: StallVerdict::Unknown {
                    reason: e.to_string(),
                },
                signal_counts,
                transforms_applied: opts.apply_transforms,
                straight_line,
                combinations_checked: 0,
            }
        }
    };
    // A product that overflows `usize` exceeds any budget, and its wrapped
    // value is no count to print.
    let total = per_task
        .iter()
        .try_fold(1usize, |acc, sigs| acc.checked_mul(sigs.len()));
    let max = opts.max_combinations;
    let over_budget = match total {
        Some(total) if total <= max => None,
        Some(total) => Some(format!(
            "{total} path combinations exceed the budget of {max}"
        )),
        None => Some(format!(
            "the path combinations overflow usize and exceed the budget of {max}"
        )),
    };
    if let Some(reason) = over_budget {
        return StallReport {
            verdict: StallVerdict::Unknown { reason },
            signal_counts,
            transforms_applied: opts.apply_transforms,
            straight_line,
            combinations_checked: 0,
        };
    }

    let nsig = target.symbols.num_signals();
    let mut idx = vec![0usize; per_task.len()];
    let mut checked = 0usize;
    loop {
        if let Err(e) = budget.checkpoint("summing stall path combinations") {
            return StallReport {
                verdict: StallVerdict::Unknown {
                    reason: e.to_string(),
                },
                signal_counts,
                transforms_applied: opts.apply_transforms,
                straight_line,
                combinations_checked: checked,
            };
        }
        // Sum the selected signatures.
        let mut net = vec![0i64; nsig];
        for (t, sigs) in per_task.iter().enumerate() {
            if let Some(sig) = sigs.get(idx[t]) {
                for (k, v) in sig.iter().enumerate() {
                    net[k] += v;
                }
            }
        }
        checked += 1;
        if let Some(k) = net.iter().position(|&v| v != 0) {
            // Recover the witness counts for reporting.
            let mut sends = HashMap::new();
            let mut accepts = HashMap::new();
            for (t, sigs) in per_task.iter().enumerate() {
                if let Some(sig) = sigs.get(idx[t]) {
                    let v = sig[k];
                    if v > 0 {
                        *sends.entry(t).or_insert(0i64) += v;
                    } else {
                        *accepts.entry(t).or_insert(0i64) -= v;
                    }
                }
            }
            let s: i64 = sends.values().sum();
            let a: i64 = accepts.values().sum();
            return StallReport {
                verdict: StallVerdict::PossibleStall {
                    signal: SignalId(k as u32),
                    sends: s as usize,
                    accepts: a as usize,
                },
                signal_counts,
                transforms_applied: opts.apply_transforms,
                straight_line,
                combinations_checked: checked,
            };
        }
        // Odometer increment.
        let mut t = 0;
        loop {
            if t == per_task.len() {
                return StallReport {
                    verdict: StallVerdict::StallFree,
                    signal_counts,
                    transforms_applied: opts.apply_transforms,
                    straight_line,
                    combinations_checked: checked,
                };
            }
            idx[t] += 1;
            if idx[t] < per_task[t].len().max(1) {
                break;
            }
            idx[t] = 0;
            t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    /// [`AnalysisCtx::stall`] on a default ctx.
    fn stall_analysis(p: &Program, opts: &StallOptions) -> StallReport {
        AnalysisCtx::builder().build().stall(p, opts)
    }

    fn analyse(src: &str) -> StallReport {
        stall_analysis(&parse(src).unwrap(), &StallOptions::default())
    }

    #[test]
    fn balanced_straight_line_is_stall_free() {
        let r = analyse("task a { send b.m; send b.m; } task b { accept m; accept m; }");
        assert_eq!(r.verdict, StallVerdict::StallFree);
        assert!(r.straight_line);
        assert_eq!(r.combinations_checked, 0, "Lemma 3 needs no enumeration");
    }

    #[test]
    fn unbalanced_straight_line_is_flagged() {
        let r = analyse("task a { send b.m; send b.m; } task b { accept m; }");
        match r.verdict {
            StallVerdict::PossibleStall { sends, accepts, .. } => {
                assert_eq!((sends, accepts), (2, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn figure_5b_merge_rescues_the_balance_check() {
        // The same rendezvous on both branch arms: raw counting sees two
        // sends vs one accept *per path*, but the merge transform proves
        // exactly one send executes.
        let r = analyse(
            "task a { if { send b.m; } else { send b.m; } } task b { accept m; }",
        );
        assert_eq!(r.verdict, StallVerdict::StallFree);
        assert!(r.straight_line, "transform collapsed the conditional");
    }

    #[test]
    fn figure_5d_codependence_rescues_the_balance_check() {
        let r = analyse(
            "task t {
                send u.s carrying v;
                if (v) { send u.r; }
             }
             task u {
                accept s binding w;
                if (w) { accept r; }
             }",
        );
        assert_eq!(r.verdict, StallVerdict::StallFree);
    }

    #[test]
    fn independent_branches_are_a_possible_stall() {
        // t may or may not send; u unconditionally accepts: the (no-send,
        // accept) combination is unbalanced.
        let r = analyse("task t { if { send u.m; } } task u { accept m; }");
        assert!(matches!(r.verdict, StallVerdict::PossibleStall { .. }));
        assert!(r.combinations_checked >= 1);
    }

    #[test]
    fn matching_branches_across_tasks_are_a_false_alarm_without_codependence() {
        // Feasibly the two opaque conditionals could always agree, but
        // nothing proves it: conservative possible-stall.
        let r = analyse(
            "task t { if { send u.m; } } task u { if { accept m; } }",
        );
        assert!(matches!(r.verdict, StallVerdict::PossibleStall { .. }));
    }

    #[test]
    fn loops_answer_unknown() {
        let r = analyse("task t { while { send u.m; } } task u { while { accept m; } }");
        assert!(matches!(r.verdict, StallVerdict::Unknown { .. }));
    }

    #[test]
    fn loop_bodies_emptied_by_transforms_become_decidable() {
        // Both arms send the same thing inside the loop → merge leaves the
        // loop with one unconditional send; still a loop → Unknown. This
        // pins the documented limitation.
        let r = analyse(
            "task t { while { if { send u.m; } else { send u.m; } } } task u { accept m; }",
        );
        assert!(matches!(r.verdict, StallVerdict::Unknown { .. }));
    }

    #[test]
    fn procedures_are_inlined_before_counting() {
        // The send hides inside a procedure called twice; counting without
        // inlining would see 0 sends vs 2 accepts.
        let r = analyse(
            "proc fire { send u.m; }
             task t { call fire; call fire; }
             task u { accept m; accept m; }",
        );
        assert_eq!(r.verdict, StallVerdict::StallFree);
    }

    #[test]
    fn signal_balance_counts_every_occurrence() {
        let p = parse(
            "task a { send b.m; if { send b.m; } } task b { accept m; accept m; }",
        )
        .unwrap();
        let counts = signal_balance(&p);
        assert_eq!(counts.len(), 1);
        assert_eq!((counts[0].1, counts[0].2), (2, 2));
    }

    #[test]
    fn balanced_branches_certify_via_path_combinations() {
        // Both tasks branch, but every path sends/accepts exactly once.
        let r = analyse(
            "task t { if { send u.a; } else { send u.a; } }
             task u { if { accept a; } else { accept a; } }",
        );
        // The merge transform collapses both conditionals first.
        assert_eq!(r.verdict, StallVerdict::StallFree);
    }

    #[test]
    fn transforms_can_be_disabled() {
        let r = stall_analysis(
            &parse("task a { if { send b.m; } else { send b.m; } } task b { accept m; }")
                .unwrap(),
            &StallOptions {
                apply_transforms: false,
                ..StallOptions::default()
            },
        );
        // Without the merge, path enumeration still proves balance: each
        // path has exactly one send.
        assert_eq!(r.verdict, StallVerdict::StallFree);
        assert!(!r.transforms_applied);
        // The two arms have identical signatures, so they merge to one.
        assert_eq!(r.combinations_checked, 1);
    }

    #[test]
    fn signature_dedup_survives_hash_collisions() {
        let hash = |sig: &[i64]| {
            let mut hasher = DefaultHasher::new();
            sig.hash(&mut hasher);
            hasher.finish()
        };
        let sigs = vec![vec![1, 0], vec![0, 1]];
        let seen = || HashMap::from([(hash(&[1, 0]), 0), (hash(&[0, 1]), 1)]);
        assert!(!is_new_signature(&mut seen(), &sigs, &[0, 1]));
        assert!(is_new_signature(&mut seen(), &sigs, &[2, 2]));
        // Forge collisions: a hash that points at another signature.
        let mut forged = HashMap::from([(hash(&[2, 2]), 0), (hash(&[0, 1]), 0)]);
        assert!(is_new_signature(&mut forged, &sigs, &[2, 2]));
        assert!(!is_new_signature(&mut forged, &sigs, &[0, 1]));
    }
}
