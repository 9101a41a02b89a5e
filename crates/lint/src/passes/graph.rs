//! Sync-graph and analysis-derived lints.
//!
//! These passes run the paper's algorithms through the shared
//! [`AnalysisCtx`](iwa_analysis::AnalysisCtx), so the caller's budget,
//! cancellation token, and worker count all apply. When a budgeted
//! analysis cannot finish, the pass reports nothing rather than guessing
//! — lint output stays deterministic for whatever the analysis certified.

use crate::{Diagnostic, Lang, Lint, LintContext, LintPass, Severity};
use iwa_analysis::{RefinedOptions, StallOptions, StallVerdict};
use iwa_core::Sign;

/// `self-rendezvous-cycle`: an accept whose every matching send lies in
/// its own task. The task would have to stand at the send and the accept
/// simultaneously — a one-task cycle in the sync graph that can never
/// complete. Computed on the *inlined* graph, so sends hidden inside
/// called procedures are attributed to their calling task (which the
/// AST-level `self-send` lint cannot see).
pub struct SelfRendezvousCycle;

static SELF_RENDEZVOUS_CYCLE: Lint = Lint {
    name: "self-rendezvous-cycle",
    default_severity: Severity::Warn,
    description: "an entry is only ever called from its own task; the rendezvous cannot complete",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for SelfRendezvousCycle {
    fn lint(&self) -> &'static Lint {
        &SELF_RENDEZVOUS_CYCLE
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let sg = ctx.sg();
        for n in sg.rendezvous_nodes() {
            let d = sg.node(n);
            if d.rendezvous.sign != Sign::Minus {
                continue;
            }
            let partners = sg.sync_neighbors(n);
            if !partners.is_empty()
                && partners
                    .iter()
                    .all(|&m| sg.node(m as usize).task == d.task)
            {
                out.push(Diagnostic {
                    lint: self.lint().name.to_owned(),
                    severity: Severity::Warn,
                    message: format!(
                        "entry '{}' is only ever called from its own task '{}'; \
                         this rendezvous can never complete",
                        sg.symbols.signal_name(d.rendezvous.signal),
                        sg.symbols.task_name(d.task)
                    ),
                    span: d.span,
                });
            }
        }
    }
}

/// `always-stalling-wait`: the §5 stall analysis (Lemma 3 signal balance,
/// Lemma 4 path combinations) found a path combination on which some
/// signal's send and accept counts cannot match — a wait on that signal
/// outlives every possible partner.
pub struct AlwaysStallingWait;

static ALWAYS_STALLING_WAIT: Lint = Lint {
    name: "always-stalling-wait",
    default_severity: Severity::Warn,
    description: "the stall analysis found a path combination with unbalanced waits on a signal",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for AlwaysStallingWait {
    fn lint(&self) -> &'static Lint {
        &ALWAYS_STALLING_WAIT
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let report = ctx.ctx.stall(&ctx.inlined, &StallOptions::default());
        if let StallVerdict::PossibleStall {
            signal,
            sends,
            accepts,
        } = report.verdict
        {
            let certainty = if report.straight_line {
                "every execution stalls"
            } else {
                "a path combination stalls"
            };
            out.push(Diagnostic {
                lint: self.lint().name.to_owned(),
                severity: Severity::Warn,
                message: format!(
                    "{certainty} on signal '{}': {sends} send(s) against {accepts} accept(s)",
                    ctx.program.symbols.signal_name(signal)
                ),
                span: ctx.first_site_of(signal).unwrap_or_default(),
            });
        }
    }
}

/// `deadlock-head`: the refined analysis (§4.2) certified that a
/// rendezvous heads a nonremovable cycle in the unrolled sync graph — a
/// potential deadlock the polynomial analysis could not discharge.
/// Spans on the unrolled graph map back to the original source (both
/// unrolled copies share their original's span), so the two copies of a
/// flagged loop-body head collapse into one diagnostic.
pub struct DeadlockHead;

static DEADLOCK_HEAD: Lint = Lint {
    name: "deadlock-head",
    default_severity: Severity::Deny,
    description: "the refined analysis flagged this rendezvous as the head of a deadlock cycle",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for DeadlockHead {
    fn lint(&self) -> &'static Lint {
        &DEADLOCK_HEAD
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let sg = ctx.unrolled_sg();
        let Ok(result) = ctx.ctx.refined(sg, &RefinedOptions::default()) else {
            // Budget exhausted or cancelled: certify nothing, flag nothing.
            return;
        };
        for f in &result.flagged {
            let d = sg.node(f.head);
            out.push(Diagnostic {
                lint: self.lint().name.to_owned(),
                severity: Severity::Deny,
                // The component size depends on which unrolled copy was
                // flagged, so it stays out of the message — both copies
                // must dedup to one finding per source site.
                message: format!(
                    "potential deadlock: task '{}' waiting at '{}{}' heads a nonremovable \
                     cycle of rendezvous",
                    sg.symbols.task_name(d.task),
                    sg.symbols.signal_name(d.rendezvous.signal),
                    d.rendezvous.sign,
                ),
                span: d.span,
            });
        }
    }
}
