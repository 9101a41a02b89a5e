//! Sync-graph and analysis-derived lints.
//!
//! These checks run the paper's algorithms through the shared
//! [`AnalysisCtx`](iwa_analysis::AnalysisCtx), so the caller's budget,
//! cancellation token, and worker count all apply. When a budgeted
//! analysis cannot finish, the check reports nothing rather than guessing
//! — lint output stays deterministic for whatever the analysis certified.

use super::finding;
use crate::{Diagnostic, Lint, LintContext};
use iwa_analysis::{RefinedOptions, StallOptions, StallVerdict};
use iwa_core::Sign;

/// `self-rendezvous-cycle`: an accept whose every matching send lies in
/// its own task. The task would have to stand at the send and the accept
/// simultaneously — a one-task cycle in the sync graph that can never
/// complete. Computed on the *inlined* graph, so sends hidden inside
/// called procedures are attributed to their calling task (which the
/// AST-level `self-send` lint cannot see).
pub fn self_rendezvous_cycle(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let sg = ctx.sg();
    for n in sg.rendezvous_nodes() {
        let d = sg.node(n);
        if d.rendezvous.sign != Sign::Minus {
            continue;
        }
        let partners = sg.sync_neighbors(n);
        if !partners.is_empty() && partners.iter().all(|&m| sg.node(m as usize).task == d.task) {
            out.push(finding(
                lint,
                d.span,
                format!(
                    "entry '{}' is only ever called from its own task '{}'; \
                     this rendezvous can never complete",
                    sg.symbols.signal_name(d.rendezvous.signal),
                    sg.symbols.task_name(d.task)
                ),
            ));
        }
    }
}

/// `always-stalling-wait`: the §5 stall analysis (Lemma 3 signal balance,
/// Lemma 4 path combinations) found a path combination on which some
/// signal's send and accept counts cannot match — a wait on that signal
/// outlives every possible partner.
pub fn always_stalling_wait(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
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
        out.push(finding(
            lint,
            ctx.first_site_of(signal).unwrap_or_default(),
            format!(
                "{certainty} on signal '{}': {sends} send(s) against {accepts} accept(s)",
                ctx.program.symbols.signal_name(signal)
            ),
        ));
    }
}

/// `deadlock-head`: the refined analysis (§4.2) certified that a
/// rendezvous heads a nonremovable cycle in the unrolled sync graph — a
/// potential deadlock the polynomial analysis could not discharge.
/// Spans on the unrolled graph map back to the original source (both
/// unrolled copies share their original's span), so the two copies of a
/// flagged loop-body head collapse into one diagnostic.
pub fn deadlock_head(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let sg = ctx.unrolled_sg();
    let Ok(result) = ctx.ctx.refined(sg, &RefinedOptions::default()) else {
        // Budget exhausted or cancelled: certify nothing, flag nothing.
        return;
    };
    for f in &result.flagged {
        let d = sg.node(f.head);
        // The component size depends on which unrolled copy was
        // flagged, so it stays out of the message — both copies must
        // dedup to one finding per source site.
        out.push(finding(
            lint,
            d.span,
            format!(
                "potential deadlock: task '{}' waiting at '{}{}' heads a nonremovable \
                 cycle of rendezvous",
                sg.symbols.task_name(d.task),
                sg.symbols.signal_name(d.rendezvous.signal),
                d.rendezvous.sign,
            ),
        ));
    }
}
