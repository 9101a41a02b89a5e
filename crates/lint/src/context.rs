//! Shared state the tasklang lint checks read from.

use iwa_analysis::AnalysisCtx;
use iwa_core::{IwaError, SignalId, Span};
use iwa_syncgraph::SyncGraph;
use iwa_tasklang::transforms::{inline_procs, unroll_twice};
use iwa_tasklang::validate::check_model;
use iwa_tasklang::{Program, Stmt};
use std::cell::OnceCell;

/// Everything a tasklang lint's [`Check`](crate::Check) may consult,
/// derived at most once per linted program.
///
/// Three views of the program coexist:
///
/// * [`program`](Self::program) — the original, as parsed (spans point at
///   exactly what the user wrote; procedures still present);
/// * [`inlined`](Self::inlined) — procedures expanded; statement spans
///   copied from the procedure bodies, so proc-hidden findings still map
///   to source;
/// * [`unrolled`](Self::unrolled) / [`unrolled_sg`](Self::unrolled_sg) —
///   the Lemma-1 form the deadlock analyses run on. Both unrolled copies
///   of a loop body *share* the original statement's span, which is what
///   lets graph-level findings collapse back to one source location.
///
/// The AST-level views (`program`, `inlined` and the signal
/// [`counts`](Self::counts)) are built up front. The graph views
/// ([`sg`](Self::sg), [`unrolled`](Self::unrolled) and
/// [`unrolled_sg`](Self::unrolled_sg)) are built on first use, so the
/// quick stage, whose [`Ast`](crate::Check::Ast) checks read none of
/// them, builds no sync graph.
pub struct LintContext<'a> {
    /// The original program.
    pub program: &'a Program,
    /// The analysis context (budget, cancellation, workers) the
    /// graph-level checks run under.
    pub ctx: &'a AnalysisCtx,
    /// The program with procedures inlined (identical to `program` when
    /// it has no calls).
    pub inlined: Program,
    /// Whole-program send/accept counts per signal, on the inlined form
    /// (so procedure bodies are counted against their call sites' tasks),
    /// one entry per signal id in id order.
    pub balance: Vec<(SignalId, usize, usize)>,
    sg: OnceCell<SyncGraph>,
    unrolled: OnceCell<Program>,
    unrolled_sg: OnceCell<SyncGraph>,
}

impl<'a> LintContext<'a> {
    /// Derive the AST-level lint views of `program`; the graph views wait
    /// for their first reader.
    ///
    /// Fails when the program violates the model assumptions
    /// ([`check_model`]) — lints describe *analysable* programs; hard
    /// violations stay errors.
    pub fn new(program: &'a Program, ctx: &'a AnalysisCtx) -> Result<Self, IwaError> {
        check_model(program)?;
        let inlined = inline_procs(program)?;
        let balance = iwa_analysis::stall::signal_balance(&inlined);
        Ok(LintContext {
            program,
            ctx,
            inlined,
            balance,
            sg: OnceCell::new(),
            unrolled: OnceCell::new(),
            unrolled_sg: OnceCell::new(),
        })
    }

    /// Sync graph of the inlined program.
    #[must_use]
    pub fn sg(&self) -> &SyncGraph {
        self.sg
            .get_or_init(|| SyncGraph::from_program(&self.inlined))
    }

    /// The inlined program unrolled twice (Lemma 1).
    #[must_use]
    pub fn unrolled(&self) -> &Program {
        self.unrolled.get_or_init(|| unroll_twice(&self.inlined))
    }

    /// Sync graph of the unrolled program — the one the refined deadlock
    /// analysis certifies.
    #[must_use]
    pub fn unrolled_sg(&self) -> &SyncGraph {
        self.unrolled_sg
            .get_or_init(|| SyncGraph::from_program(self.unrolled()))
    }

    /// `(sends, accepts)` whole-program counts of `signal`.
    #[must_use]
    pub fn counts(&self, signal: SignalId) -> (usize, usize) {
        self.balance
            .get(signal.index())
            .map_or((0, 0), |&(_, sends, accepts)| (sends, accepts))
    }

    /// The first (syntactic order, original program) rendezvous statement
    /// on `signal`, preferring task bodies over procedure bodies.
    #[must_use]
    pub fn first_site_of(&self, signal: SignalId) -> Option<Span> {
        let mut found = None;
        let mut scan = |body: &[Stmt]| {
            for s in body {
                s.visit_rendezvous(&mut |st| {
                    if found.is_none()
                        && st.rendezvous().is_some_and(|r| r.signal == signal)
                    {
                        found = Some(st.span());
                    }
                });
            }
        };
        for t in &self.program.tasks {
            scan(&t.body);
        }
        for p in &self.program.procs {
            scan(&p.body);
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quick_registry, registry_for, Check, Lang};
    use iwa_analysis::stall::signal_balance;
    use iwa_tasklang::{parse, ProgramBuilder};

    /// Whether `sg`, `unrolled` and `unrolled_sg` have been built.
    fn derived(lcx: &LintContext<'_>) -> [bool; 3] {
        [
            lcx.sg.get().is_some(),
            lcx.unrolled.get().is_some(),
            lcx.unrolled_sg.get().is_some(),
        ]
    }

    #[test]
    fn the_quick_registry_builds_no_graph_view_and_the_full_one_builds_all() {
        // A call, a loop, an entry never called and a self-send: every
        // quick lint has something to read, and unrolling changes the
        // program.
        let p = parse(
            "proc greet { send z.m; }
             task a { call greet; while { call greet; } send a.own; accept own; }
             task z { while { accept m; } accept never; }",
        )
        .unwrap();
        let ctx = AnalysisCtx::default();
        let lcx = LintContext::new(&p, &ctx).unwrap();
        let mut out = Vec::new();
        for lint in quick_registry() {
            if let Check::Ast(check) | Check::Graph(check) = lint.check {
                check(lint, &lcx, &mut out);
            }
        }
        assert!(!out.is_empty(), "the quick lints found nothing to report");
        assert_eq!(derived(&lcx), [false; 3]);
        for lint in registry_for(Lang::Tasklang) {
            if let Check::Ast(check) | Check::Graph(check) = lint.check {
                check(lint, &lcx, &mut out);
            }
        }
        assert_eq!(derived(&lcx), [true; 3]);
        let unrolled = SyncGraph::from_program(&unroll_twice(&lcx.inlined));
        assert_eq!(lcx.unrolled_sg().num_nodes(), unrolled.num_nodes());
    }

    #[test]
    fn counts_match_a_scan_of_the_balance_for_every_signal() {
        // Parsed: `q` is used only by a procedure nobody calls, and
        // `never` is accepted but never sent.
        let parsed = parse(
            "proc idle { send z.q; }
             proc greet { send z.m; }
             task a { call greet; call greet; }
             task z { accept m; accept m; accept never; }",
        )
        .unwrap();
        // Built: `unused` is declared and no statement names it.
        let mut b = ProgramBuilder::new();
        let a = b.task("a");
        let z = b.task("z");
        let m = b.signal(z, "m");
        b.signal(a, "unused");
        let back = b.signal(a, "back");
        b.body(a, |t| {
            t.send(m).accept(back);
        });
        b.body(z, |t| {
            t.accept(m).send(back).send(back);
        });
        let built = b.build();
        let ctx = AnalysisCtx::default();
        for p in [&parsed, &built] {
            let lcx = LintContext::new(p, &ctx).unwrap();
            let balance = signal_balance(&lcx.inlined);
            let n = p.symbols.num_signals();
            assert!(n >= 3);
            for i in 0..n {
                let signal = SignalId(i as u32);
                let scanned = balance
                    .iter()
                    .find(|(s, _, _)| *s == signal)
                    .map_or((0, 0), |&(_, s, a)| (s, a));
                assert_eq!(lcx.counts(signal), scanned, "signal {i}");
            }
        }
        let lcx = LintContext::new(&parsed, &ctx).unwrap();
        let id = |task: &str, msg: &str| {
            let t = parsed.symbols.task(task).unwrap();
            parsed.symbols.signal(t, msg).unwrap()
        };
        assert_eq!(lcx.counts(id("z", "m")), (2, 2));
        assert_eq!(lcx.counts(id("z", "q")), (0, 0));
        assert_eq!(lcx.counts(id("z", "never")), (0, 1));
    }
}
