//! End-to-end certification driver.
//!
//! Pipeline (the paper's overall method):
//!
//! 1. validate the program against the model assumptions (§1–2);
//! 2. if it has loops, apply Lemma 1's double unrolling so the sync graph
//!    is control-acyclic;
//! 3. build the sync graph, its port CLG and the CLG's whole-graph SCC
//!    decomposition, each once;
//! 4. run the naive check (§3.1) — a cheap first cut whose result is also
//!    reported for comparison — read from that decomposition: its
//!    non-trivial components reachable from `b`;
//! 5. run the refined algorithm (§4.2) at the configured tier over the same
//!    CLG and decomposition — its answer is the deadlock verdict;
//! 6. run the stall analysis (§5) on the *original* program (stall counting
//!    must not see unrolled copies).

use crate::ctx::AnalysisCtx;
use crate::naive::{naive_from, NaiveResult};
use crate::refined::{clg_and_scc, refined_on, RefinedOptions, RefinedResult};
use crate::stall::{StallOptions, StallReport};
use iwa_core::obs::Counters;
use iwa_core::IwaError;
use iwa_syncgraph::SyncGraph;
use iwa_tasklang::transforms::{inline_procs, unroll_twice};
use iwa_tasklang::validate::check_model;
use iwa_tasklang::Program;

/// Options for [`AnalysisCtx::certify`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CertifyOptions {
    /// Refined-algorithm options (tier, marking discipline).
    pub refined: RefinedOptions,
    /// Stall-analysis options.
    pub stall: StallOptions,
}

/// Everything the driver learned about a program.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Whether procedure inlining was applied (interprocedural model).
    pub was_inlined: bool,
    /// Whether Lemma 1 unrolling was applied before deadlock analysis.
    pub was_unrolled: bool,
    /// The sync graph the deadlock half analysed (after any inlining and
    /// unrolling). The node indices in [`refined`](Certificate::refined)
    /// refer to this graph.
    pub sg: SyncGraph,
    /// The naive §3.1 result (reported for comparison; not the verdict).
    pub naive: NaiveResult,
    /// The refined §4.2 result — the deadlock verdict.
    pub refined: RefinedResult,
    /// The §5 stall report (computed on the original, un-unrolled program).
    pub stall: StallReport,
}

impl Certificate {
    /// Is the program certified free of deadlock anomalies?
    #[must_use]
    pub fn deadlock_free(&self) -> bool {
        self.refined.deadlock_free
    }

    /// Is the program certified free of stall anomalies?
    #[must_use]
    pub fn stall_free(&self) -> bool {
        matches!(self.stall.verdict, crate::stall::StallVerdict::StallFree)
    }

    /// Certified free of every infinite-wait anomaly?
    #[must_use]
    pub fn anomaly_free(&self) -> bool {
        self.deadlock_free() && self.stall_free()
    }
}

/// [`AnalysisCtx::certify`]: the full pipeline, with the ctx budget
/// threaded into the refined deadlock analysis and the stall analysis.
///
/// A budget trip during the refined pass aborts with
/// [`IwaError::BudgetExceeded`] (there is no deadlock verdict without it);
/// a trip during the stall pass degrades that half of the certificate to
/// [`StallVerdict::Unknown`](crate::stall::StallVerdict::Unknown) instead.
pub(crate) fn certify_impl(
    p: &Program,
    opts: &CertifyOptions,
    ctx: &AnalysisCtx,
) -> Result<Certificate, IwaError> {
    let pipeline_span = ctx.span("pipeline", "certify");
    {
        let _span = ctx.span("pipeline", "validate");
        check_model(p)?;
    }
    ctx.budget().probe("certify pipeline")?;

    // Interprocedural model (the paper's deferred extension): inline the
    // acyclic call graph first; everything downstream is intraprocedural.
    let was_inlined = p.has_calls();
    let inlined;
    let p: &Program = if was_inlined {
        let _span = ctx.span("pipeline", "inline");
        inlined = inline_procs(p)?;
        &inlined
    } else {
        p
    };

    let was_unrolled = !p.is_loop_free();
    let analysed;
    let target: &Program = if was_unrolled {
        let _span = ctx.span("pipeline", "unroll");
        analysed = unroll_twice(p);
        &analysed
    } else {
        p
    };

    let sg = {
        let _span = ctx.span("pipeline", "syncgraph");
        SyncGraph::from_program(target)
    };
    let (clg, full) = clg_and_scc(&sg, ctx);
    let naive = {
        let _span = ctx.span("pipeline", "naive");
        naive_from(&sg, &clg, &full)
    };
    // The pipeline's own counters commit only when the whole call
    // succeeds, matching the commit-on-completion discipline of the
    // analyses it drives.
    let delta = Counters {
        sg_nodes: sg.num_nodes() as u64,
        sg_control_edges: sg.control.num_edges() as u64,
        sg_sync_edges: sg.num_sync_edges() as u64,
        clg_cycles: naive.cycle_components.len() as u64,
        ..Counters::default()
    };
    // Constraint 4 is wave-semantic and only valid on the program's own
    // graph (see `RefinedOptions::apply_constraint4`): drop it when the
    // graph is a Lemma-1 unrolled image.
    let mut refined_opts = opts.refined;
    if was_unrolled {
        refined_opts.apply_constraint4 = false;
    }
    let refined = {
        let _span = ctx.span("pipeline", "refined");
        refined_on(&sg, &clg, &full, None, &refined_opts, ctx)?
    };
    // The stall pass reads neither graph; free them before it runs.
    drop((clg, full));
    let stall = {
        let _span = ctx.span("pipeline", "stall");
        ctx.stall(p, &opts.stall)
    };
    ctx.commit_metrics(&delta);
    if let Some(mut span) = pipeline_span {
        span.note("sg_nodes", sg.num_nodes() as u64);
        span.note("steps", ctx.budget().steps());
    }

    Ok(Certificate {
        was_inlined,
        was_unrolled,
        sg,
        naive,
        refined,
        stall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refined::{RefinedOptions, Tier};
    use iwa_tasklang::parse;

    /// [`AnalysisCtx::certify`] on a default ctx.
    fn certify(p: &Program, opts: &CertifyOptions) -> Result<Certificate, IwaError> {
        AnalysisCtx::builder().build().certify(p, opts)
    }

    fn run(src: &str) -> Certificate {
        certify(&parse(src).unwrap(), &CertifyOptions::default()).unwrap()
    }

    #[test]
    fn clean_program_is_fully_certified() {
        let c = run(
            "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
        );
        assert!(c.anomaly_free());
        assert!(!c.was_unrolled);
        assert!(c.naive.deadlock_free);
    }

    #[test]
    fn loopy_pipeline_is_unrolled_and_certified_by_the_pair_tier() {
        let p = parse(
            "task producer { while { send consumer.item; } }
             task consumer { while { accept item; } }",
        )
        .unwrap();
        // The unrolled pipeline is the 2×2 producer/consumer: its CLG cycle
        // has rendezvous-able heads (constraint 2), which the base tier
        // cannot see across tasks — it conservatively flags.
        let base = run(&p.to_source());
        assert!(base.was_unrolled);
        assert!(!base.deadlock_free(), "base tier is conservative");
        let c = certify(
            &p,
            &CertifyOptions {
                refined: RefinedOptions {
                    tier: Tier::HeadPairs,
                    ..RefinedOptions::default()
                },
                ..CertifyOptions::default()
            },
        )
        .unwrap();
        assert!(c.deadlock_free(), "pair tier certifies");
        // Stall analysis sees the loops and abstains.
        assert!(!c.stall_free());
    }

    #[test]
    fn crossed_deadlock_fails_certification() {
        let c = run(
            "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
        );
        assert!(!c.deadlock_free());
        assert!(!c.anomaly_free());
    }

    #[test]
    fn figure_1_certified_by_refined_despite_naive() {
        let c = run(
            "task t1 { send t2.sig1; accept sig2; }
             task t2 {
                if { accept sig1; } else { accept sig1; }
                send t1.sig2;
                accept sig1;
             }",
        );
        assert!(!c.naive.deadlock_free);
        assert!(c.deadlock_free());
    }

    #[test]
    fn tiers_are_selectable() {
        let p = parse(
            "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
        )
        .unwrap();
        for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
            let c = certify(
                &p,
                &CertifyOptions {
                    refined: RefinedOptions {
                        tier,
                        ..RefinedOptions::default()
                    },
                    ..CertifyOptions::default()
                },
            )
            .unwrap();
            assert!(c.deadlock_free(), "tier {tier:?}");
        }
    }

    #[test]
    fn invalid_programs_error() {
        // Builder-level misuse is covered in validate's tests; here check
        // the driver propagates it.
        use iwa_tasklang::ast::ProgramBuilder;
        let mut b = ProgramBuilder::new();
        let a = b.task("a");
        let z = b.task("z");
        let sig = b.signal(z, "m");
        b.body(a, |t| {
            t.accept(sig);
        });
        b.body(z, |t| {
            t.send(sig);
        });
        assert!(certify(&b.build(), &CertifyOptions::default()).is_err());
    }

    #[test]
    fn interprocedural_deadlock_is_found_through_inlining() {
        // The crossed deadlock, with each send hidden inside a shared
        // procedure — invisible without the interprocedural extension.
        let c = run(
            "proc poke_t2 { send t2.a; }
             proc poke_t1 { send t1.b; }
             task t1 { call poke_t2; accept b; }
             task t2 { call poke_t1; accept a; }",
        );
        assert!(c.was_inlined);
        assert!(!c.deadlock_free());
    }

    #[test]
    fn interprocedural_clean_program_is_certified() {
        // The inlined program is the 2×2 producer/consumer (lemma2 shape):
        // the base tier conservatively flags it, the pair tier certifies.
        let p = parse(
            "proc greet { send server.hello; }
             task client { call greet; call greet; }
             task server { accept hello; accept hello; }",
        )
        .unwrap();
        let c = certify(
            &p,
            &CertifyOptions {
                refined: RefinedOptions {
                    tier: Tier::HeadPairs,
                    ..RefinedOptions::default()
                },
                ..CertifyOptions::default()
            },
        )
        .unwrap();
        assert!(c.was_inlined);
        assert!(c.anomaly_free(), "stall: {:?}", c.stall.verdict);
    }

    #[test]
    fn loops_inside_procedures_are_unrolled_after_inlining() {
        let p = parse(
            "proc burst { while { send sink.m; } }
             task src { call burst; }
             task sink { while { accept m; } }",
        )
        .unwrap();
        let c = certify(
            &p,
            &CertifyOptions {
                refined: RefinedOptions {
                    tier: Tier::HeadPairs,
                    ..RefinedOptions::default()
                },
                ..CertifyOptions::default()
            },
        )
        .unwrap();
        assert!(c.was_inlined);
        assert!(c.was_unrolled);
        assert!(c.deadlock_free());
    }

    #[test]
    fn graph_size_reflects_unrolling() {
        let c1 = run("task a { send b.m; } task b { accept m; }");
        assert_eq!(c1.sg.num_nodes(), 2 + 2);
        let c2 = run("task a { while { send b.m; } } task b { while { accept m; } }");
        assert!(c2.sg.num_nodes() > c1.sg.num_nodes(), "unrolled copies present");
    }
}
