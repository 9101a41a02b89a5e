//! The full per-figure reproduction matrix (experiments E1–E5, E7, E12).
//!
//! For every figure of the paper: run the oracle, the naive and refined
//! algorithms, the exact checker, and the stall analysis, and assert the
//! property the paper claims. `EXPERIMENTS.md` records the same matrix.

use iwa::analysis::exact::{ConstraintSet, ExactBudget, ExactResult};
use iwa::analysis::{
    naive_analysis, AnalysisCtx, RefinedOptions, RefinedResult, SequenceInfo,
    StallOptions, StallReport, StallVerdict, Tier,
};
use iwa::syncgraph::SyncGraph;
use iwa::wavesim::{explore, ExploreConfig, Verdict};
use iwa::workloads::figures;

// Terse wrappers over the unlimited [`AnalysisCtx`] for the matrix.
fn refined_analysis(sg: &SyncGraph, opts: &RefinedOptions) -> RefinedResult {
    AnalysisCtx::builder().build().refined(sg, opts).unwrap()
}

fn stall_analysis(p: &iwa::tasklang::Program, opts: &StallOptions) -> StallReport {
    AnalysisCtx::builder().build().stall(p, opts)
}

fn exact_deadlock_cycles(
    sg: &SyncGraph,
    constraints: &ConstraintSet,
    budget: &ExactBudget,
) -> ExactResult {
    AnalysisCtx::builder().build().exact_cycles(sg, constraints, budget).unwrap()
}

fn oracle(p: &iwa::tasklang::Program) -> iwa::wavesim::Exploration {
    explore(&SyncGraph::from_program(p), &ExploreConfig::default()).unwrap()
}

fn refined_tier(sg: &SyncGraph, tier: Tier) -> bool {
    refined_analysis(
        sg,
        &RefinedOptions {
            tier,
            ..RefinedOptions::default()
        },
    )
    .deadlock_free
}

/// E1 — Figure 1: naive flags, refined certifies, oracle agrees there is
/// no deadlock (the program does have a stall: `w` can never receive a
/// second `sig1`).
#[test]
fn e1_figure1() {
    let p = figures::fig1();
    let sg = SyncGraph::from_program(&p);

    // Sync-graph census: 6 rendezvous + b/e; sig1 edges r—{t,u,w}, sig2 s—v.
    assert_eq!(sg.num_rendezvous(), 6);
    assert_eq!(sg.num_sync_edges(), 4);
    let r = sg.node_by_label("r").unwrap();
    let u = sg.node_by_label("u").unwrap();
    assert!(sg.has_sync_edge(r, u), "r and u can rendezvous (§4)");

    // Ordering refinement: v must execute after r.
    let seq = SequenceInfo::compute(&sg);
    let v = sg.node_by_label("v").unwrap();
    assert!(seq.executed_before(r, v));

    // Naive flags a spurious cycle through r, s, v, w.
    let n = naive_analysis(&sg);
    assert!(!n.deadlock_free);
    let comp = &n.cycle_components[0];
    for l in ["r", "s", "v", "w"] {
        assert!(comp.contains(&sg.node_by_label(l).unwrap()));
    }

    // Refined certifies at every tier.
    for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
        assert!(refined_tier(&sg, tier), "tier {tier:?}");
    }

    // Oracle: no deadlock. (The figure's program does always stall at w —
    // no second sig1 sender exists — so it never fully terminates; the
    // figure illustrates *deadlock* analysis, and on that question naive
    // and refined disagree exactly as the paper describes.)
    let e = oracle(&p);
    assert!(!e.has_deadlock());
    assert!(e.has_stall());
    assert!(!e.can_terminate);
}

/// E2 — Figure 2: the oracle separates the stall (2a) from the deadlock
/// (2b); Lemma 3's balance check flags 2a; refined flags 2b at every tier.
#[test]
fn e2_figure2() {
    let a = oracle(&figures::fig2a());
    assert_eq!(a.verdict, Verdict::Anomalous);
    assert!(a.has_stall() && !a.has_deadlock());
    let stall = stall_analysis(&figures::fig2a(), &StallOptions::default());
    assert!(matches!(stall.verdict, StallVerdict::PossibleStall { .. }));

    let b = oracle(&figures::fig2b());
    assert!(b.has_deadlock() && !b.has_stall());
    assert!(!b.can_terminate);
    let sg = SyncGraph::from_program(&figures::fig2b());
    for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
        assert!(!refined_tier(&sg, tier), "tier {tier:?} must flag");
    }
    // And the deadlocked wave is exactly the two sends.
    let (_, report) = &b.anomalies[0];
    assert_eq!(report.deadlock_set.len(), 2);
}

/// E3 — Figure 3: valid under the three local constraints, broken by the
/// global constraint 4. Every polynomial tier conservatively flags; the
/// oracle proves anomaly freedom. This documents the precision gap the
/// paper leaves to future work.
#[test]
fn e3_figure3() {
    let p = figures::fig3();
    let e = oracle(&p);
    assert_eq!(e.verdict, Verdict::AnomalyFree);

    let sg = SyncGraph::from_program(&p);
    assert!(!naive_analysis(&sg).deadlock_free);
    for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
        assert!(
            !refined_tier(&sg, tier),
            "tier {tier:?}: constraint 4 is out of reach for the local tiers"
        );
    }
    // Even the exact checker (local constraints only) keeps the cycle —
    // the r,s,t,u cycle satisfies constraints 1–3.
    let ex = exact_deadlock_cycles(&sg, &ConstraintSet::all(), &ExactBudget::default());
    assert!(ex.complete && ex.any());

    // The constraint-4 post-pass (E15) implements the paper's own
    // Figure-3 argument and certifies the program.
    let c4 = refined_analysis(
        &sg,
        &RefinedOptions {
            apply_constraint4: true,
            ..RefinedOptions::default()
        },
    );
    assert!(c4.deadlock_free);
}

/// E4 — Figure 4(a)/(b): the sync graph has a sync-edge square but the
/// CLG is acyclic: naive certifies.
#[test]
fn e4_figure4a() {
    let p = figures::fig4a();
    let sg = SyncGraph::from_program(&p);
    assert_eq!(sg.num_sync_edges(), 4);
    assert!(naive_analysis(&sg).deadlock_free);
    assert!(!oracle(&p).has_deadlock());
}

/// E5 — Figure 4(c): the only CLG cycle crosses both arms of one
/// conditional. Hypotheses headed inside the conditional die from
/// `NOT-COEXEC`; the program stays flagged overall (partial suppression,
/// §3.1.2); the exact checker with constraint 3b and the oracle prove no
/// deadlock.
#[test]
fn e5_figure4c() {
    let p = figures::fig4c();
    let sg = SyncGraph::from_program(&p);
    assert!(!naive_analysis(&sg).deadlock_free);

    let r = refined_analysis(&sg, &RefinedOptions::default());
    assert!(!r.deadlock_free);
    let a1 = sg.node_by_label("a1").unwrap();
    let a2 = sg.node_by_label("a2").unwrap();
    assert!(r.flagged.iter().all(|f| f.head != a1 && f.head != a2));

    let ex = exact_deadlock_cycles(&sg, &ConstraintSet::all(), &ExactBudget::default());
    assert!(ex.complete && !ex.any());
    assert!(!oracle(&p).has_deadlock());
}

/// E7 — Figure 5 and §5: the stall transforms in action.
#[test]
fn e7_figure5_stalls() {
    // 5(b)→(c): merge rescues the balance check.
    let r = stall_analysis(&figures::fig5b(), &StallOptions::default());
    assert_eq!(r.verdict, StallVerdict::StallFree);
    assert!(r.straight_line, "the conditional merged away");

    // 5(d): co-dependence factoring rescues the balance check.
    let r = stall_analysis(&figures::fig5d(), &StallOptions::default());
    assert_eq!(r.verdict, StallVerdict::StallFree);

    // Without transforms, 5(d) is a (false-alarm) possible stall.
    let raw = stall_analysis(
        &figures::fig5d(),
        &StallOptions {
            apply_transforms: false,
        },
    );
    assert!(matches!(raw.verdict, StallVerdict::PossibleStall { .. }));

    // Oracle: 5(b) is anomaly-free outright. 5(d) is *data-blind*
    // anomalous: the wave model treats the two `(v)` branches as
    // independent, so it reaches the mismatched combination (t sends r,
    // u skips its accept) that the carried boolean makes infeasible in
    // real executions. Closing exactly this gap is what §5.1's
    // encapsulated-boolean device is for, and why the transform-assisted
    // balance check may certify programs the raw wave semantics cannot.
    assert_eq!(oracle(&figures::fig5b()).verdict, Verdict::AnomalyFree);
    let d = oracle(&figures::fig5d());
    assert_eq!(d.verdict, Verdict::Anomalous);
    assert!(d.has_stall() && !d.has_deadlock());
    assert!(d.can_terminate, "the matched branch outcomes complete");
}

/// E12 — Lemma 2: co-accept cycles. `COACCEPT` kills the accept-headed
/// hypothesis, the pair tier certifies; the oracle agrees the program is
/// clean.
#[test]
fn e12_lemma2() {
    let p = figures::lemma2_coaccept();
    assert_eq!(oracle(&p).verdict, Verdict::AnomalyFree);
    let sg = SyncGraph::from_program(&p);
    let base = refined_analysis(&sg, &RefinedOptions::default());
    assert!(!base.deadlock_free, "base tier stays conservative");
    let a1 = sg.node_by_label("a1").unwrap();
    assert!(base.flagged.iter().all(|f| f.head != a1));
    assert!(refined_tier(&sg, Tier::HeadPairs));
}

/// Oracle sanity across every figure: verdicts must match the documented
/// expectations.
#[test]
fn figure_oracle_matrix() {
    let expectations = [
        ("fig1", Verdict::Anomalous, false),
        ("fig2a", Verdict::Anomalous, false),
        ("fig2b", Verdict::Anomalous, true),
        ("fig3", Verdict::AnomalyFree, false),
        ("fig4a", Verdict::Anomalous, false), // two senders, one is unmatched ordering-wise
        ("fig4c", Verdict::Anomalous, false),
        ("fig5b", Verdict::AnomalyFree, false),
        ("fig5d", Verdict::Anomalous, false), // data-blind stall; see E7
        ("lemma2", Verdict::AnomalyFree, false),
    ];
    for (name, _verdict, deadlock) in expectations {
        let p = figures::all_figures()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1;
        let e = oracle(&p);
        assert_eq!(e.has_deadlock(), deadlock, "{name}");
    }
}
