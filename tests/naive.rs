//! The naive check read from the whole-graph decomposition against a
//! test-only copy of the reachable-masked pass it replaced.
//!
//! `naive_analysis` and the certify driver read naive's cycle components
//! from the port CLG's whole-graph SCC decomposition, the one the refined
//! search shares: its non-trivial components reachable from `b`. The copy
//! below is the pass as it was: a reachability search from `b`, then an
//! SCC pass masked to the nodes it reached. Both must report the same
//! `deadlock_free` and the same `cycle_components`, and a certificate's
//! naive result must equal `naive_analysis` on the certificate's graph.
//!
//! Inputs: generated structured programs, as written and Lemma 1
//! unrolled; generated balanced programs; Theorem 2 and 3 instances; the
//! paper's figures; and the lowered `.lok`/`.chan` families `lock_chain`,
//! `lock_mesh`, `chan_ring` and `chan_select_storm` in both flavours.

use iwa::analysis::{naive_analysis, AnalysisCtx, CertifyOptions, NaiveResult};
use iwa::core::{Rendezvous, Symbols};
use iwa::frontend::{registry, Lang};
use iwa::graphs::Scc;
use iwa::reductions::{theorem2_program, theorem3_graph};
use iwa::sat::Cnf;
use iwa::syncgraph::{PortClg, SyncGraph, SyncGraphBuilder, B, E};
use iwa::tasklang::transforms::unroll_twice;
use iwa::tasklang::Program;
use iwa::workloads::chan::{chan_ring, chan_select_storm};
use iwa::workloads::figures::all_figures;
use iwa::workloads::locks::{lock_chain, lock_mesh};
use iwa::workloads::{random_balanced, random_structured, BalancedConfig, StructuredConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The naive components as the masked pass computed them.
fn masked_components(sg: &SyncGraph) -> Vec<Vec<usize>> {
    let clg = PortClg::build(sg);
    let reachable = clg.graph.reachable_from(B);
    let scc = Scc::compute(&clg.graph, Some(&reachable));
    let mut components = Vec::new();
    for members in scc.nontrivial_components(&clg.graph) {
        if members.iter().any(|&m| !reachable.contains(m as usize)) {
            continue;
        }
        let mut nodes: Vec<usize> = members
            .iter()
            .map(|&m| clg.sync_node_of(m as usize))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        components.push(nodes);
    }
    components.sort();
    components
}

fn same(got: &NaiveResult, want: &NaiveResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.deadlock_free, want.deadlock_free);
    prop_assert_eq!(&got.cycle_components, &want.cycle_components);
    Ok(())
}

/// `naive_analysis` on `sg` against the masked pass.
fn check_graph(sg: &SyncGraph) -> Result<(), TestCaseError> {
    let want = masked_components(sg);
    let got = naive_analysis(sg);
    prop_assert_eq!(got.deadlock_free, want.is_empty());
    prop_assert_eq!(got.cycle_components, want);
    Ok(())
}

/// The program's own graph, then its certificate: the naive result read
/// from the decomposition certify shares with the refined search equals
/// `naive_analysis` on the certificate's graph, which equals the masked pass.
fn check_program(p: &Program) -> Result<(), TestCaseError> {
    check_graph(&SyncGraph::from_program(p))?;
    let cert = AnalysisCtx::default()
        .certify(p, &CertifyOptions::default())
        .expect("generated programs certify");
    same(&cert.naive, &naive_analysis(&cert.sg))?;
    check_graph(&cert.sg)
}

/// A `.lok`/`.chan` source's lowered sync graph.
fn check_lowered(lang: Lang, src: &str) -> Result<(), TestCaseError> {
    let model = registry::by_lang(lang)
        .load(src)
        .expect("generated source loads");
    let (sg, _) = model.as_wait().expect("a wait-graph model").lowered();
    check_graph(sg)
}

fn structured(seed: u64, tasks: usize) -> Program {
    random_structured(
        &mut StdRng::seed_from_u64(seed),
        &StructuredConfig {
            tasks,
            rendezvous_per_task: 3,
            branch_prob: 0.25,
            loop_prob: 0.25,
            message_types: 2,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structured programs with branches and loops. Certify unrolls the
    /// loopy ones (Lemma 1); the graph as written keeps its control
    /// cycles.
    #[test]
    fn naive_matches_the_masked_pass_on_structured_programs(
        seed in 0u64..1_000_000,
        tasks in 2usize..5,
    ) {
        let p = structured(seed, tasks);
        check_program(&p)?;
        check_graph(&SyncGraph::from_program(&unroll_twice(&p)))?;
    }

    /// Balanced straight-line programs, where crossed waits are real.
    #[test]
    fn naive_matches_the_masked_pass_on_balanced_programs(
        seed in 0u64..1_000_000,
        swaps in 0usize..8,
    ) {
        let p = random_balanced(
            &mut StdRng::seed_from_u64(seed),
            &BalancedConfig { tasks: 3, events: 6, message_types: 2, swaps },
        );
        check_program(&p)?;
    }

    /// Theorem 2 programs and Theorem 3 raw graphs over random 3-CNFs.
    #[test]
    fn naive_matches_the_masked_pass_on_reductions(
        seed in 0u64..1_000_000,
        clauses in 1usize..4,
    ) {
        let f = Cnf::random_3cnf(&mut StdRng::seed_from_u64(seed), 3, clauses);
        check_program(&theorem2_program(&f))?;
        check_graph(&theorem3_graph(&f))?;
    }
}

#[test]
fn naive_matches_the_masked_pass_on_the_figures() {
    for (name, p) in all_figures() {
        check_program(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_graph(&SyncGraph::from_program(&unroll_twice(&p)))
            .unwrap_or_else(|e| panic!("{name} unrolled: {e}"));
    }
}

#[test]
fn naive_matches_the_masked_pass_on_lowered_families() {
    for flavour in [false, true] {
        for n in 2..=5 {
            check_lowered(Lang::Lok, &lock_chain(n, flavour)).unwrap();
            check_lowered(Lang::Chan, &chan_ring(n, flavour)).unwrap();
        }
        for n in 2..=4 {
            check_lowered(Lang::Lok, &lock_mesh(n, flavour)).unwrap();
        }
        for n in 1..=4 {
            check_lowered(Lang::Chan, &chan_select_storm(n, flavour)).unwrap();
        }
    }
}

#[test]
fn a_certificate_reports_the_naive_result_of_its_own_graph() {
    // Figure 1 (naive flags a spurious cycle the refined search clears),
    // the crossed deadlock, and a loop certify must unroll first.
    for src in [
        "task t1 { send t2.sig1; accept sig2; }
         task t2 { if { accept sig1; } else { accept sig1; } send t1.sig2; accept sig1; }",
        "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
        "task p { while { send q.m; } } task q { while { accept m; } }",
    ] {
        let p = iwa::tasklang::parse(src).unwrap();
        let cert = AnalysisCtx::default()
            .certify(&p, &CertifyOptions::default())
            .unwrap();
        let direct = naive_analysis(&cert.sg);
        assert!(!direct.deadlock_free, "every input has a CLG cycle: {src}");
        assert_eq!(cert.naive.deadlock_free, direct.deadlock_free, "{src}");
        assert_eq!(
            cert.naive.cycle_components, direct.cycle_components,
            "{src}"
        );
    }
}

/// The crossed deadlock as a raw graph, its tasks' first nodes joined to
/// `b` or not.
fn raw_crossed(from_b: bool) -> SyncGraph {
    let mut symbols = Symbols::new();
    let t1 = symbols.intern_task("t1");
    let t2 = symbols.intern_task("t2");
    let a = symbols.intern_signal(t2, "a");
    let b = symbols.intern_signal(t1, "b");
    let mut g = SyncGraphBuilder::new(symbols, 2);
    let sa = g.add_node(t1, Rendezvous::send(a), None);
    let rb = g.add_node(t1, Rendezvous::accept(b), None);
    let sb = g.add_node(t2, Rendezvous::send(b), None);
    let ra = g.add_node(t2, Rendezvous::accept(a), None);
    for (first, second) in [(sa, rb), (sb, ra)] {
        if from_b {
            g.add_control(B, first);
        }
        g.add_control(first, second);
        g.add_control(second, E);
    }
    g.derive_sync_edges();
    g.build()
}

#[test]
fn a_cycle_unreachable_from_b_is_not_reported() {
    // Parsed programs reach every statement from `b`; a raw graph need
    // not, and the paper's traversal starts at `b`.
    let reached = raw_crossed(true);
    let cut_off = raw_crossed(false);
    for sg in [&reached, &cut_off] {
        let clg = PortClg::build(sg);
        let whole = Scc::compute(&clg.graph, None);
        assert_eq!(whole.nontrivial_components(&clg.graph).len(), 1);
        check_graph(sg).unwrap();
    }
    assert_eq!(naive_analysis(&reached).cycle_components.len(), 1);
    assert!(naive_analysis(&cut_off).deadlock_free);
}
