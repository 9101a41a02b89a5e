//! Facade-level smoke tests: the workflows the README advertises, driven
//! through the `iwa` umbrella crate exactly as a downstream user would.

use iwa::analysis::{AnalysisCtx, CertifyOptions, RefinedOptions, Tier};
use iwa::syncgraph::{PortClg, SyncGraph};
use iwa::tasklang::{parse, ProgramBuilder};
use iwa::wavesim::{explore, simulate, ExploreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn parse_certify_report() {
    let p = parse(
        "task client { send server.req; accept reply; }
         task server { accept req; send client.reply; }",
    )
    .unwrap();
    let cert = AnalysisCtx::builder().build().certify(&p, &CertifyOptions::default()).unwrap();
    assert!(cert.anomaly_free());
}

#[test]
fn builder_api_matches_parser() {
    let mut b = ProgramBuilder::new();
    let client = b.task("client");
    let server = b.task("server");
    let req = b.signal(server, "req");
    let reply = b.signal(client, "reply");
    b.body(client, |t| {
        t.send(req).accept(reply);
    });
    b.body(server, |t| {
        t.accept(req).send(reply);
    });
    let built = b.build();
    let parsed = parse(&built.to_source()).unwrap();
    assert_eq!(built.to_source(), parsed.to_source());
    assert!(AnalysisCtx::builder().build()
        .certify(&built, &CertifyOptions::default())
        .unwrap()
        .anomaly_free());
}

#[test]
fn graphs_expose_the_paper_structures() {
    let p = parse("task a { send b.m as s; } task b { accept m as r; }").unwrap();
    let sg = SyncGraph::from_program(&p);
    assert_eq!(sg.num_rendezvous(), 2);
    assert_eq!(sg.num_sync_edges(), 1);
    let clg = PortClg::build(&sg);
    assert_eq!(clg.clg_nodes(), 2 + 2 * 2);
    assert_eq!(clg.clg_edges(), 2 + sg.control.num_edges() + 2);
    assert_eq!(clg.num_nodes(), 2 + 4 * 2);
}

#[test]
fn oracle_and_simulation_compose() {
    let p = iwa::workloads::classics::token_ring(4);
    let sg = SyncGraph::from_program(&p);
    let e = explore(&sg, &ExploreConfig::default()).unwrap();
    assert_eq!(e.anomaly_count, 0);
    let mut rng = StdRng::seed_from_u64(1);
    let t = simulate(&sg, &mut rng, 100).unwrap();
    assert_eq!(t.outcome, iwa::wavesim::SimOutcome::Completed);
}

#[test]
fn tiers_form_a_precision_ladder_on_lemma2() {
    let p = iwa::workloads::figures::lemma2_coaccept();
    let base = AnalysisCtx::builder().build().certify(&p, &CertifyOptions::default()).unwrap();
    let pairs = AnalysisCtx::builder().build().certify(
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
    assert!(!base.deadlock_free());
    assert!(pairs.deadlock_free());
}

#[test]
fn reduction_and_solver_agree_through_the_facade() {
    let mut cnf = iwa::sat::Cnf::new(4);
    cnf.add_clause(&[(0, true), (1, true), (2, true)]);
    cnf.add_clause(&[(0, false), (2, true), (3, false)]);
    let sat = iwa::sat::solve(&cnf).is_sat();
    let sg = SyncGraph::from_program(&iwa::reductions::theorem2_program(&cnf));
    let r = AnalysisCtx::builder().build()
        .exact_cycles(
            &sg,
            &iwa::analysis::ConstraintSet::c1_and_3a(),
            &iwa::analysis::ExactBudget::default(),
        )
        .unwrap();
    assert_eq!(r.any(), sat);
}

#[test]
fn petri_baseline_through_the_facade() {
    let p = iwa::workloads::figures::fig2b();
    let net = iwa::petri::net_from_sync_graph(&SyncGraph::from_program(&p));
    let r = net.explore(10_000).unwrap();
    assert!(!r.deadlock_free);
    let ps = iwa::petri::p_invariants(&net);
    assert!(!ps.is_empty());
}
