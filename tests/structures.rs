//! Structural properties of the representations, fuzzed:
//! parser/printer round-trips, sync-graph invariants, CLG shape laws.

use iwa::syncgraph::{PortClg, SyncGraph, B, E};
use iwa::tasklang::parse;
use iwa::workloads::{random_structured, StructuredConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_program(seed: u64) -> iwa::tasklang::Program {
    let mut rng = StdRng::seed_from_u64(seed);
    random_structured(
        &mut rng,
        &StructuredConfig {
            tasks: 4,
            rendezvous_per_task: 5,
            branch_prob: 0.25,
            loop_prob: 0.2,
            message_types: 3,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// print → parse → print is a fixpoint, and the reparsed program has
    /// identical structure counts.
    #[test]
    fn parser_printer_roundtrip(seed in 0u64..1_000_000) {
        let p = arb_program(seed);
        let src = p.to_source();
        let q = parse(&src).expect("printer output parses");
        prop_assert_eq!(&q.to_source(), &src);
        prop_assert_eq!(q.num_tasks(), p.num_tasks());
        prop_assert_eq!(q.num_rendezvous(), p.num_rendezvous());
        prop_assert_eq!(q.is_loop_free(), p.is_loop_free());
        // And the derived sync graphs are isomorphic in the cheap sense:
        let sg_p = SyncGraph::from_program(&p);
        let sg_q = SyncGraph::from_program(&q);
        prop_assert_eq!(sg_p.num_nodes(), sg_q.num_nodes());
        prop_assert_eq!(sg_p.control.num_edges(), sg_q.control.num_edges());
        prop_assert_eq!(sg_p.num_sync_edges(), sg_q.num_sync_edges());
    }

    /// Sync-graph invariants from the definition (§2).
    #[test]
    fn sync_graph_invariants(seed in 0u64..1_000_000) {
        let p = arb_program(seed);
        let sg = SyncGraph::from_program(&p);

        // Node census matches the program.
        prop_assert_eq!(sg.num_rendezvous(), p.num_rendezvous());

        for n in sg.rendezvous_nodes() {
            let d = sg.node(n);
            // Sync neighbours are exactly the complementary same-signal
            // nodes.
            for m in sg.rendezvous_nodes() {
                let expected = sg.node(m).rendezvous.matches(d.rendezvous) && m != n;
                prop_assert_eq!(sg.has_sync_edge(n, m), expected, "{} {}", n, m);
            }
            // Control successors stay within the task (or e).
            for &v in sg.control.successors(n) {
                let v = v as usize;
                prop_assert!(
                    v == E || sg.node(v).task == d.task,
                    "control edge escapes the task"
                );
            }
            // Every node is control-reachable from b (validity assumption).
            prop_assert!(sg.control.reachable_from(B).contains(n));
        }
    }

    /// CLG shape laws: the paper's node/edge counts, the port stubs,
    /// edge-direction discipline, and acyclicity ⇔ naive certification.
    #[test]
    fn clg_shape_laws(seed in 0u64..1_000_000) {
        let p = arb_program(seed);
        let sg = SyncGraph::from_program(&p);
        let clg = PortClg::build(&sg);

        let nrv = sg.num_rendezvous();
        let expected_edges = nrv + sg.control.num_edges() + 2 * sg.num_sync_edges();
        prop_assert_eq!(clg.clg_nodes(), 2 + 2 * nrv);
        prop_assert_eq!(clg.clg_edges(), expected_edges);
        prop_assert_eq!(clg.num_nodes(), 2 + 4 * nrv);
        prop_assert_eq!(clg.graph.num_edges(), expected_edges + 2 * nrv);

        // Each port hangs off one node: `r_so` is entered only from `r_o`,
        // `r_si` leaves only for `r_i`.
        for r in sg.rendezvous_nodes() {
            prop_assert_eq!(
                clg.graph.predecessors(clg.sync_out_port(r)),
                &[clg.out_node(r) as u32][..]
            );
            prop_assert_eq!(
                clg.graph.successors(clg.sync_in_port(r)),
                &[clg.in_node(r) as u32][..]
            );
        }

        let mut paper_edges = 0;
        for u in (0..clg.num_nodes()).filter(|&u| !clg.is_port(u)) {
            for v in clg.clg_successors(u) {
                paper_edges += 1;
                prop_assert!(!clg.is_port(v));
                if clg.is_sync_edge(u, v) {
                    // Sync edges leave _o nodes and enter _i nodes of a
                    // *different* sync node.
                    prop_assert!(u >= 2 && !clg.is_in_node(u));
                    prop_assert!(sg.has_sync_edge(
                        clg.sync_node_of(u),
                        clg.sync_node_of(v)
                    ));
                } else if clg.is_in_node(v) {
                    // The internal edge r_o → r_i.
                    prop_assert!(!clg.is_in_node(u));
                    prop_assert_eq!(clg.sync_node_of(u), clg.sync_node_of(v));
                } else {
                    // Control edges leave b or an _i node and enter an _o
                    // node or e.
                    prop_assert!(u == B || clg.is_in_node(u));
                    prop_assert!(v != B);
                }
            }
        }
        prop_assert_eq!(paper_edges, expected_edges);

        // Naive verdict == CLG acyclicity from b (its definition), which
        // for loop-free programs is also implied acyclic control.
        let naive = iwa::analysis::naive_analysis(&sg);
        let reachable = clg.graph.reachable_from(B);
        let scc = iwa::graphs::Scc::compute(&clg.graph, None);
        let has_cycle = reachable
            .iter()
            .any(|n| scc.in_nontrivial_component(&clg.graph, n));
        prop_assert_eq!(naive.deadlock_free, !has_cycle);
    }

    /// COACCEPT and POSS-HEADS definitional laws.
    #[test]
    fn derived_vector_laws(seed in 0u64..1_000_000) {
        let p = arb_program(seed);
        let sg = SyncGraph::from_program(&p);
        for n in sg.rendezvous_nodes() {
            let d = sg.node(n);
            let co = sg.coaccept(n);
            if d.rendezvous.sign.is_send() {
                prop_assert!(co.is_empty());
            } else {
                prop_assert!(!co.contains(&n), "a node is not its own coaccept");
                for &m in &co {
                    prop_assert_eq!(sg.node(m).rendezvous, d.rendezvous);
                }
                // Count matches the signal's accept census minus itself.
                prop_assert_eq!(
                    co.len(),
                    sg.accepts_of(d.rendezvous.signal).len() - 1
                );
            }
        }
        for h in sg.poss_heads() {
            prop_assert!(!sg.sync_neighbors(h).is_empty());
            prop_assert!(sg
                .control
                .successors(h)
                .iter()
                .any(|&v| sg.is_rendezvous(v as usize)));
        }
    }
}

/// A regression guard: empty tasks, silent tasks, tasks whose body is all
/// structure and no rendezvous.
#[test]
fn degenerate_programs_build_clean_graphs() {
    let p = parse(
        "task a { }
         task b { if { } else { while { } } }
         task c { send d.m; }
         task d { accept m; }",
    )
    .unwrap();
    let sg = SyncGraph::from_program(&p);
    assert_eq!(sg.num_rendezvous(), 2);
    assert!(sg.control.has_edge(B, E), "rendezvous-free paths give b→e");
    let clg = PortClg::build(&sg);
    assert_eq!(clg.clg_nodes(), 6);
    assert_eq!(clg.num_nodes(), 10);
    assert!(iwa::analysis::naive_analysis(&sg).deadlock_free);
}
