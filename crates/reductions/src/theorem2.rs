//! Theorem 2: 3-CNF → rendezvous program (Figures 6 and 7).
//!
//! For an `m`-clause formula over variables `v_0..v_{n-1}`:
//!
//! * **Literal task** `L_{i,j}` for literal `j` of clause `i`:
//!   * *positive* template (Fig 7(a)): `accept top_{i,j}` (the **top
//!     node**), then a three-way branch in which exactly one of three
//!     sends fires — each targeting the top node of one literal task of
//!     the next clause `(i+1) mod m` (the **signaling node group**) — and
//!     finally the **order-sending node** `send O_k.pos_{i,j}`;
//!   * *negative* template (Fig 7(b)): the order-sending node
//!     `send O_k.neg_{i,j}` comes **first**, then the top node and the
//!     signaling group.
//! * **Anti-ordering task** `A_{i,j}`: a single `send L_{i,j}.top_{i,j}`,
//!   so every top node is free to become READY without help from the
//!   previous clause group — this is what keeps unrelated top nodes
//!   *unordered*.
//! * **Ordering task** `O_k` per variable: accepts all positive order
//!   signals of `v_k`, then all negative ones — forcing every negative top
//!   of `v_k` to start strictly after every positive top of `v_k` fired.
//!
//! A deadlock cycle valid under constraints 1 + 3a picks one top node per
//! clause with no finish-before-start-ordered pair — i.e. no positive and
//! negative literal of the same variable — i.e. a satisfying assignment's
//! support. Cycles that detour through an ordering task always pair an
//! entered accept with a later negative order-send, which *are* ordered,
//! so they die under 3a (the paper's "any deadlock cycle involving an
//! ordering task has a pair of ordered head nodes").
//!
//! The paper notes (footnote 8) the generated program need not be
//! stall-free; that is irrelevant to the reduction.

use iwa_sat::{Cnf, Lit};
use iwa_tasklang::ast::{Program, ProgramBuilder};

/// Build the Theorem 2 program for `cnf`.
///
/// Every clause must have exactly three distinct-variable literals; use
/// [`iwa_sat::Cnf::to_exact_3cnf`] first for arbitrary formulas. There
/// must be at least one clause.
///
/// Labels: top nodes are labelled `top_i_j`, order-sends `ord_i_j`, so
/// tests and experiments can recover the encoding.
#[must_use]
#[allow(clippy::needless_range_loop)] // clause/literal indices name the encoding
pub fn theorem2_program(cnf: &Cnf) -> Program {
    assert!(!cnf.clauses.is_empty(), "need at least one clause");
    assert!(
        cnf.clauses.iter().all(|c| c.0.len() == 3),
        "theorem 2 expects exact 3-CNF"
    );
    let m = cnf.clauses.len();
    let mut b = ProgramBuilder::new();

    // Declare tasks first so signals can reference them.
    let lit_task = |i: usize, j: usize| format!("L_{i}_{j}");
    let mut lit_ids = Vec::new();
    for i in 0..m {
        let row: Vec<_> = (0..3).map(|j| b.task(&lit_task(i, j))).collect();
        lit_ids.push(row);
    }
    let anti_ids: Vec<Vec<_>> = (0..m)
        .map(|i| (0..3).map(|j| b.task(&format!("A_{i}_{j}"))).collect())
        .collect();
    let ord_ids: Vec<_> = (0..cnf.num_vars)
        .map(|k| b.task(&format!("O_{k}")))
        .collect();

    // Signals.
    let mut top_sig = Vec::new();
    for i in 0..m {
        let row: Vec<_> = (0..3)
            .map(|j| b.signal(lit_ids[i][j], &format!("top_{i}_{j}")))
            .collect();
        top_sig.push(row);
    }
    let order_sig = |b: &mut ProgramBuilder, lit: Lit, i: usize, j: usize| {
        let k = lit.var.index();
        let pol = if lit.positive { "pos" } else { "neg" };
        b.signal(ord_ids[k], &format!("{pol}_{i}_{j}"))
    };

    // Literal tasks.
    for i in 0..m {
        let next = (i + 1) % m;
        for j in 0..3 {
            let lit = cnf.clauses[i].0[j];
            let osig = order_sig(&mut b, lit, i, j);
            let tops_next = [top_sig[next][0], top_sig[next][1], top_sig[next][2]];
            let my_top = top_sig[i][j];
            let (ti, tj) = (i, j);
            b.body(lit_ids[i][j], move |t| {
                let top_label = format!("top_{ti}_{tj}");
                let ord_label = format!("ord_{ti}_{tj}");
                let signal_group = |t: &mut iwa_tasklang::TaskBuilder| {
                    // Exactly one of three sends fires (Fig 7's "random
                    // boolean" control structure).
                    t.if_else(
                        |t| {
                            t.send(tops_next[0]);
                        },
                        |t| {
                            t.if_else(
                                |t| {
                                    t.send(tops_next[1]);
                                },
                                |t| {
                                    t.send(tops_next[2]);
                                },
                            );
                        },
                    );
                };
                if lit.positive {
                    t.accept_as(my_top, &top_label);
                    signal_group(t);
                    t.send_as(osig, &ord_label);
                } else {
                    t.send_as(osig, &ord_label);
                    t.accept_as(my_top, &top_label);
                    signal_group(t);
                }
            });
        }
    }

    // Anti-ordering tasks: one unconditional sender per top node.
    for i in 0..m {
        for j in 0..3 {
            let sig = top_sig[i][j];
            b.body(anti_ids[i][j], move |t| {
                t.send(sig);
            });
        }
    }

    // Ordering tasks: positive accepts first, then negative accepts.
    for k in 0..cnf.num_vars {
        let mut pos_sigs = Vec::new();
        let mut neg_sigs = Vec::new();
        for (i, clause) in cnf.clauses.iter().enumerate() {
            for (j, &lit) in clause.0.iter().enumerate() {
                if lit.var.index() == k {
                    let sig = order_sig(&mut b, lit, i, j);
                    if lit.positive {
                        pos_sigs.push(sig);
                    } else {
                        neg_sigs.push(sig);
                    }
                }
            }
        }
        b.body(ord_ids[k], move |t| {
            for s in &pos_sigs {
                t.accept(*s);
            }
            for s in &neg_sigs {
                t.accept(*s);
            }
        });
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_analysis::exact::{ConstraintSet, ExactBudget};
    use iwa_analysis::AnalysisCtx;
    use iwa_sat::{solve, Cnf};
    use iwa_syncgraph::SyncGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reduction_says_sat(cnf: &Cnf) -> bool {
        let p = theorem2_program(cnf);
        let sg = SyncGraph::from_program(&p);
        let r = AnalysisCtx::builder().build()
            .exact_cycles(&sg, &ConstraintSet::c1_and_3a(), &ExactBudget::default())
            .unwrap();
        assert!(r.any() || r.complete, "inconclusive search at test sizes");
        r.any()
    }

    /// `(a ∨ b ∨ c)`: trivially satisfiable.
    #[test]
    fn single_clause_is_satisfiable_and_has_a_cycle() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(&[(0, true), (1, true), (2, true)]);
        assert!(solve(&cnf).is_sat());
        assert!(reduction_says_sat(&cnf));
    }

    /// Force x0 true and false through three-literal clauses whose other
    /// literals are themselves forced false.
    #[test]
    fn contradictory_formula_has_no_valid_cycle() {
        // (x0 ∨ x0 ∨ x0)-style padding is disallowed (distinct vars), so
        // build contradiction with helpers:
        // (x0 ∨ x1 ∨ x2) ∧ (¬x0 ∨ x1 ∨ x2) ∧ (x0 ∨ ¬x1 ∨ x2) ∧ … all eight
        // sign patterns over (x0,x1,x2) — unsatisfiable.
        let mut cnf = Cnf::new(3);
        for bits in 0..8u32 {
            cnf.add_clause(&[
                (0, bits & 1 != 0),
                (1, bits & 2 != 0),
                (2, bits & 4 != 0),
            ]);
        }
        assert!(!solve(&cnf).is_sat());
        assert!(!reduction_says_sat(&cnf));
    }

    #[test]
    fn program_shape_matches_the_templates() {
        let mut cnf = Cnf::new(4);
        cnf.add_clause(&[(0, true), (1, false), (2, true)]);
        cnf.add_clause(&[(0, false), (2, true), (3, true)]);
        let p = theorem2_program(&cnf);
        // 6 literal + 6 anti-ordering + 4 ordering tasks.
        assert_eq!(p.num_tasks(), 16);
        let sg = SyncGraph::from_program(&p);
        // Each top is labelled and reachable.
        for i in 0..2 {
            for j in 0..3 {
                assert!(sg.node_by_label(&format!("top_{i}_{j}")).is_some());
                assert!(sg.node_by_label(&format!("ord_{i}_{j}")).is_some());
            }
        }
        // Every top has 4 sync partners: 3 previous-clause senders + anti.
        let top = sg.node_by_label("top_0_0").unwrap();
        assert_eq!(sg.sync_neighbors(top).len(), 4);
    }

    #[test]
    fn negative_template_puts_order_send_first() {
        let mut cnf = Cnf::new(3);
        cnf.add_clause(&[(0, false), (1, true), (2, true)]);
        let p = theorem2_program(&cnf);
        let neg_task = p.symbols.task("L_0_0").unwrap();
        let first = &p.tasks[neg_task.index()].body[0];
        assert!(
            matches!(first, iwa_tasklang::Stmt::Send { .. }),
            "negative literal tasks start with the order-send"
        );
        let pos_task = p.symbols.task("L_0_1").unwrap();
        let first = &p.tasks[pos_task.index()].body[0];
        assert!(
            matches!(first, iwa_tasklang::Stmt::Accept { .. }),
            "positive literal tasks start with the top accept"
        );
    }

    #[test]
    fn agrees_with_dpll_on_random_small_instances() {
        let mut rng = StdRng::seed_from_u64(20260706);
        for trial in 0..12 {
            // 4 variables, 2–4 clauses: spans SAT and UNSAT after the
            // contradiction-heavy low-variable regime.
            let clauses = 2 + trial % 3;
            let cnf = Cnf::random_3cnf(&mut rng, 4, clauses);
            let expected = solve(&cnf).is_sat();
            assert_eq!(
                reduction_says_sat(&cnf),
                expected,
                "mismatch on {cnf} (trial {trial})"
            );
        }
    }

    #[test]
    fn ordering_tasks_force_positive_before_negative_tops() {
        // x0 appears positively in clause 0 and negatively in clause 1.
        let mut cnf = Cnf::new(4);
        cnf.add_clause(&[(0, true), (1, true), (2, true)]);
        cnf.add_clause(&[(0, false), (2, true), (3, true)]);
        let p = theorem2_program(&cnf);
        let sg = SyncGraph::from_program(&p);
        let seq = iwa_analysis::SequenceInfo::compute(&sg);
        let finish = iwa_analysis::FinishOrder::compute(&sg, &seq);
        let pos_top = sg.node_by_label("top_0_0").unwrap();
        let neg_top = sg.node_by_label("top_1_0").unwrap();
        assert!(
            finish.finishes_before(pos_top, neg_top),
            "positive top fires before the same variable's negative top"
        );
        // Unrelated tops stay unordered.
        let other = sg.node_by_label("top_1_1").unwrap();
        assert!(!finish.paper_sequenceable(&sg, pos_top, other));
    }
}
