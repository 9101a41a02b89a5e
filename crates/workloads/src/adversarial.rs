//! Adversarial stress workloads — programs built to exhaust analyses.
//!
//! Every generator here targets a specific blow-up the paper (or this
//! reproduction) is exposed to:
//!
//! * [`deep_loop_nest`] — `depth`-nested loops over independent pairs:
//!   Lemma-1 unrolling doubles each level (`2^depth` graph growth), and
//!   the wave space is a product over the pairs (`4^pairs` states), the
//!   worst case for the exhaustive oracle;
//! * [`rendezvous_mesh`] — all-to-all communication: the unordered
//!   variant is one giant circular wait, and either variant hands the
//!   refined tiers `n·(n−1)` sync-edge-dense nodes to grind through;
//! * [`wide_branch`] — `width` sequential two-armed conditionals over
//!   *distinct* signals: `2^width` path signatures per task, the worst
//!   case for Lemma 4's stall enumeration.
//!
//! They exist to be *interrupted*: the engine's budget and degradation
//! tests run them under tight deadlines and step ceilings.

use iwa_tasklang::ast::{Program, ProgramBuilder, TaskBuilder};
use iwa_core::SignalId;

/// `pairs` producer/consumer pairs whose single rendezvous hides under
/// `depth` nested `while` loops on both sides.
///
/// Deadlock-free and stall-undecidable (loops), but adversarial on two
/// axes at once: Lemma-1 unrolling yields `O(2^depth)` copies of every
/// rendezvous, inflating the CLG the refined tiers must search, while the
/// pairs are fully independent, so the exhaustive oracle's wave space is
/// a product over them — `4^pairs` reachable waves at `depth = 1`.
#[must_use]
pub fn deep_loop_nest(pairs: usize, depth: usize) -> Program {
    assert!(pairs >= 1, "need at least one pair");
    let mut b = ProgramBuilder::new();
    for k in 0..pairs {
        let producer = b.task(&format!("producer{k}"));
        let consumer = b.task(&format!("consumer{k}"));
        let item = b.signal(consumer, "item");
        b.body(producer, |t| nest(t, item, depth, true));
        b.body(consumer, |t| nest(t, item, depth, false));
    }
    b.build()
}

fn nest(t: &mut TaskBuilder, signal: SignalId, depth: usize, send: bool) {
    if depth == 0 {
        if send {
            t.send(signal);
        } else {
            t.accept(signal);
        }
    } else {
        t.while_loop(|inner| nest(inner, signal, depth - 1, send));
    }
}

/// `n` tasks in an all-to-all mesh: every task exchanges one message with
/// every other task.
///
/// With `ordered = false` each task performs all its sends before any of
/// its accepts — for `n >= 2` no rendezvous can ever fire and the whole
/// mesh is one maximal deadlocked set, stuck on its very first wave.
/// With `ordered = true` each task sequences its *own* sessions by the
/// global `(sender, receiver)` order, which breaks every circular wait —
/// and because that one shared order chains nearly every session after
/// another through a common task, the wave space stays small (roughly
/// quadratic in `n`). The mesh is therefore *not* an oracle stressor;
/// its job is to hand the refined tiers `n·(n−1)` sync-edge-dense nodes
/// (every send a head hypothesis) to grind through.
#[must_use]
pub fn rendezvous_mesh(n: usize, ordered: bool) -> Program {
    assert!(n >= 2, "need at least two tasks");
    let mut b = ProgramBuilder::new();
    let tasks: Vec<_> = (0..n).map(|i| b.task(&format!("node{i}"))).collect();
    // signal[i][j]: the message task i sends to task j (received by j).
    let mut signals = vec![vec![None; n]; n];
    for (i, row) in signals.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            if i != j {
                *slot = Some(b.signal(tasks[j], &format!("m{i}_{j}")));
            }
        }
    }
    for (me, &task) in tasks.iter().enumerate() {
        let signals = &signals;
        b.body(task, |t| {
            if ordered {
                // Global serialisation: everyone agrees on the order of all
                // n·(n−1) rendezvous, each of which involves this task as
                // sender, receiver, or not at all.
                for (i, row) in signals.iter().enumerate() {
                    for (j, &slot) in row.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        let sig = slot.expect("off-diagonal");
                        if i == me {
                            t.send(sig);
                        } else if j == me {
                            t.accept(sig);
                        }
                    }
                }
            } else {
                // All sends first: a circular wait for any n >= 2.
                for (j, &slot) in signals[me].iter().enumerate() {
                    if j != me {
                        t.send(slot.expect("off-diagonal"));
                    }
                }
                for (i, row) in signals.iter().enumerate() {
                    if i != me {
                        t.accept(row[me].expect("off-diagonal"));
                    }
                }
            }
        });
    }
    b.build()
}

/// Two tasks with `width` sequential two-armed conditionals, each arm
/// naming a *distinct* signal: `2^width` path signatures per task.
///
/// The sender's arm choice and the receiver's are independent, so almost
/// every path combination is unbalanced — Lemma 4 must enumerate them to
/// say so, which is exactly what its path budget is for.
#[must_use]
pub fn wide_branch(width: usize) -> Program {
    let mut b = ProgramBuilder::new();
    wide_branch_tasks(&mut b, "chooser", "matcher", width);
    b.build()
}

/// Add [`wide_branch`]'s two tasks to `b` under the given names.
fn wide_branch_tasks(b: &mut ProgramBuilder, chooser: &str, matcher: &str, width: usize) {
    assert!(width >= 1, "need at least one conditional");
    let chooser = b.task(chooser);
    let matcher = b.task(matcher);
    let signals: Vec<(SignalId, SignalId)> = (0..width)
        .map(|k| {
            (
                b.signal(matcher, &format!("left{k}")),
                b.signal(matcher, &format!("right{k}")),
            )
        })
        .collect();
    b.body(chooser, |t| {
        for &(l, r) in &signals {
            t.if_else(|then| { then.send(l); }, |els| { els.send(r); });
        }
    });
    b.body(matcher, |t| {
        for &(l, r) in &signals {
            t.if_else(|then| { then.accept(l); }, |els| { els.accept(r); });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_loop_nest_shape() {
        let p = deep_loop_nest(2, 3);
        assert_eq!(p.num_tasks(), 4);
        assert!(!p.is_loop_free());
        assert_eq!(p.num_rendezvous(), 4);
    }

    #[test]
    fn unordered_mesh_deadlocks() {
        let p = rendezvous_mesh(3, false);
        let sg = iwa_syncgraph::SyncGraph::from_program(&p);
        let e = iwa_wavesim::explore(&sg, &iwa_wavesim::ExploreConfig::default()).unwrap();
        assert!(e.has_deadlock());
    }

    #[test]
    fn ordered_mesh_is_anomaly_free() {
        let p = rendezvous_mesh(3, true);
        let sg = iwa_syncgraph::SyncGraph::from_program(&p);
        let e = iwa_wavesim::explore(&sg, &iwa_wavesim::ExploreConfig::default()).unwrap();
        assert_eq!(e.verdict, iwa_wavesim::Verdict::AnomalyFree);
        assert!(e.can_terminate);
    }

    fn oracle_states(p: &Program) -> u64 {
        let sg = iwa_syncgraph::SyncGraph::from_program(p);
        iwa_wavesim::explore(&sg, &iwa_wavesim::ExploreConfig::default())
            .unwrap()
            .states as u64
    }

    #[test]
    fn nest_wave_space_is_exponential_in_pairs() {
        // Independent pairs multiply: 4 waves per looping pair.
        for pairs in 1..=4 {
            let p = deep_loop_nest(pairs, 1);
            assert_eq!(oracle_states(&p), 4u64.pow(pairs as u32), "pairs {pairs}");
        }
    }

    #[test]
    fn ordered_mesh_wave_space_stays_polynomial() {
        // The global session order serialises the mesh: the wave space
        // grows far slower than the n·(n−1) rendezvous count suggests.
        let states: Vec<u64> = (2..=5).map(|n| oracle_states(&rendezvous_mesh(n, true))).collect();
        assert!(states.windows(2).all(|w| w[0] < w[1]), "monotone: {states:?}");
        for (i, &s) in states.iter().enumerate() {
            let n = (i + 2) as u64;
            assert!(s <= 2 * n * n, "n={n}: {s} waves is superquadratic");
        }
    }

    #[test]
    fn wide_branch_exhausts_the_stall_path_budget() {
        let p = wide_branch(12); // 4096 signatures > the 1024 default budget
        let r = iwa_analysis::AnalysisCtx::builder().build().stall(&p, &iwa_analysis::StallOptions::default());
        assert!(
            matches!(r.verdict, iwa_analysis::StallVerdict::Unknown { .. }),
            "got {:?}",
            r.verdict
        );
    }

    /// `pairs` copies of [`wide_branch`]`(width)`'s chooser and matcher.
    fn wide_branch_pairs(pairs: usize, width: usize) -> Program {
        let mut b = ProgramBuilder::new();
        for i in 0..pairs {
            let (chooser, matcher) = (format!("chooser{i}"), format!("matcher{i}"));
            wide_branch_tasks(&mut b, &chooser, &matcher, width);
        }
        b.build()
    }

    #[test]
    fn path_combinations_past_usize_abstain() {
        let stall = |p: &Program| {
            iwa_analysis::AnalysisCtx::builder()
                .build()
                .stall(p, &iwa_analysis::StallOptions::default())
        };
        // Six tasks of 1 024 signatures each: 2^60 combinations, over the
        // budget and counted.
        let r = stall(&wide_branch_pairs(3, 10));
        assert_eq!(
            r.verdict,
            iwa_analysis::StallVerdict::Unknown {
                reason: format!(
                    "{} path combinations exceed the budget of 65536",
                    1u64 << 60
                ),
            }
        );
        // Eight: 2^80 overflows the product, which must neither panic nor
        // wrap to a count under the budget.
        let r = stall(&wide_branch_pairs(4, 10));
        assert_eq!(
            r.verdict,
            iwa_analysis::StallVerdict::Unknown {
                reason: "the path combinations overflow usize and exceed the budget of 65536"
                    .into(),
            }
        );
        assert_eq!(r.combinations_checked, 0);
    }

    #[test]
    fn narrow_wide_branch_is_a_possible_stall() {
        let p = wide_branch(2);
        let r = iwa_analysis::AnalysisCtx::builder().build().stall(&p, &iwa_analysis::StallOptions::default());
        assert!(matches!(
            r.verdict,
            iwa_analysis::StallVerdict::PossibleStall { .. }
        ));
    }
}
