//! A **data-aware** Monte-Carlo interpreter over the AST.
//!
//! The wave semantics (§2) is data-blind: every branch is independently
//! takeable, so facts that rest on the §5.1 encapsulated-boolean
//! discipline (a single-assignment boolean evaluates consistently
//! everywhere, including in another task after being carried across a
//! rendezvous) are invisible to it. This interpreter executes the program
//! *with* condition valuations:
//!
//! * an opaque (`Cond::Unknown`) branch flips a fresh coin at every
//!   evaluation;
//! * an encapsulated variable gets a random value the **first** time it is
//!   needed and keeps it for the whole run;
//! * `send … carrying x` / `accept … binding y` copies the sender's value
//!   into the receiver's `y`.
//!
//! One call runs one random execution and reports the outcome plus every
//! rendezvous node that fired — which is exactly what the fuzz validation
//! of the condition-aware analyses needs: a pair of nodes claimed
//! *not co-executable* must never both fire in any single data-aware run,
//! and a program whose stall analysis certified balance must never strand
//! a task in a completed-elsewhere run.
//!
//! Tasks spinning in rendezvous-free loops are *parked* after an
//! administrative step budget (they are live, not waiting, and outside the
//! anomaly model).

use iwa_core::TaskId;
use iwa_syncgraph::SyncGraph;
use iwa_tasklang::{Cond, Program, Stmt};
use rand::Rng;
use std::collections::HashMap;

/// Compiled per-task instruction.
#[derive(Clone, Debug)]
enum Op {
    /// A rendezvous; `node` is the sync-graph node index.
    Rv {
        node: usize,
        carrying: Option<String>,
        binding: Option<String>,
    },
    /// Branch: fall through into the then-side, or jump to `else_t`.
    Br { cond: Cond, else_t: usize },
    /// Unconditional jump.
    Jmp(usize),
    /// Task body finished.
    End,
}

/// Outcome of one data-aware run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterpOutcome {
    /// Every task ended (or parked in a rendezvous-free loop).
    Completed,
    /// Some task rests at a rendezvous nobody can match.
    Stuck,
    /// The rendezvous step budget ran out (looping programs).
    OutOfSteps,
}

/// The record of one data-aware run.
#[derive(Clone, Debug)]
pub struct InterpRun {
    /// How it ended.
    pub outcome: InterpOutcome,
    /// Sync-graph nodes fired, in order (two entries per rendezvous).
    pub fired: Vec<usize>,
    /// Final condition valuations, `(task, var) → value`.
    pub valuation: HashMap<(TaskId, String), bool>,
    /// Tasks parked in rendezvous-free loops.
    pub parked: Vec<TaskId>,
}

impl InterpRun {
    /// Did node `n` fire during the run?
    #[must_use]
    pub fn fired_node(&self, n: usize) -> bool {
        self.fired.contains(&n)
    }
}

/// The compiled program (reusable across runs).
pub struct Interp {
    code: Vec<Vec<Op>>,
    /// Sync-edge relation over sync-graph node indices.
    edges: std::collections::HashSet<(usize, usize)>,
}

impl Interp {
    /// Compile `p` against its sync graph (for node numbering).
    ///
    /// # Panics
    /// If the program still contains procedure calls (inline first) or the
    /// sync graph does not match the program.
    #[must_use]
    pub fn compile(p: &Program, sg: &SyncGraph) -> Interp {
        assert!(!p.has_calls(), "inline procedures before interpretation");
        let mut code = Vec::with_capacity(p.num_tasks());
        for task in &p.tasks {
            // Per-task node ids in syntactic order — the same order the
            // sync graph assigned them.
            let nodes: Vec<usize> = sg
                .nodes_of_task(task.id)
                .iter()
                .map(|&n| n as usize)
                .collect();
            let mut next = 0usize;
            let mut ops = Vec::new();
            compile_block(&task.body, &nodes, &mut next, &mut ops);
            ops.push(Op::End);
            assert_eq!(next, nodes.len(), "node census matches the sync graph");
            code.push(ops);
        }
        let edges = sg
            .rendezvous_nodes()
            .flat_map(|n| {
                sg.sync_neighbors(n)
                    .iter()
                    .map(move |&m| (n, m as usize))
                    .collect::<Vec<_>>()
            })
            .collect();
        Interp { code, edges }
    }

    /// One random data-aware run (at most `max_rendezvous` firings).
    pub fn run(&self, rng: &mut impl Rng, max_rendezvous: usize) -> InterpRun {
        const ADMIN_BUDGET: usize = 10_000;
        let ntasks = self.code.len();
        let mut pc = vec![0usize; ntasks];
        let mut parked = vec![false; ntasks];
        let mut valuation: HashMap<(TaskId, String), bool> = HashMap::new();
        let mut fired = Vec::new();

        // Advance `t` through branches/jumps until it rests at Rv or End.
        let advance = |t: usize,
                       pc: &mut Vec<usize>,
                       parked: &mut Vec<bool>,
                       valuation: &mut HashMap<(TaskId, String), bool>,
                       rng: &mut dyn rand::RngCore| {
            let task = TaskId(t as u32);
            let mut steps = 0;
            loop {
                match &self.code[t][pc[t]] {
                    Op::Rv { .. } | Op::End => return,
                    Op::Jmp(target) => pc[t] = *target,
                    Op::Br { cond, else_t } => {
                        let take_then = match cond {
                            Cond::Unknown => rng.gen_bool(0.5),
                            Cond::Var(v) => *valuation
                                .entry((task, v.clone()))
                                .or_insert_with(|| rng.gen_bool(0.5)),
                        };
                        if take_then {
                            pc[t] += 1;
                        } else {
                            pc[t] = *else_t;
                        }
                    }
                }
                steps += 1;
                if steps >= ADMIN_BUDGET {
                    parked[t] = true; // rendezvous-free spin: live, not waiting
                    return;
                }
            }
        };

        for t in 0..ntasks {
            advance(t, &mut pc, &mut parked, &mut valuation, rng);
        }

        let mut count = 0usize;
        loop {
            // Collect matchable pairs among resting tasks.
            let mut pairs = Vec::new();
            for a in 0..ntasks {
                if parked[a] {
                    continue;
                }
                let Op::Rv { node: na, .. } = &self.code[a][pc[a]] else {
                    continue;
                };
                for b in (a + 1)..ntasks {
                    if parked[b] {
                        continue;
                    }
                    let Op::Rv { node: nb, .. } = &self.code[b][pc[b]] else {
                        continue;
                    };
                    // Matching uses the sync graph's edge relation, so raw
                    // graphs and typed graphs behave identically.
                    if self.edges.contains(&(*na, *nb)) {
                        pairs.push((a, b));
                    }
                }
            }
            if pairs.is_empty() {
                let any_waiting = (0..ntasks).any(|t| {
                    !parked[t] && matches!(self.code[t][pc[t]], Op::Rv { .. })
                });
                let parked_tasks = (0..ntasks)
                    .filter(|&t| parked[t])
                    .map(|t| TaskId(t as u32))
                    .collect();
                return InterpRun {
                    outcome: if any_waiting {
                        InterpOutcome::Stuck
                    } else {
                        InterpOutcome::Completed
                    },
                    fired,
                    valuation,
                    parked: parked_tasks,
                };
            }
            if count >= max_rendezvous {
                let parked_tasks = (0..ntasks)
                    .filter(|&t| parked[t])
                    .map(|t| TaskId(t as u32))
                    .collect();
                return InterpRun {
                    outcome: InterpOutcome::OutOfSteps,
                    fired,
                    valuation,
                    parked: parked_tasks,
                };
            }
            let &(a, b) = &pairs[rng.gen_range(0..pairs.len())];
            // Fire: propagate the carried boolean, record, advance both.
            let (na, ca, ba) = match &self.code[a][pc[a]] {
                Op::Rv {
                    node,
                    carrying,
                    binding,
                } => (*node, carrying.clone(), binding.clone()),
                _ => unreachable!(),
            };
            let (nb, cb, bb) = match &self.code[b][pc[b]] {
                Op::Rv {
                    node,
                    carrying,
                    binding,
                } => (*node, carrying.clone(), binding.clone()),
                _ => unreachable!(),
            };
            // Sender side is whichever carries; receiver binds.
            let transfers = [
                (a, ca, b, bb.clone()),
                (b, cb, a, ba.clone()),
            ];
            for (src, carry, dst, bind) in transfers {
                if let (Some(x), Some(y)) = (carry, bind) {
                    let v = *valuation
                        .entry((TaskId(src as u32), x))
                        .or_insert_with(|| rng.gen_bool(0.5));
                    valuation.insert((TaskId(dst as u32), y), v);
                }
            }
            fired.push(na);
            fired.push(nb);
            pc[a] += 1;
            pc[b] += 1;
            advance(a, &mut pc, &mut parked, &mut valuation, rng);
            advance(b, &mut pc, &mut parked, &mut valuation, rng);
            count += 1;
        }
    }
}

/// Convenience wrapper: compile and run one data-aware execution.
pub fn run_data_aware(
    p: &Program,
    sg: &SyncGraph,
    rng: &mut impl Rng,
    max_rendezvous: usize,
) -> InterpRun {
    Interp::compile(p, sg).run(rng, max_rendezvous)
}

fn compile_block(block: &[Stmt], nodes: &[usize], next: &mut usize, ops: &mut Vec<Op>) {
    for s in block {
        match s {
            Stmt::Send {
                carrying, ..
            } => {
                let node = nodes[*next];
                *next += 1;
                ops.push(Op::Rv {
                    node,
                    carrying: carrying.clone(),
                    binding: None,
                });
            }
            Stmt::Accept { binding, .. } => {
                let node = nodes[*next];
                *next += 1;
                ops.push(Op::Rv {
                    node,
                    carrying: None,
                    binding: binding.clone(),
                });
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let br_at = ops.len();
                ops.push(Op::Jmp(0)); // placeholder for Br
                compile_block(then_branch, nodes, next, ops);
                let jmp_at = ops.len();
                ops.push(Op::Jmp(0)); // placeholder: skip else
                let else_start = ops.len();
                compile_block(else_branch, nodes, next, ops);
                let after = ops.len();
                ops[br_at] = Op::Br {
                    cond: cond.clone(),
                    else_t: else_start,
                };
                ops[jmp_at] = Op::Jmp(after);
            }
            Stmt::While { cond, body, .. } => {
                let head = ops.len();
                ops.push(Op::Jmp(0)); // placeholder for Br
                compile_block(body, nodes, next, ops);
                ops.push(Op::Jmp(head));
                let after = ops.len();
                ops[head] = Op::Br {
                    cond: cond.clone(),
                    else_t: after,
                };
            }
            Stmt::Repeat { body, cond, .. } => {
                let head = ops.len();
                compile_block(body, nodes, next, ops);
                let br_at = ops.len();
                ops.push(Op::Jmp(0));
                ops.push(Op::Jmp(0)); // placeholder: exit
                let after = ops.len();
                // Br: continue (then) → jump back; else → after.
                ops[br_at] = Op::Br {
                    cond: cond.clone(),
                    else_t: after,
                };
                ops[br_at + 1] = Op::Jmp(head);
            }
            Stmt::Call { .. } => unreachable!("inlined before compilation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn runs(src: &str, n: usize, seed: u64) -> (SyncGraph, Vec<InterpRun>) {
        let p = parse(src).unwrap();
        let sg = SyncGraph::from_program(&p);
        let mut rng = StdRng::seed_from_u64(seed);
        let out = (0..n)
            .map(|_| run_data_aware(&p, &sg, &mut rng, 200))
            .collect();
        (sg, out)
    }

    #[test]
    fn clean_exchange_always_completes() {
        let (_, rs) = runs(
            "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
            50,
            1,
        );
        for r in rs {
            assert_eq!(r.outcome, InterpOutcome::Completed);
            assert_eq!(r.fired.len(), 4);
        }
    }

    #[test]
    fn crossed_sends_always_stick() {
        let (_, rs) = runs(
            "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
            50,
            2,
        );
        for r in rs {
            assert_eq!(r.outcome, InterpOutcome::Stuck);
            assert!(r.fired.is_empty());
        }
    }

    #[test]
    fn encapsulated_conditions_are_consistent_per_run() {
        // fig5d: data-aware runs NEVER strand a side — either both guarded
        // rendezvous fire or neither does.
        let (sg, rs) = runs(
            "task t {
                send u.s carrying v;
                if (v) { send u.r as pos_t; }
             }
             task u {
                accept s binding w;
                if (w) { accept r as pos_u; }
             }",
            300,
            3,
        );
        let pos_t = sg.node_by_label("pos_t").unwrap();
        let pos_u = sg.node_by_label("pos_u").unwrap();
        let mut both = 0;
        let mut neither = 0;
        for r in rs {
            assert_eq!(r.outcome, InterpOutcome::Completed, "fig5d never stalls");
            match (r.fired_node(pos_t), r.fired_node(pos_u)) {
                (true, true) => both += 1,
                (false, false) => neither += 1,
                other => panic!("stranded side: {other:?}"),
            }
        }
        assert!(both > 0 && neither > 0, "both branches get explored");
    }

    #[test]
    fn contradictory_guards_never_cofire() {
        let (sg, rs) = runs(
            "task t {
                send u.s carrying v;
                if (v) { send u.x as pos; }
             }
             task u {
                accept s binding w;
                if (w) { accept x; } else { accept y as neg; }
             }
             task z { send u.y; }",
            300,
            4,
        );
        let pos = sg.node_by_label("pos").unwrap();
        let neg = sg.node_by_label("neg").unwrap();
        for r in &rs {
            assert!(
                !(r.fired_node(pos) && r.fired_node(neg)),
                "v and ¬v in one run"
            );
        }
        assert!(rs.iter().any(|r| r.fired_node(pos)));
        assert!(rs.iter().any(|r| r.fired_node(neg)));
    }

    #[test]
    fn opaque_loops_can_loop_and_exit() {
        let (_, rs) = runs(
            "task t { while { send u.m; } } task u { while { accept m; } }",
            100,
            5,
        );
        let lens: Vec<usize> = rs.iter().map(|r| r.fired.len()).collect();
        assert!(lens.contains(&0), "immediate exits happen");
        assert!(lens.iter().any(|&l| l >= 4), "multi-iteration runs happen");
    }

    #[test]
    fn rendezvous_free_spins_park_not_deadlock() {
        // A var-true loop with no rendezvous spins forever: parked, and the
        // rest of the program completes.
        let (_, rs) = runs(
            "task spinner { if (v) { while (v) { } } }
             task a { send b.m; }
             task b { accept m; }",
            60,
            6,
        );
        for r in rs {
            assert_eq!(r.outcome, InterpOutcome::Completed);
            assert_eq!(r.fired.len(), 2);
        }
    }

    #[test]
    fn var_loops_respect_the_valuation() {
        // while (v) with v=false exits immediately; v=true parks (the body
        // is rendezvous-free). Either way no anomaly.
        let (_, rs) = runs(
            "task t { while (v) { } send u.m; } task u { accept m; }",
            60,
            7,
        );
        let mut parked = 0;
        let mut done = 0;
        for r in rs {
            if r.parked.is_empty() {
                assert_eq!(r.outcome, InterpOutcome::Completed);
                assert_eq!(r.fired.len(), 2);
                done += 1;
            } else {
                // t parked pre-send: u is stuck waiting.
                assert_eq!(r.outcome, InterpOutcome::Stuck);
                parked += 1;
            }
        }
        assert!(parked > 0 && done > 0);
    }
}
