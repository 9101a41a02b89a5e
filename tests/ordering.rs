//! Soundness of the ordering dataflow (§4.1) against the semantics.
//!
//! The two relations make checkable semantic claims:
//!
//! * `executed_before(a, b)` (wave order): **no reachable wave** holds `b`
//!   while `a` is still pending — directly checkable by exhaustive
//!   exploration, for any program shape;
//! * `wave_exclusive(a, b)`: no reachable wave holds both;
//! * `finishes_before(a, b)` (firing order): in every execution that fires
//!   `b`, `a` fired strictly earlier — checked on straight-line programs
//!   (where traces are recoverable) via Monte-Carlo simulation.
//!
//! A last group pins the column-wise solver bit for bit against a test-only
//! copy of the row-at-a-time fixpoint and closure it replaced.

use iwa::analysis::{FinishOrder, SequenceInfo};
use iwa::frontend::{registry, Lang};
use iwa::graphs::{BitMatrix, BitSet, Dominators};
use iwa::syncgraph::{SyncGraph, B};
use iwa::tasklang::transforms::unroll_twice;
use iwa::wavesim::{explore, simulate, ExploreConfig, SimOutcome, DONE};
use iwa::workloads::chan::{chan_ring, chan_select_storm};
use iwa::workloads::locks::lock_chain;
use iwa::workloads::{random_balanced, random_structured, BalancedConfig, StructuredConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// For straight-line programs, `a` is executed on wave `W` iff `a` sits
/// strictly before `W[task(a)]` in its task's body (or the task is done).
fn executed_on_wave_straight_line(
    sg: &SyncGraph,
    wave: &iwa::wavesim::Wave,
    a: usize,
) -> bool {
    let task = sg.node(a).task;
    let slot = wave.slot(task);
    if slot == DONE {
        return true;
    }
    // Node indices within a task ascend in syntactic (= execution) order
    // for straight-line bodies.
    a < slot as usize
}

fn check_orderings(p: &iwa::tasklang::Program) -> Result<(), TestCaseError> {
    let sg = SyncGraph::from_program(p);
    let seq = SequenceInfo::compute(&sg);
    // Collect all reachable waves by re-running the closure with a witness
    // collector: explore() doesn't expose the set, so recompute here.
    let mut visited = std::collections::HashSet::new();
    let mut queue: Vec<iwa::wavesim::Wave> = iwa::wavesim::explore::initial_waves(&sg)
        .expect("valid");
    for w in &queue {
        visited.insert(w.clone());
    }
    while let Some(w) = queue.pop() {
        for s in iwa::wavesim::explore::next_waves(&sg, &w) {
            if visited.insert(s.clone()) {
                queue.push(s);
            }
        }
    }

    for wave in &visited {
        for b in sg.rendezvous_nodes() {
            let b_task = sg.node(b).task;
            if wave.slot(b_task) != b as u32 {
                continue;
            }
            // b is on this wave: everything executed_before(b) must be done.
            for a in sg.rendezvous_nodes() {
                if seq.executed_before(a, b) {
                    prop_assert!(
                        executed_on_wave_straight_line(&sg, wave, a),
                        "X({a},{b}) but wave {} has {a} pending in:\n{p}",
                        wave.render(&sg)
                    );
                }
            }
        }
        // wave_exclusive pairs never co-occur.
        let active = wave.active_nodes();
        for (i, &x) in active.iter().enumerate() {
            for &y in &active[i + 1..] {
                prop_assert!(
                    !seq.wave_exclusive(&sg, x, y),
                    "wave_exclusive({x},{y}) but both on {} in:\n{p}",
                    wave.render(&sg)
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wave-order soundness on balanced straight-line programs.
    #[test]
    fn wave_order_sound_straight_line(seed in 0u64..1_000_000, swaps in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_balanced(
            &mut rng,
            &BalancedConfig { tasks: 3, events: 5, message_types: 2, swaps },
        );
        check_orderings(&p)?;
    }

    /// `wave_exclusive` soundness on branching programs — within the
    /// relation's contract: acyclic control flow (with loops an executed
    /// node re-enters the wave, which is why the pipeline unrolls first;
    /// loopy inputs are covered by the unrolling-based safety fuzzer).
    #[test]
    fn wave_exclusion_sound_structured(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_structured(
            &mut rng,
            &StructuredConfig {
                tasks: 3,
                rendezvous_per_task: 4,
                branch_prob: 0.35,
                loop_prob: 0.0,
                message_types: 2,
            },
        );
        let sg = SyncGraph::from_program(&p);
        let seq = SequenceInfo::compute(&sg);
        let e = explore(&sg, &ExploreConfig::default()).expect("small");
        // Re-derive waves as in check_orderings (anomalies alone don't
        // cover all waves) — use the anomaly list plus a fresh closure.
        let mut visited = std::collections::HashSet::new();
        let mut queue = iwa::wavesim::explore::initial_waves(&sg).expect("valid");
        for w in &queue {
            visited.insert(w.clone());
        }
        while let Some(w) = queue.pop() {
            for s in iwa::wavesim::explore::next_waves(&sg, &w) {
                if visited.insert(s.clone()) {
                    queue.push(s);
                }
            }
        }
        let _ = e;
        for wave in &visited {
            let active = wave.active_nodes();
            for (i, &x) in active.iter().enumerate() {
                for &y in &active[i + 1..] {
                    prop_assert!(
                        !seq.wave_exclusive(&sg, x, y),
                        "wave_exclusive({x},{y}) co-occur on {} in:\n{p}",
                        wave.render(&sg)
                    );
                }
            }
        }
    }

    /// Firing-order soundness via Monte-Carlo: in completed runs, if
    /// `finishes_before(a, b)` and both fired, a fired first.
    #[test]
    fn firing_order_sound_montecarlo(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_balanced(
            &mut rng,
            &BalancedConfig { tasks: 3, events: 5, message_types: 2, swaps: 4 },
        );
        let sg = SyncGraph::from_program(&p);
        let seq = FinishOrder::compute(&sg, &SequenceInfo::compute(&sg));
        for _ in 0..8 {
            let t = simulate(&sg, &mut rng, 100).expect("valid");
            if t.outcome != SimOutcome::Completed {
                continue;
            }
            // Global firing order: executed[] per task is in order, and a
            // node's global time is its rendezvous step; recover per-node
            // order from the per-task sequences by replaying.
            // Simpler: position of each node in the concatenated trace is
            // not global time; instead check pairwise via per-task index +
            // the fact that partners fire together. Here use the coarser
            // necessary condition: if finishes_before(a, b) then it cannot
            // be that b appears in its task's trace while a never fired.
            let fired = |n: usize| {
                t.executed[sg.node(n).task.index()].contains(&n)
            };
            for a in sg.rendezvous_nodes() {
                for b in sg.rendezvous_nodes() {
                    if seq.finishes_before(a, b) && fired(b) {
                        prop_assert!(
                            fired(a),
                            "S({a},{b}) but a never fired in a run firing b:\n{p}"
                        );
                    }
                }
            }
        }
    }
}

/// The row-at-a-time solver the column-wise [`SequenceInfo::compute`]
/// replaced, kept verbatim as a test-only reference: the wave order `X`,
/// the finish-before-start closure `S`, and the wave-exclusion rows.
struct Reference {
    x: BitMatrix,
    s: BitMatrix,
    excl: Vec<BitSet>,
}

fn reference(sg: &SyncGraph) -> Reference {
    let n = sg.num_nodes();
    let mut x = BitMatrix::new(n, n);
    let preds: Vec<Vec<usize>> = (0..n)
        .map(|b| {
            sg.control
                .predecessors(b)
                .iter()
                .map(|&p| p as usize)
                .collect()
        })
        .collect();
    for a in sg.rendezvous_nodes() {
        // Fixpoint for row `a`: X(a, ·).
        loop {
            let mut changed = false;
            for b in sg.rendezvous_nodes() {
                if b == a || x.get(a, b) {
                    continue;
                }
                let ps = &preds[b];
                if ps.is_empty() || ps.contains(&B) {
                    continue; // initial or unreachable: never excluded
                }
                let all = ps.iter().all(|&p| {
                    // Y(a, p)
                    if p == a || x.get(a, p) {
                        return true;
                    }
                    let partners = sg.sync_neighbors(p);
                    !partners.is_empty()
                        && partners
                            .iter()
                            .all(|&q| q as usize == a || x.get(a, q as usize))
                });
                if all {
                    x.set(a, b);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    let mut s = x.clone();
    for t in 0..sg.num_tasks {
        let task = iwa::core::TaskId(t as u32);
        let view = sg.task_control_view(task);
        let dom = Dominators::compute(&view, B);
        let nodes = sg.nodes_of_task(task);
        for &a in nodes {
            for &b in nodes {
                if a != b && dom.dominates(a as usize, b as usize) {
                    s.set(a as usize, b as usize);
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for b in sg.rendezvous_nodes() {
            let partners = sg.sync_neighbors(b);
            if partners.is_empty() {
                continue;
            }
            for a in sg.rendezvous_nodes() {
                if a == b || s.get(a, b) {
                    continue;
                }
                if partners.iter().all(|&q| s.get(a, q as usize)) {
                    s.set(a, b);
                    changed = true;
                }
            }
        }
        for a in sg.rendezvous_nodes() {
            let cs: Vec<usize> = s.row_iter(a).collect();
            for c in cs {
                changed |= s.or_row_into(c, a);
            }
        }
        if !changed {
            break;
        }
    }
    for a in 0..n {
        s.unset(a, a);
    }

    let mut excl: Vec<BitSet> = vec![BitSet::new(n); n];
    for a in sg.rendezvous_nodes() {
        let row = x.row(a);
        for b in row.iter_ones() {
            excl[b].insert(a);
        }
        excl[a].union_with(&row);
    }
    for t in 0..sg.num_tasks {
        let task = iwa::core::TaskId(t as u32);
        let mut mask = BitSet::new(n);
        for &v in sg.nodes_of_task(task) {
            mask.insert(v as usize);
        }
        for &v in sg.nodes_of_task(task) {
            excl[v as usize].union_with(&mask);
        }
    }
    for (a, row) in excl.iter_mut().enumerate() {
        row.remove(a);
    }
    Reference { x, s, excl }
}

/// `X`, `S` and every wave-exclusion row agree with the reference bit for
/// bit over all node pairs (`b`/`e` included).
fn matches_reference(sg: &SyncGraph, what: &str) -> Result<(), TestCaseError> {
    let r = reference(sg);
    let seq = SequenceInfo::compute(sg);
    let finish = FinishOrder::compute(sg, &seq);
    let n = sg.num_nodes();
    for a in 0..n {
        for b in 0..n {
            prop_assert_eq!(
                seq.executed_before(a, b),
                r.x.get(a, b),
                "X({a},{b}) on {what}"
            );
            prop_assert_eq!(
                finish.finishes_before(a, b),
                r.s.get(a, b),
                "S({a},{b}) on {what}"
            );
        }
        prop_assert_eq!(seq.wave_exclusive_row(a), &r.excl[a], "row {a} on {what}");
    }
    Ok(())
}

/// The sync graph a `.lok`/`.chan` source lowers to.
fn lowered(lang: Lang, src: &str) -> SyncGraph {
    let model = registry::by_lang(lang)
        .load(src)
        .expect("generated sources load");
    match lang {
        Lang::Lok => model.as_lok().expect("lok model").sg.clone(),
        _ => model.as_chan().expect("chan model").sg.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Branching and loopy programs, unrolled when loopy as the certify
    /// driver does.
    #[test]
    fn column_solver_matches_reference_structured(seed in 0u64..1_000_000, tasks in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_structured(
            &mut rng,
            &StructuredConfig {
                tasks,
                rendezvous_per_task: 4,
                branch_prob: 0.35,
                loop_prob: 0.25,
                message_types: 2,
            },
        );
        let p = if p.is_loop_free() { p } else { unroll_twice(&p) };
        matches_reference(&SyncGraph::from_program(&p), &p.to_source())?;
    }

    /// Straight-line programs with message-order swaps.
    #[test]
    fn column_solver_matches_reference_balanced(seed in 0u64..1_000_000, swaps in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_balanced(
            &mut rng,
            &BalancedConfig { tasks: 4, events: 6, message_types: 3, swaps },
        );
        matches_reference(&SyncGraph::from_program(&p), &p.to_source())?;
    }

    /// The lowered graphs of small lock chains, channel rings and select
    /// storms, both flavours of each.
    #[test]
    fn column_solver_matches_reference_lowered(n in 2usize..7, flavour in 0usize..2) {
        let flag = flavour == 1;
        for (lang, src) in [
            (Lang::Lok, lock_chain(n, flag)),
            (Lang::Chan, chan_ring(n, flag)),
            (Lang::Chan, chan_select_storm(n.min(4), flag)),
        ] {
            matches_reference(&lowered(lang, &src), &src)?;
        }
    }
}
