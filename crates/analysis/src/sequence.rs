//! The ordering dataflow (paper §4.1).
//!
//! The paper derives node orderings from two rules, *"similar to the
//! `SCPⁿ(k)` lattice of Callahan and Subhlok"*:
//!
//! 1. if `r` dominates `s` in the control-flow graph of their task, `r`
//!    must precede `s`;
//! 2. if for all sync edges `{r, s}`, `s` precedes some node `t`, then `r`
//!    must precede `t`.
//!
//! What the refined algorithm actually needs from this analysis is
//! **wave exclusion**: `SEQUENCEABLE[h]` must contain only nodes that can
//! never sit on an execution wave together with `h` (two such nodes cannot
//! both be deadlock heads, constraint 3a). We therefore compute the
//! relation in that form directly:
//!
//! > `executed_before(a, b)` — in every execution, by the time `b` is on
//! > the wave, `a` has already executed.
//!
//! as the least fixpoint of
//!
//! * `X(a, b)` if `b` is not initial and **every** control predecessor `p`
//!   of `b` satisfies `Y(a, p)`, where
//! * `Y(a, p)` ("by the time `p` finishes executing, `a` has executed") if
//!   `a = p`, or `X(a, p)`, or `p` has at least one sync partner and every
//!   partner `q` satisfies `a = q ∨ X(a, q)`.
//!
//! Rule 1 is the `a = p` chain along a task (dominance falls out
//! inductively), rule 2 is the partner clause — including the dual
//! direction the paper's own Figure-1 walk-through uses (*"s can rendezvous
//! only with v, and s must follow r; therefore v must execute after r"*).
//! Two nodes of the *same* task are always wave-exclusive (a wave holds one
//! node per task), which additionally enforces deadlock-cycle constraint 1c
//! for the hypothesised head's task.
//!
//! [`SequenceInfo::compute`] solves the fixpoint column by column — `X(·, b)`
//! for every `a` at once — with 64-lane [`BitSet`] intersections and
//! unions. The paper's literal finish-before-start relation, a costlier
//! closure over `X`, is the separate [`FinishOrder`], built only by the
//! analyses that read it.

use iwa_graphs::{BitMatrix, BitSet, Dominators};
use iwa_syncgraph::{SyncGraph, B};

/// The wave-order relation `X` and the refined algorithm's
/// `SEQUENCEABLE[h]` rows derived from it.
///
/// The paper's single word "sequenceable" covers two semantically
/// different orders:
///
/// * [`executed_before`](SequenceInfo::executed_before) /
///   [`wave_exclusive`](SequenceInfo::wave_exclusive) — **wave exclusion**:
///   `a` is already executed whenever `b` is on the wave. This is the
///   relation the *refined algorithm's marking* needs: two wave-exclusive
///   nodes cannot both be deadlock heads. It is the only sound choice
///   there — see below.
/// * [`FinishOrder::finishes_before`] — the paper's literal reading, *"one
///   must always finish executing before the other starts"*: in every
///   execution in which `b` fires, `a` fired strictly earlier. This is the
///   relation the **Theorem 2 construction** relies on (its ordering tasks
///   force exactly such orderings), so the exact checker uses it when
///   validating that reduction. It is a closure over `X` and costs far
///   more, so it lives in its own type, built only by the few consumers
///   that read it.
///
/// **Contract: acyclic control flow.** Both relations are consumed after
/// Lemma-1 unrolling. On graphs *with* control cycles, `executed_before`
/// still means "a fired at least once before b waves", but a fired node
/// can re-enter the wave on a later iteration, so wave *exclusion* no
/// longer follows — apply `unroll_twice` first, as the certify driver
/// does. (The property fuzzers pin this boundary.)
///
/// The two genuinely differ, and mixing them up breaks things in both
/// directions: the heads of the plain crossed deadlock (`t1: send a;
/// accept b` / `t2: send b; accept a`) satisfy finish-before-start — each
/// send fires before the opposite send can fire — yet they sit together on
/// the deadlocked wave, so marking with finish-before-start would certify
/// a deadlocking program (the `paper_sequence_relation` option demonstrates
/// this empirically); conversely wave-exclusion is too weak to kill the
/// Theorem-2 ordering-task detours.
#[derive(Clone, Debug)]
pub struct SequenceInfo {
    /// `before[b]` is the column `X(·, b)`: every `a` with
    /// `executed_before(a, b)`. Indexed by sync-graph node (`b`/`e` — `0`
    /// and `1` — stay empty).
    before: Vec<BitSet>,
    /// Precomputed wave-exclusion rows: `excl[h]` = all nodes wave-exclusive
    /// with `h` (`X` row ∪ `X` column ∪ same-task nodes, minus `h`). The
    /// refined algorithm's `SEQUENCEABLE[h]` marking consumes whole rows at
    /// once, so they are materialised here as 64-lane word sets instead of
    /// being re-derived scalar-by-scalar per head hypothesis.
    excl: Vec<BitSet>,
}

impl SequenceInfo {
    /// Run the fixpoint on `sg`.
    ///
    /// The fixpoint is solved one **column** per node, for every `a` at
    /// once, with 64-lane word operations:
    ///
    /// * `X(·, b) = ⋂_{p ∈ preds(b)} Y(·, p) \ {b}` (empty when `b` is
    ///   initial);
    /// * `Y(·, p) = {p} ∪ X(·, p) ∪ ⋂_{q ∈ partners(p)} ({q} ∪ X(·, q))`,
    ///   the last term only when `p` has partners.
    ///
    /// Plain sweeps in node order repeat until no column grows. A sweep
    /// does `1 + |partners(p)|` set operations of `N/64` words per control
    /// edge `p → b`. Most graphs settle in two or three sweeps; a ring of
    /// waits needs about one sweep per position on the ring (129 for the
    /// 128-process `chan_ring`) — comfortably inside the paper's
    /// polynomial budget. The finish-before-start relation is not built
    /// here (see [`FinishOrder`]).
    #[must_use]
    pub fn compute(sg: &SyncGraph) -> SequenceInfo {
        let n = sg.num_nodes();
        let mut before = vec![BitSet::new(n); n];
        // Initial (or unreachable) nodes are never preceded: only nodes
        // whose control predecessors are all rendezvous nodes can gain bits.
        let targets: Vec<usize> = sg
            .rendezvous_nodes()
            .filter(|&b| {
                let ps = sg.control.predecessors(b);
                !ps.is_empty() && !ps.contains(&(B as u32))
            })
            .collect();
        let mut col = BitSet::new(n);
        let mut y = BitSet::new(n);
        let mut meet = BitSet::new(n);
        loop {
            let mut changed = false;
            for &b in &targets {
                for (i, &p) in sg.control.predecessors(b).iter().enumerate() {
                    let p = p as usize;
                    // Y(·, p), assembled in `y`.
                    y.copy_from(&before[p]);
                    y.insert(p);
                    if let Some((&q0, rest)) = sg.sync_neighbors(p).split_first() {
                        meet.copy_from(&before[q0 as usize]);
                        meet.insert(q0 as usize);
                        for &q in rest {
                            // meet ∩= {q} ∪ X(·, q)
                            let q = q as usize;
                            let keep = meet.contains(q);
                            meet.intersect_with(&before[q]);
                            if keep {
                                meet.insert(q);
                            }
                        }
                        y.union_with(&meet);
                    }
                    if i == 0 {
                        col.copy_from(&y);
                    } else {
                        col.intersect_with(&y);
                    }
                }
                col.remove(b);
                // Columns only grow from the empty start (the equations are
                // monotone), so a union is the update.
                changed |= before[b].union_with(&col);
            }
            if !changed {
                break;
            }
        }

        // Materialise the wave-exclusion rows: each column plus its
        // transpose, plus the node's own task.
        let mut excl = before.clone();
        for (b, col) in before.iter().enumerate() {
            for a in col.iter_ones() {
                excl[a].insert(b);
            }
        }
        for t in 0..sg.num_tasks {
            let task = iwa_core::TaskId(t as u32);
            let mut mask = BitSet::new(n);
            for &v in sg.nodes_of_task(task) {
                mask.insert(v as usize);
            }
            for &v in sg.nodes_of_task(task) {
                excl[v as usize].union_with(&mask);
            }
        }
        for (a, row) in excl.iter_mut().enumerate() {
            row.remove(a); // irreflexive
        }

        SequenceInfo { before, excl }
    }

    /// Must `a` be executed (past) whenever `b` is on the wave?
    #[must_use]
    pub fn executed_before(&self, a: usize, b: usize) -> bool {
        self.before[b].contains(a)
    }

    /// Can `a` and `b` never be on an execution wave simultaneously?
    ///
    /// True when either order is forced, or when they belong to the same
    /// task (a wave holds exactly one node per task). This is the
    /// `SEQUENCEABLE` test of the refined algorithm.
    #[must_use]
    pub fn wave_exclusive(&self, sg: &SyncGraph, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        if sg.node(a).task == sg.node(b).task {
            return true;
        }
        self.executed_before(a, b) || self.executed_before(b, a)
    }

    /// `SEQUENCEABLE[h]` as a precomputed bit row (all nodes wave-exclusive
    /// with `h`), ready for whole-row union into a ban set.
    #[must_use]
    pub fn wave_exclusive_row(&self, h: usize) -> &BitSet {
        &self.excl[h]
    }
}

/// The paper's literal finish-before-start relation `S`: `a` fires strictly
/// before `b` in every execution that fires `b`.
///
/// Only the constraint-4 rescue, the `paper_sequence_relation` ablation,
/// and the exact checker's [`SeqRelation::FinishBeforeStart`](crate::SeqRelation)
/// read it, so it is built on demand from a [`SequenceInfo`] rather than on
/// every analysis.
#[derive(Clone, Debug)]
pub struct FinishOrder {
    /// `s.get(a, b)` ⇔ `S(a, b)`.
    s: BitMatrix,
}

impl FinishOrder {
    /// Close `seq`'s wave order into `S`: the least fixpoint of
    ///
    /// * `S(a, b)` if `a` strictly dominates `b` in `b`'s task (firing `b`
    ///   implies the task already fired `a`);
    /// * `S(a, b)` if `X(a, b)` (executed before `b` even waves);
    /// * `S(a, b)` if `b` has at least one partner and every partner `q`
    ///   has `S(a, q)` (`b` fires simultaneously with one of them);
    /// * `S` transitively closed.
    ///
    /// Cost: each round is a scalar partner sweep plus a row-OR transitive
    /// closure over an `N×N` [`BitMatrix`], repeated until stable.
    #[must_use]
    pub fn compute(sg: &SyncGraph, seq: &SequenceInfo) -> FinishOrder {
        let n = sg.num_nodes();
        let mut s = BitMatrix::new(n, n);
        for (b, col) in seq.before.iter().enumerate() {
            for a in col.iter_ones() {
                s.set(a, b);
            }
        }
        // Dominance seeds, per task.
        for t in 0..sg.num_tasks {
            let task = iwa_core::TaskId(t as u32);
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
            // Partner rule.
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
            // Transitive closure: row(a) |= row(c) for each c in row(a).
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
        // Strictness: a node never fires strictly before itself.
        for a in 0..n {
            s.unset(a, a);
        }
        FinishOrder { s }
    }

    /// Does `a` fire strictly before `b` in every execution that fires `b`
    /// (the paper's literal "finish before the other starts")?
    #[must_use]
    pub fn finishes_before(&self, a: usize, b: usize) -> bool {
        self.s.get(a, b)
    }

    /// The paper's literal sequenceable relation: ordered one way or the
    /// other under finish-before-start, or same task.
    #[must_use]
    pub fn paper_sequenceable(&self, sg: &SyncGraph, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        if sg.node(a).task == sg.node(b).task {
            return true;
        }
        self.finishes_before(a, b) || self.finishes_before(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    fn info(src: &str) -> (SyncGraph, SequenceInfo) {
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let seq = SequenceInfo::compute(&sg);
        (sg, seq)
    }

    fn finish(src: &str) -> (SyncGraph, SequenceInfo, FinishOrder) {
        let (sg, seq) = info(src);
        let fo = FinishOrder::compute(&sg, &seq);
        (sg, seq, fo)
    }

    #[test]
    fn straight_line_chain_orders_by_partner_execution() {
        // t1's first send must have executed before t2 can stand at its
        // second accept.
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a as r1; accept b as r2; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        let r1 = sg.node_by_label("r1").unwrap();
        let s2 = sg.node_by_label("s2").unwrap();
        assert!(seq.executed_before(s1, r2), "s1 executed before r2 waves");
        assert!(seq.executed_before(r1, s2), "r1 executed before s2 waves");
        assert!(!seq.executed_before(s1, r1), "s1 and r1 wave together");
        assert!(seq.wave_exclusive(&sg, s1, r2));
        assert!(!seq.wave_exclusive(&sg, s1, r1));
    }

    #[test]
    fn same_task_nodes_are_always_wave_exclusive() {
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a; accept b; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let s2 = sg.node_by_label("s2").unwrap();
        assert!(seq.wave_exclusive(&sg, s1, s2));
        assert!(!seq.wave_exclusive(&sg, s1, s1), "irreflexive");
    }

    #[test]
    fn figure_1_refinement_r_before_v() {
        // The paper's Figure 1: v must execute after r because t2 can pass
        // its accept (t or u) only by rendezvousing with r.
        let (sg, seq) = info(
            "task t1 { send t2.sig1 as r; accept sig2 as s; }
             task t2 {
                if { accept sig1 as t; } else { accept sig1 as u; }
                send t1.sig2 as v;
             }",
        );
        let r = sg.node_by_label("r").unwrap();
        let v = sg.node_by_label("v").unwrap();
        assert!(
            seq.executed_before(r, v),
            "r executed before v can be on the wave"
        );
        assert!(seq.wave_exclusive(&sg, r, v));
    }

    #[test]
    fn branches_with_different_partners_stay_unordered() {
        // t2's second node can be reached after syncing with either of two
        // *different* senders, so no single sender is forced-executed.
        let (sg, seq) = info(
            "task p1 { send t2.a as sa; }
             task p2 { send t2.b as sb; }
             task t2 {
                if { accept a; } else { accept b; }
                accept c as rc;
             }
             task p3 { send t2.c; }",
        );
        let sa = sg.node_by_label("sa").unwrap();
        let sb = sg.node_by_label("sb").unwrap();
        let rc = sg.node_by_label("rc").unwrap();
        assert!(!seq.executed_before(sa, rc));
        assert!(!seq.executed_before(sb, rc));
        assert!(!seq.wave_exclusive(&sg, sa, rc));
    }

    #[test]
    fn initial_nodes_are_never_preceded() {
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; } task t2 { accept a as r1; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r1 = sg.node_by_label("r1").unwrap();
        for n in sg.rendezvous_nodes() {
            assert!(!seq.executed_before(n, s1));
            assert!(!seq.executed_before(n, r1));
        }
    }

    #[test]
    fn ordering_propagates_across_three_tasks() {
        // t1: s1 then s2. t3 waits for t2's relay, which waits on s1's
        // partner — so s1 executed before t3's accept can wave… check the
        // chain: s1 < r_relay (same-task dominance via partner) etc.
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; }
             task t2 { accept a as r1; send t3.b as s2; }
             task t3 { accept b as r2; accept c as r3; }
             task t4 { send t3.c as s3; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r3 = sg.node_by_label("r3").unwrap();
        // r3 waves only after r2 executed; r2's only partner is s2; s2
        // waves only after r1 executed; r1's only partner is s1.
        assert!(seq.executed_before(s1, r3));
        let s3 = sg.node_by_label("s3").unwrap();
        assert!(!seq.executed_before(s3, r3), "s3 is r3's own partner");
    }

    #[test]
    fn finish_before_start_orders_crossed_deadlock_heads() {
        // The two relations genuinely differ: the crossed deadlock's sends
        // are finish-before-start ordered (each can only fire after the
        // other's accept waved, hence after the other send fired)… yet they
        // wave together in the deadlock.
        let (sg, seq, fo) = finish(
            "task t1 { send t2.a as sa; accept b as rb; }
             task t2 { send t1.b as sb; accept a as ra; }",
        );
        let sa = sg.node_by_label("sa").unwrap();
        let sb = sg.node_by_label("sb").unwrap();
        assert!(fo.finishes_before(sa, sb), "sb fires only after sa fired");
        assert!(fo.finishes_before(sb, sa), "and symmetrically");
        assert!(fo.paper_sequenceable(&sg, sa, sb));
        assert!(
            !seq.wave_exclusive(&sg, sa, sb),
            "but they CAN wave together (and deadlock)"
        );
    }

    #[test]
    fn finish_before_start_includes_dominance_and_wave_order() {
        let (sg, _, fo) = finish(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a as r1; accept b as r2; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let s2 = sg.node_by_label("s2").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        assert!(fo.finishes_before(s1, s2), "dominance seed");
        assert!(fo.finishes_before(s1, r2), "X ⊆ S");
        assert!(!fo.finishes_before(s2, s1));
        assert!(!fo.finishes_before(s1, s1), "irreflexive");
    }

    #[test]
    fn finish_before_start_is_transitive_across_partners() {
        // s1 < r1 (partner rule: r1's only partner is... r1 fires WITH s1 —
        // not strictly before). Check a genuine chain instead: s1 < s2
        // (dominance), all partners of r2 = {s2}, so s1 < r2.
        let (sg, _, fo) = finish(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a as r1; accept b as r2; }
             task t3 { accept c as r3; }
             task t4 { send t3.c as s3; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r1 = sg.node_by_label("r1").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        assert!(
            !fo.finishes_before(s1, r1),
            "a node does not fire strictly before its own rendezvous partner"
        );
        assert!(fo.finishes_before(s1, r2));
        let s3 = sg.node_by_label("s3").unwrap();
        let r3 = sg.node_by_label("r3").unwrap();
        assert!(!fo.finishes_before(s3, r3));
        assert!(!fo.finishes_before(r2, s3), "independent tasks unordered");
    }

    #[test]
    fn partnerless_nodes_do_not_unlock_successors() {
        // r1 has no partner (no one sends a): nothing after r1 ever waves,
        // but X must not claim orderings *through* vacuous rendezvous.
        let (sg, seq) = info(
            "task t1 { accept a as r1; accept b as r2; }
             task t2 { send t1.b as sb; }",
        );
        let sb = sg.node_by_label("sb").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        // r2 can only be reached by executing r1, which never fires; the
        // analysis stays conservative about sb-before-r2 (vacuously true
        // but not derivable through a partnerless rendezvous) and must not
        // invent an ordering of sb before the initial r1.
        let r1 = sg.node_by_label("r1").unwrap();
        assert!(!seq.executed_before(sb, r1));
        assert!(!seq.executed_before(sb, r2));
    }
}
