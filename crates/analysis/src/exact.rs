//! Exact (exponential) enumeration of constrained deadlock cycles.
//!
//! Detecting cycles that satisfy constraint 1 together with constraint 2
//! or 3a is NP-hard/NP-complete (paper Theorems 2–3), so this checker is
//! **not** part of the polynomial certification pipeline. It exists for two
//! jobs the reproduction needs:
//!
//! * ground truth on small graphs for the precision experiments (which of
//!   naive's / refined's flags correspond to constraint-valid cycles);
//! * mechanising the Theorem 2/3 reductions: a cycle valid under
//!   `{1, 3a}` (resp. `{1, 2}`) exists iff the encoded 3-CNF formula is
//!   satisfiable.
//!
//! It enumerates the simple cycles of the CLG (which enforces constraints
//! 1a/1b structurally), recovers each cycle's **head nodes** (nodes entered
//! through a sync edge), and filters by the selected constraints. All
//! enumeration is budgeted; a truncated run is reported as incomplete,
//! never passed off as exhaustive.

use crate::coexec::CoexecInfo;
use crate::ctx::AnalysisCtx;
use crate::sequence::{FinishOrder, SequenceInfo};
use iwa_core::obs::Counters;
use iwa_core::{Budget, IwaError};
use iwa_syncgraph::{PortClg, SyncGraph};

/// Which ordering relation constraint 3a should use (see
/// [`SequenceInfo`] for why there are two; [`FinishOrder`] holds the
/// second).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeqRelation {
    /// Wave exclusion — the semantically necessary condition for real
    /// deadlock heads. Use this when hunting real deadlocks.
    WaveExclusion,
    /// The paper's literal "finish before the other starts" — the relation
    /// the Theorem 2 ordering tasks manufacture. Use this when validating
    /// that reduction.
    FinishBeforeStart,
}

/// Which of the paper's deadlock-cycle constraints to enforce.
#[derive(Clone, Copy, Debug)]
pub struct ConstraintSet {
    /// 1c: the cycle enters each task at most once (head tasks distinct).
    pub c1c: bool,
    /// 2: no two head nodes joined by a sync edge.
    pub c2: bool,
    /// 3a: no two head nodes sequenceable, under the chosen relation.
    pub c3a: Option<SeqRelation>,
    /// 3b: all cycle nodes pairwise co-executable (intra-task branch
    /// exclusivity).
    pub c3b: bool,
}

impl ConstraintSet {
    /// Constraint 1 only (what the naive algorithm approximates).
    #[must_use]
    pub fn c1_only() -> Self {
        ConstraintSet {
            c1c: true,
            c2: false,
            c3a: None,
            c3b: false,
        }
    }

    /// Constraints 1 + 3a in the paper's finish-before-start reading
    /// (Theorem 2's setting).
    #[must_use]
    pub fn c1_and_3a() -> Self {
        ConstraintSet {
            c1c: true,
            c2: false,
            c3a: Some(SeqRelation::FinishBeforeStart),
            c3b: false,
        }
    }

    /// Constraints 1 + 2 (Theorem 3's setting).
    #[must_use]
    pub fn c1_and_2() -> Self {
        ConstraintSet {
            c1c: true,
            c2: true,
            c3a: None,
            c3b: false,
        }
    }

    /// Every semantically *necessary* condition for a real deadlock:
    /// 1 + 2 + 3a (wave exclusion) + 3b. Real deadlock cycles survive this
    /// set.
    #[must_use]
    pub fn all() -> Self {
        ConstraintSet {
            c1c: true,
            c2: true,
            c3a: Some(SeqRelation::WaveExclusion),
            c3b: true,
        }
    }
}

/// A cycle that survived all selected constraints.
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// The head nodes (sync-graph indices, in cycle order).
    pub heads: Vec<usize>,
    /// All sync-graph nodes on the cycle (deduplicated, ascending).
    pub nodes: Vec<usize>,
}

/// Result of the exact enumeration.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// Surviving cycles (up to the output budget).
    pub cycles: Vec<CycleWitness>,
    /// `true` when every simple cycle of the CLG was examined.
    pub complete: bool,
    /// Number of CLG cycles scanned.
    pub scanned: usize,
}

impl ExactResult {
    /// Did any constraint-valid deadlock cycle survive?
    #[must_use]
    pub fn any(&self) -> bool {
        !self.cycles.is_empty()
    }
}

/// Soft budgets for [`AnalysisCtx::exact_cycles`].
#[derive(Clone, Copy, Debug)]
pub struct ExactBudget {
    /// Stop after scanning this many CLG cycles.
    pub max_scanned: usize,
    /// Stop after this many surviving witnesses.
    pub max_witnesses: usize,
    /// DFS step budget for the cycle enumeration.
    pub max_steps: usize,
}

impl Default for ExactBudget {
    fn default() -> Self {
        ExactBudget {
            max_scanned: 1 << 20,
            max_witnesses: 1 << 10,
            max_steps: 1 << 24,
        }
    }
}

/// [`AnalysisCtx::exact_cycles`]: enumerate constraint-valid deadlock
/// cycles of `sg`.
///
/// The search walks simple cycles of the CLG rooted at their
/// minimum-indexed node, but — unlike a generic cycle enumerator — checks
/// the selected constraints *incrementally* as heads join the path. Every
/// constraint is monotone (a violated pair stays violated as the path
/// grows), so pruning a branch at the first violation is exact while
/// cutting the blow-up on constraint-dense graphs; the Theorem 2/3
/// validations depend on this (unsatisfiable formulas prune almost
/// immediately instead of enumerating every multi-wrap clause-ring cycle).
///
/// The soft [`ExactBudget`] truncates the search *gracefully*
/// (`complete = false`); the ctx's wall-clock/step/cancellation budget
/// instead aborts with [`IwaError::BudgetExceeded`] (`items` = cycles
/// scanned), which is what the engine's degradation ladder needs to fall
/// to a cheaper rung.
pub(crate) fn exact_impl(
    sg: &SyncGraph,
    constraints: &ConstraintSet,
    budget: &ExactBudget,
    ctx: &AnalysisCtx,
) -> Result<ExactResult, IwaError> {
    let wallclock = ctx.budget();
    let span = ctx.span("analysis", "exact cycles");
    let clg = PortClg::build(sg);
    let seq = constraints.c3a.map(|_| SequenceInfo::compute(sg));
    let finish = match (constraints.c3a, &seq) {
        (Some(SeqRelation::FinishBeforeStart), Some(seq)) => Some(FinishOrder::compute(sg, seq)),
        _ => None,
    };
    let cx = if constraints.c3b {
        Some(CoexecInfo::compute(sg))
    } else {
        None
    };

    let mut search = Search {
        sg,
        clg: &clg,
        constraints,
        seq: seq.as_ref(),
        finish: finish.as_ref(),
        cx: cx.as_ref(),
        budget,
        wallclock,
        budget_err: None,
        cycles: Vec::new(),
        scanned: 0,
        steps: 0,
        truncated: false,
        on_path: iwa_graphs::BitSet::new(clg.num_nodes()),
        allowed: iwa_graphs::BitSet::new(clg.num_nodes()),
        path: Vec::new(),
        heads: Vec::new(),
        sync_nodes: Vec::new(),
    };
    let n = clg.num_nodes();
    // Roots 0/1 are b/e, which no cycle can touch (b has no in-edges, e no
    // out-edges). The walk is over the paper's CLG: ports are looked
    // through, never roots.
    for root in (2..n).filter(|&r| !clg.is_port(r)) {
        if search.truncated {
            break;
        }
        // Every cycle through `root` stays inside the set of nodes that are
        // both reachable from root and reach root back, within the >= root
        // subgraph. Restricting the DFS to that set prevents the walk from
        // enumerating the (potentially astronomical) simple paths that can
        // never close. Each port's index exceeds that of the paper node it
        // hangs off (`r_so = r_o + 2`, `s_si = s_i + 2`), so a paper edge
        // between nodes >= root expands to a port path that stays >= root:
        // the `_o`/`_i` members of the set are exactly the paper CLG's.
        let fwd = clg
            .graph
            .reachable_from_filtered(root, |_, v, _| v >= root);
        let rev = {
            // Backward reachability: walk predecessors.
            let mut seen = iwa_graphs::BitSet::new(n);
            let mut stack = vec![root];
            seen.insert(root);
            while let Some(u) = stack.pop() {
                for &p in clg.graph.predecessors(u) {
                    let p = p as usize;
                    if p >= root && seen.insert(p) {
                        stack.push(p);
                    }
                }
            }
            seen
        };
        let mut allowed = fwd;
        allowed.intersect_with(&rev);
        if allowed.count() <= 1 {
            continue; // root sits on no cycle in this residual graph
        }
        search.allowed = allowed;
        search.on_path.insert(root);
        search.path.push(root);
        search.dfs(root, root);
        search.path.pop();
        search.on_path.remove(root);
        debug_assert!(search.truncated || search.heads.is_empty());
        debug_assert!(search.truncated || search.sync_nodes.is_empty());
    }
    if let Some(err) = search.budget_err {
        return Err(err);
    }
    // Commit-on-completion: a budget-tripped run leaves the metrics
    // untouched so counters stay deterministic under wall-clock trips.
    ctx.commit_metrics(&Counters {
        exact_cycles: search.cycles.len() as u64,
        ..Counters::default()
    });
    if let Some(mut span) = span {
        span.note("scanned", search.scanned as u64);
        span.note("witnesses", search.cycles.len() as u64);
    }
    Ok(ExactResult {
        cycles: search.cycles,
        complete: !search.truncated,
        scanned: search.scanned,
    })
}

/// Edge classification falls out of CLG node roles: a sync edge is the
/// only kind that *enters* an `_i` node from a different sync node, so a
/// path node reached that way is a head.
struct Search<'a> {
    sg: &'a SyncGraph,
    clg: &'a PortClg,
    constraints: &'a ConstraintSet,
    seq: Option<&'a SequenceInfo>,
    /// Built only for [`SeqRelation::FinishBeforeStart`].
    finish: Option<&'a FinishOrder>,
    cx: Option<&'a CoexecInfo>,
    budget: &'a ExactBudget,
    wallclock: &'a Budget,
    /// Set when the cooperative `wallclock` budget trips mid-search; the
    /// entry point converts it into an `Err` return.
    budget_err: Option<IwaError>,
    cycles: Vec<CycleWitness>,
    scanned: usize,
    steps: usize,
    truncated: bool,
    on_path: iwa_graphs::BitSet,
    /// Nodes eligible for the current root's search (on some cycle through
    /// the root).
    allowed: iwa_graphs::BitSet,
    /// Paper-CLG nodes on the current path.
    path: Vec<usize>,
    /// Heads (sync-graph nodes) accumulated along the path.
    heads: Vec<usize>,
    /// Distinct sync-graph nodes on the path (`_o`/`_i` halves collapsed).
    sync_nodes: Vec<usize>,
}

impl Search<'_> {
    /// Would adding `h` as a head violate a pairwise head constraint?
    fn head_ok(&self, h: usize) -> bool {
        for &other in &self.heads {
            if self.constraints.c1c && self.sg.node(h).task == self.sg.node(other).task {
                return false;
            }
            if self.constraints.c2 && self.sg.has_sync_edge(h, other) {
                return false;
            }
            if let Some(rel) = self.constraints.c3a {
                let ordered = match rel {
                    SeqRelation::WaveExclusion => self
                        .seq
                        .expect("computed when c3a is on")
                        .wave_exclusive(self.sg, h, other),
                    SeqRelation::FinishBeforeStart => self
                        .finish
                        .expect("computed for finish-before-start")
                        .paper_sequenceable(self.sg, h, other),
                };
                if ordered {
                    return false;
                }
            }
        }
        true
    }

    /// Would adding sync node `n` to the path violate co-executability?
    fn node_ok(&self, n: usize) -> bool {
        if !self.constraints.c3b {
            return true;
        }
        let cx = self.cx.expect("computed when c3b is on");
        self.sync_nodes
            .iter()
            .all(|&m| !cx.not_coexec(self.sg, n, m))
    }

    fn dfs(&mut self, u: usize, root: usize) {
        if self.truncated {
            return;
        }
        let clg = self.clg;
        for v in clg.clg_successors(u) {
            if self.truncated {
                return;
            }
            self.steps += 1;
            if self.steps >= self.budget.max_steps {
                self.truncated = true;
                return;
            }
            if let Err(e) = self.wallclock.checkpoint("enumerating exact deadlock cycles") {
                self.budget_err = Some(e);
                self.truncated = true;
                return;
            }
            if v < root || (v != root && !self.allowed.contains(v)) {
                continue;
            }
            if v == root {
                // Closing edge: a sync entry into the root makes the root
                // itself a head, which must pass the pairwise checks too.
                let closes_as_head = clg.is_sync_edge(u, root);
                let root_sync = clg.sync_node_of(root);
                if closes_as_head && !self.head_ok(root_sync) {
                    continue;
                }
                let mut heads = self.heads.clone();
                if closes_as_head {
                    heads.push(root_sync);
                }
                if heads.is_empty() {
                    continue; // pure control cycle (an un-unrolled loop)
                }
                let mut nodes: Vec<usize> = self
                    .path
                    .iter()
                    .map(|&c| clg.sync_node_of(c))
                    .filter(|&n| self.sg.is_rendezvous(n))
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                self.cycles.push(CycleWitness { heads, nodes });
                self.scanned += 1;
                self.wallclock.record_items(1);
                if self.cycles.len() >= self.budget.max_witnesses
                    || self.scanned >= self.budget.max_scanned
                {
                    self.truncated = true;
                    return;
                }
                continue;
            }
            if self.on_path.contains(v) {
                continue;
            }
            // Incremental constraint checks for the new node.
            let v_sync = clg.sync_node_of(v);
            let is_new_head = clg.is_sync_edge(u, v);
            if is_new_head && !self.head_ok(v_sync) {
                continue;
            }
            let is_new_sync_node =
                self.sg.is_rendezvous(v_sync) && !self.sync_nodes.contains(&v_sync);
            if is_new_sync_node && !self.node_ok(v_sync) {
                continue;
            }
            if is_new_head {
                self.heads.push(v_sync);
            }
            if is_new_sync_node {
                self.sync_nodes.push(v_sync);
            }
            self.on_path.insert(v);
            self.path.push(v);
            self.dfs(v, root);
            self.path.pop();
            self.on_path.remove(v);
            if is_new_sync_node {
                self.sync_nodes.pop();
            }
            if is_new_head {
                self.heads.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    /// [`AnalysisCtx::exact_cycles`] on a default ctx.
    fn exact_deadlock_cycles(
        sg: &SyncGraph,
        cs: &ConstraintSet,
        budget: &ExactBudget,
    ) -> ExactResult {
        AnalysisCtx::builder().build().exact_cycles(sg, cs, budget).unwrap()
    }

    fn exact(src: &str, cs: ConstraintSet) -> (SyncGraph, ExactResult) {
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let r = exact_deadlock_cycles(&sg, &cs, &ExactBudget::default());
        (sg, r)
    }

    const CROSSED: &str =
        "task t1 { send t2.a as sa; accept b as rb; } task t2 { send t1.b as sb; accept a as ra; }";

    #[test]
    fn crossed_deadlock_survives_all_constraints() {
        let (sg, r) = exact(CROSSED, ConstraintSet::all());
        assert!(r.complete);
        assert!(r.any());
        let w = &r.cycles[0];
        assert_eq!(w.heads.len(), 2);
        assert!(w.heads.contains(&sg.node_by_label("sa").unwrap()));
        assert!(w.heads.contains(&sg.node_by_label("sb").unwrap()));
    }

    #[test]
    fn compatible_exchange_has_no_cycles() {
        let (_, r) = exact(
            "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
            ConstraintSet::c1_only(),
        );
        assert!(r.complete);
        assert!(!r.any());
        assert_eq!(r.scanned, 0);
    }

    #[test]
    fn figure_1_cycles_die_under_full_constraints() {
        let fig1 = "task t1 { send t2.sig1 as r; accept sig2 as s; }
             task t2 {
                if { accept sig1 as t; } else { accept sig1 as u; }
                send t1.sig2 as v;
                accept sig1 as w;
             }";
        let (_, c1) = exact(fig1, ConstraintSet::c1_only());
        assert!(c1.any(), "constraint 1 alone admits the spurious cycles");
        let (_, all) = exact(fig1, ConstraintSet::all());
        assert!(!all.any(), "constraints 2/3a kill them");
    }

    #[test]
    fn rendezvousing_heads_are_rejected_by_c2() {
        // The cycle r,t,u,w of Figure 1's discussion: heads that can
        // rendezvous with each other. Reuse Figure 1 under {1, 2} only.
        let fig1 = "task t1 { send t2.sig1 as r; accept sig2 as s; }
             task t2 {
                if { accept sig1 as t; } else { accept sig1 as u; }
                send t1.sig2 as v;
                accept sig1 as w;
             }";
        let (sg, only_c2) = exact(fig1, ConstraintSet::c1_and_2());
        // Any surviving cycle must not have sync-adjacent heads.
        for w in &only_c2.cycles {
            for i in 0..w.heads.len() {
                for j in (i + 1)..w.heads.len() {
                    assert!(!sg.has_sync_edge(w.heads[i], w.heads[j]));
                }
            }
        }
    }

    #[test]
    fn self_send_cycle_has_one_head() {
        let (_, r) = exact("task t { send t.m; accept m; }", ConstraintSet::all());
        assert!(r.any());
        assert_eq!(r.cycles[0].heads.len(), 1);
    }

    #[test]
    fn c1c_rejects_task_reentering_cycles() {
        // Force a cycle that needs to enter task q twice: q accepts m1 and
        // m2 in *parallel branches* so any single path uses one of them —
        // cycles using both enter q twice.
        let src = "task p1 { accept g1 as a1; send q.m1 as s1; }
             task p2 { accept g2 as a2; send q.m2 as s2; }
             task q {
                if { accept m1 as r1; send p2.g2 as t1; }
                else { accept m2 as r2; send p1.g1 as t2; }
             }";
        let (_, loose) = exact(
            src,
            ConstraintSet {
                c1c: false,
                c2: false,
                c3a: None,
                c3b: false,
            },
        );
        let (_, strict) = exact(src, ConstraintSet::all());
        // Without 1c the double-entry cycle may appear; with all
        // constraints it must be gone (also killed by 3b).
        assert!(!strict.any());
        let _ = loose; // loose result is graph-shape dependent; key claim is above
    }

    #[test]
    fn three_ring_heads_are_the_sends() {
        let src = "task a { send b.x as sx; accept z as rz; }
             task b { send c.y as sy; accept x as rx; }
             task c { send a.z as sz; accept y as ry; }";
        let (sg, r) = exact(src, ConstraintSet::all());
        assert!(r.any());
        let w = r
            .cycles
            .iter()
            .find(|w| w.heads.len() == 3)
            .expect("three-head ring cycle");
        for l in ["sx", "sy", "sz"] {
            assert!(w.heads.contains(&sg.node_by_label(l).unwrap()));
        }
    }

    #[test]
    fn budgets_report_incomplete() {
        let (_, r) = exact(
            CROSSED,
            ConstraintSet::all(),
        );
        assert!(r.complete);
        let sg = SyncGraph::from_program(&parse(CROSSED).unwrap());
        let tight = exact_deadlock_cycles(
            &sg,
            &ConstraintSet::all(),
            &ExactBudget {
                max_scanned: 1,
                max_witnesses: 1,
                max_steps: 1 << 20,
            },
        );
        assert!(!tight.complete || tight.scanned <= 1);
    }
}
