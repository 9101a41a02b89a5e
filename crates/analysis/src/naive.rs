//! The naive algorithm (paper §3.1): cycle detection on the CLG.
//!
//! > *"A depth-first traversal of the sync graph, starting at node `b` and
//! > including both control and sync edges, will find a cycle if one
//! > exists."*
//!
//! The CLG transformation already rules out the sync-edge-only spurious
//! cycles (constraint 1b); any remaining cycle reachable from `b` is
//! reported as a *potential* deadlock. The check is safe for loop-free
//! programs: straight-line code satisfies constraints 1a–1c outright
//! (§3.1.1), and with conditionals every cycle either corresponds to one
//! entering each task once or violates 3b (§3.1.2) — still an
//! over-approximation, never a miss. Programs with loops must first be
//! unrolled (Lemma 1, `iwa_tasklang::transforms::unroll_twice`); the
//! [`AnalysisCtx::certify`](crate::AnalysisCtx::certify) driver does that
//! automatically.

use crate::refined::sync_nodes_of;
use iwa_graphs::Scc;
use iwa_syncgraph::{PortClg, SyncGraph, B};

/// Outcome of the naive analysis.
#[derive(Clone, Debug)]
pub struct NaiveResult {
    /// `true` when the CLG (restricted to nodes reachable from `b`) is
    /// acyclic: the program is certified deadlock-free.
    pub deadlock_free: bool,
    /// The non-trivial strongly connected components found, each reported
    /// as the set of **sync-graph** nodes involved (deduplicated,
    /// ascending). Each component witnesses at least one potential
    /// deadlock cycle.
    pub cycle_components: Vec<Vec<usize>>,
}

/// Run the naive check on a sync graph.
///
/// ```
/// let p = iwa_tasklang::parse(
///     "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
/// ).unwrap();
/// let sg = iwa_syncgraph::SyncGraph::from_program(&p);
/// let r = iwa_analysis::naive_analysis(&sg);
/// assert!(!r.deadlock_free, "the crossed sends form a CLG cycle");
/// ```
#[must_use]
pub fn naive_analysis(sg: &SyncGraph) -> NaiveResult {
    let clg = PortClg::build(sg);
    let scc = Scc::compute(&clg.graph, None);
    naive_from(sg, &clg, &scc)
}

/// The naive check read from `scc`, the whole-graph decomposition of
/// `clg`: its non-trivial components reachable from `b`. The certify
/// driver hands in the decomposition the refined search shares, so one
/// call derives the CLG and its components once.
///
/// Reachability from `b` is closed under successors, so a component is
/// either wholly reachable or not at all, and one member decides. A port
/// sits on a cycle only together with the `r_o`/`r_i` node it hangs off,
/// so the port CLG's components name the same sync-graph nodes as the
/// paper's CLG's; the port CLG has no self-loops, so a component is
/// non-trivial when it has more than one member.
pub(crate) fn naive_from(sg: &SyncGraph, clg: &PortClg, scc: &Scc) -> NaiveResult {
    let mut cycles = scc.components().filter(|m| m.len() > 1).peekable();
    // Acyclic CLGs, the common case, skip the reachability pass.
    let reachable = cycles.peek().map(|_| clg.graph.reachable_from(B));
    let mut cycle_components: Vec<Vec<usize>> = cycles
        .filter(|m| {
            reachable
                .as_ref()
                .is_some_and(|r| r.contains(m[0] as usize))
        })
        .map(|members| sync_nodes_of(sg, clg, members))
        .collect();
    cycle_components.sort();
    NaiveResult {
        deadlock_free: cycle_components.is_empty(),
        cycle_components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    fn run(src: &str) -> (SyncGraph, NaiveResult) {
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let r = naive_analysis(&sg);
        (sg, r)
    }

    #[test]
    fn compatible_exchange_is_certified() {
        let (_, r) = run(
            "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
        );
        assert!(r.deadlock_free);
        assert!(r.cycle_components.is_empty());
    }

    #[test]
    fn crossed_sends_are_flagged() {
        let (sg, r) = run(
            "task t1 { send t2.a as sa; accept b as rb; }
             task t2 { send t1.b as sb; accept a as ra; }",
        );
        assert!(!r.deadlock_free);
        assert_eq!(r.cycle_components.len(), 1);
        let comp = &r.cycle_components[0];
        for l in ["sa", "rb", "sb", "ra"] {
            assert!(comp.contains(&sg.node_by_label(l).unwrap()), "missing {l}");
        }
    }

    #[test]
    fn sync_only_cycles_are_suppressed_by_the_clg() {
        // Figure 4(a) flavour: sync edges form a "cycle" but no task path
        // connects them — the CLG stays acyclic.
        let (_, r) = run(
            "task p { send q.m1; }
             task q { accept m1; accept m2; }
             task x { send q.m2; }",
        );
        assert!(r.deadlock_free);
    }

    #[test]
    fn figure_1_reports_spurious_cycles() {
        // The paper: naive detection on Figure 1 reports deadlock cycles
        // (e.g. one involving r, s, v and w) even though the program cannot
        // deadlock — r can rendezvous with t, u, or w.
        let (sg, r) = run(
            "task t1 { send t2.sig1 as r; accept sig2 as s; }
             task t2 {
                if { accept sig1 as t; } else { accept sig1 as u; }
                send t1.sig2 as v;
                accept sig1 as w;
             }",
        );
        assert!(!r.deadlock_free, "naive is predictably imprecise here");
        let comp = &r.cycle_components[0];
        for l in ["r", "s", "v", "w"] {
            assert!(comp.contains(&sg.node_by_label(l).unwrap()), "missing {l}");
        }
    }

    #[test]
    fn a_single_rendezvous_is_certified() {
        let (_, r) = run(
            "task t1 { send t2.a; } task t2 { accept a; }",
        );
        assert!(r.deadlock_free);
        assert!(r.cycle_components.is_empty());
    }

    #[test]
    fn three_task_ring_is_flagged() {
        let (_, r) = run(
            "task a { send b.x; accept z; }
             task b { send c.y; accept x; }
             task c { send a.z; accept y; }",
        );
        assert!(!r.deadlock_free);
    }

    #[test]
    fn self_send_cycle_is_flagged() {
        let (_, r) = run("task t { send t.m; accept m; }");
        assert!(!r.deadlock_free);
    }
}
