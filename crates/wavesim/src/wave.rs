//! Execution waves.

use crate::explore::Stepper;
use iwa_core::TaskId;
use iwa_syncgraph::SyncGraph;

/// Sentinel slot value: the task has reached its end node `e`.
pub const DONE: u32 = u32::MAX;

/// An execution wave: one slot per task, holding the sync-graph node the
/// task is poised to execute (a node of that task), or [`DONE`].
///
/// The paper's `W[u]` may also be `b`, but since every task is activated at
/// program start, the initial waves here already hold each task's first
/// rendezvous point (or [`DONE`] for tasks with a rendezvous-free path) —
/// `b` never appears.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Wave(pub Vec<u32>);

impl Wave {
    /// The slot of `task`.
    #[must_use]
    pub fn slot(&self, task: TaskId) -> u32 {
        self.0[task.index()]
    }

    /// Are all tasks finished (successful termination)?
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.0.iter().all(|&s| s == DONE)
    }

    /// The rendezvous nodes currently on the wave (unfinished tasks only).
    #[must_use]
    pub fn active_nodes(&self) -> Vec<usize> {
        self.0
            .iter()
            .filter(|&&s| s != DONE)
            .map(|&s| s as usize)
            .collect()
    }

    /// All READY pairs: `(task_i, task_j)` with `i < j` whose slots are
    /// joined by a sync edge, ordered by `i`, then `j`.
    #[must_use]
    pub fn ready_pairs(&self, sg: &SyncGraph) -> Vec<(usize, usize)> {
        Stepper::new(sg)
            .ready_pairs(&self.0)
            .iter()
            .map(|&(i, j)| (i as usize, j as usize))
            .collect()
    }

    /// Is this wave **anomalous** (paper §2): at least one task still at a
    /// rendezvous point, and no two wave nodes can rendezvous?
    #[must_use]
    pub fn is_anomalous(&self, sg: &SyncGraph) -> bool {
        self.0.iter().any(|&s| s != DONE) && self.ready_pairs(sg).is_empty()
    }

    /// Human-readable rendering (for diagnostics).
    #[must_use]
    pub fn render(&self, sg: &SyncGraph) -> String {
        let mut parts = Vec::new();
        for (i, &s) in self.0.iter().enumerate() {
            let task = sg.symbols.task_name(TaskId(i as u32));
            if s == DONE {
                parts.push(format!("{task}: e"));
            } else {
                parts.push(format!("{task}: {}", sg.node_name(s as usize)));
            }
        }
        format!("[{}]", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_syncgraph::SyncGraph;
    use iwa_tasklang::parse;

    fn crossed() -> SyncGraph {
        let p = parse(
            "task t1 { send t2.a as sa; accept b as rb; }
             task t2 { send t1.b as sb; accept a as ra; }",
        )
        .unwrap();
        SyncGraph::from_program(&p)
    }

    #[test]
    fn ready_pairs_follow_sync_edges() {
        let sg = crossed();
        let sa = sg.node_by_label("sa").unwrap() as u32;
        let ra = sg.node_by_label("ra").unwrap() as u32;
        let sb = sg.node_by_label("sb").unwrap() as u32;
        // Both tasks at their sends: the crossed deadlock wave.
        let w = Wave(vec![sa, sb]);
        assert!(w.ready_pairs(&sg).is_empty());
        assert!(w.is_anomalous(&sg));
        // t1 at its send, t2 at the matching accept: ready.
        let w2 = Wave(vec![sa, ra]);
        assert_eq!(w2.ready_pairs(&sg), vec![(0, 1)]);
        assert!(!w2.is_anomalous(&sg));
    }

    #[test]
    fn done_tasks_do_not_participate() {
        let sg = crossed();
        let sa = sg.node_by_label("sa").unwrap() as u32;
        let w = Wave(vec![sa, DONE]);
        assert!(w.ready_pairs(&sg).is_empty());
        assert!(w.is_anomalous(&sg), "t1 is stuck forever");
        assert!(!w.all_done());
        assert!(Wave(vec![DONE, DONE]).all_done());
        assert!(!Wave(vec![DONE, DONE]).is_anomalous(&sg));
    }

    #[test]
    fn rendering_names_tasks_and_labels() {
        let sg = crossed();
        let sa = sg.node_by_label("sa").unwrap() as u32;
        let w = Wave(vec![sa, DONE]);
        let s = w.render(&sg);
        assert!(s.contains("t1: sa"));
        assert!(s.contains("t2: e"));
    }
}
