//! Anomaly classification (paper §2, Theorem 1).
//!
//! On an anomalous wave every node is WAITING. The paper partitions them:
//!
//! * a **stall node** `r = (t, m, s)` has *no* complementary node reachable
//!   on a control-flow path from any node on the wave — its rendezvous can
//!   never be offered again;
//! * a **deadlocked set** `D` is a set of wave nodes such that each `r ∈ D`
//!   has some `s ∈ D` with a control-flow descendant that is a sync
//!   neighbour of `r` — everyone's rescue sits behind someone else in the
//!   set (we compute the *maximal* such `D` as a greatest fixpoint);
//! * every remaining node is **transitively coupled** to a stall or
//!   deadlock (that is Theorem 1, and [`AnomalyReport::taxonomy_complete`]
//!   checks it on every classified wave).

use crate::wave::{Wave, DONE};
use iwa_graphs::BitSet;
use iwa_syncgraph::SyncGraph;

/// Classification of one anomalous wave.
#[derive(Clone, Debug)]
pub struct AnomalyReport {
    /// Wave nodes with no reachable rendezvous partner at all.
    pub stall_nodes: Vec<usize>,
    /// The maximal deadlocked set `D` (wave nodes mutually waiting in a
    /// coupling cycle). Empty when the anomaly is stall-only.
    pub deadlock_set: Vec<usize>,
    /// Wave nodes that are neither stalled nor in `D` but are transitively
    /// coupled to a stalled/deadlocked node.
    pub coupled: Vec<usize>,
    /// Wave nodes in none of the three classes. **Theorem 1 says this is
    /// always empty**; kept so tests can assert it.
    pub unaccounted: Vec<usize>,
}

impl AnomalyReport {
    /// Theorem 1: every node on an anomalous wave participates in a stall
    /// or deadlock or is transitively coupled to one.
    #[must_use]
    pub fn taxonomy_complete(&self) -> bool {
        self.unaccounted.is_empty()
    }
}

/// Strictly-forward control reachability: nodes reachable from `n` through
/// **at least one** control edge (per the coupling definition's "forward
/// through at least one control flow edge").
fn strict_forward(sg: &SyncGraph, n: usize) -> BitSet {
    let mut seen = BitSet::new(sg.control.num_nodes());
    let mut stack: Vec<usize> = sg
        .control
        .successors(n)
        .iter()
        .map(|&v| v as usize)
        .collect();
    for &s in &stack {
        seen.insert(s);
    }
    while let Some(u) = stack.pop() {
        for &v in sg.control.successors(u) {
            let v = v as usize;
            if seen.insert(v) {
                stack.push(v);
            }
        }
    }
    seen
}

/// Coupling: `r` is coupled to `s` when some strict control descendant of
/// `s` (a member of `s_reach`, its [`strict_forward`] set) is a sync
/// neighbour of `r`.
fn coupled_to(sg: &SyncGraph, r: usize, s_reach: &BitSet) -> bool {
    sg.sync_neighbors(r)
        .iter()
        .any(|&z| s_reach.contains(z as usize))
}

/// The deadlock half of [`classify`] for the many stuck waves of one
/// exploration: does a wave's coupling digraph have a cycle, i.e. is
/// `classify(sg, wave).deadlock_set` non-empty? Strict-forward sets are
/// computed once per node and kept, and the test allocates nothing per
/// wave once its buffers have grown.
pub(crate) struct DeadlockFilter<'g> {
    sg: &'g SyncGraph,
    /// `strict_forward(sg, n)` for every node `n` seen on a tested wave.
    forward: Vec<Option<BitSet>>,
    active: Vec<usize>,
    /// Row-major coupling matrix over `active`.
    edge: Vec<bool>,
    in_degree: Vec<usize>,
    ready: Vec<usize>,
}

impl<'g> DeadlockFilter<'g> {
    pub(crate) fn new(sg: &'g SyncGraph) -> DeadlockFilter<'g> {
        DeadlockFilter {
            sg,
            forward: vec![None; sg.control.num_nodes()],
            active: Vec::new(),
            edge: Vec::new(),
            in_degree: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Does the coupling digraph of `wave` (its slots, [`DONE`] for a
    /// finished task) contain a cycle?
    pub(crate) fn has_deadlock(&mut self, wave: &[u32]) -> bool {
        let sg = self.sg;
        self.active.clear();
        self.active
            .extend(wave.iter().filter(|&&s| s != DONE).map(|&s| s as usize));
        for &n in &self.active {
            self.forward[n].get_or_insert_with(|| strict_forward(sg, n));
        }
        let k = self.active.len();
        self.edge.clear();
        self.in_degree.clear();
        self.in_degree.resize(k, 0);
        for &r in &self.active {
            for (si, &s) in self.active.iter().enumerate() {
                let s_reach = self.forward[s].as_ref().expect("filled above");
                let coupled = coupled_to(sg, r, s_reach);
                self.edge.push(coupled);
                self.in_degree[si] += usize::from(coupled);
            }
        }
        // Peel nodes nothing points at; a cycle is what never peels.
        self.ready.clear();
        self.ready.extend((0..k).filter(|&i| self.in_degree[i] == 0));
        let mut peeled = 0;
        while let Some(r) = self.ready.pop() {
            peeled += 1;
            for s in 0..k {
                if self.edge[r * k + s] {
                    self.in_degree[s] -= 1;
                    if self.in_degree[s] == 0 {
                        self.ready.push(s);
                    }
                }
            }
        }
        peeled < k
    }
}

/// Classify an anomalous wave per the paper's taxonomy.
///
/// Also callable on non-anomalous waves (all vectors come back empty in the
/// extreme case), but its intended use is on waves `explore` found stuck.
#[must_use]
pub fn classify(sg: &SyncGraph, wave: &Wave) -> AnomalyReport {
    let active = wave.active_nodes();
    let strict: Vec<BitSet> = active.iter().map(|&s| strict_forward(sg, s)).collect();

    // Forward-reachable set from the whole wave (including the wave nodes
    // themselves — harmless: a wave node complementary to `r` would make
    // the wave non-anomalous).
    let mut wave_reach = BitSet::new(sg.control.num_nodes());
    for (&n, reach) in active.iter().zip(&strict) {
        wave_reach.insert(n);
        wave_reach.union_with(reach);
    }

    // Stall nodes: no sync neighbour anywhere in the reachable set.
    let stall_nodes: Vec<usize> = active
        .iter()
        .copied()
        .filter(|&r| {
            !sg.sync_neighbors(r)
                .iter()
                .any(|&z| wave_reach.contains(z as usize))
        })
        .collect();

    // Coupling digraph over the wave: edge r → s when r is coupled to s
    // (some strict control descendant of s can rendezvous with r). A
    // coupling *cycle* is a deadlock (Theorem 1's proof); nodes whose
    // coupling chains merely lead into a cycle or stall are "coupled".
    let k = active.len();
    let mut coupling: iwa_graphs::GraphBuilder<()> = iwa_graphs::GraphBuilder::with_nodes(k);
    for (ri, &r) in active.iter().enumerate() {
        for (si, s_reach) in strict.iter().enumerate() {
            if coupled_to(sg, r, s_reach) {
                coupling.add_edge(ri, si, ());
            }
        }
    }
    let coupling = coupling.freeze();
    let scc = iwa_graphs::Scc::compute(&coupling, None);
    let deadlock_set: Vec<usize> = (0..k)
        .filter(|&i| scc.in_nontrivial_component(&coupling, i))
        .map(|i| active[i])
        .collect();

    // Transitive coupling toward stalls/deadlocks: nodes reaching an
    // accounted node in the coupling digraph.
    let mut accounted: Vec<bool> = (0..k)
        .map(|i| stall_nodes.contains(&active[i]) || deadlock_set.contains(&active[i]))
        .collect();
    loop {
        let mut grew = false;
        for i in 0..k {
            if accounted[i] {
                continue;
            }
            if coupling
                .successors(i)
                .iter()
                .any(|&j| accounted[j as usize])
            {
                accounted[i] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let coupled: Vec<usize> = (0..k)
        .filter(|&i| {
            accounted[i]
                && !stall_nodes.contains(&active[i])
                && !deadlock_set.contains(&active[i])
        })
        .map(|i| active[i])
        .collect();
    let unaccounted: Vec<usize> = (0..k)
        .filter(|&i| !accounted[i])
        .map(|i| active[i])
        .collect();

    AnomalyReport {
        stall_nodes,
        deadlock_set,
        coupled,
        unaccounted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreConfig};
    use iwa_tasklang::parse;

    fn anomalies(src: &str) -> Vec<(Wave, AnomalyReport)> {
        let p = parse(src).unwrap();
        let sg = SyncGraph::from_program(&p);
        explore(&sg, &ExploreConfig::default()).unwrap().anomalies
    }

    #[test]
    fn crossed_sends_classify_as_deadlock() {
        let a = anomalies(
            "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
        );
        assert_eq!(a.len(), 1);
        let report = &a[0].1;
        assert_eq!(report.deadlock_set.len(), 2);
        assert!(report.stall_nodes.is_empty());
        assert!(report.taxonomy_complete());
    }

    #[test]
    fn lonely_accept_classifies_as_stall() {
        let a = anomalies("task t1 { accept never; } task t2 { }");
        assert_eq!(a.len(), 1);
        let report = &a[0].1;
        assert_eq!(report.stall_nodes.len(), 1);
        assert!(report.deadlock_set.is_empty());
        assert!(report.taxonomy_complete());
    }

    #[test]
    fn task_coupled_to_a_deadlock_is_reported_as_coupled() {
        // t3 can only rendezvous with t1's post-deadlock node: it is
        // coupled to the deadlock, not part of it.
        let a = anomalies(
            "task t1 { send t2.a; accept b; send t3.c; }
             task t2 { send t1.b; accept a; }
             task t3 { accept c; }",
        );
        assert_eq!(a.len(), 1);
        let report = &a[0].1;
        assert_eq!(report.deadlock_set.len(), 2);
        assert_eq!(report.coupled.len(), 1);
        assert!(report.taxonomy_complete());
    }

    #[test]
    fn self_send_is_a_self_coupled_deadlock() {
        // The task waits at its own send; its accept lies downstream in the
        // same task — coupling allows s = r, making D = {send}.
        let a = anomalies("task t { send t.m; accept m; }");
        assert_eq!(a.len(), 1);
        let report = &a[0].1;
        assert_eq!(report.deadlock_set.len(), 1);
        assert!(report.stall_nodes.is_empty());
        assert!(report.taxonomy_complete());
    }

    #[test]
    fn mixed_wave_contains_stall_and_deadlock() {
        let a = anomalies(
            "task t1 { send t2.a; accept b; }
             task t2 { send t1.b; accept a; }
             task lonely { accept silence; }",
        );
        assert_eq!(a.len(), 1);
        let report = &a[0].1;
        assert_eq!(report.deadlock_set.len(), 2);
        assert_eq!(report.stall_nodes.len(), 1);
        assert!(report.taxonomy_complete());
    }
}
