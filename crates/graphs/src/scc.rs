//! Strongly connected components (iterative Tarjan) with optional node
//! masking, and the single component of one root.
//!
//! The refined deadlock-detection algorithm (paper §4.2) asks, per
//! hypothesised head node, for the head's component in a masked CLG.
//! Tarjan gives all components in a single `O(N + E)` pass, matching the
//! per-iteration cost the paper claims. The mask (an `Option<&BitSet>`)
//! is the one construction knob: `None` is the whole-graph decomposition
//! the naive check and the refined search share, and `Some(mask)`
//! restricts it to the subgraph the mask induces.
//! [`Scc::rooted_component`] answers the per-head question without a
//! whole-graph pass: the root's component in the subgraph a predicate
//! induces, as forward ∩ backward reachability from the root, so it costs
//! what those two searches reach.

use crate::view::GraphView;
use crate::{BitSet, Csr, GraphBuilder};

/// The strongly-connected-component decomposition of a graph.
///
/// Members are stored flat: every node once, grouped by component in
/// component order, each group in the order Tarjan's stack popped it.
/// [`members`](Scc::members) slices one group out, so the decomposition
/// is three buffers however many components it has.
#[derive(Clone, Debug)]
pub struct Scc {
    /// `comp[v]` = component index of node `v` (dense, `0..num_components`).
    /// Components are numbered in reverse topological order of the
    /// condensation (Tarjan's natural output order).
    pub comp: Vec<u32>,
    /// Every node, grouped by component.
    flat: Vec<u32>,
    /// Component `c`'s members are `flat[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
}

impl Scc {
    /// Compute the SCCs of `g`, optionally restricted to the subgraph
    /// induced by `mask`.
    ///
    /// With `mask = None` every node participates. With `mask = Some(m)`,
    /// nodes outside `m` are placed in singleton components (in node order)
    /// and never traversed — this is the per-head incremental restriction of
    /// the shared whole-graph decomposition.
    #[must_use]
    pub fn compute<G: GraphView + ?Sized>(g: &G, mask: Option<&BitSet>) -> Scc {
        SccState::run(g, mask)
    }

    /// The members of `root`'s strong component in the subgraph induced by
    /// the nodes `enabled` accepts: the component
    /// [`compute`](Scc::compute) puts `root` in under the mask of those
    /// nodes.
    ///
    /// It is the set of enabled nodes `root` reaches that also reach
    /// `root`: one forward search from `root`, then one backward search
    /// that only enters nodes the forward search reached. Each costs what
    /// it reaches, plus one `g.num_nodes()`-bit set, so a small component
    /// of a large graph is answered without touching the rest. A disabled
    /// `root` is its own singleton, as in `compute`. Members are listed
    /// `root` first, then in backward-search order.
    #[must_use]
    pub fn rooted_component<G: GraphView + ?Sized>(
        g: &G,
        root: usize,
        enabled: impl Fn(usize) -> bool,
    ) -> Vec<u32> {
        if !enabled(root) {
            return vec![root as u32];
        }
        let mut reached = BitSet::new(g.num_nodes());
        reached.insert(root);
        let mut stack = vec![root as u32];
        while let Some(u) = stack.pop() {
            for &w in g.successors(u as usize) {
                if enabled(w as usize) && reached.insert(w as usize) {
                    stack.push(w);
                }
            }
        }
        // Every node on a path from a member back to `root` is itself a
        // member, so the backward search never leaves the forward set;
        // claiming a node clears its bit, and the member list is the queue.
        reached.remove(root);
        let mut members = vec![root as u32];
        let mut next = 0;
        while let Some(&u) = members.get(next) {
            next += 1;
            for &w in g.predecessors(u as usize) {
                if reached.remove(w as usize) {
                    members.push(w);
                }
            }
        }
        members
    }

    /// Number of components.
    #[must_use]
    pub fn num_components(&self) -> usize {
        self.starts.len() - 1
    }

    /// The members of component `c`, in the order Tarjan's stack popped
    /// them (the component's root last).
    #[must_use]
    pub fn members(&self, c: usize) -> &[u32] {
        &self.flat[self.starts[c] as usize..self.starts[c + 1] as usize]
    }

    /// Every component's members, in component order.
    pub fn components(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.flat[w[0] as usize..w[1] as usize])
    }

    /// Component index containing node `v`.
    #[must_use]
    pub fn component_of(&self, v: usize) -> usize {
        self.comp[v] as usize
    }

    /// Is `v`'s component non-trivial — more than one node, or a single node
    /// with a self-loop (checked against `g`)?
    ///
    /// A non-trivial component containing a hypothesised head node is what
    /// the refined algorithm reports as a possible deadlock.
    #[must_use]
    pub fn in_nontrivial_component<G: GraphView + ?Sized>(&self, g: &G, v: usize) -> bool {
        if self.members(self.component_of(v)).len() > 1 {
            return true;
        }
        g.successors(v).contains(&(v as u32))
    }

    /// Are `u` and `v` in the same component?
    #[must_use]
    pub fn same_component(&self, u: usize, v: usize) -> bool {
        self.comp[u] == self.comp[v]
    }

    /// All components with more than one member (or a self-loop), as member
    /// lists. Needs `g` to detect self-loops.
    #[must_use]
    pub fn nontrivial_components<G: GraphView + ?Sized>(&self, g: &G) -> Vec<Vec<u32>> {
        self.components()
            .filter(|m| m.len() > 1 || g.successors(m[0] as usize).contains(&m[0]))
            .map(<[u32]>::to_vec)
            .collect()
    }

    /// The condensation DAG: one node per component, edges between distinct
    /// components wherever `g` has an edge.
    #[must_use]
    pub fn condensation<G: GraphView + ?Sized>(&self, g: &G) -> Csr<()> {
        let mut dag = GraphBuilder::with_nodes(self.num_components());
        let mut seen = std::collections::HashSet::new();
        for u in 0..g.num_nodes() {
            for &v in g.successors(u) {
                let (cu, cv) = (self.comp[u], self.comp[v as usize]);
                if cu != cv && seen.insert((cu, cv)) {
                    dag.add_arc(cu as usize, cv as usize);
                }
            }
        }
        dag.freeze()
    }
}

/// Iterative Tarjan. Kept out of the public API.
struct SccState {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: BitSet,
    stack: Vec<u32>,
    next_index: u32,
    comp: Vec<u32>,
    flat: Vec<u32>,
    starts: Vec<u32>,
}

const UNVISITED: u32 = u32::MAX;

impl SccState {
    fn run<G: GraphView + ?Sized>(g: &G, mask: Option<&BitSet>) -> Scc {
        let n = g.num_nodes();
        let mut st = SccState {
            index: vec![UNVISITED; n],
            lowlink: vec![0; n],
            on_stack: BitSet::new(n),
            stack: Vec::new(),
            next_index: 0,
            comp: vec![0; n],
            flat: Vec::with_capacity(n),
            starts: vec![0],
        };
        let is_enabled = |v: usize| mask.is_none_or(|e| e.contains(v));
        for v in 0..n {
            if st.index[v] == UNVISITED {
                if is_enabled(v) {
                    st.visit(g, v, &is_enabled);
                } else {
                    // Disabled nodes become singleton components directly.
                    st.index[v] = st.next_index;
                    st.next_index += 1;
                    st.comp[v] = (st.starts.len() - 1) as u32;
                    st.flat.push(v as u32);
                    st.starts.push(st.flat.len() as u32);
                }
            }
        }
        Scc {
            comp: st.comp,
            flat: st.flat,
            starts: st.starts,
        }
    }

    fn visit<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        root: usize,
        is_enabled: &impl Fn(usize) -> bool,
    ) {
        // Frame: (node, next successor index).
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        self.index[root] = self.next_index;
        self.lowlink[root] = self.next_index;
        self.next_index += 1;
        self.stack.push(root as u32);
        self.on_stack.insert(root);

        while let Some(&mut (u, ref mut next)) = call.last_mut() {
            if *next < g.out_degree(u) {
                let w = g.successors(u)[*next] as usize;
                *next += 1;
                if !is_enabled(w) {
                    continue;
                }
                if self.index[w] == UNVISITED {
                    self.index[w] = self.next_index;
                    self.lowlink[w] = self.next_index;
                    self.next_index += 1;
                    self.stack.push(w as u32);
                    self.on_stack.insert(w);
                    call.push((w, 0));
                } else if self.on_stack.contains(w) {
                    self.lowlink[u] = self.lowlink[u].min(self.index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[u]);
                }
                if self.lowlink[u] == self.index[u] {
                    let cid = (self.starts.len() - 1) as u32;
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        self.on_stack.remove(w as usize);
                        self.comp[w as usize] = cid;
                        self.flat.push(w);
                        if w as usize == u {
                            break;
                        }
                    }
                    self.starts.push(self.flat.len() as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cycles_and_a_bridge() {
        // {0,1,2} cycle → {3,4} cycle, plus isolated 5
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]);
        let scc = Scc::compute(&g, None);
        assert!(scc.same_component(0, 1) && scc.same_component(1, 2));
        assert!(scc.same_component(3, 4));
        assert!(!scc.same_component(2, 3));
        assert!(!scc.same_component(4, 5));
        assert_eq!(scc.num_components(), 3);
        assert!(scc.in_nontrivial_component(&g, 0));
        assert!(scc.in_nontrivial_component(&g, 4));
        assert!(!scc.in_nontrivial_component(&g, 5));
        assert_eq!(scc.nontrivial_components(&g).len(), 2);
    }

    #[test]
    fn self_loop_is_nontrivial() {
        let g = Csr::from_edges(2, &[(0, 0)]);
        let scc = Scc::compute(&g, None);
        assert!(scc.in_nontrivial_component(&g, 0));
        assert!(!scc.in_nontrivial_component(&g, 1));
    }

    #[test]
    fn masked_subgraph_breaks_cycle() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let all = BitSet::full(3);
        assert!(Scc::compute(&g, Some(&all)).in_nontrivial_component(&g, 0));
        let mut without1 = BitSet::full(3);
        without1.remove(1);
        let scc = Scc::compute(&g, Some(&without1));
        assert!(!scc.in_nontrivial_component(&g, 0));
        assert_eq!(scc.num_components(), 3);
    }

    #[test]
    fn masked_matches_unmasked_on_full_mask() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let unmasked = Scc::compute(&g, None);
        let masked = Scc::compute(&g, Some(&BitSet::full(5)));
        assert_eq!(unmasked.comp, masked.comp);
        assert!(unmasked.components().eq(masked.components()));
    }

    #[test]
    fn condensation_is_a_dag_in_reverse_topo_numbering() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let scc = Scc::compute(&g, None);
        let dag = scc.condensation(&g);
        assert_eq!(dag.num_nodes(), 3);
        // Tarjan numbers components in reverse topological order: an edge
        // cu → cv in the condensation implies cu > cv.
        for (u, v, _) in dag.edges() {
            assert!(u > v, "condensation edge {u}→{v} violates ordering");
        }
        assert!(!crate::dfs::has_cycle_from(&dag, dag.num_nodes() - 1));
    }

    #[test]
    fn rooted_component_matches_the_masked_decomposition() {
        // {0,1,2} cycle → {3,4} cycle, plus isolated 5; masking 1 breaks
        // the first cycle.
        let g = Csr::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)]);
        let sorted = |mut m: Vec<u32>| {
            m.sort_unstable();
            m
        };
        assert_eq!(sorted(Scc::rooted_component(&g, 0, |_| true)), [0, 1, 2]);
        assert_eq!(sorted(Scc::rooted_component(&g, 4, |_| true)), [3, 4]);
        assert_eq!(Scc::rooted_component(&g, 5, |_| true), [5]);
        assert_eq!(Scc::rooted_component(&g, 0, |v| v != 1), [0]);
        assert_eq!(Scc::rooted_component(&g, 1, |v| v != 1), [1]);
        assert_eq!(sorted(Scc::rooted_component(&g, 3, |v| v != 1)), [3, 4]);
    }

    #[test]
    fn dag_has_all_singletons() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let scc = Scc::compute(&g, None);
        assert_eq!(scc.num_components(), 4);
        for v in 0..4 {
            assert!(!scc.in_nontrivial_component(&g, v));
        }
    }
}
