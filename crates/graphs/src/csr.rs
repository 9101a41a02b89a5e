//! Compressed-sparse-row directed graphs with arena-backed construction.
//!
//! [`GraphBuilder`] accumulates edges in one flat `Vec<(u32, u32, L)>` arena;
//! [`GraphBuilder::freeze`] packs them into a [`Csr`] — four contiguous
//! arrays (forward offsets/targets, reverse offsets/sources) plus one label
//! array parallel to the forward targets. Freezing uses a *stable* counting
//! sort by source, so `successors(u)` preserves per-source edge insertion
//! order exactly as the legacy adjacency-list representation did; DFS visit
//! order (and with it SCC numbering and every byte-pinned report) is
//! therefore unchanged by the representation swap.

use crate::view::GraphView;
use crate::BitSet;

/// Mutable edge-arena builder for a [`Csr`] graph.
///
/// Parallel edges and self-loops are permitted (the CLG never produces them,
/// but raw sync graphs built for Theorem 3 may be irregular).
#[derive(Clone, Debug)]
pub struct GraphBuilder<L = ()> {
    num_nodes: usize,
    edges: Vec<(u32, u32, L)>,
}

impl<L> Default for GraphBuilder<L> {
    fn default() -> Self {
        GraphBuilder {
            num_nodes: 0,
            edges: Vec::new(),
        }
    }
}

impl<L> GraphBuilder<L> {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// An empty builder pre-sized for `n` nodes (nodes `0..n` exist).
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        GraphBuilder {
            num_nodes: n,
            edges: Vec::new(),
        }
    }

    /// Add a fresh node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.num_nodes += 1;
        self.num_nodes - 1
    }

    /// Add the labelled edge `u → v`.
    pub fn add_edge(&mut self, u: usize, v: usize, label: L) {
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "edge endpoint out of range"
        );
        self.edges.push((u as u32, v as u32, label));
    }

    /// Number of nodes so far.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges so far.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Pack the edge arena into an immutable [`Csr`].
    ///
    /// Stable by construction: within each source node, targets appear in
    /// insertion order; within each target node, sources appear in insertion
    /// order (matching the legacy adjacency list's push order on both sides).
    #[must_use]
    pub fn freeze(self) -> Csr<L> {
        let n = self.num_nodes;
        let m = self.edges.len();

        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            succ_off[u as usize + 1] += 1;
            pred_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }

        let mut succ = vec![0u32; m];
        let mut pred = vec![0u32; m];
        let mut scur: Vec<u32> = succ_off[..n].to_vec();
        let mut pcur: Vec<u32> = pred_off[..n].to_vec();
        // Labels land in CSR slot order; Vec<Option<L>> sidesteps the need
        // for L: Default without unsafe.
        let mut labels_slots: Vec<Option<L>> = (0..m).map(|_| None).collect();
        for (u, v, l) in self.edges {
            let s = scur[u as usize];
            scur[u as usize] += 1;
            succ[s as usize] = v;
            labels_slots[s as usize] = Some(l);
            let p = pcur[v as usize];
            pcur[v as usize] += 1;
            pred[p as usize] = u;
        }
        let labels = labels_slots
            .into_iter()
            .map(|l| l.expect("every CSR slot filled"))
            .collect();

        Csr {
            succ_off,
            succ,
            labels,
            pred_off,
            pred,
        }
    }
}

impl GraphBuilder<()> {
    /// Convenience: add an unlabelled edge.
    pub fn add_arc(&mut self, u: usize, v: usize) {
        self.add_edge(u, v, ());
    }
}

/// An immutable directed graph in compressed-sparse-row form, with one label
/// of type `L` per edge and `u32` node ids.
///
/// Both forward and reverse adjacency are stored, since Tarjan SCC needs
/// only forward edges but dominators and backward reachability need
/// predecessors. Built via [`GraphBuilder`]; all node parameters are
/// `usize` for ergonomic indexing while storage stays `u32`.
#[derive(Clone, Debug)]
pub struct Csr<L = ()> {
    /// `succ[succ_off[u]..succ_off[u+1]]` are the targets of `u`'s out-edges.
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    /// `labels[i]` labels the edge whose target is `succ[i]`.
    labels: Vec<L>,
    /// `pred[pred_off[v]..pred_off[v+1]]` are the sources of `v`'s in-edges.
    pred_off: Vec<u32>,
    pred: Vec<u32>,
}

impl<L> Default for Csr<L> {
    fn default() -> Self {
        GraphBuilder::new().freeze()
    }
}

impl<L> Csr<L> {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        Csr::default()
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Number of edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.succ.len()
    }

    /// Outgoing edge targets of `u`, in edge insertion order.
    #[must_use]
    pub fn successors(&self, u: usize) -> &[u32] {
        &self.succ[self.succ_off[u] as usize..self.succ_off[u + 1] as usize]
    }

    /// Labels of `u`'s outgoing edges, parallel to [`Csr::successors`].
    #[must_use]
    pub fn successor_labels(&self, u: usize) -> &[L] {
        &self.labels[self.succ_off[u] as usize..self.succ_off[u + 1] as usize]
    }

    /// Incoming edge sources of `u`, in edge insertion order.
    #[must_use]
    pub fn predecessors(&self, u: usize) -> &[u32] {
        &self.pred[self.pred_off[u] as usize..self.pred_off[u + 1] as usize]
    }

    /// Out-degree of `u`.
    #[must_use]
    pub fn out_degree(&self, u: usize) -> usize {
        (self.succ_off[u + 1] - self.succ_off[u]) as usize
    }

    /// In-degree of `u`.
    #[must_use]
    pub fn in_degree(&self, u: usize) -> usize {
        (self.pred_off[u + 1] - self.pred_off[u]) as usize
    }

    /// Iterate all edges as `(u, v, &label)`, sources ascending and targets
    /// in per-source insertion order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, &L)> {
        (0..self.num_nodes()).flat_map(move |u| {
            self.successors(u)
                .iter()
                .zip(self.successor_labels(u))
                .map(move |(&v, l)| (u, v as usize, l))
        })
    }

    /// Does the edge `u → v` exist (with any label)?
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.successors(u).contains(&(v as u32))
    }

    /// Build the node-and-edge-filtered subgraph over the *same* node
    /// indices: nodes outside `keep_node` lose all incident edges, and edges
    /// failing `keep_edge(u, v, label)` are dropped.
    ///
    /// Keeping indices stable (rather than compacting) lets callers reuse
    /// side tables.
    #[must_use]
    pub fn filtered(
        &self,
        keep_node: impl Fn(usize) -> bool,
        mut keep_edge: impl FnMut(usize, usize, &L) -> bool,
    ) -> Csr<L>
    where
        L: Clone,
    {
        let mut b = GraphBuilder::with_nodes(self.num_nodes());
        for (u, v, l) in self.edges() {
            if keep_node(u) && keep_node(v) && keep_edge(u, v, l) {
                b.add_edge(u, v, l.clone());
            }
        }
        b.freeze()
    }

    /// Forward reachability from `start` (inclusive), honouring `enabled`
    /// edges only.
    #[must_use]
    pub fn reachable_from_filtered(
        &self,
        start: usize,
        mut enabled: impl FnMut(usize, usize, &L) -> bool,
    ) -> BitSet {
        let mut seen = BitSet::new(self.num_nodes());
        let mut stack = vec![start];
        seen.insert(start);
        while let Some(u) = stack.pop() {
            let succ = self.successors(u);
            let labels = self.successor_labels(u);
            for (i, &v) in succ.iter().enumerate() {
                let v = v as usize;
                if enabled(u, v, &labels[i]) && seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Forward reachability from `start` (inclusive).
    #[must_use]
    pub fn reachable_from(&self, start: usize) -> BitSet {
        self.reachable_from_filtered(start, |_, _, _| true)
    }
}

impl Csr<()> {
    /// Build an unlabelled graph from an edge list over `n` nodes.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut b = GraphBuilder::with_nodes(n);
        for &(u, v) in edges {
            b.add_arc(u, v);
        }
        b.freeze()
    }
}

impl<L> GraphView for Csr<L> {
    fn num_nodes(&self) -> usize {
        Csr::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }

    fn successors(&self, u: usize) -> &[u32] {
        Csr::successors(self, u)
    }

    fn predecessors(&self, u: usize) -> &[u32] {
        Csr::predecessors(self, u)
    }

    fn out_degree(&self, u: usize) -> usize {
        Csr::out_degree(self, u)
    }

    fn in_degree(&self, u: usize) -> usize {
        Csr::in_degree(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut b: GraphBuilder<char> = GraphBuilder::with_nodes(3);
        let d = b.add_node();
        b.add_edge(0, 1, 'a');
        b.add_edge(1, 2, 'b');
        b.add_edge(2, d, 'c');
        b.add_edge(0, d, 'd');
        let g = b.freeze();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(d), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.predecessors(2), &[1]);
        assert_eq!(g.successors(0), &[1, 3]);
        assert_eq!(g.successor_labels(0), &['a', 'd']);
    }

    #[test]
    fn freeze_preserves_insertion_order() {
        // Interleave sources so the counting sort has work to do; per-source
        // order must still be insertion order.
        let mut b: GraphBuilder<u32> = GraphBuilder::with_nodes(3);
        b.add_edge(2, 0, 10);
        b.add_edge(0, 2, 20);
        b.add_edge(2, 1, 30);
        b.add_edge(0, 1, 40);
        b.add_edge(2, 2, 50);
        let g = b.freeze();
        assert_eq!(g.successors(0), &[2, 1]);
        assert_eq!(g.successor_labels(0), &[20, 40]);
        assert_eq!(g.successors(2), &[0, 1, 2]);
        assert_eq!(g.successor_labels(2), &[10, 30, 50]);
        // Predecessors in per-target insertion order too.
        assert_eq!(g.predecessors(1), &[2, 0]);
        assert_eq!(g.predecessors(2), &[0, 2]);
    }

    #[test]
    fn edges_iterates_sources_ascending() {
        let mut b: GraphBuilder<()> = GraphBuilder::with_nodes(3);
        b.add_arc(1, 0);
        b.add_arc(0, 2);
        b.add_arc(1, 2);
        let g = b.freeze();
        let e: Vec<(usize, usize)> = g.edges().map(|(u, v, ())| (u, v)).collect();
        assert_eq!(e, vec![(0, 2), (1, 0), (1, 2)]);
    }

    #[test]
    fn reachability_basic() {
        let g = Csr::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(g.reachable_from(0).to_vec(), vec![0, 1, 2]);
        assert_eq!(g.reachable_from(3).to_vec(), vec![3, 4]);
    }

    #[test]
    fn reachability_with_edge_filter() {
        let mut b: GraphBuilder<bool> = GraphBuilder::with_nodes(3);
        b.add_edge(0, 1, true);
        b.add_edge(1, 2, false);
        let g = b.freeze();
        let r = g.reachable_from_filtered(0, |_, _, &ok| ok);
        assert_eq!(r.to_vec(), vec![0, 1]);
    }

    #[test]
    fn filtered_drops_nodes_and_edges() {
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let f = g.filtered(|n| n != 2, |_, _, _| true);
        assert_eq!(f.num_edges(), 2); // 0→1 and 3→0 survive
        assert!(f.has_edge(0, 1));
        assert!(f.has_edge(3, 0));
    }

    #[test]
    fn empty_graph() {
        let g: Csr<()> = Csr::new();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }
}
