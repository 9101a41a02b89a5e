//! The [`GraphView`] abstraction all graph algorithms are written against.
//!
//! The workspace's algorithms (Tarjan SCC, DFS, Kahn, dominators) only
//! ever need adjacency *slices* — they never mutate and never read edge
//! labels. Writing them against this minimal trait lets the
//! CSR representation ([`crate::Csr`]) and any test-local reference
//! representation (e.g. a plain adjacency list used by the equivalence
//! proptests) share one implementation, and kept both representations
//! runnable side by side while the workspace migrated off the legacy
//! adjacency-list `DiGraph`.

/// Read-only adjacency view of a directed graph over dense node ids
/// `0..num_nodes`, with node ids stored as `u32`.
///
/// Adjacency order is part of the contract: `successors(u)` must yield
/// targets in a stable, representation-independent order (insertion order of
/// the edges), because DFS visit order — and therefore SCC component
/// numbering and every downstream byte-pinned report — depends on it.
pub trait GraphView {
    /// Number of nodes (node ids are `0..num_nodes`).
    fn num_nodes(&self) -> usize;

    /// Number of edges.
    fn num_edges(&self) -> usize;

    /// Outgoing edge targets of `u`, in edge insertion order.
    fn successors(&self, u: usize) -> &[u32];

    /// Incoming edge sources of `u`, in edge insertion order.
    fn predecessors(&self, u: usize) -> &[u32];

    /// Out-degree of `u`.
    fn out_degree(&self, u: usize) -> usize {
        self.successors(u).len()
    }

    /// In-degree of `u`.
    fn in_degree(&self, u: usize) -> usize {
        self.predecessors(u).len()
    }

    /// Does the edge `u → v` exist (with any label)?
    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.successors(u).contains(&(v as u32))
    }
}
