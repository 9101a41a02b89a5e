//! From-scratch graph algorithms used throughout the `iwa` workspace.
//!
//! The reproduced paper is itself a graph-algorithms paper (depth-first
//! search for cycles, strongly connected components, control-flow dominance,
//! reachability), so rather than pulling in an external graph library this
//! crate implements the needed substrate directly:
//!
//! * [`Csr`] / [`GraphBuilder`] — a compressed-sparse-row directed graph
//!   with optional typed edge labels, built once from a flat edge arena and
//!   immutable thereafter;
//! * [`GraphView`] — the minimal read-only adjacency trait every algorithm
//!   is written against, so alternative representations (the test
//!   references) share the same algorithm code;
//! * [`BitSet`] / [`BitMatrix`] — dense bit collections backing reachability
//!   and the `precedes` relation of the ordering dataflow; the single
//!   node-set representation of the workspace;
//! * [`dfs`] — iterative depth-first traversals;
//! * [`scc`] — iterative Tarjan strongly-connected components with an
//!   `Option<&BitSet>` node mask, their members stored flat, and the
//!   component of a single root in a node-filtered subgraph (the refined
//!   algorithm's per-head query);
//! * [`dominators`] — Cooper–Harvey–Kennedy dominator trees;
//! * [`topo`] — Kahn topological sort (`None` on a cycle).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod csr;
pub mod dfs;
pub mod dominators;
pub mod scc;
pub mod topo;
pub mod view;

pub use bitset::{BitMatrix, BitSet};
pub use csr::{Csr, GraphBuilder};
pub use dominators::Dominators;
pub use scc::Scc;
pub use view::GraphView;
