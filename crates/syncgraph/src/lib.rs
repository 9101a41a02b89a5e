//! The **sync graph** and **cycle location graph** (paper §2–3).
//!
//! The sync graph `SG_P = (T, N, E_C, E_S)` is the statically derivable
//! representation both detection algorithms operate on: nodes are the
//! program's rendezvous statements plus distinguished begin/end nodes `b`
//! and `e`; directed control edges connect rendezvous points with no other
//! rendezvous point between them; undirected sync edges connect every pair
//! of complementary rendezvous points of the same signal type.
//!
//! The cycle location graph (CLG, §3.1) is the node-split transformation
//! that makes the naive cycle search respect deadlock-cycle constraint 1b
//! (*"the path traverses at least one control flow edge in the task"*):
//! every sync-graph node `r` becomes a pair `r_o` (sync-out only) and `r_i`
//! (sync-in only), so a path entering a task through a sync edge must cross
//! a control edge before leaving through another sync edge. The crate
//! builds it once, as [`PortClg`]: the paper's CLG with each sync edge
//! routed through a sync-out port of its source and a sync-in port of its
//! target, so that the refined search's per-head sync-edge bans become
//! node masks. The naive check, the exact cycle enumeration, the CLG
//! counters and `iwa graph --clg` read the paper's graph through it.
//!
//! [`SyncGraph`] can be derived from a [`iwa_tasklang::Program`]
//! ([`SyncGraph::from_program`]) or assembled **raw** through
//! [`SyncGraphBuilder`] — needed for Theorem 3, whose graphs correspond to
//! no realisable program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dot;
pub mod graph;
pub mod ports;

pub use graph::{NodeData, SyncGraph, SyncGraphBuilder, B, E, FIRST_RV};
pub use ports::PortClg;

/// The CLG under its former name, kept only because the benchmark's
/// replay (`perfbench/`) still builds a `Clg` and passes it to
/// `AnalysisCtx::refined_with`.
pub type Clg = PortClg;
