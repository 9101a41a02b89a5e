//! The `.lok` lock-order language and its lowering onto the paper's
//! sync-graph model.
//!
//! A `.lok` program is a set of threads acquiring and releasing named
//! mutexes, with scoped guard blocks, branches, and loops:
//!
//! ```text
//! thread worker {
//!     lock a;
//!     with b { lock c; unlock c; }
//!     unlock a;
//! }
//! ```
//!
//! The analysis question is the classic one: can a set of threads reach a
//! circular wait, each holding one mutex while blocking on the next?
//! Statically that is a cycle in the **lock-order graph** — the graph
//! with an edge `m1 → m2` whenever some thread may hold `m1` while
//! acquiring `m2` ([`lockgraph`]). That graph is a wait-for graph with
//! one mutex per lowered task, so the shared lowering ([`crate::wait`])
//! hands it to the whole existing stack — naive cycle check, refined
//! per-head SCC search, wavesim oracle in deadlock-only mode — and every
//! rung answers the lock question exactly. The stall half of the ladder
//! does not apply to this frontend.

pub mod ast;
pub mod lockgraph;
pub mod parser;

pub use ast::{LokProgram, LokStmt, Thread};
pub use lockgraph::{LockGraph, LockIssue};
pub use parser::{parse_lok, MAX_NESTING_DEPTH};

use crate::wait::{WaitCycle, WaitModel};
use crate::{Lang, LoadedModel, ModelIr};
use iwa_core::IwaError;
use iwa_syncgraph::SyncGraph;

/// The `.lok` lowering: the shared
/// [`WaitGraph::lower`](crate::wait::WaitGraph::lower).
pub mod lower {
    /// Lower `lg`; returns the sync graph and its hold points.
    #[must_use]
    pub fn lower(lg: &super::LockGraph) -> (super::SyncGraph, Vec<usize>) {
        lg.wait.lower()
    }
}

/// A fully loaded `.lok` model: AST, lock-order graph (with its cycles
/// precomputed), and the lowered sync graph.
#[derive(Clone, Debug)]
pub struct LokModel {
    /// The parsed program.
    pub program: LokProgram,
    /// The static lock-order graph.
    pub lock_graph: LockGraph,
    /// Deterministic witness cycles of the lock-order graph (empty iff
    /// the model is deadlock-free).
    pub cycles: Vec<WaitCycle>,
    /// The lowered sync graph.
    pub sg: SyncGraph,
    /// Sync-graph indices of the hold-point (`A`) nodes, in lock-edge
    /// order — the head seeds for the refined analysis.
    pub hold_points: Vec<usize>,
}

impl WaitModel for LokModel {
    fn lowered(&self) -> (&SyncGraph, &[usize]) {
        (&self.sg, &self.hold_points)
    }

    fn cycles(&self) -> &[WaitCycle] {
        &self.cycles
    }

    fn witnesses(&self) -> Vec<String> {
        self.cycles
            .iter()
            .map(|c| format!("lock-order cycle: {}", self.lock_graph.render_cycle(c)))
            .collect()
    }
}

/// The `.lok` frontend's load: parse, build the lock-order graph and
/// its cycles, lower.
pub(crate) fn load(src: &str) -> Result<LoadedModel, IwaError> {
    let program = parse_lok(src)?;
    let lock_graph = LockGraph::build(&program);
    let cycles = lock_graph.wait.cycles();
    let (sg, hold_points) = lock_graph.wait.lower();
    Ok(LoadedModel {
        lang: Lang::Lok,
        ir: ModelIr::Lok(Box::new(LokModel {
            program,
            lock_graph,
            cycles,
            sg,
            hold_points,
        })),
    })
}
