//! The `.chan` channel/select language and its lowering onto the
//! paper's sync-graph model.
//!
//! A `.chan` program declares channels (rendezvous, bounded, or
//! unbounded) and processes communicating over them, with multi-arm
//! `select` (optionally non-blocking via `default`), `close`, branches,
//! and loops:
//!
//! ```text
//! chan req;
//! chan log[*];
//! proc worker {
//!     loop {
//!         select {
//!             recv req { send log; }
//!             default { }
//!         }
//!     }
//! }
//! ```
//!
//! Two anomaly families are analysed statically:
//!
//! * **Deadlock** — a circular wait over channel *ports* (send/recv
//!   ends). The per-process channel-effect dataflow ([`effects`])
//!   records which ports a process may block at and which ops it
//!   withholds while blocked; the resulting communication dependency
//!   graph ([`commgraph`]) has a cycle iff processes can starve each
//!   other in a ring. That graph is a wait-for graph over ports, two per
//!   lowered task (channel ↦ task with a send/recv signal pair), so the
//!   shared lowering ([`crate::wait`]) hands it to the whole existing
//!   stack — naive cycle check, refined per-head SCC search, wavesim
//!   oracle in `ignore_stalls` mode. The oracle flags exactly the
//!   cycles that hold at most one port per channel; the polynomial rungs
//!   flag every cycle, so they may over-report a cycle through both
//!   ports of one channel, which no run can realise, and never
//!   under-report.
//! * **Livelock** — loops traversable forever without externally
//!   visible communication ([`livelock`]): spin-on-default selects with
//!   starved arms and closed-channel busy-waits, reported as
//!   span-anchored witnesses with a ranked starved-arm rationale.
//!   Livelock is a property of process-level control loops, which the
//!   (control-loop-free) lowering abstracts away, so it is detected on
//!   the AST and reported alongside the graph verdict.
//!
//! Non-circular infinite waits (a lone `send` nobody ever matches) are
//! *stalls*; as with `.lok`, the stall half of the ladder does not
//! apply to this frontend — such patterns surface through the lint
//! family (`never-received` and friends), not the verdict.

pub mod ast;
pub mod commgraph;
pub mod effects;
pub mod livelock;
pub mod parser;

pub use ast::{Capacity, ChanProgram, ChanStmt, Dir, Proc, SelectArm};
pub use commgraph::CommGraph;
pub use effects::{ChanEffects, ChanIssue, DepEdge};
pub use livelock::{LivelockKind, LivelockWitness, StarvedArm};
pub use parser::{parse_chan, MAX_NESTING_DEPTH};

use crate::wait::{WaitCycle, WaitModel};
use crate::{Lang, LoadedModel, ModelIr};
use iwa_core::IwaError;
use iwa_syncgraph::SyncGraph;

/// The `.chan` lowering: the shared
/// [`WaitGraph::lower`](crate::wait::WaitGraph::lower).
pub mod lower {
    /// Lower `cg`; returns the sync graph and its wait points.
    #[must_use]
    pub fn lower(cg: &super::CommGraph) -> (super::SyncGraph, Vec<usize>) {
        cg.wait.lower()
    }
}

/// A fully loaded `.chan` model: AST, channel effects, communication
/// dependency graph (with its cycles precomputed), livelock witnesses,
/// and the lowered sync graph.
#[derive(Clone, Debug)]
pub struct ChanModel {
    /// The parsed program.
    pub program: ChanProgram,
    /// The computed channel effects (op sites, selects, wait records).
    pub effects: ChanEffects,
    /// The communication dependency graph.
    pub comm_graph: CommGraph,
    /// Deterministic witness cycles of the dependency graph (empty iff
    /// the model is deadlock-free).
    pub cycles: Vec<WaitCycle>,
    /// Static livelock witnesses (empty iff no loop admits a silent
    /// traversal with a spin or busy-wait).
    pub livelocks: Vec<LivelockWitness>,
    /// The lowered sync graph.
    pub sg: SyncGraph,
    /// Sync-graph indices of the wait-point (`A`) nodes, in wait-edge
    /// order — the head seeds for the refined analysis.
    pub wait_points: Vec<usize>,
}

impl ChanModel {
    /// Render livelock witness `w` (convenience over
    /// [`livelock::render_livelock`] with this model's program).
    #[must_use]
    pub fn render_livelock(&self, w: &LivelockWitness) -> String {
        livelock::render_livelock(&self.program, w)
    }
}

impl WaitModel for ChanModel {
    fn lowered(&self) -> (&SyncGraph, &[usize]) {
        (&self.sg, &self.wait_points)
    }

    fn cycles(&self) -> &[WaitCycle] {
        &self.cycles
    }

    fn livelock_free(&self) -> bool {
        self.livelocks.is_empty()
    }

    fn witnesses(&self) -> Vec<String> {
        self.cycles
            .iter()
            .map(|c| format!("channel-wait cycle: {}", self.comm_graph.render_cycle(c)))
            .chain(self.livelocks.iter().map(|w| self.render_livelock(w)))
            .collect()
    }
}

/// The `.chan` frontend's load: parse, compute the channel effects, build
/// the dependency graph and its cycles, find livelocks, lower.
pub(crate) fn load(src: &str) -> Result<LoadedModel, IwaError> {
    let program = parse_chan(src)?;
    let effects = ChanEffects::compute(&program);
    let comm_graph = CommGraph::build(&program, &effects);
    let cycles = comm_graph.wait.cycles();
    let livelocks = livelock::find_livelocks(&program, &effects);
    let (sg, wait_points) = comm_graph.wait.lower();
    Ok(LoadedModel {
        lang: Lang::Chan,
        ir: ModelIr::Chan(Box::new(ChanModel {
            program,
            effects,
            comm_graph,
            cycles,
            livelocks,
            sg,
            wait_points,
        })),
    })
}
