//! The paper's contribution: polynomial-time certification of deadlock
//! freedom, plus stallability analysis.
//!
//! * [`naive`] — §3.1: cycle detection on the CLG. Linear-time, safe,
//!   predictably imprecise.
//! * [`sequence`] — §4.1's ordering dataflow (rule 1: intra-task dominance;
//!   rule 2: sync-partner propagation), computed in the *wave-exclusion*
//!   form the refined algorithm's marking step needs: `SEQUENCEABLE[h]` are
//!   the nodes that can never share an execution wave with `h`.
//! * [`coexec`] — constraint 3b's `NOT-COEXEC` vector: intra-task pairs on
//!   mutually exclusive branches.
//! * [`refined`] — §4.2: the per-head strongly-connected-component search
//!   with `SEQUENCEABLE` / `COACCEPT` / `NOT-COEXEC` pruning, plus the
//!   head-pair and head–tail extensions forming the paper's accuracy/cost
//!   spectrum.
//! * [`exact`] — the budget-bounded exponential cycle checker used as
//!   ground truth on small graphs and by the Theorem 2/3 validations.
//! * [`stall`] — §5: Lemma 3 balance checking, Lemma 4 path enumeration,
//!   and the transform-assisted pipeline.
//! * [`certify`](mod@certify) — the end-to-end driver (validate → unroll → analyse).
//! * [`ctx`] — [`AnalysisCtx`], the single entry point carrying budget,
//!   cancellation, and the worker count into every analysis above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certify;
pub mod coexec;
pub mod ctx;
pub mod exact;
pub mod naive;
pub mod refined;
pub mod sequence;
pub mod stall;

pub use certify::{Certificate, CertifyOptions};
pub use coexec::CoexecInfo;
pub use ctx::AnalysisCtx;
pub use exact::{ConstraintSet, CycleWitness, ExactBudget, ExactResult, SeqRelation};
pub use naive::{naive_analysis, NaiveResult};
pub use refined::{FlaggedHead, RefinedOptions, RefinedResult, Tier};
pub use sequence::{FinishOrder, SequenceInfo};
pub use stall::{StallOptions, StallReport, StallVerdict};
