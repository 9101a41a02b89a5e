//! The checks behind the lint catalog ([`CATALOG`](crate::CATALOG)
//! names each one in its record's [`Check`](crate::Check)).
//!
//! Four families:
//!
//! * [`structural`] — AST-level checks over the parsed (and, where noted,
//!   inlined) program: the migrated `validate` census plus reachability
//!   and liveness checks that need no sync-graph analysis;
//! * [`graph`] — checks that run the paper's analyses (stall balance,
//!   refined deadlock certification) through the shared
//!   [`AnalysisCtx`](iwa_analysis::AnalysisCtx) and map the graph-level
//!   findings back to source spans;
//! * [`locks`] — the `.lok` lock-order family: acquisition-order cycles
//!   (with witness chains), double acquires, and lock hygiene;
//! * [`channels`] — the `.chan` family: communication-wait cycles,
//!   livelocks, closed-channel faults, and channel hygiene.

pub mod channels;
pub mod graph;
pub mod locks;
pub mod structural;

use crate::{Diagnostic, Lint, Severity};

/// A finding of `lint` at `span`. The driver replaces its severity with
/// the one the run's configuration gives the lint.
fn finding(lint: &Lint, span: iwa_core::Span, message: String) -> Diagnostic {
    Diagnostic {
        lint: lint.name.to_owned(),
        severity: Severity::Warn,
        message,
        span,
    }
}
