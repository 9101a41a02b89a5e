//! Resilient analysis driver: budgets, a precision-degradation ladder,
//! and panic-isolated batch checking.
//!
//! The paper's algorithms are polynomial, but "polynomial" is not
//! "prompt": an adversarial program can make the refined tiers grind and
//! the exhaustive oracle explode. This crate turns every analysis entry
//! point into something a build pipeline can rely on:
//!
//! * [`analyze`] runs a [ladder] of analyses from most precise to
//!   cheapest under one [`Budget`](iwa_core::Budget) — a rung that
//!   exceeds its slice is abandoned (with its partial-progress counters
//!   on record) and the next cheaper rung gets the remaining budget,
//!   down to a budget-free naive floor that always answers;
//! * [`check_batch`] runs a whole corpus across a worker pool, each file
//!   behind its own deadline and
//!   [`catch_unwind`](std::panic::catch_unwind) boundary, and rolls the
//!   outcomes into a [`CheckSummary`] with a stable
//!   [exit-code contract](CheckSummary::exit_code).
//!
//! Every degraded answer is labelled: the [`EngineReport`] names the
//! producing rung, flags `degraded`, and keeps a per-rung audit trail of
//! why each more precise rung was abandoned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod ladder;

pub use check::{
    check_batch, collect_sources, CheckOptions, CheckSummary, CollectedSources, FileOutcome,
};
pub use ladder::{
    analyze, analyze_model, analyze_wait, EngineOptions, EngineReport, EngineVerdict, Rung,
    RungAttempt, LADDER, SCHEMA_VERSION,
};
