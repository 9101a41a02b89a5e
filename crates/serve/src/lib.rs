//! `iwa-serve`: a crash-tolerant persistent analysis daemon.
//!
//! The one-shot `iwa check` pays parse + analysis from a cold start on
//! every invocation. Editor integrations and CI loops resubmit the same
//! programs over and over, so this crate keeps the analysis stack warm
//! behind a small TCP protocol and memoizes verdicts by content hash.
//!
//! The protocol is deliberately boring: 4-byte big-endian length prefix,
//! JSON payload, one response per request ([`proto`]). What the crate is
//! actually about is the robustness layer around the existing
//! `iwa_core::pool` + `AnalysisCtx` machinery:
//!
//! - **Deadline propagation** — a request's `deadline_ms` becomes the
//!   engine `Budget`, so an overloaded daemon *degrades down the
//!   precision ladder* and answers, instead of timing out cold.
//! - **Bounded admission** — a full queue sheds with an explicit
//!   `"shed"` response and a `retry_after_ms` hint; clients are never
//!   left hanging on an unacknowledged connection.
//! - **Panic isolation** — each request runs under `catch_unwind`; an
//!   analysis panic costs that request an error response, not the
//!   daemon its life.
//! - **Watchdog** — a worker stalled past its hard deadline is
//!   abandoned (the request gets a `"timeout"` response) and replaced,
//!   so capacity never leaks.
//! - **Graceful drain** — shutdown stops accepting, finishes or
//!   cancels in-flight work via `CancelToken`, and answers every
//!   admitted request before the process exits.
//!
//! All of it is testable on demand through `iwa_core::fault`'s
//! structured fault plans: the chaos suite (`tests/chaos.rs`) drives the
//! daemon under them and checks that no request hangs and that, with
//! faults off, every answer matches single-shot analysis. The repo's
//! benchmark (`perfbench`, workload `serve_replay`) measures it end to
//! end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::{cache_key, fnv1a, VerdictCache};
pub use client::Client;
pub use proto::{Op, Request, Response, PROTO_VERSION};
pub use server::{Server, ServeOptions, ServeStats};
