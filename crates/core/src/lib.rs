//! Shared vocabulary for the `iwa` workspace.
//!
//! The paper's model (Masticola & Ryder, ICPP 1990, §2) is built from three
//! kinds of entities:
//!
//! * **tasks** — statically created threads of control, identified here by
//!   [`TaskId`];
//! * **signals** — a *(receiving task, message type)* pair `(t, m)`,
//!   identified here by [`SignalId`];
//! * **rendezvous points** — `(t, m, s)` triples where the sign `s` is `+`
//!   for a signalling (entry-call/send) point and `-` for an accepting
//!   point, represented by [`Rendezvous`].
//!
//! Every other crate in the workspace speaks in these identifiers; the
//! [`Symbols`] table maps them back to human-readable names for diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::fmt;

pub mod budget;
pub mod error;
pub mod fault;
pub mod lex;
pub mod obs;
pub mod pool;
pub mod span;
pub mod symbols;

pub use budget::{Budget, CancelToken};
pub use error::{panic_message, IwaError};
pub use fault::{FaultPlan, FaultSite};
pub use obs::{Counters, Meta, Metrics, SpanGuard, TraceSink};
pub use span::Span;
pub use symbols::Symbols;

/// Identifier of a task (a statically created thread of control).
///
/// Dense indices: tasks in a program are numbered `0..num_tasks`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct TaskId(pub u32);

/// Identifier of a signal: a *(receiving task, message type)* pair.
///
/// Dense indices: signals in a program are numbered `0..num_signals`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SignalId(pub u32);

/// The sign of a rendezvous point: signalling (`+`) or accepting (`-`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Sign {
    /// A signalling rendezvous point — an entry call (`send`) directed at the
    /// signal's receiving task.
    Plus,
    /// An accepting rendezvous point — an `accept` executed by the signal's
    /// receiving task.
    Minus,
}

impl Sign {
    /// The complementary sign (written `s̄` in the paper): two rendezvous
    /// points may synchronise only if they name the same signal with
    /// complementary signs.
    #[must_use]
    pub fn complement(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }

    /// `true` for [`Sign::Plus`].
    #[must_use]
    pub fn is_send(self) -> bool {
        matches!(self, Sign::Plus)
    }

    /// `true` for [`Sign::Minus`].
    #[must_use]
    pub fn is_accept(self) -> bool {
        matches!(self, Sign::Minus)
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sign::Plus => "+",
            Sign::Minus => "-",
        })
    }
}

/// A rendezvous point type `(t, m, s)`: which signal is involved and on which
/// side of it this point stands.
///
/// Note that the *executing* task of a `Plus` point is **not** part of the
/// triple — the paper's model identifies senders only by the signal they
/// direct at the receiver. The executing task is carried separately wherever
/// it matters (sync-graph nodes record it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Rendezvous {
    /// The signal `(t, m)`.
    pub signal: SignalId,
    /// `+` (send) or `-` (accept).
    pub sign: Sign,
}

impl Rendezvous {
    /// Construct a rendezvous point type.
    #[must_use]
    pub fn new(signal: SignalId, sign: Sign) -> Self {
        Rendezvous { signal, sign }
    }

    /// A signalling point for `signal`.
    #[must_use]
    pub fn send(signal: SignalId) -> Self {
        Rendezvous::new(signal, Sign::Plus)
    }

    /// An accepting point for `signal`.
    #[must_use]
    pub fn accept(signal: SignalId) -> Self {
        Rendezvous::new(signal, Sign::Minus)
    }

    /// The complementary point type: same signal, opposite sign.
    #[must_use]
    pub fn complement(self) -> Self {
        Rendezvous::new(self.signal, self.sign.complement())
    }

    /// Can `self` rendezvous with `other`? True iff same signal,
    /// complementary signs.
    #[must_use]
    pub fn matches(self, other: Rendezvous) -> bool {
        self.signal == other.signal && self.sign == other.sign.complement()
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig{}", self.0)
    }
}

impl fmt::Display for Rendezvous {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.signal, self.sign)
    }
}

impl TaskId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SignalId {
    /// The id as a usize index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_complement_is_involutive() {
        assert_eq!(Sign::Plus.complement(), Sign::Minus);
        assert_eq!(Sign::Minus.complement(), Sign::Plus);
        assert_eq!(Sign::Plus.complement().complement(), Sign::Plus);
    }

    #[test]
    fn rendezvous_matching_requires_same_signal_opposite_sign() {
        let s0 = SignalId(0);
        let s1 = SignalId(1);
        assert!(Rendezvous::send(s0).matches(Rendezvous::accept(s0)));
        assert!(Rendezvous::accept(s0).matches(Rendezvous::send(s0)));
        assert!(!Rendezvous::send(s0).matches(Rendezvous::send(s0)));
        assert!(!Rendezvous::accept(s0).matches(Rendezvous::accept(s0)));
        assert!(!Rendezvous::send(s0).matches(Rendezvous::accept(s1)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(TaskId(3).to_string(), "t3");
        assert_eq!(SignalId(7).to_string(), "sig7");
        assert_eq!(Rendezvous::send(SignalId(2)).to_string(), "(sig2, +)");
        assert_eq!(Rendezvous::accept(SignalId(2)).to_string(), "(sig2, -)");
    }

    #[test]
    fn send_accept_predicates() {
        assert!(Sign::Plus.is_send() && !Sign::Plus.is_accept());
        assert!(Sign::Minus.is_accept() && !Sign::Minus.is_send());
    }
}
