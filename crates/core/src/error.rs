//! Error type shared across the workspace.

use std::fmt;

/// Errors surfaced by the `iwa` crates.
///
/// Hand-rolled (no `thiserror`) to keep the dependency set to the
/// pre-authorised list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IwaError {
    /// The `.iwa` source text failed to parse.
    Parse {
        /// 1-based line of the offending token.
        line: usize,
        /// 1-based column of the offending token.
        col: usize,
        /// Human-readable description.
        message: String,
    },
    /// A program violated a model assumption (§1–2 of the paper): unknown
    /// task, self-directed send, unreachable rendezvous point, etc.
    InvalidProgram(String),
    /// The program still contains control-flow loops where a loop-free
    /// program is required (apply the Lemma 1 `unroll_twice` transform
    /// first).
    HasLoops(String),
    /// An exploration or enumeration exceeded its configured budget
    /// (step ceiling, wall-clock deadline, or cooperative cancellation).
    ///
    /// Carries partial-progress counters so callers can report how far
    /// the analysis got before stopping.
    BudgetExceeded {
        /// What was being explored.
        what: String,
        /// The configured limit that was hit (steps, states, or — for
        /// deadline trips — the deadline in milliseconds).
        limit: usize,
        /// Cooperative checkpoint steps taken before stopping.
        steps: u64,
        /// Domain items enumerated before stopping (states visited,
        /// cycles found, paths walked — whatever the analysis counts).
        items: usize,
        /// `true` when a degraded (lower-precision) result was still
        /// produced despite this budget trip; `false` when the analysis
        /// stopped with no usable verdict.
        degraded: bool,
    },
    /// An I/O failure (CLI, report writer). Stored as a string so the error
    /// stays `Clone + Eq`.
    Io(String),
}

impl fmt::Display for IwaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IwaError::Parse { line, col, message } => {
                write!(f, "parse error at {line}:{col}: {message}")
            }
            IwaError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
            IwaError::HasLoops(msg) => write!(f, "program has control-flow loops: {msg}"),
            IwaError::BudgetExceeded {
                what,
                limit,
                steps,
                items,
                degraded,
            } => {
                write!(
                    f,
                    "budget exceeded while {what} (limit {limit}; {steps} steps, {items} items"
                )?;
                if *degraded {
                    write!(f, "; degraded result produced")?;
                }
                write!(f, ")")
            }
            IwaError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for IwaError {}

impl From<std::io::Error> for IwaError {
    fn from(e: std::io::Error) -> Self {
        IwaError::Io(e.to_string())
    }
}

/// The message of a caught panic: the payload's text when it is a string,
/// a fixed note otherwise. Pass the payload's contents (`payload.as_ref()`
/// on the `Box` that [`std::panic::catch_unwind`] returns), not the box.
#[must_use]
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_each_variant() {
        let p = IwaError::Parse {
            line: 3,
            col: 7,
            message: "expected '{'".into(),
        };
        assert_eq!(p.to_string(), "parse error at 3:7: expected '{'");
        assert!(IwaError::InvalidProgram("x".into()).to_string().contains("invalid"));
        assert!(IwaError::HasLoops("t".into()).to_string().contains("loops"));
        let b = IwaError::BudgetExceeded {
            what: "exploring waves".into(),
            limit: 10,
            steps: 1234,
            items: 56,
            degraded: false,
        };
        assert_eq!(
            b.to_string(),
            "budget exceeded while exploring waves (limit 10; 1234 steps, 56 items)"
        );
        let d = IwaError::BudgetExceeded {
            what: "refining".into(),
            limit: 5,
            steps: 0,
            items: 0,
            degraded: true,
        };
        assert!(d.to_string().contains("degraded result produced"));
    }

    #[test]
    fn panic_messages_read_string_payloads() {
        let msg = |f: fn()| panic_message(std::panic::catch_unwind(f).unwrap_err().as_ref());
        assert_eq!(msg(|| panic!("static text")), "static text");
        assert_eq!(msg(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            msg(|| std::panic::panic_any(7_u8)),
            "panic with non-string payload"
        );
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: IwaError = io.into();
        assert!(matches!(e, IwaError::Io(_)));
    }
}
