//! Model-assumption checks (paper §1–2).
//!
//! The parser cannot produce most violations (e.g. it interns accepts
//! against the enclosing task), but programs can also be assembled through
//! the builder or synthesised by the reduction generators, so the invariants
//! are re-checked here before analysis.

use crate::ast::{Program, Stmt};
use iwa_core::{IwaError, Sign};

/// A non-fatal observation about a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Warning {
    /// A task sends a signal to itself — legal to *write*, but it can never
    /// complete (the task cannot simultaneously wait at its own send and
    /// reach the matching accept), so the analyses will flag it.
    SelfSend {
        /// Offending task.
        task: String,
        /// Signal involved.
        signal: String,
    },
    /// A signal has send points but no accept points (or vice versa) —
    /// every execution of the lonely side stalls.
    UnmatchedSignal {
        /// Signal involved.
        signal: String,
        /// Number of send points.
        sends: usize,
        /// Number of accept points.
        accepts: usize,
    },
    /// A task body contains no rendezvous at all (it never synchronises and
    /// is invisible to the analyses).
    SilentTask {
        /// The silent task.
        task: String,
    },
}

/// Check `p` against the model assumptions, rejecting violations that make
/// analysis meaningless:
///
/// * an `accept` for a signal outside the signal's receiving task;
/// * a task id out of range in a signal;
/// * an `accept` inside a procedure, or a cyclic call graph.
///
/// Suspicious-but-analysable patterns are *not* reported here — they are
/// the lint registry's job (`iwa-lint`); [`model_warnings`] remains for
/// callers that need the raw census without a lint context.
pub fn check_model(p: &Program) -> Result<(), IwaError> {
    census(p).map(|_| ())
}

/// The legacy warning census: the suspicious-but-analysable patterns
/// ([`Warning`]) that predate the lint registry.
///
/// Prefer running the lint registry (`iwa-lint`), which covers these three
/// patterns as the `self-send`, `unmatched-signal`/`entry-never-called`,
/// and `silent-task` lints *with source spans*. Nothing in the analysis
/// pipeline reads this census any more; it is kept for perfbench's
/// per-layer replay. Returns an empty vector for invalid programs (run
/// [`check_model`] first to distinguish).
#[must_use]
pub fn model_warnings(p: &Program) -> Vec<Warning> {
    census(p).unwrap_or_default()
}

fn census(p: &Program) -> Result<Vec<Warning>, IwaError> {
    let mut warnings = Vec::new();

    // Procedure rules: accepts are forbidden inside procedures, calls must
    // resolve acyclically. The inliner is the authority on call-graph
    // shape; the rendezvous census below must run on the *inlined* program
    // so procedure-hidden rendezvous are counted against the right tasks.
    let inlined;
    let p: &Program = if !p.procs.is_empty() || p.has_calls() {
        for proc in &p.procs {
            let mut bad = None;
            for s in &proc.body {
                s.visit_rendezvous(&mut |st| {
                    if st.rendezvous().is_some_and(|r| r.sign.is_accept()) {
                        bad = Some(proc.name.clone());
                    }
                });
            }
            if let Some(name) = bad {
                return Err(IwaError::InvalidProgram(format!(
                    "procedure '{name}' contains an accept statement"
                )));
            }
        }
        inlined = crate::transforms::inline_procs(p)?;
        &inlined
    } else {
        p
    };
    let mut sends = vec![0usize; p.symbols.num_signals()];
    let mut accepts = vec![0usize; p.symbols.num_signals()];

    for task in &p.tasks {
        let mut saw_rendezvous = false;
        let mut check = |s: &Stmt| -> Result<(), IwaError> {
            let r = s.rendezvous().expect("visit_rendezvous yields rendezvous");
            saw_rendezvous = true;
            let info = p.symbols.signal_info(r.signal).ok_or_else(|| {
                IwaError::InvalidProgram(format!("unknown signal {}", r.signal))
            })?;
            if info.receiver.index() >= p.num_tasks() {
                return Err(IwaError::InvalidProgram(format!(
                    "signal {} names task {} which does not exist",
                    p.symbols.signal_name(r.signal),
                    info.receiver
                )));
            }
            match r.sign {
                Sign::Minus => {
                    if info.receiver != task.id {
                        return Err(IwaError::InvalidProgram(format!(
                            "task '{}' accepts signal '{}' which belongs to task '{}'",
                            p.symbols.task_name(task.id),
                            p.symbols.signal_name(r.signal),
                            p.symbols.task_name(info.receiver)
                        )));
                    }
                    accepts[r.signal.index()] += 1;
                }
                Sign::Plus => {
                    if info.receiver == task.id {
                        warnings.push(Warning::SelfSend {
                            task: p.symbols.task_name(task.id).to_owned(),
                            signal: p.symbols.signal_name(r.signal),
                        });
                    }
                    sends[r.signal.index()] += 1;
                }
            }
            Ok(())
        };
        let mut result = Ok(());
        for s in &task.body {
            s.visit_rendezvous(&mut |st| {
                if result.is_ok() {
                    result = check(st);
                }
            });
        }
        result?;
        if !saw_rendezvous {
            warnings.push(Warning::SilentTask {
                task: p.symbols.task_name(task.id).to_owned(),
            });
        }
    }

    for (sig, _info) in p.symbols.iter_signals() {
        let (s, a) = (sends[sig.index()], accepts[sig.index()]);
        if (s == 0) != (a == 0) {
            warnings.push(Warning::UnmatchedSignal {
                signal: p.symbols.signal_name(sig),
                sends: s,
                accepts: a,
            });
        }
    }
    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ProgramBuilder;
    use crate::parser::parse;

    #[test]
    fn clean_program_validates() {
        let p = parse("task a { send b.m; } task b { accept m; }").unwrap();
        check_model(&p).unwrap();
        assert!(model_warnings(&p).is_empty());
    }

    #[test]
    fn accept_in_wrong_task_is_an_error() {
        let mut b = ProgramBuilder::new();
        let a = b.task("a");
        let z = b.task("z");
        let sig = b.signal(z, "m");
        // Task `a` accepting z's signal violates the model.
        b.body(a, |t| {
            t.accept(sig);
        });
        b.body(z, |t| {
            t.send(sig);
        });
        let p = b.build();
        let err = check_model(&p).unwrap_err();
        assert!(err.to_string().contains("belongs to task"));
        assert!(model_warnings(&p).is_empty(), "invalid program: no census");
    }

    #[test]
    fn self_send_warns() {
        let p = parse("task a { send a.m; accept m; }").unwrap();
        let ws = model_warnings(&p);
        assert!(ws
            .iter()
            .any(|w| matches!(w, Warning::SelfSend { .. })));
    }

    #[test]
    fn unmatched_signal_warns() {
        let p = parse("task a { send b.m; } task b { }").unwrap();
        let ws = model_warnings(&p);
        assert!(ws
            .iter()
            .any(|w| matches!(w, Warning::UnmatchedSignal { sends: 1, accepts: 0, .. })));
    }

    #[test]
    fn proc_hidden_rendezvous_are_counted() {
        let p = parse(
            "proc fire { send u.m; }
             task t { call fire; }
             task u { accept m; }",
        )
        .unwrap();
        let ws = model_warnings(&p);
        assert!(
            ws.is_empty(),
            "no silent-task or unmatched-signal noise: {ws:?}"
        );
    }

    #[test]
    fn builder_made_recursive_procs_are_rejected() {
        let mut b = ProgramBuilder::new();
        let t = b.task("t");
        b.proc("a", |tb| {
            tb.call("a");
        });
        b.body(t, |tb| {
            tb.call("a");
        });
        assert!(check_model(&b.build()).is_err());
    }

    #[test]
    fn builder_made_accepting_procs_are_rejected() {
        let mut b = ProgramBuilder::new();
        let t = b.task("t");
        let sig = b.signal(t, "m");
        b.proc("bad", move |tb| {
            tb.accept(sig);
        });
        b.body(t, |tb| {
            tb.call("bad");
        });
        assert!(check_model(&b.build()).is_err());
    }

    #[test]
    fn silent_task_warns() {
        let p = parse("task a { } ").unwrap();
        let ws = model_warnings(&p);
        assert!(ws.iter().any(|w| matches!(w, Warning::SilentTask { .. })));
    }
}
