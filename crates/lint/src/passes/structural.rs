//! AST-level lints.

use super::finding;
use crate::{Diagnostic, Lang, Lint, LintContext, LintPass, Severity};
use iwa_core::{Sign, TaskId};
use iwa_tasklang::cfg::{self, TaskCfg};
use iwa_tasklang::Stmt;

/// `self-send`: a task sends one of its own entries. Legal to write, but
/// the rendezvous can never complete — the task cannot wait at its own
/// send and reach the matching accept simultaneously.
pub struct SelfSend;

static SELF_SEND: Lint = Lint {
    name: "self-send",
    default_severity: Severity::Warn,
    description: "a task sends a signal to itself; the rendezvous can never complete",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for SelfSend {
    fn lint(&self) -> &'static Lint {
        &SELF_SEND
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = ctx.program;
        for task in &p.tasks {
            for s in &task.body {
                s.visit_rendezvous(&mut |st| {
                    if let Stmt::Send { signal, .. } = st {
                        let receiver = p.symbols.signal_info(*signal).map(|i| i.receiver);
                        if receiver == Some(task.id) {
                            out.push(finding(
                                self.lint(),
                                st.span(),
                                format!(
                                    "task '{}' sends signal '{}' to itself",
                                    p.symbols.task_name(task.id),
                                    p.symbols.signal_name(*signal)
                                ),
                            ));
                        }
                    }
                });
            }
        }
    }
}

/// `unmatched-signal`: a signal with send points but no accept points —
/// every execution of a send stalls forever.
pub struct UnmatchedSignal;

static UNMATCHED_SIGNAL: Lint = Lint {
    name: "unmatched-signal",
    default_severity: Severity::Warn,
    description: "a signal is sent but has no accept point anywhere",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for UnmatchedSignal {
    fn lint(&self) -> &'static Lint {
        &UNMATCHED_SIGNAL
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = ctx.program;
        let mut scan = |body: &[Stmt]| {
            for s in body {
                s.visit_rendezvous(&mut |st| {
                    if let Stmt::Send { signal, .. } = st {
                        let (sends, accepts) = ctx.counts(*signal);
                        if sends > 0 && accepts == 0 {
                            out.push(finding(
                                self.lint(),
                                st.span(),
                                format!(
                                    "signal '{}' is sent but never accepted",
                                    p.symbols.signal_name(*signal)
                                ),
                            ));
                        }
                    }
                });
            }
        };
        for t in &p.tasks {
            scan(&t.body);
        }
        for pr in &p.procs {
            scan(&pr.body);
        }
    }
}

/// `entry-never-called`: the accepting mirror of `unmatched-signal` — an
/// entry with accept points but no send anywhere, so every accept waits
/// forever. Together the two lints cover the legacy `UnmatchedSignal`
/// census warning, split by which side of the rendezvous is lonely.
pub struct EntryNeverCalled;

static ENTRY_NEVER_CALLED: Lint = Lint {
    name: "entry-never-called",
    default_severity: Severity::Warn,
    description: "an entry is accepted but no task ever calls it",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for EntryNeverCalled {
    fn lint(&self) -> &'static Lint {
        &ENTRY_NEVER_CALLED
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let p = ctx.program;
        for t in &p.tasks {
            for s in &t.body {
                s.visit_rendezvous(&mut |st| {
                    if let Stmt::Accept { signal, .. } = st {
                        let (sends, accepts) = ctx.counts(*signal);
                        if accepts > 0 && sends == 0 {
                            out.push(finding(
                                self.lint(),
                                st.span(),
                                format!(
                                    "entry '{}' is accepted but never called",
                                    p.symbols.signal_name(*signal)
                                ),
                            ));
                        }
                    }
                });
            }
        }
    }
}

/// `silent-task`: a task whose (inlined) body contains no rendezvous at
/// all — it never synchronises and is invisible to every analysis.
pub struct SilentTask;

static SILENT_TASK: Lint = Lint {
    name: "silent-task",
    default_severity: Severity::Warn,
    description: "a task contains no rendezvous and is invisible to the analyses",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for SilentTask {
    fn lint(&self) -> &'static Lint {
        &SILENT_TASK
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for task in &ctx.inlined.tasks {
            let mut saw = false;
            for s in &task.body {
                s.visit_rendezvous(&mut |_| saw = true);
            }
            if !saw {
                // Spans live on the *original* declaration; inlining
                // preserves task ids and spans, so either view works.
                out.push(finding(
                    self.lint(),
                    task.span,
                    format!(
                        "task '{}' contains no rendezvous",
                        ctx.program.symbols.task_name(task.id)
                    ),
                ));
            }
        }
    }
}

/// `never-started-task`: every control path into the task's body begins
/// by accepting an entry that no task ever calls, and the task has no
/// rendezvous-free path either — it blocks at its first wait, forever.
pub struct NeverStartedTask;

static NEVER_STARTED_TASK: Lint = Lint {
    name: "never-started-task",
    default_severity: Severity::Warn,
    description: "every path into the task starts by waiting on an entry that is never called",
    applies_to: &[Lang::Tasklang],
};

impl LintPass for NeverStartedTask {
    fn lint(&self) -> &'static Lint {
        &NEVER_STARTED_TASK
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for task in &ctx.inlined.tasks {
            let tcfg = TaskCfg::build(task);
            let first = tcfg.first_nodes();
            // A rendezvous-free path (ENTRY → EXIT) means the task can
            // run to completion without waiting; an empty body shows up
            // the same way.
            if first.is_empty() || first.contains(&cfg::EXIT) {
                continue;
            }
            let all_dead_accepts = first.iter().all(|&n| {
                let rv = tcfg.rv(n);
                rv.rendezvous.sign == Sign::Minus && ctx.counts(rv.rendezvous.signal).0 == 0
            });
            if all_dead_accepts {
                out.push(finding(
                    self.lint(),
                    task.span,
                    format!(
                        "task '{}' can never start: every path into its body waits on \
                         an entry that is never called",
                        ctx.program.symbols.task_name(task.id)
                    ),
                ));
            }
        }
    }
}

/// `unreachable-statement`: a statement that follows a statement which
/// can never complete (a self-send, or a rendezvous on a signal whose
/// complementary side does not exist anywhere in the program).
///
/// The divergence inference is structural and conservative: a `repeat`
/// diverges when its body does (the body runs at least once); an `if`
/// diverges only when *both* branches do; a `while` never diverges (its
/// body may be skipped).
pub struct UnreachableStatement;

static UNREACHABLE_STATEMENT: Lint = Lint {
    name: "unreachable-statement",
    default_severity: Severity::Warn,
    description: "the statement follows a wait that can never complete",
    applies_to: &[Lang::Tasklang],
};

impl UnreachableStatement {
    /// Can `s` never complete? `task` is `None` inside procedure bodies,
    /// where the executing task is unknown until inlining.
    fn diverges(&self, ctx: &LintContext<'_>, task: Option<TaskId>, s: &Stmt) -> bool {
        match s {
            Stmt::Send { signal, .. } => {
                let self_send = task.is_some()
                    && ctx.program.symbols.signal_info(*signal).map(|i| i.receiver) == task;
                self_send || ctx.counts(*signal).1 == 0
            }
            Stmt::Accept { signal, .. } => ctx.counts(*signal).0 == 0,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                !then_branch.is_empty()
                    && !else_branch.is_empty()
                    && self.block_diverges(ctx, task, then_branch)
                    && self.block_diverges(ctx, task, else_branch)
            }
            Stmt::Repeat { body, .. } => self.block_diverges(ctx, task, body),
            Stmt::While { .. } | Stmt::Call { .. } => false,
        }
    }

    fn block_diverges(&self, ctx: &LintContext<'_>, task: Option<TaskId>, block: &[Stmt]) -> bool {
        block.iter().any(|s| self.diverges(ctx, task, s))
    }

    fn scan_block(
        &self,
        ctx: &LintContext<'_>,
        task: Option<TaskId>,
        block: &[Stmt],
        out: &mut Vec<Diagnostic>,
    ) {
        let mut blocked_by: Option<&Stmt> = None;
        for s in block {
            if let Some(cause) = blocked_by {
                out.push(finding(
                    self.lint(),
                    s.span(),
                    format!(
                        "unreachable statement: the {} at {} can never complete",
                        stmt_kind(cause),
                        cause.span()
                    ),
                ));
                // One finding per dead region, on its first statement.
                break;
            }
            match s {
                Stmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.scan_block(ctx, task, then_branch, out);
                    self.scan_block(ctx, task, else_branch, out);
                }
                Stmt::While { body, .. } | Stmt::Repeat { body, .. } => {
                    self.scan_block(ctx, task, body, out);
                }
                _ => {}
            }
            if self.diverges(ctx, task, s) {
                blocked_by = Some(s);
            }
        }
    }
}

fn stmt_kind(s: &Stmt) -> &'static str {
    match s {
        Stmt::Send { .. } => "send",
        Stmt::Accept { .. } => "accept",
        Stmt::If { .. } => "conditional",
        Stmt::While { .. } => "while loop",
        Stmt::Repeat { .. } => "repeat loop",
        Stmt::Call { .. } => "call",
    }
}

impl LintPass for UnreachableStatement {
    fn lint(&self) -> &'static Lint {
        &UNREACHABLE_STATEMENT
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for task in &ctx.program.tasks {
            self.scan_block(ctx, Some(task.id), &task.body, out);
        }
        for pr in &ctx.program.procs {
            self.scan_block(ctx, None, &pr.body, out);
        }
    }
}
