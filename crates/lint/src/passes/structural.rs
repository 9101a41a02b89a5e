//! AST-level lints.

use super::finding;
use crate::{Diagnostic, Lint, LintContext};
use iwa_core::{Sign, TaskId};
use iwa_tasklang::cfg::{self, TaskCfg};
use iwa_tasklang::Stmt;

/// `self-send`: a task sends one of its own entries. Legal to write, but
/// the rendezvous can never complete — the task cannot wait at its own
/// send and reach the matching accept simultaneously.
pub fn self_send(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let p = ctx.program;
    for task in &p.tasks {
        for s in &task.body {
            s.visit_rendezvous(&mut |st| {
                if let Stmt::Send { signal, .. } = st {
                    let receiver = p.symbols.signal_info(*signal).map(|i| i.receiver);
                    if receiver == Some(task.id) {
                        out.push(finding(
                            lint,
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

/// `unmatched-signal`: a signal with send points but no accept points —
/// every execution of a send stalls forever.
pub fn unmatched_signal(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let p = ctx.program;
    let mut scan = |body: &[Stmt]| {
        for s in body {
            s.visit_rendezvous(&mut |st| {
                if let Stmt::Send { signal, .. } = st {
                    let (sends, accepts) = ctx.counts(*signal);
                    if sends > 0 && accepts == 0 {
                        out.push(finding(
                            lint,
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

/// `entry-never-called`: the accepting mirror of `unmatched-signal` — an
/// entry with accept points but no send anywhere, so every accept waits
/// forever. Together the two lints cover the legacy `UnmatchedSignal`
/// census warning, split by which side of the rendezvous is lonely.
pub fn entry_never_called(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let p = ctx.program;
    for t in &p.tasks {
        for s in &t.body {
            s.visit_rendezvous(&mut |st| {
                if let Stmt::Accept { signal, .. } = st {
                    let (sends, accepts) = ctx.counts(*signal);
                    if accepts > 0 && sends == 0 {
                        out.push(finding(
                            lint,
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

/// `silent-task`: a task whose (inlined) body contains no rendezvous at
/// all — it never synchronises and is invisible to every analysis.
pub fn silent_task(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for task in &ctx.inlined.tasks {
        let mut saw = false;
        for s in &task.body {
            s.visit_rendezvous(&mut |_| saw = true);
        }
        if !saw {
            // Spans live on the *original* declaration; inlining
            // preserves task ids and spans, so either view works.
            out.push(finding(
                lint,
                task.span,
                format!(
                    "task '{}' contains no rendezvous",
                    ctx.program.symbols.task_name(task.id)
                ),
            ));
        }
    }
}

/// `never-started-task`: every control path into the task's body begins
/// by accepting an entry that no task ever calls, and the task has no
/// rendezvous-free path either — it blocks at its first wait, forever.
pub fn never_started_task(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
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
                lint,
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

/// `unreachable-statement`: a statement that follows a statement which
/// can never complete (a self-send, or a rendezvous on a signal whose
/// complementary side does not exist anywhere in the program).
///
/// The divergence inference is structural and conservative: a `repeat`
/// diverges when its body does (the body runs at least once); an `if`
/// diverges only when *both* branches do; a `while` never diverges (its
/// body may be skipped).
pub fn unreachable_statement(lint: &Lint, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    for task in &ctx.program.tasks {
        scan_block(lint, ctx, Some(task.id), &task.body, out);
    }
    for pr in &ctx.program.procs {
        scan_block(lint, ctx, None, &pr.body, out);
    }
}

/// Can `s` never complete? `task` is `None` inside procedure bodies,
/// where the executing task is unknown until inlining.
fn diverges(ctx: &LintContext<'_>, task: Option<TaskId>, s: &Stmt) -> bool {
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
                && block_diverges(ctx, task, then_branch)
                && block_diverges(ctx, task, else_branch)
        }
        Stmt::Repeat { body, .. } => block_diverges(ctx, task, body),
        Stmt::While { .. } | Stmt::Call { .. } => false,
    }
}

fn block_diverges(ctx: &LintContext<'_>, task: Option<TaskId>, block: &[Stmt]) -> bool {
    block.iter().any(|s| diverges(ctx, task, s))
}

fn scan_block(
    lint: &Lint,
    ctx: &LintContext<'_>,
    task: Option<TaskId>,
    block: &[Stmt],
    out: &mut Vec<Diagnostic>,
) {
    let mut blocked_by: Option<&Stmt> = None;
    for s in block {
        if let Some(cause) = blocked_by {
            out.push(finding(
                lint,
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
                scan_block(lint, ctx, task, then_branch, out);
                scan_block(lint, ctx, task, else_branch, out);
            }
            Stmt::While { body, .. } | Stmt::Repeat { body, .. } => {
                scan_block(lint, ctx, task, body, out);
            }
            _ => {}
        }
        if diverges(ctx, task, s) {
            blocked_by = Some(s);
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
