//! Abstract syntax for the rendezvous tasking language.

use iwa_core::{Rendezvous, Sign, SignalId, Span, Symbols, TaskId};
use std::fmt;

/// A branch/loop condition.
///
/// Conditions carry no evaluable expression — static analysis treats every
/// branch as independently takeable (paper §1: "we assume that all control
/// flow paths in a program are executable"). A condition is either fully
/// opaque ([`Cond::Unknown`]) or an *encapsulated boolean variable*
/// ([`Cond::Var`]), the device §5.1 introduces so that co-dependence of
/// branches in different tasks becomes statically visible: encapsulated
/// variables are single-assignment and may be communicated between tasks
/// over a rendezvous, but never modified.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Cond {
    /// An opaque condition; each evaluation may go either way.
    Unknown,
    /// An encapsulated boolean variable, named.
    Var(String),
}

impl Cond {
    /// The variable name, if this is an encapsulated variable.
    #[must_use]
    pub fn var(&self) -> Option<&str> {
        match self {
            Cond::Unknown => None,
            Cond::Var(v) => Some(v),
        }
    }
}

/// One statement of a task body.
///
/// Every variant carries the [`Span`] of its leading keyword in the
/// original source (or [`Span::DUMMY`] for builder-made programs).
/// Transforms preserve spans — an unrolled or inlined copy keeps the span
/// of the statement it was copied from, so diagnostics on derived
/// programs map back to the line the user wrote.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stmt {
    /// An entry call directed at `signal`'s receiving task. Suspends the
    /// sender until the receiver executes a matching [`Stmt::Accept`].
    Send {
        /// The signal `(t, m)` being sent.
        signal: SignalId,
        /// Encapsulated condition variable transmitted with the message
        /// (the §5.1 device), if any.
        carrying: Option<String>,
        /// Optional source label (`as r`), used by figure fixtures and
        /// diagnostics.
        label: Option<String>,
        /// Source location of the `send` keyword.
        span: Span,
    },
    /// An accept for `signal`, legal only inside `signal`'s receiving task.
    Accept {
        /// The signal `(t, m)` being accepted.
        signal: SignalId,
        /// Name bound to a condition variable received with the message.
        binding: Option<String>,
        /// Optional source label.
        label: Option<String>,
        /// Source location of the `accept` keyword.
        span: Span,
    },
    /// Two-way conditional; either arm may be empty.
    If {
        /// Branch condition.
        cond: Cond,
        /// Statements executed when the condition holds.
        then_branch: Vec<Stmt>,
        /// Statements executed otherwise.
        else_branch: Vec<Stmt>,
        /// Source location of the `if` keyword.
        span: Span,
    },
    /// Pre-tested loop: the body executes **zero or more** times.
    While {
        /// Loop condition (re-evaluated each iteration).
        cond: Cond,
        /// Loop body.
        body: Vec<Stmt>,
        /// Source location of the `while` keyword.
        span: Span,
    },
    /// Post-tested loop: the body executes **one or more** times.
    Repeat {
        /// Loop body.
        body: Vec<Stmt>,
        /// Continuation condition (re-evaluated after each iteration).
        cond: Cond,
        /// Source location of the `repeat` keyword.
        span: Span,
    },
    /// Call of a named procedure (the paper's deferred *interprocedural
    /// model*, realised by inlining — see
    /// [`transforms::inline_procs`](crate::transforms::inline_procs)).
    ///
    /// Faithful to Ada, procedures may send and branch but may **not**
    /// contain `accept` statements (an accept belongs to a task body).
    Call {
        /// The procedure's name.
        proc: String,
        /// Source location of the `call` keyword.
        span: Span,
    },
}

impl Stmt {
    /// A plain send.
    #[must_use]
    pub fn send(signal: SignalId) -> Stmt {
        Stmt::Send {
            signal,
            carrying: None,
            label: None,
            span: Span::DUMMY,
        }
    }

    /// A plain accept.
    #[must_use]
    pub fn accept(signal: SignalId) -> Stmt {
        Stmt::Accept {
            signal,
            binding: None,
            label: None,
            span: Span::DUMMY,
        }
    }

    /// The statement's source span ([`Span::DUMMY`] for synthetic code).
    #[must_use]
    pub fn span(&self) -> Span {
        match self {
            Stmt::Send { span, .. }
            | Stmt::Accept { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Repeat { span, .. }
            | Stmt::Call { span, .. } => *span,
        }
    }

    /// The rendezvous point type of this statement, if it is one.
    #[must_use]
    pub fn rendezvous(&self) -> Option<Rendezvous> {
        match self {
            Stmt::Send { signal, .. } => Some(Rendezvous::send(*signal)),
            Stmt::Accept { signal, .. } => Some(Rendezvous::accept(*signal)),
            _ => None,
        }
    }

    /// The statement's source label, if it is a labelled rendezvous.
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        match self {
            Stmt::Send { label, .. } | Stmt::Accept { label, .. } => label.as_deref(),
            _ => None,
        }
    }

    /// Does this statement (recursively) contain a loop?
    ///
    /// Call sites answer `false` — query the *inlined* program when loops
    /// inside procedures matter (the certify driver inlines first).
    #[must_use]
    pub fn contains_loop(&self) -> bool {
        match self {
            Stmt::Send { .. } | Stmt::Accept { .. } | Stmt::Call { .. } => false,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.iter().any(Stmt::contains_loop)
                    || else_branch.iter().any(Stmt::contains_loop)
            }
            Stmt::While { .. } | Stmt::Repeat { .. } => true,
        }
    }

    /// Does this statement (recursively) contain any branching construct?
    #[must_use]
    pub fn contains_branch(&self) -> bool {
        !matches!(
            self,
            Stmt::Send { .. } | Stmt::Accept { .. } | Stmt::Call { .. }
        )
    }

    /// Visit every rendezvous statement in syntactic order (within this
    /// statement only; call sites are not expanded — inline first).
    pub fn visit_rendezvous<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        match self {
            Stmt::Send { .. } | Stmt::Accept { .. } => f(self),
            Stmt::Call { .. } => {}
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                for s in then_branch.iter().chain(else_branch) {
                    s.visit_rendezvous(f);
                }
            }
            Stmt::While { body, .. } | Stmt::Repeat { body, .. } => {
                for s in body {
                    s.visit_rendezvous(f);
                }
            }
        }
    }

    /// Does this statement (recursively) contain a procedure call?
    #[must_use]
    pub fn contains_call(&self) -> bool {
        match self {
            Stmt::Call { .. } => true,
            Stmt::Send { .. } | Stmt::Accept { .. } => false,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.iter().any(Stmt::contains_call)
                    || else_branch.iter().any(Stmt::contains_call)
            }
            Stmt::While { body, .. } | Stmt::Repeat { body, .. } => {
                body.iter().any(Stmt::contains_call)
            }
        }
    }
}

/// One task: a name (in the program's [`Symbols`]) and a structured body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Task {
    /// The task's identity.
    pub id: TaskId,
    /// The task body.
    pub body: Vec<Stmt>,
    /// Source location of the task's name in its declaration
    /// ([`Span::DUMMY`] for builder-made programs).
    pub span: Span,
}

/// A named procedure, callable from any task (or another procedure).
///
/// Procedures may send and branch, but not `accept` (Ada: accepts belong
/// to the owning task's body) — `validate` enforces this, as well as
/// acyclicity of the call graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Procedure {
    /// The procedure's name.
    pub name: String,
    /// Its body.
    pub body: Vec<Stmt>,
    /// Source location of the procedure's name in its declaration
    /// ([`Span::DUMMY`] for builder-made programs).
    pub span: Span,
}

/// A complete program: symbol table plus one body per task.
///
/// Invariant: `tasks[i].id == TaskId(i)` and every task interned in
/// `symbols` has a body here (enforced by [`ProgramBuilder`] and the
/// parser; `validate` re-checks).
#[derive(Clone, Debug)]
pub struct Program {
    /// Interned task and signal names.
    pub symbols: Symbols,
    /// Task bodies, indexed by `TaskId`.
    pub tasks: Vec<Task>,
    /// Shared procedures (empty for the paper's base intraprocedural
    /// model).
    pub procs: Vec<Procedure>,
}

impl Program {
    /// Number of tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Is the program loop-free (no `while`/`repeat` anywhere)?
    #[must_use]
    pub fn is_loop_free(&self) -> bool {
        !self
            .tasks
            .iter()
            .any(|t| t.body.iter().any(Stmt::contains_loop))
    }

    /// Is the program straight-line (no conditionals or loops at all)?
    #[must_use]
    pub fn is_straight_line(&self) -> bool {
        !self
            .tasks
            .iter()
            .any(|t| t.body.iter().any(Stmt::contains_branch))
    }

    /// Does any task (or procedure) contain a procedure call?
    #[must_use]
    pub fn has_calls(&self) -> bool {
        self.tasks
            .iter()
            .map(|t| &t.body)
            .chain(self.procs.iter().map(|p| &p.body))
            .any(|b| b.iter().any(Stmt::contains_call))
    }

    /// Find a procedure by name.
    #[must_use]
    pub fn proc(&self, name: &str) -> Option<&Procedure> {
        self.procs.iter().find(|p| p.name == name)
    }

    /// Total number of rendezvous statements.
    #[must_use]
    pub fn num_rendezvous(&self) -> usize {
        let mut n = 0;
        for t in &self.tasks {
            for s in &t.body {
                s.visit_rendezvous(&mut |_| n += 1);
            }
        }
        n
    }

    /// Build a straight-line program directly from per-task rendezvous
    /// sequences (used by linearisation and by tests).
    #[must_use]
    pub fn from_straight_lines(
        symbols: Symbols,
        lines: Vec<Vec<(Rendezvous, Option<String>)>>,
    ) -> Program {
        let tasks = lines
            .into_iter()
            .enumerate()
            .map(|(i, line)| Task {
                id: TaskId(i as u32),
                body: line
                    .into_iter()
                    .map(|(r, label)| match r.sign {
                        Sign::Plus => Stmt::Send {
                            signal: r.signal,
                            carrying: None,
                            label,
                            span: Span::DUMMY,
                        },
                        Sign::Minus => Stmt::Accept {
                            signal: r.signal,
                            binding: None,
                            label,
                            span: Span::DUMMY,
                        },
                    })
                    .collect(),
                span: Span::DUMMY,
            })
            .collect();
        Program {
            symbols,
            tasks,
            procs: Vec::new(),
        }
    }
}

/// Builder for whole programs.
///
/// ```
/// use iwa_tasklang::ast::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// let ping = b.task("ping");
/// let pong = b.task("pong");
/// let serve = b.signal(pong, "serve");
/// b.body(ping, |t| {
///     t.send(serve);
/// });
/// b.body(pong, |t| {
///     t.accept(serve);
/// });
/// let program = b.build();
/// assert_eq!(program.num_tasks(), 2);
/// assert_eq!(program.num_rendezvous(), 2);
/// ```
#[derive(Default, Debug)]
pub struct ProgramBuilder {
    symbols: Symbols,
    bodies: Vec<Vec<Stmt>>,
    procs: Vec<Procedure>,
}

impl ProgramBuilder {
    /// A fresh builder.
    #[must_use]
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Declare (or look up) a task by name.
    pub fn task(&mut self, name: &str) -> TaskId {
        let id = self.symbols.intern_task(name);
        while self.bodies.len() <= id.index() {
            self.bodies.push(Vec::new());
        }
        id
    }

    /// Declare (or look up) the signal `receiver.message`.
    pub fn signal(&mut self, receiver: TaskId, message: &str) -> SignalId {
        self.symbols.intern_signal(receiver, message)
    }

    /// Define (or replace) a shared procedure.
    pub fn proc(&mut self, name: &str, f: impl FnOnce(&mut TaskBuilder)) {
        let mut tb = TaskBuilder { stmts: Vec::new() };
        f(&mut tb);
        self.procs.retain(|p| p.name != name);
        self.procs.push(Procedure {
            name: name.to_owned(),
            body: tb.stmts,
            span: Span::DUMMY,
        });
    }

    /// Populate `task`'s body through a [`TaskBuilder`].
    pub fn body(&mut self, task: TaskId, f: impl FnOnce(&mut TaskBuilder)) {
        let mut tb = TaskBuilder { stmts: Vec::new() };
        f(&mut tb);
        self.bodies[task.index()] = tb.stmts;
    }

    /// Finish, producing the program.
    #[must_use]
    pub fn build(self) -> Program {
        let tasks = self
            .bodies
            .into_iter()
            .enumerate()
            .map(|(i, body)| Task {
                id: TaskId(i as u32),
                body,
                span: Span::DUMMY,
            })
            .collect();
        Program {
            symbols: self.symbols,
            tasks,
            procs: self.procs,
        }
    }
}

/// Fluent builder for a statement sequence.
#[derive(Default, Debug)]
pub struct TaskBuilder {
    stmts: Vec<Stmt>,
}

impl TaskBuilder {
    /// Append `send signal;`.
    pub fn send(&mut self, signal: SignalId) -> &mut Self {
        self.stmts.push(Stmt::send(signal));
        self
    }

    /// Append a labelled send (`send … as label;`).
    pub fn send_as(&mut self, signal: SignalId, label: &str) -> &mut Self {
        self.stmts.push(Stmt::Send {
            signal,
            carrying: None,
            label: Some(label.to_owned()),
            span: Span::DUMMY,
        });
        self
    }

    /// Append `accept signal;`.
    pub fn accept(&mut self, signal: SignalId) -> &mut Self {
        self.stmts.push(Stmt::accept(signal));
        self
    }

    /// Append a labelled accept.
    pub fn accept_as(&mut self, signal: SignalId, label: &str) -> &mut Self {
        self.stmts.push(Stmt::Accept {
            signal,
            binding: None,
            label: Some(label.to_owned()),
            span: Span::DUMMY,
        });
        self
    }

    /// Append `if { … } else { … }` with an opaque condition.
    pub fn if_else(
        &mut self,
        then_f: impl FnOnce(&mut TaskBuilder),
        else_f: impl FnOnce(&mut TaskBuilder),
    ) -> &mut Self {
        self.if_cond(Cond::Unknown, then_f, else_f)
    }

    /// Append a conditional with an explicit condition.
    pub fn if_cond(
        &mut self,
        cond: Cond,
        then_f: impl FnOnce(&mut TaskBuilder),
        else_f: impl FnOnce(&mut TaskBuilder),
    ) -> &mut Self {
        let mut tb = TaskBuilder::default();
        then_f(&mut tb);
        let mut eb = TaskBuilder::default();
        else_f(&mut eb);
        self.stmts.push(Stmt::If {
            cond,
            then_branch: tb.stmts,
            else_branch: eb.stmts,
            span: Span::DUMMY,
        });
        self
    }

    /// Append `while { … }` (0+ iterations, opaque condition).
    pub fn while_loop(&mut self, body_f: impl FnOnce(&mut TaskBuilder)) -> &mut Self {
        let mut bb = TaskBuilder::default();
        body_f(&mut bb);
        self.stmts.push(Stmt::While {
            cond: Cond::Unknown,
            body: bb.stmts,
            span: Span::DUMMY,
        });
        self
    }

    /// Append `repeat { … }` (1+ iterations, opaque condition).
    pub fn repeat_loop(&mut self, body_f: impl FnOnce(&mut TaskBuilder)) -> &mut Self {
        let mut bb = TaskBuilder::default();
        body_f(&mut bb);
        self.stmts.push(Stmt::Repeat {
            body: bb.stmts,
            cond: Cond::Unknown,
            span: Span::DUMMY,
        });
        self
    }

    /// Append `call proc;`.
    pub fn call(&mut self, proc: &str) -> &mut Self {
        self.stmts.push(Stmt::Call {
            proc: proc.to_owned(),
            span: Span::DUMMY,
        });
        self
    }

    /// Append an arbitrary prebuilt statement.
    pub fn stmt(&mut self, s: Stmt) -> &mut Self {
        self.stmts.push(s);
        self
    }
}

// ---------------------------------------------------------------------------
// Pretty-printing (the inverse of `parser::parse`).
// ---------------------------------------------------------------------------

impl Program {
    /// Render the program in `.iwa` syntax. `parse(p.to_source())` yields an
    /// equivalent program (round-trip tested).
    #[must_use]
    pub fn to_source(&self) -> String {
        let mut out = String::new();
        for proc in &self.procs {
            out.push_str(&format!("proc {} {{\n", proc.name));
            for s in &proc.body {
                self.print_stmt(s, 1, &mut out);
            }
            out.push_str("}\n");
        }
        for task in &self.tasks {
            out.push_str(&format!("task {} {{\n", self.symbols.task_name(task.id)));
            for s in &task.body {
                self.print_stmt(s, 1, &mut out);
            }
            out.push_str("}\n");
        }
        out
    }

    fn print_stmt(&self, s: &Stmt, depth: usize, out: &mut String) {
        let pad = "    ".repeat(depth);
        match s {
            Stmt::Send {
                signal,
                carrying,
                label,
                ..
            } => {
                out.push_str(&format!("{pad}send {}", self.symbols.signal_name(*signal)));
                if let Some(v) = carrying {
                    out.push_str(&format!(" carrying {v}"));
                }
                if let Some(l) = label {
                    out.push_str(&format!(" as {l}"));
                }
                out.push_str(";\n");
            }
            Stmt::Accept {
                signal,
                binding,
                label,
                ..
            } => {
                let msg = self
                    .symbols
                    .signal_info(*signal)
                    .map_or_else(|| signal.to_string(), |i| i.message.clone());
                out.push_str(&format!("{pad}accept {msg}"));
                if let Some(v) = binding {
                    out.push_str(&format!(" binding {v}"));
                }
                if let Some(l) = label {
                    out.push_str(&format!(" as {l}"));
                }
                out.push_str(";\n");
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                out.push_str(&format!("{pad}if{} {{\n", cond_suffix(cond)));
                for s in then_branch {
                    self.print_stmt(s, depth + 1, out);
                }
                if else_branch.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    for s in else_branch {
                        self.print_stmt(s, depth + 1, out);
                    }
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            Stmt::While { cond, body, .. } => {
                out.push_str(&format!("{pad}while{} {{\n", cond_suffix(cond)));
                for s in body {
                    self.print_stmt(s, depth + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Repeat { body, cond, .. } => {
                out.push_str(&format!("{pad}repeat{} {{\n", cond_suffix(cond)));
                for s in body {
                    self.print_stmt(s, depth + 1, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Call { proc, .. } => {
                out.push_str(&format!("{pad}call {proc};\n"));
            }
        }
    }
}

fn cond_suffix(c: &Cond) -> String {
    match c {
        Cond::Unknown => String::new(),
        Cond::Var(v) => format!(" ({v})"),
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_task_program() -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.task("alpha");
        let z = b.task("zeta");
        let go = b.signal(z, "go");
        b.body(a, |t| {
            t.send_as(go, "r");
            t.if_else(|t| { t.send(go); }, |_| {});
        });
        b.body(z, |t| {
            t.while_loop(|t| {
                t.accept(go);
            });
        });
        b.build()
    }

    #[test]
    fn builder_produces_expected_shape() {
        let p = two_task_program();
        assert_eq!(p.num_tasks(), 2);
        assert_eq!(p.num_rendezvous(), 3);
        assert!(!p.is_loop_free());
        assert!(!p.is_straight_line());
    }

    #[test]
    fn loop_and_branch_predicates() {
        let mut b = ProgramBuilder::new();
        let a = b.task("a");
        let z = b.task("z");
        let s = b.signal(z, "s");
        b.body(a, |t| {
            t.send(s);
        });
        b.body(z, |t| {
            t.accept(s);
        });
        let p = b.build();
        assert!(p.is_loop_free());
        assert!(p.is_straight_line());
    }

    #[test]
    fn rendezvous_accessors() {
        let p = two_task_program();
        let first = &p.tasks[0].body[0];
        let r = first.rendezvous().unwrap();
        assert!(r.sign.is_send());
        assert_eq!(first.label(), Some("r"));
    }

    #[test]
    fn visit_rendezvous_descends_into_structures() {
        let p = two_task_program();
        let mut labels = Vec::new();
        for t in &p.tasks {
            for s in &t.body {
                s.visit_rendezvous(&mut |r| labels.push(r.rendezvous().unwrap().sign));
            }
        }
        assert_eq!(labels.len(), 3);
    }

    #[test]
    fn pretty_print_contains_structure() {
        let p = two_task_program();
        let src = p.to_source();
        assert!(src.contains("task alpha {"));
        assert!(src.contains("send zeta.go as r;"));
        assert!(src.contains("while {"));
        assert!(src.contains("accept go;"));
    }

    #[test]
    fn from_straight_lines_roundtrips_counts() {
        let mut syms = Symbols::new();
        let t0 = syms.intern_task("x");
        let t1 = syms.intern_task("y");
        let sig = syms.intern_signal(t1, "m");
        let _ = t0;
        let p = Program::from_straight_lines(
            syms,
            vec![
                vec![(Rendezvous::send(sig), Some("a".into()))],
                vec![(Rendezvous::accept(sig), None)],
            ],
        );
        assert!(p.is_straight_line());
        assert_eq!(p.num_rendezvous(), 2);
        assert_eq!(p.tasks[0].body[0].label(), Some("a"));
    }
}
