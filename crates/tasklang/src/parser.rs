//! Recursive-descent parser for the `.iwa` DSL.
//!
//! Grammar (whitespace-insensitive, `//` line comments):
//!
//! ```text
//! program := (taskdecl | procdecl)*
//! taskdecl := "task" IDENT "{" stmt* "}"
//! procdecl := "proc" IDENT "{" stmt* "}"
//! stmt := "send" IDENT "." IDENT ["carrying" IDENT] ["as" IDENT] ";"
//!       | "accept" IDENT ["binding" IDENT] ["as" IDENT] ";"
//!       | "call" IDENT ";"
//!       | "if" [cond] "{" stmt* "}" ["else" "{" stmt* "}"]
//!       | "while" [cond] "{" stmt* "}"
//!       | "repeat" [cond] "{" stmt* "}"
//! cond := "(" IDENT ")"
//! ```
//!
//! `send consumer.item` calls entry `item` of task `consumer`; `accept item`
//! accepts that entry inside `consumer`'s own declaration. A parenthesised
//! condition names an *encapsulated boolean variable* (§5.1); without one
//! the branch is opaque. `as r` attaches the source label the paper's
//! figures use to name rendezvous points.
//!
//! Tokens, spans, the cursor and the [`MAX_NESTING_DEPTH`] recursion cap
//! come from [`iwa_core::lex`], as for `.lok` and `.chan`; this module
//! holds the grammar and the symbol tables.

use crate::ast::{Cond, Procedure, Program, Stmt, Task};
use iwa_core::lex::{Cursor, Tok};
use iwa_core::{IwaError, Span, Symbols, TaskId};
use std::collections::HashSet;

pub use iwa_core::lex::MAX_NESTING_DEPTH;

/// Parse `.iwa` source text into a [`Program`].
///
/// All referenced tasks must be declared somewhere in the same source;
/// forward references are fine.
///
/// ```
/// let p = iwa_tasklang::parse(r"
///     task ping { send pong.serve; }
///     task pong { accept serve; }
/// ").unwrap();
/// assert_eq!(p.num_tasks(), 2);
/// ```
pub fn parse(src: &str) -> Result<Program, IwaError> {
    let mut cur = Cursor::new(src, "{}();.")?;
    Parser {
        symbols: Symbols::new(),
        declared: HashSet::new(),
        referenced: Vec::new(),
    }
    .program(&mut cur)
}

struct Parser {
    symbols: Symbols,
    declared: HashSet<TaskId>,
    /// Every task mention and where it is, re-checked at the end.
    referenced: Vec<(TaskId, Span)>,
}

/// Whose body are we parsing? Procedures may not `accept`.
#[derive(Clone, Copy)]
enum Ctx {
    Task(TaskId),
    Proc,
}

/// `kw IDENT` when the next token is `kw`; `what` names the identifier.
fn tagged(cur: &mut Cursor, kw: &str, what: &str) -> Result<Option<String>, IwaError> {
    if !cur.eat_kw(kw) {
        return Ok(None);
    }
    Ok(Some(cur.ident(what)?.0))
}

impl Parser {
    fn program(mut self, cur: &mut Cursor) -> Result<Program, IwaError> {
        // Pre-pass: intern tasks in *declaration* order, so task ids are
        // stable under print → parse round-trips even when a body
        // forward-references a later task.
        let mut depth = 0usize;
        for pair in cur.rest().windows(2) {
            match (&pair[0].tok, &pair[1].tok) {
                (Tok::LBrace, _) => depth += 1,
                (Tok::RBrace, _) => depth = depth.saturating_sub(1),
                (Tok::Ident(kw), Tok::Ident(name)) if depth == 0 && kw == "task" => {
                    self.symbols.intern_task(name);
                }
                _ => {}
            }
        }
        // Bodies keyed by task id; tasks may be referenced before declared.
        let mut bodies: Vec<Option<Vec<Stmt>>> = Vec::new();
        let mut decl_spans: Vec<Span> = Vec::new();
        let mut procs: Vec<Procedure> = Vec::new();
        while cur.peek().tok != Tok::Eof {
            let kw = cur.advance();
            match &kw.tok {
                Tok::Ident(s) if s == "task" => {
                    let (name, at) = cur.ident("task name")?;
                    let id = self.symbols.intern_task(&name);
                    if !self.declared.insert(id) {
                        return Err(IwaError::parse(at, format!("task '{name}' declared twice")));
                    }
                    let body = self.block(cur, Ctx::Task(id))?;
                    while bodies.len() <= id.index() {
                        bodies.push(None);
                        decl_spans.push(Span::DUMMY);
                    }
                    bodies[id.index()] = Some(body);
                    decl_spans[id.index()] = at;
                }
                Tok::Ident(s) if s == "proc" => {
                    let (name, at) = cur.ident("procedure name")?;
                    if procs.iter().any(|p| p.name == name) {
                        return Err(IwaError::parse(at, format!("proc '{name}' declared twice")));
                    }
                    let body = self.block(cur, Ctx::Proc)?;
                    procs.push(Procedure {
                        name,
                        body,
                        span: at,
                    });
                }
                _ => return Err(IwaError::parse(kw.span, "expected 'task' or 'proc'")),
            }
        }
        // Verify referenced tasks were declared.
        for &(id, at) in &self.referenced {
            if !self.declared.contains(&id) {
                let name = self.symbols.task_name(id);
                return Err(IwaError::parse(
                    at,
                    format!("task '{name}' is referenced but never declared"),
                ));
            }
        }
        let tasks = bodies
            .into_iter()
            .enumerate()
            .map(|(i, b)| Task {
                id: TaskId(i as u32),
                body: b.unwrap_or_default(),
                span: decl_spans.get(i).copied().unwrap_or(Span::DUMMY),
            })
            .collect();
        Ok(Program {
            symbols: self.symbols,
            tasks,
            procs,
        })
    }

    fn block(&mut self, cur: &mut Cursor, ctx: Ctx) -> Result<Vec<Stmt>, IwaError> {
        cur.block(|cur| self.stmt(cur, ctx))
    }

    fn cond(cur: &mut Cursor) -> Result<Cond, IwaError> {
        if cur.peek().tok != Tok::LParen {
            return Ok(Cond::Unknown);
        }
        cur.advance();
        let (v, _) = cur.ident("condition variable")?;
        cur.expect(Tok::RParen)?;
        Ok(Cond::Var(v))
    }

    fn stmt(&mut self, cur: &mut Cursor, ctx: Ctx) -> Result<Stmt, IwaError> {
        let t = cur.advance();
        let span = t.span;
        let kw = match t.tok {
            Tok::Ident(s) => s,
            other => {
                let message = format!("expected a statement, found {other}");
                return Err(IwaError::parse(span, message));
            }
        };
        match kw.as_str() {
            "send" => {
                let (task_name, at) = cur.ident("target task")?;
                let target = self.symbols.intern_task(&task_name);
                self.referenced.push((target, at));
                cur.expect(Tok::Dot)?;
                let (msg, _) = cur.ident("message name")?;
                let signal = self.symbols.intern_signal(target, &msg);
                let carrying = tagged(cur, "carrying", "carried variable")?;
                let label = tagged(cur, "as", "label")?;
                cur.expect(Tok::Semi)?;
                Ok(Stmt::Send {
                    signal,
                    carrying,
                    label,
                    span,
                })
            }
            "accept" => {
                let Ctx::Task(current) = ctx else {
                    return Err(IwaError::parse(
                        span,
                        "accept statements are not allowed in procedures (Ada: \
                         accepts belong to the owning task's body)",
                    ));
                };
                let (msg, _) = cur.ident("message name")?;
                let signal = self.symbols.intern_signal(current, &msg);
                let binding = tagged(cur, "binding", "bound variable")?;
                let label = tagged(cur, "as", "label")?;
                cur.expect(Tok::Semi)?;
                Ok(Stmt::Accept {
                    signal,
                    binding,
                    label,
                    span,
                })
            }
            "call" => {
                let (proc, _) = cur.ident("procedure name")?;
                cur.expect(Tok::Semi)?;
                Ok(Stmt::Call { proc, span })
            }
            "if" => {
                let cond = Self::cond(cur)?;
                let then_branch = self.block(cur, ctx)?;
                let else_branch = if cur.eat_kw("else") {
                    self.block(cur, ctx)?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    span,
                })
            }
            "while" => {
                let cond = Self::cond(cur)?;
                let body = self.block(cur, ctx)?;
                Ok(Stmt::While { cond, body, span })
            }
            "repeat" => {
                let cond = Self::cond(cur)?;
                let body = self.block(cur, ctx)?;
                Ok(Stmt::Repeat { body, cond, span })
            }
            other => Err(IwaError::parse(
                span,
                format!(
                    "unknown statement keyword '{other}' (expected send/accept/call/if/while/repeat)"
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program() {
        let p = parse("task a { send b.m; } task b { accept m; }").unwrap();
        assert_eq!(p.num_tasks(), 2);
        assert_eq!(p.num_rendezvous(), 2);
        assert!(p.is_straight_line());
    }

    #[test]
    fn forward_reference_is_fine() {
        let p = parse("task first { send second.go; } task second { accept go; }").unwrap();
        assert_eq!(p.symbols.task_name(p.tasks[1].id), "second");
    }

    #[test]
    fn undeclared_task_is_an_error() {
        let e = parse("task a { send ghost.m; }").unwrap_err();
        assert!(e.to_string().contains("ghost"));
    }

    #[test]
    fn duplicate_task_is_an_error() {
        let e = parse("task a { } task a { }").unwrap_err();
        assert!(e.to_string().contains("declared twice"));
    }

    #[test]
    fn full_syntax_round_trip() {
        let src = r"
            // producer/consumer with all constructs
            task producer {
                while {
                    send consumer.item carrying flag as p1;
                }
            }
            task consumer {
                repeat {
                    accept item binding flag as c1;
                    if (flag) {
                        accept item;
                    } else {
                        send producer.ack;
                    }
                }
            }
            task producer_helper { accept ack; }
        ";
        // `send producer.ack` declares signal ack on producer, so the accept
        // must live in producer; adjust: use a dedicated task instead.
        let src = src.replace("send producer.ack;", "send producer_helper.ack;");
        let p = parse(&src).unwrap();
        let printed = p.to_source();
        let p2 = parse(&printed).unwrap();
        assert_eq!(p2.to_source(), printed, "print→parse→print is stable");
        assert_eq!(p.num_rendezvous(), p2.num_rendezvous());
        assert!(!p.is_loop_free());
    }

    #[test]
    fn labels_and_conditions_survive() {
        let p = parse(
            "task a { if (v) { send b.m as inner; } } task b { accept m; }",
        )
        .unwrap();
        match &p.tasks[0].body[0] {
            Stmt::If { cond, then_branch, .. } => {
                assert_eq!(cond, &Cond::Var("v".into()));
                assert_eq!(then_branch[0].label(), Some("inner"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse("// header\ntask a { // inline\n }").unwrap();
        assert_eq!(p.num_tasks(), 1);
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse("task a {\n  send b,m;\n} task b {}").unwrap_err();
        match e {
            IwaError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keywords_cannot_start_statements() {
        let e = parse("task a { explode; }").unwrap_err();
        assert!(e.to_string().contains("unknown statement keyword"));
    }

    #[test]
    fn empty_source_is_an_empty_program() {
        let p = parse("").unwrap();
        assert_eq!(p.num_tasks(), 0);
    }
}
