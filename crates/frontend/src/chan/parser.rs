//! Recursive-descent parser for the `.chan` DSL.
//!
//! Grammar (whitespace-insensitive, `//` line comments):
//!
//! ```text
//! program := (chandecl | procdecl)*
//! chandecl := "chan" IDENT ["[" (NUMBER | "*") "]"] ";"
//! procdecl := "proc" IDENT "{" stmt* "}"
//! stmt := "send" IDENT ";"
//!       | "recv" IDENT ";"
//!       | "close" IDENT ";"
//!       | "select" "{" arm+ ["default" "{" stmt* "}"] "}"
//!       | "if" "{" stmt* "}" ["else" "{" stmt* "}"]
//!       | "loop" "{" stmt* "}"
//! arm := ("send" | "recv") IDENT "{" stmt* "}"
//! ```
//!
//! Channels must be declared before use (declarations carry the
//! capacity the blocking analysis depends on, so there is no sensible
//! implicit default). Tokens, spans, the cursor and the
//! [`MAX_NESTING_DEPTH`] recursion cap come from [`iwa_core::lex`], as
//! for the other two languages; this module holds the grammar and the
//! channel table.

use super::ast::{Capacity, ChanDecl, ChanProgram, ChanStmt, Dir, Proc, SelectArm};
use iwa_core::lex::{Cursor, Spanned, Tok};
use iwa_core::IwaError;
use std::collections::HashMap;
use std::num::IntErrorKind;

pub use iwa_core::lex::MAX_NESTING_DEPTH;

/// Parse `.chan` source text into a [`ChanProgram`].
///
/// ```
/// let p = iwa_frontend::chan::parse_chan(r"
///     chan a;
///     chan q[4];
///     proc p1 { send a; recv q; }
///     proc p2 { recv a; send q; }
/// ").unwrap();
/// assert_eq!(p.procs.len(), 2);
/// assert_eq!(p.chans.len(), 2);
/// ```
pub fn parse_chan(src: &str) -> Result<ChanProgram, IwaError> {
    let mut cur = Cursor::new(src, "{}[]*;")?;
    let mut parser = Parser {
        chans: Vec::new(),
        chan_ids: HashMap::new(),
    };
    let mut procs: Vec<Proc> = Vec::new();
    while cur.peek().tok != Tok::Eof {
        let kw = cur.advance();
        match &kw.tok {
            Tok::Ident(s) if s == "chan" => {
                let (name, at) = cur.ident("channel name")?;
                if parser.chan_ids.contains_key(&name) {
                    return Err(IwaError::parse(
                        at,
                        format!("channel '{name}' declared twice"),
                    ));
                }
                let capacity = capacity(&mut cur)?;
                cur.expect(Tok::Semi)?;
                parser.chan_ids.insert(name.clone(), parser.chans.len());
                parser.chans.push(ChanDecl {
                    name,
                    capacity,
                    span: at,
                });
            }
            Tok::Ident(s) if s == "proc" => {
                let (name, at) = cur.ident("process name")?;
                if procs.iter().any(|p| p.name == name) {
                    return Err(IwaError::parse(
                        at,
                        format!("process '{name}' declared twice"),
                    ));
                }
                let body = parser.block(&mut cur)?;
                procs.push(Proc {
                    name,
                    body,
                    span: at,
                });
            }
            _ => return Err(IwaError::parse(kw.span, "expected 'chan' or 'proc'")),
        }
    }
    Ok(ChanProgram {
        chans: parser.chans,
        procs,
    })
}

/// Parse an optional `[NUMBER]` / `[*]` capacity suffix.
fn capacity(cur: &mut Cursor) -> Result<Capacity, IwaError> {
    if cur.peek().tok != Tok::LBracket {
        return Ok(Capacity::Rendezvous);
    }
    cur.advance();
    let t = cur.advance();
    let cap = match &t.tok {
        Tok::Star => Some(Capacity::Unbounded),
        Tok::Ident(s) => match s.parse::<u32>() {
            Ok(0) => Some(Capacity::Rendezvous),
            Ok(n) => Some(Capacity::Bounded(n)),
            Err(e) if *e.kind() == IntErrorKind::PosOverflow => {
                let message = format!("buffer size {s} is too large (at most {})", u32::MAX);
                return Err(IwaError::parse(t.span, message));
            }
            Err(_) => None,
        },
        _ => None,
    };
    let Some(cap) = cap else {
        let message = format!("expected a buffer size or '*', found {}", t.tok);
        return Err(IwaError::parse(t.span, message));
    };
    cur.expect(Tok::RBracket)?;
    Ok(cap)
}

struct Parser {
    chans: Vec<ChanDecl>,
    chan_ids: HashMap<String, usize>,
}

impl Parser {
    /// Look up a channel used in a statement. Unlike `.lok` mutexes,
    /// channels are not interned on first use: the capacity lives on the
    /// declaration, so using an undeclared channel is an error.
    fn chan(&self, cur: &mut Cursor) -> Result<usize, IwaError> {
        let (name, at) = cur.ident("channel name")?;
        match self.chan_ids.get(&name) {
            Some(&id) => Ok(id),
            None => Err(IwaError::parse(
                at,
                format!("channel '{name}' used before declaration (declare with 'chan {name};')"),
            )),
        }
    }

    fn block(&self, cur: &mut Cursor) -> Result<Vec<ChanStmt>, IwaError> {
        cur.block(|cur| self.stmt(cur))
    }

    fn stmt(&self, cur: &mut Cursor) -> Result<ChanStmt, IwaError> {
        let t = cur.advance();
        let span = t.span;
        let kw = match &t.tok {
            Tok::Ident(s) => s.as_str(),
            other => {
                let message = format!("expected a statement, found {other}");
                return Err(IwaError::parse(span, message));
            }
        };
        match kw {
            "send" | "recv" | "close" => {
                let chan = self.chan(cur)?;
                cur.expect(Tok::Semi)?;
                Ok(match kw {
                    "send" => ChanStmt::Send { chan, span },
                    "recv" => ChanStmt::Recv { chan, span },
                    _ => ChanStmt::Close { chan, span },
                })
            }
            "select" => {
                cur.expect(Tok::LBrace)?;
                cur.nested(|cur| self.select(cur, &t))
            }
            "if" => {
                let then_branch = self.block(cur)?;
                let else_branch = if cur.eat_kw("else") {
                    self.block(cur)?
                } else {
                    Vec::new()
                };
                Ok(ChanStmt::If {
                    then_branch,
                    else_branch,
                    span,
                })
            }
            "loop" => {
                let body = self.block(cur)?;
                Ok(ChanStmt::Loop { body, span })
            }
            other => Err(IwaError::parse(
                span,
                format!(
                    "unknown statement keyword '{other}' \
                     (expected send/recv/close/select/if/loop)"
                ),
            )),
        }
    }

    /// Parse the arms of the select `kw` until the closing `}`
    /// (consumed). The opening `{` has already been eaten.
    fn select(&self, cur: &mut Cursor, kw: &Spanned) -> Result<ChanStmt, IwaError> {
        let mut arms: Vec<SelectArm> = Vec::new();
        let mut default_body: Option<Vec<ChanStmt>> = None;
        loop {
            let t = cur.advance();
            match &t.tok {
                Tok::RBrace => break,
                Tok::Ident(s) if s == "send" || s == "recv" => {
                    if default_body.is_some() {
                        return Err(IwaError::parse(
                            t.span,
                            "select arms must precede 'default'",
                        ));
                    }
                    let dir = if s == "send" { Dir::Send } else { Dir::Recv };
                    let chan = self.chan(cur)?;
                    let body = self.block(cur)?;
                    arms.push(SelectArm {
                        dir,
                        chan,
                        body,
                        span: t.span,
                    });
                }
                Tok::Ident(s) if s == "default" => {
                    if default_body.is_some() {
                        return Err(IwaError::parse(t.span, "select has two 'default' arms"));
                    }
                    default_body = Some(self.block(cur)?);
                }
                other => {
                    let message =
                        format!("expected a select arm (send/recv/default), found {other}");
                    return Err(IwaError::parse(t.span, message));
                }
            }
        }
        if arms.is_empty() {
            return Err(IwaError::parse(
                kw.span,
                "select needs at least one send/recv arm",
            ));
        }
        Ok(ChanStmt::Select {
            arms,
            default_body,
            span: kw.span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program() {
        let p = parse_chan("chan a; proc p { send a; }").unwrap();
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.chans.len(), 1);
        assert_eq!(p.chans[0].capacity, Capacity::Rendezvous);
    }

    #[test]
    fn capacities_parse() {
        let p = parse_chan("chan a; chan b[4]; chan c[*]; chan d[0]; proc p { }").unwrap();
        assert_eq!(p.chans[0].capacity, Capacity::Rendezvous);
        assert_eq!(p.chans[1].capacity, Capacity::Bounded(4));
        assert_eq!(p.chans[2].capacity, Capacity::Unbounded);
        assert_eq!(p.chans[3].capacity, Capacity::Rendezvous, "[0] is rendezvous");
    }

    #[test]
    fn a_size_past_u32_max_is_too_large_not_missing() {
        let max = parse_chan("chan c[4294967295]; proc p { }").unwrap();
        assert_eq!(max.chans[0].capacity, Capacity::Bounded(u32::MAX));
        let e = parse_chan("chan c[4294967296]; proc p { }").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at 1:8: buffer size 4294967296 is too large (at most 4294967295)"
        );
        let e = parse_chan("chan c[4x]; proc p { }").unwrap_err();
        assert!(
            e.to_string().contains("expected a buffer size or '*'"),
            "{e}"
        );
    }

    #[test]
    fn channel_ids_are_declaration_order() {
        let p = parse_chan("chan b; chan a; proc p { send a; recv b; }").unwrap();
        let names: Vec<&str> = p.chans.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["b", "a"]);
        match &p.procs[0].body[0] {
            ChanStmt::Send { chan, .. } => assert_eq!(*chan, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undeclared_channel_is_an_error() {
        let e = parse_chan("proc p { send a; }").unwrap_err();
        assert!(e.to_string().contains("used before declaration"), "{e}");
    }

    #[test]
    fn all_constructs_parse() {
        let p = parse_chan(
            "// channels, selects, branches, loops
             chan a; chan b[2];
             proc p {
                 loop {
                     select {
                         recv a { send b; }
                         send b { }
                         default { if { close a; } else { } }
                     }
                 }
             }",
        )
        .unwrap();
        let ChanStmt::Loop { body, .. } = &p.procs[0].body[0] else {
            panic!("expected loop");
        };
        let ChanStmt::Select {
            arms, default_body, ..
        } = &body[0]
        else {
            panic!("expected select");
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].dir, Dir::Recv);
        assert_eq!(arms[1].dir, Dir::Send);
        assert!(default_body.is_some());
    }

    #[test]
    fn duplicate_declarations_are_errors() {
        let e = parse_chan("chan a; chan a;").unwrap_err();
        assert!(e.to_string().contains("declared twice"));
        let e = parse_chan("proc p { } proc p { }").unwrap_err();
        assert!(e.to_string().contains("declared twice"));
    }

    #[test]
    fn select_needs_an_arm() {
        let e = parse_chan("chan a; proc p { select { default { } } }").unwrap_err();
        assert!(e.to_string().contains("at least one"), "{e}");
    }

    #[test]
    fn select_default_must_be_last() {
        let e = parse_chan(
            "chan a; proc p { select { default { } recv a { } } }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("must precede"), "{e}");
        let e = parse_chan(
            "chan a; proc p { select { recv a { } default { } default { } } }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("two 'default'"), "{e}");
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_chan("chan a;\nproc p {\n  send a\n}").unwrap_err();
        match e {
            IwaError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn nesting_is_capped_at_tasklang_parity() {
        assert_eq!(MAX_NESTING_DEPTH, iwa_tasklang::parser::MAX_NESTING_DEPTH);
        let deep = "loop { ".repeat(MAX_NESTING_DEPTH + 1);
        let src = format!("proc p {{ {deep}");
        let e = parse_chan(&src).unwrap_err();
        assert!(e.to_string().contains("nested deeper"), "got: {e}");
        // One level under the cap parses (given matching braces).
        let ok = format!(
            "proc p {{ {}{} }}",
            "if { ".repeat(MAX_NESTING_DEPTH - 2),
            "} ".repeat(MAX_NESTING_DEPTH - 2)
        );
        parse_chan(&ok).unwrap();
    }

    #[test]
    fn empty_source_is_an_empty_program() {
        let p = parse_chan("").unwrap();
        assert!(p.procs.is_empty());
        assert!(p.chans.is_empty());
    }

    #[test]
    fn spans_point_at_keywords() {
        let p = parse_chan("chan alpha;\nproc p {\n  recv alpha;\n}").unwrap();
        let ChanStmt::Recv { span, .. } = &p.procs[0].body[0] else {
            panic!("expected recv");
        };
        assert_eq!((span.line, span.col, span.len), (3, 3, 4));
    }
}
