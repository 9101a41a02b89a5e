//! Recursive-descent parser for the `.lok` DSL.
//!
//! Grammar (whitespace-insensitive, `//` line comments):
//!
//! ```text
//! program := threaddecl*
//! threaddecl := "thread" IDENT "{" stmt* "}"
//! stmt := "lock" IDENT ";"
//!       | "unlock" IDENT ";"
//!       | "with" IDENT "{" stmt* "}"
//!       | "if" "{" stmt* "}" ["else" "{" stmt* "}"]
//!       | "loop" "{" stmt* "}"
//! ```
//!
//! Tokens, spans, the cursor and the [`MAX_NESTING_DEPTH`] recursion cap
//! come from [`iwa_core::lex`], as for the other two languages; this
//! module holds the grammar and the mutex table.

use super::ast::{LokProgram, LokStmt, Thread};
use iwa_core::lex::{Cursor, Tok};
use iwa_core::IwaError;
use std::collections::HashMap;

pub use iwa_core::lex::MAX_NESTING_DEPTH;

/// Parse `.lok` source text into a [`LokProgram`].
///
/// ```
/// let p = iwa_frontend::lok::parse_lok(r"
///     thread t1 { with a { lock b; unlock b; } }
///     thread t2 { with b { lock a; unlock a; } }
/// ").unwrap();
/// assert_eq!(p.threads.len(), 2);
/// assert_eq!(p.mutexes, ["a", "b"]);
/// ```
pub fn parse_lok(src: &str) -> Result<LokProgram, IwaError> {
    let mut cur = Cursor::new(src, "{};")?;
    let mut parser = Parser {
        mutexes: Vec::new(),
        mutex_ids: HashMap::new(),
    };
    let mut threads: Vec<Thread> = Vec::new();
    while cur.peek().tok != Tok::Eof {
        let kw = cur.advance();
        if !matches!(&kw.tok, Tok::Ident(s) if s == "thread") {
            return Err(IwaError::parse(kw.span, "expected 'thread'"));
        }
        let (name, at) = cur.ident("thread name")?;
        if threads.iter().any(|t| t.name == name) {
            return Err(IwaError::parse(
                at,
                format!("thread '{name}' declared twice"),
            ));
        }
        let body = parser.block(&mut cur)?;
        threads.push(Thread {
            name,
            body,
            span: at,
        });
    }
    Ok(LokProgram {
        threads,
        mutexes: parser.mutexes,
    })
}

struct Parser {
    mutexes: Vec<String>,
    mutex_ids: HashMap<String, usize>,
}

impl Parser {
    /// The id of the mutex named next, interned on first mention.
    fn mutex(&mut self, cur: &mut Cursor) -> Result<usize, IwaError> {
        let (name, _) = cur.ident("mutex name")?;
        if let Some(&id) = self.mutex_ids.get(&name) {
            return Ok(id);
        }
        let id = self.mutexes.len();
        self.mutexes.push(name.clone());
        self.mutex_ids.insert(name, id);
        Ok(id)
    }

    fn block(&mut self, cur: &mut Cursor) -> Result<Vec<LokStmt>, IwaError> {
        cur.block(|cur| self.stmt(cur))
    }

    fn stmt(&mut self, cur: &mut Cursor) -> Result<LokStmt, IwaError> {
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
            "lock" => {
                let mutex = self.mutex(cur)?;
                cur.expect(Tok::Semi)?;
                Ok(LokStmt::Lock { mutex, span })
            }
            "unlock" => {
                let mutex = self.mutex(cur)?;
                cur.expect(Tok::Semi)?;
                Ok(LokStmt::Unlock { mutex, span })
            }
            "with" => {
                let mutex = self.mutex(cur)?;
                let body = self.block(cur)?;
                Ok(LokStmt::With { mutex, body, span })
            }
            "if" => {
                let then_branch = self.block(cur)?;
                let else_branch = if cur.eat_kw("else") {
                    self.block(cur)?
                } else {
                    Vec::new()
                };
                Ok(LokStmt::If {
                    then_branch,
                    else_branch,
                    span,
                })
            }
            "loop" => {
                let body = self.block(cur)?;
                Ok(LokStmt::Loop { body, span })
            }
            other => Err(IwaError::parse(
                span,
                format!("unknown statement keyword '{other}' (expected lock/unlock/with/if/loop)"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program() {
        let p = parse_lok("thread t { lock a; unlock a; }").unwrap();
        assert_eq!(p.threads.len(), 1);
        assert_eq!(p.mutexes, ["a"]);
    }

    #[test]
    fn mutex_ids_are_first_mention_order() {
        let p = parse_lok(
            "thread t1 { lock b; lock a; } thread t2 { lock c; lock b; }",
        )
        .unwrap();
        assert_eq!(p.mutexes, ["b", "a", "c"]);
    }

    #[test]
    fn all_constructs_parse() {
        let p = parse_lok(
            "// guards, branches, loops
             thread t {
                 with a {
                     if { lock b; unlock b; } else { loop { lock c; unlock c; } }
                 }
             }",
        )
        .unwrap();
        assert_eq!(p.mutexes, ["a", "b", "c"]);
        match &p.threads[0].body[0] {
            LokStmt::With { mutex, body, .. } => {
                assert_eq!(*mutex, 0);
                assert!(matches!(body[0], LokStmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_thread_is_an_error() {
        let e = parse_lok("thread t { } thread t { }").unwrap_err();
        assert!(e.to_string().contains("declared twice"));
    }

    #[test]
    fn error_positions_are_reported() {
        let e = parse_lok("thread t {\n  lock a\n}").unwrap_err();
        match e {
            IwaError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_keyword_is_an_error() {
        let e = parse_lok("thread t { explode; }").unwrap_err();
        assert!(e.to_string().contains("unknown statement keyword"));
    }

    #[test]
    fn nesting_is_capped_at_tasklang_parity() {
        assert_eq!(MAX_NESTING_DEPTH, iwa_tasklang::parser::MAX_NESTING_DEPTH);
        let deep = "with a { ".repeat(MAX_NESTING_DEPTH + 1);
        let src = format!("thread t {{ {deep}");
        let e = parse_lok(&src).unwrap_err();
        assert!(e.to_string().contains("nested deeper"), "got: {e}");
        // One level under the cap parses (given matching braces).
        let ok = format!(
            "thread t {{ {}{} }}",
            "if { ".repeat(MAX_NESTING_DEPTH - 2),
            "} ".repeat(MAX_NESTING_DEPTH - 2)
        );
        parse_lok(&ok).unwrap();
    }

    #[test]
    fn empty_source_is_an_empty_program() {
        let p = parse_lok("").unwrap();
        assert!(p.threads.is_empty());
        assert!(p.mutexes.is_empty());
    }

    #[test]
    fn spans_point_at_keywords() {
        let p = parse_lok("thread t {\n  lock alpha;\n}").unwrap();
        let LokStmt::Lock { span, .. } = &p.threads[0].body[0] else {
            panic!("expected lock");
        };
        assert_eq!((span.line, span.col, span.len), (2, 3, 4));
    }
}
