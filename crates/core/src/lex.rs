//! The lexer and token cursor shared by the `.iwa`, `.lok` and `.chan`
//! parsers.
//!
//! The three languages differ only in their grammars: each passes
//! [`lex`] the punctuation it accepts and keeps its own statements and
//! symbol tables, while the tokens, their spans, the cursor and the
//! nesting guard live here once.

use crate::{IwaError, Span};
use std::fmt;

/// Maximum statement-nesting depth the parsers accept. The parsers (and
/// every downstream AST visitor) recurse per nesting level, so without a
/// cap a `while{while{while{…` soup overflows the stack — an abort no
/// caller can catch. 64 levels is far beyond any real program yet keeps
/// the whole pipeline comfortably inside even a 2 MiB test-thread stack
/// in debug builds.
pub const MAX_NESTING_DEPTH: usize = 64;

/// A token. Each language's punctuation is a subset of the one-character
/// variants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tok {
    /// A run of alphanumeric characters and `_`: names, keywords and
    /// numbers alike.
    Ident(String),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `;`
    Semi,
    /// The end of the source.
    Eof,
}

/// How parse errors name a token: `'accept'`, `';'`, `end of input`.
impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let punct = match self {
            Tok::Ident(s) => return write!(f, "'{s}'"),
            Tok::Eof => return f.write_str("end of input"),
            Tok::LBrace => '{',
            Tok::RBrace => '}',
            Tok::LParen => '(',
            Tok::RParen => ')',
            Tok::LBracket => '[',
            Tok::RBracket => ']',
            Tok::Dot => '.',
            Tok::Star => '*',
            Tok::Semi => ';',
        };
        write!(f, "'{punct}'")
    }
}

/// A token and where it starts. `span.len` is its width in characters
/// (idents: their length; punctuation: 1; EOF: 0).
#[derive(Clone, Debug)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Its position and width.
    pub span: Span,
}

/// Split `src` into tokens, ending with [`Tok::Eof`]. `//` starts a line
/// comment; any character that is not whitespace, part of an identifier
/// or one of `punctuation` fails as `unexpected character` at its
/// position. Lines and columns are 1-based and count characters.
pub fn lex(src: &str, punctuation: &str) -> Result<Vec<Spanned>, IwaError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut col = 1usize;
    let mut chars = src.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        let (tline, tcol) = (line, col);
        let at = Span::new(tline as u32, tcol as u32, 1);
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
        let tok = match c {
            c if c.is_whitespace() => continue,
            '/' if chars.next_if(|&(_, c)| c == '/').is_some() => {
                col += 1;
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        col = 1;
                        break;
                    }
                    col += 1;
                }
                continue;
            }
            '/' => return Err(IwaError::parse(at, "unexpected '/' (comments are '//')")),
            c if c.is_alphanumeric() || c == '_' => {
                let mut end = start + c.len_utf8();
                while let Some((i, c)) = chars.next_if(|&(_, c)| c.is_alphanumeric() || c == '_') {
                    end = i + c.len_utf8();
                    col += 1;
                }
                out.push(Spanned {
                    tok: Tok::Ident(src[start..end].to_owned()),
                    span: Span::new(tline as u32, tcol as u32, (col - tcol) as u32),
                });
                continue;
            }
            '{' => Some(Tok::LBrace),
            '}' => Some(Tok::RBrace),
            '(' => Some(Tok::LParen),
            ')' => Some(Tok::RParen),
            '[' => Some(Tok::LBracket),
            ']' => Some(Tok::RBracket),
            '.' => Some(Tok::Dot),
            '*' => Some(Tok::Star),
            ';' => Some(Tok::Semi),
            _ => None,
        };
        match tok {
            Some(tok) if punctuation.contains(c) => out.push(Spanned { tok, span: at }),
            _ => return Err(IwaError::parse(at, format!("unexpected character {c:?}"))),
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        span: Span::new(line as u32, col as u32, 0),
    });
    Ok(out)
}

/// A recursive-descent cursor over [`lex`]'s tokens that tracks the
/// statement-nesting depth.
pub struct Cursor {
    tokens: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl Cursor {
    /// Lex `src` (see [`lex`]) and stand at its first token.
    pub fn new(src: &str, punctuation: &str) -> Result<Cursor, IwaError> {
        Ok(Cursor {
            tokens: lex(src, punctuation)?,
            pos: 0,
            depth: 0,
        })
    }

    /// The tokens not yet taken, ending with [`Tok::Eof`].
    #[must_use]
    pub fn rest(&self) -> &[Spanned] {
        &self.tokens[self.pos..]
    }

    /// The next token.
    #[must_use]
    pub fn peek(&self) -> &Spanned {
        &self.tokens[self.pos]
    }

    /// Take the next token; at the end, [`Tok::Eof`] again and again.
    pub fn advance(&mut self) -> Spanned {
        if self.pos + 1 == self.tokens.len() {
            return self.tokens[self.pos].clone();
        }
        self.pos += 1;
        // No token is read twice, so move it out instead of cloning it.
        let taken = Spanned {
            tok: Tok::Eof,
            span: Span::DUMMY,
        };
        std::mem::replace(&mut self.tokens[self.pos - 1], taken)
    }

    /// Take the next token, which must be `want`.
    pub fn expect(&mut self, want: Tok) -> Result<(), IwaError> {
        let t = self.advance();
        if t.tok == want {
            Ok(())
        } else {
            Err(IwaError::parse(
                t.span,
                format!("expected {want}, found {}", t.tok),
            ))
        }
    }

    /// Take the next token, which must be an identifier; `what` names it
    /// in the error.
    pub fn ident(&mut self, what: &str) -> Result<(String, Span), IwaError> {
        let t = self.advance();
        match t.tok {
            Tok::Ident(s) => Ok((s, t.span)),
            other => Err(IwaError::parse(
                t.span,
                format!("expected {what}, found {other}"),
            )),
        }
    }

    /// Is the next token the keyword `kw`?
    #[must_use]
    pub fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    /// Take the next token if it is the keyword `kw`.
    pub fn eat_kw(&mut self, kw: &str) -> bool {
        let at = self.at_kw(kw);
        if at {
            self.advance();
        }
        at
    }

    /// Run `f` one statement-nesting level deeper. Past
    /// [`MAX_NESTING_DEPTH`] levels this fails at the next token instead.
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Cursor) -> Result<T, IwaError>,
    ) -> Result<T, IwaError> {
        if self.depth == MAX_NESTING_DEPTH {
            let message = format!("statements nested deeper than {MAX_NESTING_DEPTH} levels");
            return Err(IwaError::parse(self.peek().span, message));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    /// Parse `{ stmt* }` one nesting level deeper, each statement with
    /// `stmt`.
    pub fn block<T>(
        &mut self,
        mut stmt: impl FnMut(&mut Cursor) -> Result<T, IwaError>,
    ) -> Result<Vec<T>, IwaError> {
        self.expect(Tok::LBrace)?;
        self.nested(|cur| {
            let mut stmts = Vec::new();
            loop {
                let t = cur.peek();
                match t.tok {
                    Tok::RBrace => {
                        cur.advance();
                        return Ok(stmts);
                    }
                    Tok::Eof => {
                        return Err(IwaError::parse(
                            t.span,
                            "unexpected end of input (missing '}')",
                        ))
                    }
                    _ => stmts.push(stmt(cur)?),
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str, punctuation: &str) -> Vec<(Tok, (u32, u32, u32))> {
        lex(src, punctuation)
            .unwrap()
            .into_iter()
            .map(|t| (t.tok, (t.span.line, t.span.col, t.span.len)))
            .collect()
    }

    #[test]
    fn spans_count_characters_across_lines_and_comments() {
        let got = toks("ab_1 {\n  // note\n\tné;}", "{};");
        assert_eq!(
            got,
            [
                (Tok::Ident("ab_1".into()), (1, 1, 4)),
                (Tok::LBrace, (1, 6, 1)),
                (Tok::Ident("né".into()), (3, 2, 2)),
                (Tok::Semi, (3, 4, 1)),
                (Tok::RBrace, (3, 5, 1)),
                (Tok::Eof, (3, 6, 0)),
            ]
        );
    }

    #[test]
    fn punctuation_outside_the_language_is_an_unexpected_character() {
        assert_eq!(toks("[", "[")[0].0, Tok::LBracket);
        let e = lex("a [", "{};").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at 1:3: unexpected character '['"
        );
        let e = lex("a / b", "{};").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at 1:3: unexpected '/' (comments are '//')"
        );
    }

    #[test]
    fn tokens_display_as_source_text() {
        assert_eq!(Tok::Ident("accept".into()).to_string(), "'accept'");
        assert_eq!(Tok::Semi.to_string(), "';'");
        assert_eq!(Tok::Eof.to_string(), "end of input");
        let mut cur = Cursor::new("a }", "{}").unwrap();
        let e = cur.expect(Tok::LBrace).unwrap_err();
        assert_eq!(e.to_string(), "parse error at 1:1: expected '{', found 'a'");
        let e = cur.ident("name").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at 1:3: expected name, found '}'"
        );
    }

    #[test]
    fn advance_stops_at_eof() {
        let mut cur = Cursor::new("a", "").unwrap();
        assert_eq!(cur.advance().tok, Tok::Ident("a".into()));
        assert_eq!(cur.advance().tok, Tok::Eof);
        assert_eq!(cur.advance().tok, Tok::Eof);
        assert_eq!(cur.rest().len(), 1);
    }

    #[test]
    fn blocks_nest_up_to_the_cap() {
        fn nest(cur: &mut Cursor) -> Result<usize, IwaError> {
            Ok(cur.block(nest)?.first().map_or(1, |d| d + 1))
        }
        let src = |levels| format!("{}{}", "{".repeat(levels), "}".repeat(levels));
        let mut cur = Cursor::new(&src(MAX_NESTING_DEPTH), "{}").unwrap();
        assert_eq!(nest(&mut cur).unwrap(), MAX_NESTING_DEPTH);
        let mut cur = Cursor::new(&src(MAX_NESTING_DEPTH + 1), "{}").unwrap();
        let e = nest(&mut cur).unwrap_err();
        assert!(e.to_string().contains("nested deeper than 64"), "{e}");
    }
}
