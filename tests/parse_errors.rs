//! Every parse error the three source languages can report, pinned
//! byte for byte: one malformed input per error site of the `.iwa`,
//! `.lok` and `.chan` parsers (each expected token and each name), a
//! 65-level nest in each language and one through a `.chan` `select`.
//! Line `i` of `tests/golden/parse_errors.txt` is the `Display` of the
//! error for input `i` below.

use iwa::frontend::chan::parse_chan;
use iwa::frontend::lok::parse_lok;
use iwa::tasklang::parse;
use std::path::PathBuf;

const TASKLANG: &[&str] = &[
    // The lexer.
    "task a { / }",
    "task a { # }",
    "task ünï { → }",
    "// header\r\ntask a {\r\n\tsend b,m;\r\n}",
    "task a { send b.m; } /",
    // Declarations.
    "task",
    "task { }",
    "task a",
    "task a ;",
    "proc",
    "proc p ( )",
    "task a { } task a { }",
    "proc p { } proc p { }",
    "send b.m;",
    ";",
    "task a { send ghost.m; }",
    "task a { send b.m; }\ntask b { accept m; send c.x; }",
    // `send`.
    "task a { send ; }",
    "task a { send b m; } task b { }",
    "task a { send b.; }",
    "task a { send b.m carrying ; }",
    "task a { send b.m as ; }",
    "task t { send u.m accept m; }",
    // `accept`.
    "proc p { accept m; }",
    "task a { accept ; }",
    "task a { accept m binding ; }",
    "task a { accept m as ; }",
    "task a { accept m }",
    // `call`.
    "task a { call ; }",
    "task a { call p }",
    // Conditions and blocks.
    "task a { if ( ) { } }",
    "task a { if (x { } }",
    "task a { if ; }",
    "task a { if { } else ; }",
    "task a { while (x) ; }",
    "task a { repeat }",
    "task a { accept m;",
    "task a { // no newline",
    // Statements.
    "task a { ; }",
    "task a { { } }",
    "task a { . }",
    "task a { ( }",
    "task a { ) }",
    "task a { explode; }",
];

const LOK: &[&str] = &[
    // The lexer.
    "thread t { / }",
    "thread t { ( }",
    "thread t { lock a. }",
    "thread t {\n  lock a;\n  unlock a[0];\n}",
    // Declarations.
    "thread",
    "thread { }",
    "thread t",
    "thread t ;",
    "thread t { } thread t { }",
    "lock a;",
    "}",
    // Statements.
    "thread t { lock ; }",
    "thread t { lock a }",
    "thread t { unlock }",
    "thread t { unlock a lock b; }",
    "thread t { with { } }",
    "thread t { with a ; }",
    "thread t { if ; }",
    "thread t { if { } else ; }",
    "thread t { loop }",
    "thread t { lock a;",
    "thread t { ; }",
    "thread t { { } }",
    "thread t { explode; }",
];

const CHAN: &[&str] = &[
    // The lexer.
    "chan a; proc p { / }",
    "chan a; proc p { ( }",
    "chan a.",
    "chan c[-1];",
    // Declarations.
    "chan",
    "chan ;",
    "chan a; chan a;",
    "chan c[];",
    "chan c[x];",
    "chan c[99999999999];",
    "chan c[;",
    "chan c[4;",
    "chan c[*",
    "chan c[4]",
    "chan c proc p { }",
    "chan c{",
    "proc",
    "proc p ;",
    "proc p { } proc p { }",
    "send a;",
    "[",
    // Channel statements.
    "proc p { send a; }",
    "chan a; proc p { send ; }",
    "chan a; proc p { send a }",
    "chan a; proc p { recv b; }",
    "chan a; proc p { recv a recv a; }",
    "chan a; proc p { close ; }",
    "chan a; proc p { close a }",
    // `select`.
    "chan a; proc p { select ; }",
    "chan a; proc p { select { } }",
    "chan a;\nproc p {\n  select { default { } }\n}",
    "chan a; proc p { select { default { } recv a { } } }",
    "chan a; proc p { select { recv a { } default { } default { } } }",
    "chan a; proc p { select { close a; } }",
    "chan a; proc p { select { ; } }",
    "chan a; proc p { select { recv a ; } }",
    "chan a; proc p { select { recv b { } } }",
    "chan a; proc p { select { send { } } }",
    "chan a; proc p { select { recv a { } default ; } }",
    "chan a; proc p { select { recv a { }",
    // Blocks.
    "chan a; proc p { if ; }",
    "chan a; proc p { if { } else ; }",
    "chan a; proc p { loop ; }",
    "chan a; proc p { send a;",
    // Statements.
    "chan a; proc p { ; }",
    "chan a; proc p { { } }",
    "chan a; proc p { [ }",
    "chan a; proc p { ] }",
    "chan a; proc p { * }",
    "chan a; proc p { explode; }",
];

/// `levels` nested blocks: the declaration's body and `levels - 1`
/// `open` statements inside it, around one `inner` statement.
fn nest(decl: &str, open: &str, inner: &str, levels: usize) -> String {
    format!(
        "{decl} {{ {}{inner} {}}}",
        format!("{open} {{ ").repeat(levels - 1),
        "} ".repeat(levels - 1)
    )
}

fn rendered() -> String {
    let mut out = String::new();
    let mut push = |src: &str, err: Option<String>| {
        let err = err.unwrap_or_else(|| panic!("{src:?} parsed, want a parse error"));
        out.push_str(&err);
        out.push('\n');
    };
    let tasklang = |src: &str| parse(src).err().map(|e| e.to_string());
    let lok = |src: &str| parse_lok(src).err().map(|e| e.to_string());
    let chan = |src: &str| parse_chan(src).err().map(|e| e.to_string());
    for src in TASKLANG {
        push(src, tasklang(src));
    }
    let deep = nest("task t", "while", "accept m;", 65);
    push(&deep, tasklang(&deep));
    for src in LOK {
        push(src, lok(src));
    }
    let deep = nest("thread t", "with a", "lock b;", 65);
    push(&deep, lok(&deep));
    for src in CHAN {
        push(src, chan(src));
    }
    let deep = format!("chan a; {}", nest("proc p", "loop", "send a;", 65));
    push(&deep, chan(&deep));
    // The select itself is the 65th level ...
    let deep = format!(
        "chan a; {}",
        nest("proc p", "loop", "select { recv a { } }", 64)
    );
    push(&deep, chan(&deep));
    // ... and here the arm body inside the 64th.
    let deep = format!(
        "chan a; {}",
        nest("proc p", "loop", "select { recv a { send a; } }", 63)
    );
    push(&deep, chan(&deep));
    out
}

#[test]
fn parse_errors_match_the_golden() {
    let actual = rendered();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/parse_errors.txt");
    let want = std::fs::read_to_string(&path).expect("golden file exists");
    assert!(
        want == actual,
        "tests/golden/parse_errors.txt differs from the current parse errors; rendered:\n{actual}"
    );
}
