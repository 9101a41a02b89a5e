//! Every registered lint fires on a minimal trigger program, and a clean
//! program produces zero diagnostics.

use iwa_analysis::AnalysisCtx;
use iwa_lint::{has_denials, registry, run_lints, Diagnostic, LintConfig, Severity};
use iwa_tasklang::parse;

fn lint(src: &str) -> Vec<Diagnostic> {
    let p = parse(src).unwrap();
    run_lints(
        &AnalysisCtx::builder().build(),
        &p,
        &LintConfig::default(),
        &registry(),
    )
    .unwrap()
}

fn names(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.lint.as_str()).collect()
}

#[test]
fn clean_program_has_zero_diagnostics() {
    let diags = lint("task a { send b.m; } task b { accept m; }");
    assert!(diags.is_empty(), "clean program flagged: {diags:?}");
}

#[test]
fn self_send_fires_with_the_send_keyword_span() {
    let diags = lint("task a { send a.m; accept m; }");
    let d = diags.iter().find(|d| d.lint == "self-send").unwrap();
    assert_eq!((d.span.line, d.span.col, d.span.len), (1, 10, 4));
    assert!(d.message.contains("task 'a' sends signal 'a.m' to itself"));
}

#[test]
fn unmatched_signal_fires_on_the_send_site() {
    let diags = lint("task a { send b.m; } task b { }");
    let d = diags.iter().find(|d| d.lint == "unmatched-signal").unwrap();
    assert!(d.message.contains("sent but never accepted"));
    assert_eq!(d.span.line, 1);
    assert!(names(&diags).contains(&"silent-task"), "b is silent too");
}

#[test]
fn entry_never_called_fires_on_the_accept_site() {
    let diags = lint("task a { send b.x; } task b { accept x; accept m; }");
    let d = diags.iter().find(|d| d.lint == "entry-never-called").unwrap();
    assert!(d.message.contains("'b.m' is accepted but never called"));
}

#[test]
fn silent_task_fires_on_the_task_declaration() {
    let diags = lint("task quiet { } task a { send b.m; } task b { accept m; }");
    let d = diags.iter().find(|d| d.lint == "silent-task").unwrap();
    assert!(d.message.contains("'quiet'"));
    assert_eq!((d.span.line, d.span.col, d.span.len), (1, 6, 5));
}

#[test]
fn never_started_task_fires_when_every_entry_path_is_dead() {
    let diags = lint("task a { send b.go; } task b { accept nostart; accept go; }");
    let d = diags.iter().find(|d| d.lint == "never-started-task").unwrap();
    assert!(d.message.contains("task 'b' can never start"));
}

#[test]
fn never_started_task_spares_skippable_and_startable_tasks() {
    // The accept is behind a conditional: a rendezvous-free path exists.
    let diags = lint("task a { } task b { if { accept m; } }");
    assert!(!names(&diags).contains(&"never-started-task"));
}

#[test]
fn unreachable_statement_fires_after_a_wait_that_cannot_complete() {
    let diags = lint("task a { send a.m; send b.x; accept m; } task b { accept x; }");
    let d = diags
        .iter()
        .find(|d| d.lint == "unreachable-statement")
        .unwrap();
    assert!(d.message.contains("the send at 1:10 can never complete"));
    assert_eq!((d.span.line, d.span.col), (1, 20));
}

#[test]
fn self_rendezvous_cycle_sees_through_procedure_inlining() {
    // The send hides in a procedure, so the AST-level self-send lint
    // cannot attribute it; the inlined sync graph can.
    let diags = lint("proc p { send t.m; } task t { call p; accept m; }");
    assert!(names(&diags).contains(&"self-rendezvous-cycle"));
    assert!(!names(&diags).contains(&"self-send"));
}

#[test]
fn always_stalling_wait_points_at_the_first_site_of_the_signal() {
    let diags = lint("task a { send b.m; send b.m; } task b { accept m; }");
    let d = diags
        .iter()
        .find(|d| d.lint == "always-stalling-wait")
        .unwrap();
    assert!(d.message.contains("'b.m'"), "{}", d.message);
    assert!(d.span.is_real());
}

#[test]
fn deadlock_head_is_deny_by_default_and_spans_survive_unrolling() {
    let src = "task t1 { while { send t2.a; accept b; } }\n\
               task t2 { while { send t1.b; accept a; } }\n";
    let diags = lint(src);
    let heads: Vec<_> = diags.iter().filter(|d| d.lint == "deadlock-head").collect();
    assert!(!heads.is_empty(), "crossed rendezvous must flag: {diags:?}");
    assert!(has_denials(&diags));
    for d in &heads {
        assert!(
            d.span.is_real(),
            "unrolled-copy findings must map back to source: {d:?}"
        );
        assert!(d.span.line <= 2, "span inside the original two lines");
    }
}

#[test]
fn transform_copies_dedup_to_one_finding_per_source_site() {
    // Two unrolled copies of the loop body share the original spans, so
    // each flagged head appears exactly once per (site, message).
    let src = "task t1 { while { send t2.a; accept b; } }\n\
               task t2 { while { send t1.b; accept a; } }\n";
    let diags = lint(src);
    let mut keys: Vec<_> = diags
        .iter()
        .map(|d| (d.lint.clone(), d.span, d.message.clone()))
        .collect();
    keys.sort();
    let mut deduped = keys.clone();
    deduped.dedup();
    assert_eq!(keys, deduped, "duplicate findings leaked: {diags:?}");
}

#[test]
fn severity_overrides_and_deny_warnings_change_the_outcome() {
    let p = parse("task a { send a.m; accept m; }").unwrap();
    let ctx = AnalysisCtx::builder().build();

    let allow_all = LintConfig {
        levels: registry()
            .iter()
            .map(|l| (l.name.to_owned(), Severity::Allow))
            .collect(),
        deny_warnings: false,
    };
    assert!(run_lints(&ctx, &p, &allow_all, &registry()).unwrap().is_empty());

    let deny = LintConfig {
        levels: vec![("deadlock-head".to_owned(), Severity::Allow)],
        deny_warnings: true,
    };
    let diags = run_lints(&ctx, &p, &deny, &registry()).unwrap();
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.severity == Severity::Deny));
    assert!(!names(&diags).contains(&"deadlock-head"));
}

#[test]
fn lint_output_is_deterministic_across_worker_counts() {
    let src = "task t1 { while { send t2.a; accept b; } }\n\
               task t2 { while { send t1.b; accept a; } }\n\
               task quiet { }\n";
    let p = parse(src).unwrap();
    let cfg = LintConfig::default();
    let base = run_lints(&AnalysisCtx::builder().workers(1).build(), &p, &cfg, &registry()).unwrap();
    for workers in [2, 8] {
        let other =
            run_lints(&AnalysisCtx::builder().workers(workers).build(), &p, &cfg, &registry()).unwrap();
        assert_eq!(base, other, "-j {workers} diverged");
    }
}

#[test]
fn invalid_programs_are_errors_not_lints() {
    // An accept outside the signal's receiving task violates the model.
    let mut b = iwa_tasklang::ProgramBuilder::new();
    let a = b.task("a");
    let z = b.task("z");
    let sig = b.signal(z, "m");
    b.body(a, |t| {
        t.accept(sig);
    });
    b.body(z, |t| {
        t.send(sig);
    });
    let p = b.build();
    assert!(run_lints(&AnalysisCtx::builder().build(), &p, &LintConfig::default(), &registry()).is_err());
}
