//! End-to-end tests of the `iwa` binary.

use std::process::Command;

fn iwa(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_iwa"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn help_prints_usage() {
    let (out, _, code) = iwa(&["help"]);
    assert_eq!(code, Some(0));
    assert!(out.contains("USAGE"));
}

#[test]
fn unknown_subcommands_are_usage_errors() {
    let (out, err, code) = iwa(&["serve-bench", "--smoke"]);
    assert_eq!(code, Some(2), "stdout: {out}\nstderr: {err}");
    assert!(err.contains("unknown subcommand 'serve-bench'"), "{err}");
    assert!(out.is_empty(), "{out}");
}

#[test]
fn fixtures_are_listed() {
    let (out, _, code) = iwa(&["fixtures"]);
    assert_eq!(code, Some(0));
    assert!(out.contains("fixture:fig1"));
    assert!(out.contains("fixture:fig2b"));
}

#[test]
fn analyzing_a_clean_fixture_exits_zero() {
    // lemma2 is deadlock-flagged at base tier, but the pair tier plus the
    // balanced counts make it fully clean.
    let (out, _, code) = iwa(&["analyze", "fixture:lemma2", "--start", "pairs"]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("verdict   : clean (rung 'pairs')"), "{out}");
    assert!(!out.contains("flagged"), "{out}");
}

#[test]
fn analyzing_a_deadlock_exits_nonzero_and_names_heads() {
    // The default oracle rung names the deadlocked wave and the schedule
    // that reaches it: none, the crossed sends wedge at once.
    let (out, _, code) = iwa(&["analyze", "fixture:fig2b"]);
    assert_eq!(code, Some(1), "{out}");
    assert!(
        out.contains("verdict   : anomalous (rung 'oracle')"),
        "{out}"
    );
    assert!(
        out.contains("flagged   : deadlock set: t1:sa, t2:sb; schedule: stuck from the start"),
        "{out}"
    );
    // The refined rungs name the flagged heads.
    let (out, _, code) = iwa(&["analyze", "fixture:fig2b", "--start", "heads"]);
    assert_eq!(code, Some(1), "{out}");
    assert!(
        out.contains("flagged   : potential deadlock: head t1:sa"),
        "{out}"
    );
}

#[test]
fn json_output_is_valid_json() {
    let (out, _, code) = iwa(&["analyze", "fixture:fig2b", "--json"]);
    assert_eq!(code, Some(1));
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    assert_eq!(v["verdict"], "Anomalous");
    assert_eq!(v["rung"], "Oracle");
    assert_eq!(
        v["meta"]["metrics"]["sg_nodes"], 6,
        "b, e and 2 tasks × 2 rendezvous"
    );
}

#[test]
fn graph_outputs_dot() {
    let (out, _, code) = iwa(&["graph", "fixture:fig1"]);
    assert_eq!(code, Some(0));
    assert!(out.starts_with("digraph sync_graph"));
    let (out, _, _) = iwa(&["graph", "fixture:fig1", "--clg"]);
    assert!(out.starts_with("digraph clg"));
}

#[test]
fn file_input_works() {
    let dir = std::env::temp_dir().join("iwa_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.iwa");
    std::fs::write(&path, "task a { send b.m; } task b { accept m; }").unwrap();
    let (out, err, code) = iwa(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("verdict   : clean (rung 'oracle')"), "{out}");
}

#[test]
fn unknown_fixture_is_a_clean_error() {
    let (_, err, code) = iwa(&["analyze", "fixture:nope"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown fixture"));
}

#[test]
fn parse_errors_are_reported_with_position() {
    let dir = std::env::temp_dir().join("iwa_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.iwa");
    std::fs::write(&path, "task a { explode; }").unwrap();
    let (_, err, code) = iwa(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(err.contains("parse error"));
}

/// A scratch directory unique to this process (the CLI tests all spawn
/// the same binary, so uniqueness per test name is enough).
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("iwa-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CLEAN: &str = "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }";
const DEADLOCK: &str = "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }";

#[test]
fn a_one_ms_deadline_yields_a_labelled_degraded_verdict() {
    let dir = scratch("deadline");
    let path = dir.join("adversarial.iwa");
    // Sixteen pairs three loops deep: each rung gets about a fifth of the
    // millisecond, and an optimised build runs every refined rung of a
    // smaller nest inside that.
    std::fs::write(
        &path,
        iwa_workloads::adversarial::deep_loop_nest(16, 3).to_source(),
    )
    .unwrap();
    let (out, err, code) = iwa(&["analyze", path.to_str().unwrap(), "--deadline-ms", "1"]);
    // The nest is stall-prone, so even the degraded floor verdict flags it.
    assert_eq!(code, Some(1), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("degraded"), "degradation must be labelled: {out}");
    assert!(out.contains("naive"), "the floor produced the verdict: {out}");
    assert!(out.contains("budget-exceeded"), "audit trail present: {out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_fixture_survives_a_one_ms_deadline() {
    // The acceptance bar: `--deadline-ms 1` terminates promptly on *any*
    // fixture — possibly degraded, never hung, never panicking.
    for (name, _) in iwa_workloads::figures::all_figures() {
        let spec = format!("fixture:{name}");
        let (out, err, code) = iwa(&["analyze", &spec, "--deadline-ms", "1"]);
        assert!(
            matches!(code, Some(0 | 1 | 3)),
            "{spec}: code {code:?}\nstdout: {out}\nstderr: {err}"
        );
        assert!(out.contains("verdict"), "{spec}: {out}");
    }
}

#[test]
fn degraded_clean_exits_3_not_0() {
    let dir = scratch("deg3");
    let path = dir.join("branchy.iwa");
    std::fs::write(
        &path,
        "task t1 { if { send t2.a; } else { send t2.a; } accept b; }
         task t2 { accept a; send t1.b; }",
    )
    .unwrap();
    let (out, _, code) = iwa(&["analyze", path.to_str().unwrap(), "--max-steps", "1"]);
    assert_eq!(code, Some(3), "degraded must not masquerade as clean: {out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ladder_mode_emits_json_with_attempts() {
    let (out, _, code) = iwa(&["analyze", "fixture:lemma2", "--json", "--max-steps", "1000000", "--start", "pairs"]);
    assert_eq!(code, Some(0), "{out}");
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    assert_eq!(v["verdict"], serde_json::Value::String("Clean".into()));
    assert_eq!(v["rung"], serde_json::Value::String("HeadPairs".into()));
    assert_eq!(v["degraded"], serde_json::Value::Bool(false));
}

#[test]
fn bad_budget_flags_are_usage_errors() {
    for args in [
        &["analyze", "fixture:fig1", "--deadline-ms", "soon"][..],
        &["analyze", "fixture:fig1", "--start", "hopeful"][..],
        &["analyze", "fixture:fig1", "--max-steps"][..],
        &["check"][..],
    ] {
        let (_, err, code) = iwa(args);
        assert_eq!(code, Some(2), "{args:?} must be a usage error: {err}");
    }
}

#[test]
fn check_exit_codes_follow_the_contract() {
    // Exit 1: a deadlock in the corpus.
    let dir = scratch("check1");
    std::fs::write(dir.join("good.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("bad.iwa"), DEADLOCK).unwrap();
    let (out, _, code) = iwa(&["check", dir.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("1 anomalous"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();

    // Exit 0: all clean.
    let dir = scratch("check0");
    std::fs::write(dir.join("good.iwa"), CLEAN).unwrap();
    let (out, _, code) = iwa(&["check", dir.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();

    // Exit 3: no anomaly, but one file does not even parse.
    let dir = scratch("check3");
    std::fs::write(dir.join("good.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("noise.iwa"), "]]] not a program [[[").unwrap();
    let (out, _, code) = iwa(&["check", dir.to_str().unwrap()]);
    assert_eq!(code, Some(3), "{out}");
    assert!(out.contains("parse-error"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_emits_json_and_survives_an_injected_panic() {
    let dir = scratch("checkpanic");
    std::fs::write(dir.join("aaa.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("detonator-e2e.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("zzz.iwa"), CLEAN).unwrap();
    let (stdout, _, code) = iwa(&[
        "check",
        dir.to_str().unwrap(),
        "--json",
        "--fault",
        "check-file=panic:label=detonator-e2e",
    ]);
    assert_eq!(code, Some(3), "{stdout}");
    let v: serde_json::Value = serde_json::from_str(&stdout).expect("valid json: {stdout}");
    assert_eq!(v["total"], 3);
    assert_eq!(v["panicked"], 1);
    assert_eq!(v["clean"], 2, "the panic was isolated; the rest ran");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_runs_the_repo_corpus_with_json_output() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let (out, err, code) = iwa(&["check", corpus.to_str().unwrap(), "--json"]);
    let v: serde_json::Value = serde_json::from_str(&out)
        .unwrap_or_else(|e| panic!("valid json ({e})\nstdout: {out}\nstderr: {err}"));
    // The corpus deliberately contains deadlocks.
    assert_eq!(code, Some(1));
    assert!(v["total"].as_u64().unwrap() >= 8);
    assert_eq!(v["panicked"], 0);
    assert_eq!(v["errors"], 0);
}

#[test]
fn a_closed_stdout_ends_the_output_not_the_command() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let corpus = corpus.to_str().unwrap();
    for args in [
        vec!["check", corpus],
        vec!["lint", corpus],
        vec!["analyze", "fixture:fig5d", "--json"],
    ] {
        // The reader goes away before the first write.
        let mut child = Command::new(env!("CARGO_BIN_EXE_iwa"))
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("binary exits");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        // The same status as with stdout open: the corpus has anomalies,
        // lint denials, and fig5d an oracle stall.
        let (_, _, code) = iwa(&args);
        assert_eq!(code, Some(1), "{args:?}");
        assert_eq!(out.status.code(), code, "{args:?}: {err}");
    }
}

#[test]
fn check_output_is_byte_identical_for_any_job_count() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let corpus = corpus.to_str().unwrap();
    // A step budget (not a wall-clock one) keeps trip-vs-complete
    // deterministic regardless of scheduling. Timings are the only
    // legitimate run-to-run variation; `masked` zeroes them.
    let run = |jobs: &str| {
        let (out, err, code) =
            iwa(&["check", corpus, "--json", "--max-steps", "200000", "-j", jobs]);
        assert_eq!(code, Some(1), "stdout: {out}\nstderr: {err}");
        iwa_testsupport::masked(&out)
    };
    let sequential = run("1");
    assert_eq!(sequential, run("2"), "-j 2 must match -j 1");
    assert_eq!(sequential, run("8"), "-j 8 must match -j 1");
}

#[test]
fn analyze_output_is_identical_for_any_job_count() {
    let run = |jobs: &str| {
        let (out, _, code) = iwa(&["analyze", "fixture:fig2b", "--json", "--jobs", jobs]);
        assert_eq!(code, Some(1), "{out}");
        iwa_testsupport::masked(&out)
    };
    let sequential = run("1");
    assert_eq!(sequential, run("4"), "--jobs 4 must match --jobs 1");
    assert_eq!(sequential, run("0"), "--jobs 0 (all cores) must match");
}

#[test]
fn json_reports_carry_the_schema_version() {
    let (out, _, _) = iwa(&["analyze", "fixture:fig1", "--json"]);
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    assert_eq!(v["schema_version"], iwa_engine::SCHEMA_VERSION as u64);

    let (out, _, _) = iwa(&["analyze", "fixture:fig1", "--json", "--max-steps", "100000"]);
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    assert_eq!(v["schema_version"], iwa_engine::SCHEMA_VERSION as u64);

    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let (out, _, _) = iwa(&["check", corpus.to_str().unwrap(), "--json"]);
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    assert_eq!(v["schema_version"], iwa_engine::SCHEMA_VERSION as u64);
}

#[test]
fn jobs_flags_are_parsed_identically_by_analyze_and_check() {
    for sub in ["analyze", "check"] {
        let (_, err, code) = iwa(&[sub, "fixture:fig1", "-j", "lots"]);
        assert_eq!(code, Some(2), "{sub}: {err}");
        assert!(err.contains("bad -j 'lots'"), "{sub}: {err}");
        let (_, err, code) = iwa(&[sub, "fixture:fig1", "--jobs"]);
        assert_eq!(code, Some(2), "{sub}: {err}");
        assert!(err.contains("-j needs a value"), "{sub}: {err}");
    }
}

#[test]
fn inline_and_unroll_print_transformed_programs() {
    let dir = std::env::temp_dir().join("iwa_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("procs.iwa");
    std::fs::write(
        &path,
        "proc hello { send b.m; } task a { while { call hello; } } task b { while { accept m; } }",
    )
    .unwrap();
    let (out, _, code) = iwa(&["inline", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(out.contains("send b.m;"));
    assert!(!out.contains("call"));
    assert!(out.contains("while"), "inline keeps loops");
    let (out, _, code) = iwa(&["unroll", path.to_str().unwrap()]);
    assert_eq!(code, Some(0));
    assert!(!out.contains("while"), "unroll removes loops");
    assert_eq!(out.matches("send b.m;").count(), 2, "two copies");
    for sub in ["inline", "unroll"] {
        let (out, err, code) = iwa(&[sub, "fixture:fig1", "--bogus"]);
        assert_eq!(code, Some(2), "{sub}: {out}");
        assert!(
            err.contains("unexpected argument '--bogus'"),
            "{sub}: {err}"
        );
    }
}

// ---------------------------------------------------------------- lint

/// The workspace root: lint goldens pin paths relative to it, so the
/// binary must run from there (exactly as CI does).
fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn iwa_at_root(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_iwa"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(repo_root().join("tests/golden").join(name)).unwrap()
}

#[test]
fn lint_text_output_matches_the_golden_file() {
    let (out, err, code) = iwa_at_root(&["lint", "corpus", "--format", "text"]);
    assert_eq!(code, Some(1), "deadlock-head denials flag the corpus: {err}");
    assert_eq!(out, golden("corpus_lints.txt"), "regenerate with: iwa lint corpus --format text > tests/golden/corpus_lints.txt");
}

#[test]
fn lint_sarif_output_matches_the_golden_file() {
    let (out, _, code) = iwa_at_root(&["lint", "corpus", "--format", "sarif"]);
    assert_eq!(code, Some(1));
    assert_eq!(out, golden("corpus_lints.sarif"), "regenerate with: iwa lint corpus --format sarif > tests/golden/corpus_lints.sarif");
}

#[test]
fn lint_output_is_identical_across_job_counts() {
    let (base, _, _) = iwa_at_root(&["lint", "corpus", "-j", "1"]);
    for jobs in ["2", "8"] {
        let (out, _, _) = iwa_at_root(&["lint", "corpus", "-j", jobs]);
        assert_eq!(out, base, "-j {jobs} diverged from -j 1");
    }
}

#[test]
fn lint_deny_warnings_flips_the_exit_code() {
    let fixture = "corpus/lints/silent_task.iwa";
    let (out, _, code) = iwa_at_root(&["lint", fixture]);
    assert_eq!(code, Some(0), "warnings alone exit 0: {out}");
    assert!(out.contains("warning[silent-task]"));
    let (out, _, code) = iwa_at_root(&["lint", fixture, "--deny-warnings"]);
    assert_eq!(code, Some(1), "--deny-warnings promotes to a failure");
    assert!(out.contains("error[silent-task]"));
}

#[test]
fn lint_severity_flags_are_validated_and_applied() {
    let fixture = "corpus/lints/silent_task.iwa";
    let (out, _, code) = iwa_at_root(&["lint", fixture, "-A", "silent-task"]);
    assert_eq!(code, Some(0));
    assert!(out.contains("0 error(s), 0 warning(s)"), "{out}");
    let (_, _, code) = iwa_at_root(&["lint", fixture, "-D", "silent-task"]);
    assert_eq!(code, Some(1));
    let (_, err, code) = iwa_at_root(&["lint", fixture, "-W", "no-such-lint"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown lint"), "{err}");
}

#[test]
fn lint_json_format_carries_the_schema_version() {
    let (out, _, _) = iwa_at_root(&["lint", "corpus/lints/self_send.iwa", "--format", "json"]);
    assert!(out.contains(&format!("\"schema_version\": {}", iwa_engine::SCHEMA_VERSION)));
    assert!(out.contains("\"self-send\""));
}

#[test]
fn lint_and_analyze_render_parse_errors_with_a_caret() {
    let dir = scratch("lint-parse");
    let path = dir.join("bad.iwa");
    std::fs::write(&path, "task a { explode; }").unwrap();
    for cmd in ["lint", "analyze"] {
        let (_, err, code) = iwa(&[cmd, path.to_str().unwrap()]);
        assert_eq!(code, Some(2), "{cmd}: {err}");
        assert!(err.contains("parse error at 1:10"), "{cmd}: {err}");
        assert!(err.contains("1 | task a { explode; }"), "{cmd}: {err}");
        assert!(err.contains("^"), "{cmd}: caret missing: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_surfaces_quick_lints_in_human_and_json_output() {
    let dir = scratch("check-lints");
    std::fs::write(dir.join("selfsend.iwa"), "task a { send a.m; accept m; }").unwrap();
    let (out, _, _) = iwa(&["check", dir.to_str().unwrap()]);
    assert!(out.contains("warning[self-send]"), "{out}");
    assert!(out.contains("^^^^"), "caret under the send keyword: {out}");
    let (out, _, _) = iwa(&["check", dir.to_str().unwrap(), "--json"]);
    assert!(out.contains("\"diagnostics\""), "{out}");
    assert!(out.contains("\"self-send\""), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------------------- tracing

/// `--trace-out` must produce a document Chrome's `about:tracing` and
/// Perfetto actually load: a `traceEvents` array of complete (`ph: "X"`)
/// events with numeric `ts`/`dur`.
fn assert_loadable_chrome_trace(path: &std::path::Path) -> serde_json::Value {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("trace is valid JSON");
    let events = doc["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no spans");
    for ev in events {
        assert_eq!(ev["ph"], "X", "complete events only: {ev:?}");
        assert!(ev["name"].as_str().is_some(), "{ev:?}");
        assert!(ev["ts"].as_u64().is_some(), "{ev:?}");
        assert!(ev["dur"].as_u64().is_some(), "{ev:?}");
        assert!(ev["pid"].as_u64().is_some(), "{ev:?}");
        assert!(ev["tid"].as_u64().is_some(), "{ev:?}");
    }
    doc
}

#[test]
fn analyze_trace_out_writes_a_loadable_chrome_trace() {
    let dir = scratch("trace-plain");
    let trace = dir.join("trace.json");
    let (_, err, code) = iwa(&[
        "analyze",
        "fixture:fig1",
        "--start",
        "heads",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "fig1 flags: {err}");
    let doc = assert_loadable_chrome_trace(&trace);
    let names: Vec<&str> = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e["name"].as_str())
        .collect();
    for phase in ["syncgraph", "refined", "stall"] {
        assert!(names.contains(&phase), "missing {phase} span: {names:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ladder_mode_trace_out_records_rung_spans() {
    let dir = scratch("trace-ladder");
    let trace = dir.join("trace.json");
    let (_, err, code) = iwa(&[
        "analyze",
        "fixture:fig2b",
        "--max-steps",
        "200000",
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "fig2b deadlocks: {err}");
    let doc = assert_loadable_chrome_trace(&trace);
    let names: Vec<String> = doc["traceEvents"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|e| e["name"].as_str().map(str::to_owned))
        .collect();
    assert!(names.iter().any(|n| n == "ladder"), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("rung ")), "{names:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// --------------------------------------------------------------- bench

#[test]
fn bench_smoke_appends_one_trajectory_line_and_writes_nothing_else() {
    let dir = scratch("bench-smoke");
    let hist_path = dir.join("bench_history.jsonl");
    let bench = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_iwa"))
            .current_dir(&dir)
            .args(["bench", "--smoke", "--history", "bench_history.jsonl"])
            .args(extra)
            .output()
            .expect("binary runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.code(),
        )
    };
    let (out, err, code) = bench(&[]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("appended"), "{out}");
    // The trajectory line is the only record a run writes.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(files, ["bench_history.jsonl"]);

    // --validate gates against the record the first run appended;
    // an identical rerun must pass on every row and append a second line.
    let (out, err, code) = bench(&["--validate", "--label", "rerun"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(out.contains("trajectory check"), "{out}");
    assert!(out.contains("(ok)"), "{out}");
    let lines = std::fs::read_to_string(&hist_path).unwrap().lines().count();
    assert_eq!(lines, 2);

    // --no-history runs the suite without touching the trajectory.
    let (out, err, code) = bench(&["--no-history"]);
    assert_eq!(code, Some(0), "{err}");
    assert!(!out.contains("appended"), "{out}");
    let lines = std::fs::read_to_string(&hist_path).unwrap().lines().count();
    assert_eq!(lines, 2);

    // No snapshot flags: `--out` is unknown and `--validate` takes no file.
    for extra in [&["--out", "x.json"][..], &["--validate", "x.json"]] {
        let (_, err, code) = bench(extra);
        assert_eq!(code, Some(2), "{extra:?}: {err}");
        assert!(err.contains("unexpected argument"), "{err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_trajectory_gate_rejects_a_step_regression() {
    let dir = scratch("bench-trajectory");
    let hist_path = dir.join("bench_history.jsonl");
    // A fabricated trajectory whose steps are impossibly low: the real
    // run must exceed it by far more than 15% and be rejected without
    // appending.
    std::fs::write(
        &hist_path,
        "{\"schema_version\":1,\"mode\":\"smoke\",\"label\":\"tiny\",\"seed\":7,\
         \"rows\":[{\"family\":\"replicated_pairs\",\"size\":4,\"steps\":1,\
         \"scc_runs\":1,\"heads_examined\":1,\"wall_ms\":0}]}\n",
    )
    .unwrap();
    let (_, err, code) = iwa(&[
        "bench",
        "--smoke",
        "--history",
        hist_path.to_str().unwrap(),
        "--validate",
    ]);
    assert_ne!(code, Some(0));
    assert!(err.contains("regression"), "{err}");
    let lines = std::fs::read_to_string(&hist_path).unwrap().lines().count();
    assert_eq!(lines, 1, "a failing run must not append");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kills a spawned daemon if the test panics before the clean shutdown.
struct ReapOnDrop(Option<std::process::Child>);

impl ReapOnDrop {
    /// Hand the child back for a clean wait; the guard stands down.
    fn release(mut self) -> std::process::Child {
        self.0.take().unwrap()
    }
}

impl Drop for ReapOnDrop {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[test]
fn serve_e2e_roundtrip_cache_and_clean_shutdown() {
    let dir = scratch("serve-e2e");
    let port_file = dir.join("port");
    let child = Command::new(env!("CARGO_BIN_EXE_iwa"))
        .args(["serve", "--port-file", port_file.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let child = ReapOnDrop(Some(child));

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let port: u16 = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(p) = text.trim().parse() {
                break p;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never wrote its port file"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    };

    let recv = std::time::Duration::from_secs(10);
    let mut client = iwa_serve::Client::connect(("127.0.0.1", port)).expect("connect");
    let pong = client
        .request(&iwa_serve::Client::simple_request(1, "ping"), recv)
        .unwrap();
    assert_eq!(pong["status"], "ok");

    let first = client
        .request(&iwa_serve::Client::analyze_request(2, CLEAN, Some(5_000)), recv)
        .unwrap();
    assert_eq!(first["status"], "ok", "{first:?}");
    assert_eq!(first["report"]["verdict"], "Clean");
    assert_eq!(first["cached"], false);
    let second = client
        .request(&iwa_serve::Client::analyze_request(3, CLEAN, Some(5_000)), recv)
        .unwrap();
    assert_eq!(second["cached"], true, "resubmission hits the cache");

    let bye = client
        .request(&iwa_serve::Client::simple_request(4, "shutdown"), recv)
        .unwrap();
    assert_eq!(bye["status"], "ok");

    let out = child
        .release()
        .wait_with_output()
        .expect("daemon exits after the shutdown op");
    assert_eq!(out.status.code(), Some(0), "daemon drains and exits clean");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("listening on"), "{stdout}");
    // The final stats block is machine-readable.
    let json_start = stdout.find('{').expect("stats JSON on exit");
    let v: serde_json::Value = serde_json::from_str(&stdout[json_start..]).unwrap();
    assert_eq!(v["received"], 2);
    assert_eq!(v["cache_hits"], 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------- lok frontend

#[test]
fn analyzing_a_lok_cycle_exits_nonzero_with_a_span_anchored_witness() {
    let (out, err, code) = iwa_at_root(&["analyze", "corpus/locks/three_cycle.lok"]);
    assert_eq!(code, Some(1), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("anomalous"), "{out}");
    // The lint rides along in text mode: the full acquisition chain with
    // one source span per acquire site.
    assert!(out.contains("a → b → c → a"), "{out}");
    assert!(out.contains("holds a (6:13) while locking b (6:21)"), "{out}");
}

#[test]
fn analyzing_a_clean_lok_file_exits_zero() {
    let (out, err, code) = iwa_at_root(&["analyze", "corpus/locks/ordered_chain.lok"]);
    assert_eq!(code, Some(0), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("verdict   : clean"), "{out}");
}

#[test]
fn lok_rejects_iwa_only_flags_with_clear_messages() {
    // `--tier` and `--oracle` are gone for every language: `--start`
    // names every rung.
    for flag in ["--tier", "--oracle"] {
        let (_, err, code) = iwa_at_root(&["analyze", "corpus/locks/abba.lok", flag]);
        assert_eq!(code, Some(2));
        assert!(
            err.contains(&format!("unexpected argument '{flag}'")),
            "{err}"
        );
    }
    let (_, err, code) = iwa_at_root(&["analyze", "corpus/locks/abba.lok", "--no-transforms"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("--no-transforms applies to .iwa programs"), "{err}");
}

#[test]
fn the_lang_flag_forces_a_frontend_regardless_of_extension() {
    let dir = std::env::temp_dir().join("iwa_cli_lang_flag");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prog.txt");
    std::fs::write(&path, "thread t { lock a; lock b; unlock b; unlock a; }").unwrap();
    // Unknown extension defaults to tasklang: a parse error.
    let (_, err, code) = iwa(&["analyze", path.to_str().unwrap()]);
    assert_eq!(code, Some(2), "{err}");
    // Forced to the lock frontend it is a clean two-lock program.
    let (out, err, code) = iwa(&["analyze", path.to_str().unwrap(), "--lang", "lok"]);
    assert_eq!(code, Some(0), "stdout: {out}\nstderr: {err}");
    let (_, err, code) = iwa(&["analyze", path.to_str().unwrap(), "--lang", "ada"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown language"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_over_the_locks_corpus_is_byte_identical_for_any_job_count() {
    let locks = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/locks");
    let locks = locks.to_str().unwrap();
    let run = |jobs: &str| {
        let (out, err, code) =
            iwa(&["check", locks, "--json", "--max-steps", "200000", "-j", jobs]);
        assert_eq!(code, Some(1), "stdout: {out}\nstderr: {err}");
        iwa_testsupport::masked(&out)
    };
    let sequential = run("1");
    assert_eq!(sequential, run("2"), "-j 2 must match -j 1");
    assert_eq!(sequential, run("8"), "-j 8 must match -j 1");
}

#[test]
fn lint_reports_skipped_files_instead_of_silently_dropping_them() {
    let dir = std::env::temp_dir().join("iwa_cli_lint_skip");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("ok.iwa"), "task a { send b.m; } task b { accept m; }").unwrap();
    std::fs::write(dir.join("notes.md"), "# not a model\n").unwrap();
    let (out, err, code) = iwa(&["lint", dir.to_str().unwrap()]);
    assert_eq!(code, Some(0), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("notes.md: skipped (unknown language)"), "{out}");
    assert!(out.contains("1 skipped"), "{out}");
    let (out, _, _) = iwa(&["lint", dir.to_str().unwrap(), "--format", "json"]);
    let v: serde_json::Value = serde_json::from_str(&out).expect("valid json");
    let skipped = v["skipped"].as_array().expect("skipped array");
    assert_eq!(skipped.len(), 1, "{out}");
    assert!(skipped[0].as_str().unwrap().ends_with("notes.md"), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lint_explain_prints_doc_severity_and_applicable_frontends() {
    let (out, _, code) = iwa(&["lint", "--explain", "lock-order-cycle"]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("lock-order-cycle"), "{out}");
    assert!(out.contains("default severity"), "{out}");
    assert!(out.contains("applies to"), "{out}");
    assert!(out.contains("lok"), "{out}");
    // A tasklang-only lint names the tasklang frontend, not lok.
    let (out, _, code) = iwa(&["lint", "--explain", "silent-task"]);
    assert_eq!(code, Some(0), "{out}");
    assert!(out.contains("iwa"), "{out}");
    // Unknown lints list the known names.
    let (_, err, code) = iwa(&["lint", "--explain", "no-such-lint"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("unknown lint"), "{err}");
    assert!(err.contains("lock-order-cycle"), "{err}");
}

/// The whole catalog as `--explain` prints it: the bare listing, then
/// every lint's card in catalog order.
#[test]
fn lint_explain_listings_match_the_golden() {
    let (listing, err, code) = iwa(&["lint", "--explain"]);
    assert_eq!(code, Some(0), "{err}");
    let mut actual = listing.clone();
    for name in listing
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter_map(|l| l.split_whitespace().next())
    {
        let (card, err, code) = iwa(&["lint", "--explain", name]);
        assert_eq!(code, Some(0), "{name}: {err}");
        actual.push_str(&card);
    }
    assert!(
        actual == golden("lint_catalog.txt"),
        "tests/golden/lint_catalog.txt differs from the current listings; rendered:\n{actual}"
    );
}

#[test]
fn lok_lints_fire_on_the_locks_corpus() {
    let (out, _, code) = iwa_at_root(&["lint", "corpus/locks/double_lock.lok"]);
    assert_eq!(code, Some(1), "double-lock denies: {out}");
    assert!(out.contains("double-lock"), "{out}");
    let (out, _, code) = iwa_at_root(&["lint", "corpus/locks/unbalanced.lok"]);
    assert_eq!(code, Some(0), "warnings alone exit 0: {out}");
    assert!(out.contains("lock-held-at-exit"), "{out}");
    let (out, _, code) = iwa_at_root(&["lint", "corpus/locks/three_cycle.lok"]);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("lock-order-cycle"), "{out}");
}

// --------------------------------------------------------- chan frontend

/// The `.chan` precision gap, pinned end to end. The witness cycle
/// `a! → b? → a? → c? → a!` passes through both ports of channel `a`,
/// which lower into one task, so no wave can hold both: the oracle says
/// clean, and it is right (p1 and p3 meet on `a`, then `b` and `c` pair
/// up, then p2 and p4 meet on `a`, and the program terminates). The CLG
/// rungs cannot see that exclusion and flag the cycle; they over-report,
/// as the wait-graph theorem allows. Kept out of `corpus/`: perfbench's
/// known-answer gate runs the Heads rung on every `// expect:` fixture,
/// and a new fixture would change the lint goldens.
#[test]
fn a_cycle_through_both_ports_of_one_channel_splits_the_ladder() {
    let dir = scratch("chan-gap");
    let path = dir.join("gap.chan");
    std::fs::write(
        &path,
        "chan a; chan b; chan c;
proc p1 { send a; send b; }
proc p2 { recv b; send a; }
proc p3 { recv a; send c; }
proc p4 { recv c; recv a; }
",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let witness = "channel-wait cycle: a! → b? → a? → c? → a!";

    let (out, err, code) = iwa(&["analyze", path]);
    assert_eq!(code, Some(0), "stdout: {out}\nstderr: {err}");
    assert!(out.contains("verdict   : clean (rung 'oracle')"), "{out}");
    for start in ["headtails", "pairs", "heads", "naive"] {
        let (out, err, code) = iwa(&["analyze", path, "--start", start]);
        assert_eq!(code, Some(1), "{start}: stdout: {out}\nstderr: {err}");
        assert!(out.contains(&format!("flagged   : {witness}")), "{start}: {out}");
    }
    let (out, err, code) = iwa(&["lint", path]);
    assert_eq!(code, Some(1), "stdout: {out}\nstderr: {err}");
    assert!(out.contains(&format!("error[channel-cycle]: {witness}")), "{out}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The oracle is data-blind: it takes every branch combination, so on
/// §5.1 encapsulated-boolean programs it reaches waves no run can. The
/// sensor and the controller agree on `someone` (fig5d: `v` and `w`),
/// so the extra exchange happens on both sides or on neither, but the
/// oracle also tries one side without the other and flags a stall. The
/// Heads rung, with the §5.1 transforms, sees the carried boolean and
/// certifies; without them it flags as well. Here a cheaper rung is the
/// more precise one (DESIGN §6.2).
#[test]
fn the_data_blind_oracle_flags_what_the_transforms_certify() {
    for (spec, stalled) in [
        (
            "corpus/door_controller.iwa",
            "stalled nodes: controller:controller.hold-",
        ),
        ("fixture:fig5d", "stalled nodes: u:u.r-"),
    ] {
        let (out, err, code) = iwa_at_root(&["analyze", spec]);
        assert_eq!(code, Some(1), "{spec}: stdout: {out}\nstderr: {err}");
        assert!(
            out.contains("verdict   : anomalous (rung 'oracle')"),
            "{spec}: {out}"
        );
        assert!(
            out.contains(&format!("flagged   : {stalled}")),
            "{spec}: {out}"
        );
        let (out, err, code) = iwa_at_root(&["analyze", spec, "--start", "heads"]);
        assert_eq!(code, Some(0), "{spec}: stdout: {out}\nstderr: {err}");
        let (out, err, code) =
            iwa_at_root(&["analyze", spec, "--start", "heads", "--no-transforms"]);
        assert_eq!(code, Some(1), "{spec}: stdout: {out}\nstderr: {err}");
    }
}
