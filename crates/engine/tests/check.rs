//! Batch-driver behaviour: corpus walking, panic isolation, the error
//! taxonomy, and the exit-code contract.

use iwa_core::FaultPlan;
use iwa_engine::{check_batch, collect_files, CheckOptions, EngineOptions, EngineVerdict, Rung};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

/// A unique scratch directory per test (unique across parallel test
/// threads and repeated runs).
fn scratch(name: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "iwa-check-{name}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const CLEAN: &str = "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }";
const DEADLOCK: &str = "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }";

#[test]
fn collect_files_walks_recursively_and_sorts() {
    let dir = scratch("collect");
    std::fs::create_dir(dir.join("sub")).unwrap();
    std::fs::write(dir.join("b.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("sub/a.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("notes.txt"), "not a program").unwrap();
    let files = collect_files(&dir).unwrap();
    let names: Vec<_> = files
        .iter()
        .map(|f| f.strip_prefix(&dir).unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["b.iwa", "sub/a.iwa"], "sorted, .iwa only");

    // A single file stands for itself, whatever its extension.
    let solo = collect_files(&dir.join("notes.txt")).unwrap();
    assert_eq!(solo.len(), 1);

    assert!(collect_files(&dir.join("missing")).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_mixed_corpus_yields_the_full_taxonomy_and_exit_code_1() {
    let dir = scratch("mixed");
    std::fs::write(dir.join("clean.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("deadlock.iwa"), DEADLOCK).unwrap();
    std::fs::write(dir.join("garbage.iwa"), "task task task {{{").unwrap();
    let files = collect_files(&dir).unwrap();
    let summary = check_batch(&files, &CheckOptions::default());

    assert_eq!(summary.total, 3);
    assert_eq!(summary.clean, 1);
    assert_eq!(summary.anomalous, 1);
    assert_eq!(summary.errors, 1);
    assert_eq!(summary.panicked, 0);
    assert_eq!(summary.exit_code(), 1, "anomalies dominate the exit code");

    let garbage = summary
        .files
        .iter()
        .find(|f| f.path.ends_with("garbage.iwa"))
        .unwrap();
    assert_eq!(garbage.status, "parse-error");
    assert!(garbage.verdict.is_none());
    assert!(garbage.error.as_deref().unwrap().contains("parse error"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_all_clean_corpus_exits_0() {
    let dir = scratch("allclean");
    std::fs::write(dir.join("one.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("two.iwa"), CLEAN).unwrap();
    let summary = check_batch(&collect_files(&dir).unwrap(), &CheckOptions::default());
    assert_eq!((summary.clean, summary.exit_code()), (2, 0));
    assert!(summary.files.iter().all(|f| f.rung == Some(Rung::Oracle)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn deadline_degraded_files_exit_3_and_stay_labelled() {
    let dir = scratch("degraded");
    // Sixteen pairs three loops deep: each rung gets about a fifth of the
    // millisecond, and an optimised build runs every refined rung of a
    // smaller nest inside that.
    let adversarial = iwa_workloads::adversarial::deep_loop_nest(16, 3).to_source();
    std::fs::write(dir.join("slow.iwa"), adversarial).unwrap();
    let opts = EngineOptions {
        deadline: Some(Duration::from_millis(1)),
        ..EngineOptions::default()
    };
    let summary = check_batch(
        &collect_files(&dir).unwrap(),
        &CheckOptions {
            engine: opts,
            ..CheckOptions::default()
        },
    );
    assert_eq!(summary.total, 1);
    let f = &summary.files[0];
    assert_eq!(f.status, "ok", "a degraded answer is still an answer");
    assert!(f.degraded);
    assert_eq!(f.rung, Some(Rung::Naive));
    assert_eq!(summary.degraded, 1);
    // This workload is stall-prone, so even the degraded verdict flags it
    // — anomalous outranks degraded in the exit code.
    assert_eq!(f.verdict, Some(EngineVerdict::Anomalous));
    assert_eq!(summary.exit_code(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn degradation_without_anomalies_exits_3() {
    let dir = scratch("deg3");
    // Clean but branchy: the naive floor must abstain on the stall half,
    // so a starved ladder yields Unknown + degraded, never a false claim.
    std::fs::write(
        dir.join("branchy.iwa"),
        "task t1 { if { send t2.a; } else { send t2.a; } accept b; }
         task t2 { accept a; send t1.b; }",
    )
    .unwrap();
    let opts = EngineOptions {
        max_steps: Some(1),
        ..EngineOptions::default()
    };
    let summary = check_batch(
        &collect_files(&dir).unwrap(),
        &CheckOptions {
            engine: opts,
            ..CheckOptions::default()
        },
    );
    assert_eq!(summary.anomalous, 0);
    assert_eq!(summary.degraded, 1);
    assert_eq!(summary.unknown, 1);
    assert_eq!(summary.exit_code(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_panics_are_isolated_and_the_run_continues() {
    let dir = scratch("fault");
    std::fs::write(dir.join("aaa-sound.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("kaboom-marker-q7.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("zzz-sound.iwa"), CLEAN).unwrap();

    let faults = FaultPlan::parse("check-file=panic:label=kaboom-marker-q7").unwrap();
    let summary = check_batch(
        &collect_files(&dir).unwrap(),
        &CheckOptions {
            engine: EngineOptions {
                faults: Some(faults),
                ..EngineOptions::default()
            },
            ..CheckOptions::default()
        },
    );

    assert_eq!(summary.total, 3);
    assert_eq!(summary.panicked, 1);
    assert_eq!(summary.clean, 2, "files after the panic still ran");
    assert_eq!(summary.exit_code(), 3);
    let bad = summary
        .files
        .iter()
        .find(|f| f.status == "panicked")
        .unwrap();
    assert!(bad.path.contains("kaboom-marker-q7"));
    assert!(bad.error.as_deref().unwrap().contains("injected fault"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unreadable_files_are_io_errors_not_crashes() {
    let dir = scratch("io");
    std::fs::write(dir.join("real.iwa"), CLEAN).unwrap();
    let mut files = collect_files(&dir).unwrap();
    files.push(dir.join("vanished.iwa")); // never created
    let summary = check_batch(&files, &CheckOptions::default());
    assert_eq!(summary.total, 2);
    assert_eq!(summary.errors, 1);
    assert_eq!(
        summary
            .files
            .iter()
            .find(|f| f.path.ends_with("vanished.iwa"))
            .unwrap()
            .status,
        "io-error"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn summaries_serialize_to_json_with_a_schema_version() {
    let dir = scratch("json");
    std::fs::write(dir.join("p.iwa"), CLEAN).unwrap();
    let summary = check_batch(&collect_files(&dir).unwrap(), &CheckOptions::default());
    let json = serde_json::to_string_pretty(&summary).unwrap();
    assert!(json.contains("\"total\": 1"), "got: {json}");
    assert!(json.contains("\"status\": \"ok\""));
    assert!(json.contains("\"verdict\": \"Clean\""));
    assert!(
        json.contains(&format!("\"schema_version\": {}", iwa_engine::SCHEMA_VERSION)),
        "got: {json}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Serialize a summary with every wall-clock field zeroed, so runs can
/// be compared across job counts.
fn masked_json(summary: &iwa_engine::CheckSummary) -> String {
    iwa_testsupport::masked(&serde_json::to_string_pretty(summary).unwrap())
}

#[test]
fn the_summary_is_identical_for_any_job_count() {
    let dir = scratch("jobs");
    std::fs::write(dir.join("clean.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("deadlock.iwa"), DEADLOCK).unwrap();
    std::fs::write(dir.join("garbage.iwa"), "task {{{").unwrap();
    std::fs::write(
        dir.join("ring.iwa"),
        "task a { send b.x; accept z; } task b { send c.y; accept x; } task c { send a.z; accept y; }",
    )
    .unwrap();
    let files = collect_files(&dir).unwrap();
    // A step ceiling (not a wall-clock deadline) keeps even the *budgeted*
    // behaviour deterministic: whether a rung completes or trips depends
    // only on the shared step counter, never on scheduling.
    let opts = |jobs| CheckOptions {
        engine: EngineOptions {
            max_steps: Some(200_000),
            ..EngineOptions::default()
        },
        jobs,
        batch_deadline: None,
        ..CheckOptions::default()
    };
    let base = masked_json(&check_batch(&files, &opts(1)));
    for jobs in [2, 8] {
        let got = masked_json(&check_batch(&files, &opts(jobs)));
        assert_eq!(got, base, "jobs={jobs} diverged from jobs=1");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_batch_deadline_stops_all_in_flight_workers_promptly() {
    let dir = scratch("batchdl");
    for i in 0..8 {
        let adversarial = iwa_workloads::adversarial::deep_loop_nest(4, 2).to_source();
        std::fs::write(dir.join(format!("slow{i}.iwa")), adversarial).unwrap();
    }
    let started = std::time::Instant::now();
    let summary = check_batch(
        &collect_files(&dir).unwrap(),
        &CheckOptions {
            engine: EngineOptions::default(),
            jobs: 4,
            batch_deadline: Some(Duration::from_millis(50)),
            ..CheckOptions::default()
        },
    );
    // Every file still answers (degraded at worst) and the whole batch —
    // including files in flight when the deadline struck — winds down far
    // inside the time eight unbounded oracle runs would take.
    assert_eq!(summary.total, 8);
    assert!(summary.files.iter().all(|f| f.status == "ok"));
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "batch deadline propagation took {:?}",
        started.elapsed()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_cancelled_token_degrades_the_whole_batch_but_still_answers() {
    let dir = scratch("cancel");
    std::fs::write(dir.join("a.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("b.iwa"), DEADLOCK).unwrap();
    let token = iwa_core::CancelToken::new();
    token.cancel();
    let summary = check_batch(
        &collect_files(&dir).unwrap(),
        &CheckOptions {
            engine: EngineOptions {
                cancel: Some(token),
                ..EngineOptions::default()
            },
            jobs: 2,
            batch_deadline: None,
            ..CheckOptions::default()
        },
    );
    assert_eq!(summary.total, 2);
    // Every budgeted rung trips instantly; the naive floor still answers.
    assert!(summary.files.iter().all(|f| f.status == "ok" && f.degraded));
    assert!(summary.files.iter().all(|f| f.rung == Some(Rung::Naive)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The golden JSON shapes. Adding, removing, or renaming a field in any
/// report type must update this list AND bump
/// [`iwa_engine::SCHEMA_VERSION`] — downstream tooling keys off both.
#[test]
fn the_json_schema_is_pinned() {
    fn keys(v: &serde_json::Value) -> Vec<String> {
        match v {
            serde_json::Value::Object(fields) => {
                fields.iter().map(|(k, _)| k.clone()).collect()
            }
            other => panic!("expected an object, got {other:?}"),
        }
    }

    let dir = scratch("golden");
    std::fs::write(dir.join("p.iwa"), DEADLOCK).unwrap();
    let files = collect_files(&dir).unwrap();
    let summary = check_batch(&files, &CheckOptions::default());
    let v = serde_json::to_value(&summary).unwrap();
    assert_eq!(
        keys(&v),
        [
            "schema_version", "files", "total", "clean", "anomalous", "unknown",
            "degraded", "errors", "panicked", "skipped", "elapsed_ms", "meta",
        ],
        "CheckSummary changed shape: bump SCHEMA_VERSION and update this test"
    );
    assert_eq!(
        keys(&v["meta"]),
        ["metrics"],
        "Meta changed shape: bump SCHEMA_VERSION and update this test"
    );
    assert_eq!(
        keys(&v["files"][0]),
        [
            "path", "lang", "status", "verdict", "rung", "degraded", "elapsed_ms", "error",
            "diagnostics",
        ],
        "FileOutcome changed shape: bump SCHEMA_VERSION and update this test"
    );

    let p = iwa_tasklang::parse(DEADLOCK).unwrap();
    let report = iwa_engine::analyze(&p, &EngineOptions::default()).unwrap();
    let v = serde_json::to_value(&report).unwrap();
    assert_eq!(
        keys(&v),
        [
            "schema_version", "verdict", "rung", "degraded", "attempts", "flagged",
            "elapsed_ms", "meta",
        ],
        "EngineReport changed shape: bump SCHEMA_VERSION and update this test"
    );
    assert_eq!(
        keys(&v["attempts"][0]),
        ["rung", "outcome", "detail", "elapsed_ms", "steps"],
        "RungAttempt changed shape: bump SCHEMA_VERSION and update this test"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_lint_stage_populates_diagnostics_only_when_enabled() {
    let dir = scratch("lint-stage");
    std::fs::write(dir.join("selfsend.iwa"), "task a { send a.m; accept m; }").unwrap();
    std::fs::write(dir.join("bad.iwa"), "task {{{").unwrap();
    let files = collect_files(&dir).unwrap();

    let off = check_batch(&files, &CheckOptions::default());
    assert!(off.files.iter().all(|f| f.diagnostics.is_empty()));

    let quick = check_batch(
        &files,
        &CheckOptions {
            lint: iwa_engine::LintStage::Quick,
            ..CheckOptions::default()
        },
    );
    let ok = quick.files.iter().find(|f| f.status == "ok").unwrap();
    assert!(ok.diagnostics.iter().any(|d| d.lint == "self-send"));
    // Failed parses never reach the lint stage.
    let bad = quick.files.iter().find(|f| f.status == "parse-error").unwrap();
    assert!(bad.diagnostics.is_empty());

    let full = check_batch(
        &files,
        &CheckOptions {
            lint: iwa_engine::LintStage::Full,
            ..CheckOptions::default()
        },
    );
    let ok = full.files.iter().find(|f| f.status == "ok").unwrap();
    assert!(
        ok.diagnostics.iter().any(|d| d.lint == "self-rendezvous-cycle"),
        "full stage runs the graph lints: {:?}",
        ok.diagnostics
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

const ABBA_LOK: &str = "thread t1 { with a { lock b; unlock b; } }
thread t2 { with b { lock a; unlock a; } }";
const ORDERED_LOK: &str = "thread t1 { with a { lock b; unlock b; } }
thread t2 { with a { lock b; unlock b; } }";

#[test]
fn a_mixed_language_corpus_dispatches_per_file() {
    let dir = scratch("lok-dispatch");
    std::fs::write(dir.join("clean.iwa"), CLEAN).unwrap();
    std::fs::write(dir.join("ordered.lok"), ORDERED_LOK).unwrap();
    std::fs::write(dir.join("abba.lok"), ABBA_LOK).unwrap();
    std::fs::write(dir.join("README.md"), "docs").unwrap();

    let sources = iwa_engine::collect_sources(&dir).unwrap();
    assert_eq!(sources.files.len(), 3, "both languages collected");
    assert_eq!(sources.skipped.len(), 1, "unknown files accounted for");

    let summary = check_batch(
        &sources.files,
        &CheckOptions {
            lint: iwa_engine::LintStage::Quick,
            skipped: sources
                .skipped
                .iter()
                .map(|p| p.display().to_string())
                .collect(),
            ..CheckOptions::default()
        },
    );
    assert_eq!(summary.clean, 2);
    assert_eq!(summary.anomalous, 1);
    assert_eq!(summary.skipped.len(), 1);
    assert!(summary.skipped[0].ends_with("README.md"));

    let abba = summary.files.iter().find(|f| f.path.ends_with("abba.lok")).unwrap();
    assert_eq!(abba.lang, "lok");
    assert_eq!(abba.verdict, Some(EngineVerdict::Anomalous));
    assert!(
        abba.diagnostics.iter().any(|d| d.lint == "lock-order-cycle"),
        "lok lints ride along: {:?}",
        abba.diagnostics
    );
    let iwa = summary.files.iter().find(|f| f.path.ends_with("clean.iwa")).unwrap();
    assert_eq!(iwa.lang, "iwa");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn analyze_model_reports_lock_cycles_with_span_anchored_witnesses() {
    let model = iwa_frontend::registry::by_lang(iwa_frontend::Lang::Lok)
        .load(ABBA_LOK)
        .unwrap();
    let report = iwa_engine::analyze_model(&model, &EngineOptions::default()).unwrap();
    assert_eq!(report.verdict, EngineVerdict::Anomalous);
    assert_eq!(report.rung, Rung::Oracle);
    assert!(!report.degraded);
    assert_eq!(report.flagged.len(), 1);
    assert!(
        report.flagged[0].contains("a → b → a") && report.flagged[0].contains("1:22"),
        "witness chain with spans: {}",
        report.flagged[0]
    );

    // Every rung of the lok ladder agrees, including the naive floor
    // (exact for this frontend — never Unknown).
    for start in [Rung::HeadTails, Rung::Heads, Rung::Naive] {
        let report = iwa_engine::analyze_model(
            &model,
            &EngineOptions {
                start,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.verdict, EngineVerdict::Anomalous, "rung {start}");
        assert!(report.flagged[0].contains("a → b → a"));
    }
    let clean = iwa_frontend::registry::by_lang(iwa_frontend::Lang::Lok)
        .load(ORDERED_LOK)
        .unwrap();
    for start in [Rung::Oracle, Rung::Heads, Rung::Naive] {
        let report = iwa_engine::analyze_model(
            &clean,
            &EngineOptions {
                start,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.verdict, EngineVerdict::Clean, "rung {start}");
    }
}
