//! Determinism of the `meta.metrics` counter block (PR-4 observability).
//!
//! Two claims, both load-bearing for the benchmark pipeline:
//!
//! 1. The deterministic [`Counters`] totals are **byte-identical** for
//!    any worker/job count — on the fixture corpus through the batch
//!    engine, and on the adversarial workloads through the certify
//!    pipeline. Only `sched.pool_steals` (quarantined) and wall-clock
//!    fields may vary, and the shared mask in `iwa-testsupport` zeroes
//!    exactly those.
//! 2. The §4.2 pruning-rule hit counts on the paper's figures are
//!    **pinned**: a change to SEQUENCEABLE / COACCEPT / NOT-COEXEC /
//!    Constraint-4 behaviour must show up here as a conscious diff, the
//!    same way the report schema is pinned.

use iwa::analysis::{AnalysisCtx, CertifyOptions, RefinedOptions};
use iwa::core::{Counters, Metrics};
use iwa::engine::{check_batch, CheckOptions, EngineOptions, Rung};
use iwa::syncgraph::SyncGraph;
use iwa::tasklang::Program;
use iwa::workloads::{adversarial, figures};
use std::path::PathBuf;

/// Every `.iwa` file in the fixture corpus, in sorted (deterministic)
/// order.
fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir("corpus")
        .expect("fixture corpus exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "iwa")).then_some(p)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 10, "corpus shrank: {files:?}");
    files
}

/// Byte-level comparison: the serialized counter block, not just the
/// struct, must be identical (this is what lands in the JSON reports).
fn counters_json(c: &Counters) -> String {
    serde_json::to_string_pretty(c).unwrap()
}

#[test]
fn corpus_batch_metrics_are_identical_for_any_job_count() {
    let files = corpus_files();
    let run = |jobs: usize| {
        let metrics = Metrics::new();
        let opts = CheckOptions {
            engine: EngineOptions {
                // A step ceiling (never a wall-clock one) keeps
                // trip-vs-complete independent of scheduling.
                start: Rung::Heads,
                max_steps: Some(200_000),
                metrics: Some(metrics.clone()),
                ..EngineOptions::default()
            },
            jobs,
            ..CheckOptions::default()
        };
        let summary = check_batch(&files, &opts);
        assert_eq!(summary.total, files.len());
        metrics.snapshot()
    };
    let base = run(1);
    assert!(base.sg_nodes > 0 && base.heads_examined > 0, "{base:?}");
    for jobs in [2, 8] {
        let snap = run(jobs);
        assert_eq!(snap, base, "jobs={jobs}");
        assert_eq!(counters_json(&snap), counters_json(&base), "jobs={jobs}");
    }
}

#[test]
fn adversarial_certify_metrics_are_identical_for_any_worker_count() {
    let workloads: Vec<(&str, Program)> = vec![
        ("deep_loop_nest", adversarial::deep_loop_nest(3, 2)),
        ("rendezvous_mesh", adversarial::rendezvous_mesh(6, true)),
        ("wide_branch", adversarial::wide_branch(8)),
    ];
    for (name, p) in &workloads {
        let run = |workers: usize| {
            let metrics = Metrics::new();
            AnalysisCtx::builder()
                .workers(workers)
                .metrics(metrics.clone())
                .build()
                .certify(p, &CertifyOptions::default())
                .unwrap();
            metrics.snapshot()
        };
        let base = run(1);
        assert!(base.heads_examined > 0, "{name}: {base:?}");
        for workers in [2, 8] {
            assert_eq!(run(workers), base, "{name} workers={workers}");
        }
    }
}

/// Run the refined analysis on one figure and return the committed
/// counter totals (unlimited budget, default single worker).
fn refined_counters(p: &Program, opts: &RefinedOptions) -> Counters {
    let sg = SyncGraph::from_program(p);
    let metrics = Metrics::new();
    AnalysisCtx::builder()
        .metrics(metrics.clone())
        .build()
        .refined(&sg, opts)
        .unwrap();
    metrics.snapshot()
}

/// A pinned pruning tuple: `(heads_examined, sequenceable_hits,
/// coaccept_hits, not_coexec_hits, constraint4_rescues)`.
type Pins = (u64, u64, u64, u64, u64);

/// The §4.2 pruning-rule hit counts on the paper's figures, pinned
/// under `RefinedOptions::default()`. These are properties of the figures and
/// the rules, not of scheduling; a diff here means a rule changed.
#[test]
fn figure_pruning_hit_counts_are_pinned() {
    let expected: &[(&str, Pins)] = &[
        ("fig1", FIG1),
        ("fig2b", FIG2B),
        ("fig3", FIG3),
        ("fig4c", FIG4C),
        ("lemma2", LEMMA2),
    ];
    for (name, want) in expected {
        let p = figures::all_figures()
            .into_iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown figure {name}"))
            .1;
        let c = refined_counters(&p, &RefinedOptions::default());
        let got = (
            c.heads_examined,
            c.sequenceable_hits,
            c.coaccept_hits,
            c.not_coexec_hits,
            c.constraint4_rescues,
        );
        assert_eq!(got, *want, "{name}: pruning counters moved");
    }
}

/// Free refutation dismisses the heads `t` and `u`, the accepts on the
/// two arms, before their bans are built or counted.
const FIG1: Pins = (4, 7, 0, 0, 0);
const FIG2B: Pins = (2, 4, 0, 0, 0);
/// Free refutation dismisses the head `u`, `q`'s send, before its bans
/// are built or counted.
const FIG3: Pins = (3, 5, 1, 0, 0);
const FIG4C: Pins = (4, 18, 0, 4, 0);
const LEMMA2: Pins = (2, 4, 1, 0, 0);

/// Constraint 4 is the one figure-level rescue the local rules cannot
/// make (E3): with the post-pass on, Figure 3's loop heads are rescued
/// and the program certifies.
#[test]
fn figure3_constraint4_rescues_are_pinned() {
    let c = refined_counters(
        &figures::fig3(),
        &RefinedOptions {
            apply_constraint4: true,
            ..RefinedOptions::default()
        },
    );
    assert_eq!(c.constraint4_rescues, FIG3_C4_RESCUES);
}

const FIG3_C4_RESCUES: u64 = 2;
