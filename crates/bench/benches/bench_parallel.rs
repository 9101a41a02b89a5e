//! The parallel execution layer: `check_batch` file fan-out and the
//! refined analysis' per-head fan-out, `-j 1` vs `-j 4`.
//!
//! The interesting number is the ratio between the two variants of each
//! group — the verdicts are identical by construction (see the
//! determinism tests); only wall-clock time may differ. On a
//! single-core machine the ratio degenerates to ~1 and what the bench
//! demonstrates instead is that the pool's overhead is negligible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iwa_analysis::{AnalysisCtx, RefinedOptions};
use iwa_bench::families::sized_random;
use iwa_engine::{check_batch, CheckOptions, EngineOptions, Rung};
use iwa_syncgraph::SyncGraph;
use std::hint::black_box;
use std::path::PathBuf;

/// Write an adversarial corpus (large random programs whose refined
/// analysis dominates the runtime) into a scratch directory once.
fn corpus_dir() -> Vec<PathBuf> {
    let dir = std::env::temp_dir().join(format!("iwa-bench-parallel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    (0..8u64)
        .map(|i| {
            let p = sized_random(0xADE ^ i, 5, 40);
            let path = dir.join(format!("adversarial_{i}.iwa"));
            std::fs::write(&path, p.to_source()).unwrap();
            path
        })
        .collect()
}

fn bench_parallel(c: &mut Criterion) {
    let files = corpus_dir();

    // Batch checking: files fan out across the worker pool. Start at the
    // Heads rung so each file is compute-bound in the refined analysis
    // (the oracle's state-space walk would swamp the comparison).
    let mut g = c.benchmark_group("check_batch_jobs");
    g.sample_size(10);
    for jobs in [1usize, 4] {
        let opts = CheckOptions {
            engine: EngineOptions {
                start: Rung::Heads,
                ..EngineOptions::default()
            },
            jobs,
            batch_deadline: None,
            ..CheckOptions::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(jobs), &opts, |b, opts| {
            b.iter(|| check_batch(black_box(&files), opts))
        });
    }
    g.finish();

    // Per-head fan-out inside one refined analysis of one big graph.
    let sg = SyncGraph::from_program(&sized_random(0xFA2, 6, 64));
    let mut g = c.benchmark_group("refined_workers");
    g.sample_size(10);
    for workers in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    AnalysisCtx::builder()
                        .workers(workers)
                        .build()
                        .refined(black_box(&sg), &RefinedOptions::default())
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
