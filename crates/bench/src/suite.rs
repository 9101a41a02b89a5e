//! The `iwa bench` suite: drive the workload families through the
//! engine, one row per family member.
//!
//! Each row records the wall-clock cost of analysing one family member
//! beside the engine's deterministic [`Counters`] — nodes built, cycles
//! enumerated, pruning-rule hits. [`crate::history`] projects a run onto
//! one line of the tracked trajectory and gates its step counts against
//! the newest recorded line; that line is the only record a run leaves.
//!
//! Every family is analysed from the [`Rung::Heads`](iwa_engine::Rung)
//! rung under a *step* ceiling, so rung selection (and with it every
//! counter) is reproducible for a given mode — wall-clock never decides
//! anything here.

use crate::families::{relay_chain, replicated_pairs, sized_random};
use crate::timed;
use iwa_core::obs::{Counters, Metrics};
use iwa_engine::{analyze, analyze_model, EngineOptions, Rung};
use iwa_frontend::{registry as frontends, Lang};
use iwa_tasklang::ast::Program;
use iwa_workloads::adversarial::{deep_loop_nest, rendezvous_mesh, wide_branch};
use iwa_workloads::chan::{chan_ring, chan_select_storm};
use iwa_workloads::locks::{lock_chain, lock_mesh};

/// One analysed family member.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Stable family name (`replicated_pairs`, `relay_chain`, ...).
    pub family: String,
    /// The family's scale parameter (pairs, hops, tasks, width, ...).
    pub size: u64,
    /// Wall-clock milliseconds for the whole `analyze` call. The only
    /// machine-dependent field; comparisons must mask it.
    pub wall_ms: u64,
    /// Cooperative budget steps the ladder consumed (deterministic).
    pub steps: u64,
    /// The engine's deterministic counter block for this run, including
    /// the per-rule pruning hit counts.
    pub metrics: Counters,
}

/// The whole suite's output.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// `"smoke"` or `"full"`.
    pub mode: String,
    /// One row per family member, in a fixed order.
    pub rows: Vec<BenchRow>,
}

/// The seed baked into the suite's randomized family. Public so the bench
/// trajectory ([`crate::history`]) can record which workload it describes.
pub const SIZED_RANDOM_SEED: u64 = 7;

/// One suite member's model: a tasklang AST, or `.lok` / `.chan` source
/// text (the frontend's parse + dataflow + lowering are part of what
/// those rows measure).
enum Member {
    Iwa(Program),
    Lok(String),
    Chan(String),
}

/// The suite: `(family, size, member)` triples for one mode. Smoke mode
/// shrinks every family to CI-friendly sizes without dropping any family —
/// the regression oracle needs every counter source exercised.
fn members(smoke: bool) -> Vec<(&'static str, u64, Member)> {
    let mut out: Vec<(&'static str, u64, Member)> = Vec::new();
    let pair_sizes: &[u64] = if smoke { &[4] } else { &[4, 8, 16] };
    for &n in pair_sizes {
        out.push(("replicated_pairs", n, Member::Iwa(replicated_pairs(n as usize, 2))));
    }
    let hop_sizes: &[u64] = if smoke { &[8] } else { &[8, 16, 32] };
    for &n in hop_sizes {
        out.push(("relay_chain", n, Member::Iwa(relay_chain(n as usize))));
    }
    let random_sizes: &[u64] = if smoke { &[4] } else { &[4, 8, 12] };
    for &n in random_sizes {
        out.push((
            "sized_random",
            n,
            Member::Iwa(sized_random(SIZED_RANDOM_SEED, n as usize, 6)),
        ));
    }
    let nest_sizes: &[u64] = if smoke { &[2] } else { &[2, 3] };
    for &n in nest_sizes {
        out.push(("deep_loop_nest", n, Member::Iwa(deep_loop_nest(n as usize, 2))));
    }
    let mesh_sizes: &[u64] = if smoke { &[4] } else { &[4, 6, 8] };
    for &n in mesh_sizes {
        out.push(("rendezvous_mesh", n, Member::Iwa(rendezvous_mesh(n as usize, true))));
    }
    let branch_sizes: &[u64] = if smoke { &[4] } else { &[4, 6, 8] };
    for &n in branch_sizes {
        out.push(("wide_branch", n, Member::Iwa(wide_branch(n as usize))));
    }
    // The `.lok` frontend families: a witness-producing ring and a dense
    // clean mesh, so both the anomaly and certification paths are timed.
    let chain_sizes: &[u64] = if smoke { &[8] } else { &[8, 16, 32] };
    for &n in chain_sizes {
        out.push(("lock_chain", n, Member::Lok(lock_chain(n as usize, false))));
    }
    let lock_mesh_sizes: &[u64] = if smoke { &[4] } else { &[4, 6, 8] };
    for &n in lock_mesh_sizes {
        out.push(("lock_mesh", n, Member::Lok(lock_mesh(n as usize, true))));
    }
    // The `.chan` frontend families: a witness-producing port ring and a
    // clean all-arms-served select storm, mirroring the `.lok` pair.
    let ring_sizes: &[u64] = if smoke { &[8] } else { &[8, 16, 32] };
    for &n in ring_sizes {
        out.push(("chan_ring", n, Member::Chan(chan_ring(n as usize, false))));
    }
    let storm_sizes: &[u64] = if smoke { &[4] } else { &[4, 8, 16] };
    for &n in storm_sizes {
        out.push((
            "chan_select_storm",
            n,
            Member::Chan(chan_select_storm(n as usize, false)),
        ));
    }
    out
}

/// Run the whole suite. `smoke` shrinks the sizes for CI; both modes run
/// every family.
#[must_use]
pub fn run_suite(smoke: bool) -> BenchReport {
    let max_steps = if smoke { 500_000 } else { 20_000_000 };
    let rows = members(smoke)
        .into_iter()
        .map(|(family, size, member)| {
            let metrics = Metrics::new();
            let opts = EngineOptions {
                // Heads keeps every family polynomial; the step ceiling
                // (never a wall-clock deadline) keeps rung selection — and
                // therefore every counter — deterministic.
                start: Rung::Heads,
                max_steps: Some(max_steps),
                metrics: Some(metrics.clone()),
                ..EngineOptions::default()
            };
            // Non-tasklang members load inside the timed section: the
            // frontend's parse, effect dataflow, and lowering are part of
            // the family's cost.
            let frontend_timed = |lang: Lang, src: String| {
                timed(|| {
                    let model = frontends::by_lang(lang)
                        .load(&src)
                        .expect("generated frontend families are valid");
                    analyze_model(&model, &opts)
                })
            };
            let (report, wall) = match member {
                Member::Iwa(program) => timed(|| analyze(&program, &opts)),
                Member::Lok(src) => frontend_timed(Lang::Lok, src),
                Member::Chan(src) => frontend_timed(Lang::Chan, src),
            };
            let report = report.expect("generated families are valid programs");
            BenchRow {
                family: family.to_owned(),
                size,
                wall_ms: wall.as_millis().try_into().unwrap_or(u64::MAX),
                steps: report.attempts.iter().map(|a| a.steps).sum(),
                metrics: metrics.snapshot(),
            }
        })
        .collect();
    BenchReport {
        mode: if smoke { "smoke" } else { "full" }.to_owned(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_smoke_suite_runs_every_family() {
        let report = run_suite(true);
        assert!(report.rows.iter().any(|r| r.family == "rendezvous_mesh"));
        // The suite must exercise the refined pipeline: some family
        // produces head examinations, else the regression oracle is blind.
        assert!(report.rows.iter().any(|r| r.metrics.heads_examined > 0));
        // The .lok and .chan families ride along and do real work.
        for fam in ["lock_chain", "lock_mesh", "chan_ring", "chan_select_storm"] {
            let row = report
                .rows
                .iter()
                .find(|r| r.family == fam)
                .unwrap_or_else(|| panic!("{fam} missing"));
            assert!(row.steps > 0, "{fam}: {row:?}");
        }
    }

    #[test]
    fn smoke_metrics_are_reproducible() {
        let a = run_suite(true);
        let b = run_suite(true);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.family, rb.family);
            assert_eq!(ra.metrics, rb.metrics, "family {}", ra.family);
            assert_eq!(ra.steps, rb.steps, "family {}", ra.family);
        }
    }
}
