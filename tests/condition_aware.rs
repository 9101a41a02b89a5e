//! E17 fuzzing: the condition-aware analyses against the **data-aware**
//! interpreter.
//!
//! The data-blind wave oracle cannot judge §5.1-powered facts, so this
//! suite uses `wavesim::interp` (condition valuations, carried booleans)
//! as the semantic referee:
//!
//! * every cross-task `NOT-COEXEC` pair derived by
//!   `CoexecInfo::compute_with_conditions` must never co-fire in any
//!   data-aware run;
//! * a program whose transform-assisted stall analysis certified
//!   `StallFree` must never get stuck in a data-aware run (loop-free
//!   programs);
//! * co-dependent pairs found by the §5.1 inference fire together or not
//!   at all.

use iwa::analysis::{AnalysisCtx, CoexecInfo, StallOptions, StallVerdict};
use iwa::syncgraph::SyncGraph;
use iwa::wavesim::{run_data_aware, InterpOutcome};
use iwa::workloads::{random_conditioned, ConditionedConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Derived cross-task exclusions hold on every data-aware run.
    #[test]
    fn not_coexec_claims_hold_data_aware(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_conditioned(&mut rng, &ConditionedConfig::default());
        let sg = SyncGraph::from_program(&p);
        let cx = CoexecInfo::compute_with_conditions(&sg);
        // Collect the claimed-exclusive cross-task pairs.
        let mut claims = Vec::new();
        for a in sg.rendezvous_nodes() {
            for b in sg.rendezvous_nodes() {
                if a < b
                    && sg.node(a).task != sg.node(b).task
                    && cx.not_coexec(&sg, a, b)
                {
                    claims.push((a, b));
                }
            }
        }
        // Fuzz runs.
        for _ in 0..40 {
            let run = run_data_aware(&p, &sg, &mut rng, 200);
            for &(a, b) in &claims {
                prop_assert!(
                    !(run.fired_node(a) && run.fired_node(b)),
                    "claimed-exclusive pair ({a},{b}) co-fired in:\n{p}"
                );
            }
        }
    }

    /// Certified stall freedom holds data-aware on loop-free conditioned
    /// programs: no run gets stuck.
    #[test]
    fn certified_stall_freedom_holds_data_aware(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_conditioned(&mut rng, &ConditionedConfig::default());
        let report = AnalysisCtx::builder().build().stall(&p, &StallOptions::default());
        if report.verdict != StallVerdict::StallFree {
            return Ok(());
        }
        let sg = SyncGraph::from_program(&p);
        for _ in 0..40 {
            let run = run_data_aware(&p, &sg, &mut rng, 200);
            prop_assert!(
                run.outcome == InterpOutcome::Completed,
                "certified stall-free but a data-aware run ended {:?} in:\n{}",
                run.outcome,
                p
            );
        }
    }

    /// Co-dependent pairs (the fig5d inference) fire atomically.
    #[test]
    fn codependent_pairs_fire_together(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_conditioned(&mut rng, &ConditionedConfig {
            negative_prob: 0.0, // all-positive guards: the fig5d shape
            ..ConditionedConfig::default()
        });
        let pairs = iwa::tasklang::transforms::codependent_pairs(&p);
        if pairs.is_empty() {
            return Ok(());
        }
        let sg = SyncGraph::from_program(&p);
        for _ in 0..30 {
            let run = run_data_aware(&p, &sg, &mut rng, 200);
            if run.outcome != InterpOutcome::Completed {
                continue; // partial runs may legitimately strand one side
            }
            for &sig in &pairs {
                let sends = sg.sends_of(sig);
                let accepts = sg.accepts_of(sig);
                prop_assert_eq!(
                    run.fired_node(sends[0] as usize),
                    run.fired_node(accepts[0] as usize),
                    "co-dependent pair split in completed run of:\n{}",
                    p
                );
            }
        }
    }
}

/// The data-blind wave oracle over-approximates the data-aware runs: any
/// completed data-aware run's firing multiset is also wave-reachable.
/// (Spot-check: data-aware stuck rates are ≤ data-blind anomaly presence.)
#[test]
fn data_blind_over_approximates_data_aware() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked = 0;
    for _ in 0..30 {
        let p = random_conditioned(&mut rng, &ConditionedConfig::default());
        let sg = SyncGraph::from_program(&p);
        let blind = iwa::wavesim::explore(&sg, &iwa::wavesim::ExploreConfig::default())
            .unwrap();
        let mut aware_stuck = false;
        for _ in 0..25 {
            if run_data_aware(&p, &sg, &mut rng, 200).outcome == InterpOutcome::Stuck {
                aware_stuck = true;
            }
        }
        if aware_stuck {
            assert!(
                blind.anomaly_count > 0,
                "data-aware stuck but data-blind clean on:\n{p}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "some programs should get stuck");
}
