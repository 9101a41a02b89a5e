//! E11 (stall side) — Lemma 3/4 against the oracle.
//!
//! * **Soundness of the balance certificate**: whenever `stall_analysis`
//!   answers `StallFree`, the oracle must find no stall node on any
//!   reachable wave. For straight-line programs that is Lemma 3; with
//!   branches it is the Lemma 4 path-combination check. (Programs using
//!   *encapsulated* conditions are excluded from the oracle comparison:
//!   the wave model is data-blind and can reach branch combinations the
//!   carried booleans forbid — see experiment E7's fig5d discussion.)
//! * **Conservatism is real**: some `PossibleStall` answers are false
//!   alarms, and the test suite pins one.
//! * **Lemma 3 needs no transforms**: the §5.1 transforms leave a
//!   straight-line program as it is, which is why stall analysis skips
//!   them there; with and without them it answers alike.

use iwa::analysis::{AnalysisCtx, StallOptions, StallReport, StallVerdict};

fn stall_analysis(p: &iwa::tasklang::Program, opts: &StallOptions) -> StallReport {
    AnalysisCtx::builder().build().stall(p, opts)
}
use iwa::syncgraph::SyncGraph;
use iwa::tasklang::transforms::{factor_codependent, merge_branch_rendezvous};
use iwa::wavesim::{explore, ExploreConfig};
use iwa::workloads::{random_balanced, random_structured, BalancedConfig, StructuredConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn check_stall_soundness(p: &iwa::tasklang::Program) -> Result<(), TestCaseError> {
    let report = stall_analysis(p, &StallOptions::default());
    if report.verdict != StallVerdict::StallFree {
        return Ok(());
    }
    let e = explore(&SyncGraph::from_program(p), &ExploreConfig::default())
        .expect("oracle in budget");
    prop_assert!(
        !e.has_stall(),
        "certified stall-free but the oracle stalls:\n{p}"
    );
    Ok(())
}

/// Both §5.1 transforms print a straight-line program back unchanged, and
/// the stall report does not depend on whether they are enabled.
fn check_transforms_skip_exactly(p: &iwa::tasklang::Program) -> Result<(), TestCaseError> {
    prop_assert!(p.is_straight_line());
    prop_assert_eq!(
        factor_codependent(&merge_branch_rendezvous(p)).to_source(),
        p.to_source()
    );
    let with = stall_analysis(p, &StallOptions::default());
    let without = stall_analysis(
        p,
        &StallOptions {
            apply_transforms: false,
        },
    );
    prop_assert_eq!(&with.verdict, &without.verdict);
    prop_assert_eq!(&with.signal_counts, &without.signal_counts);
    prop_assert_eq!(with.straight_line, without.straight_line);
    prop_assert_eq!(with.combinations_checked, without.combinations_checked);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Straight-line programs, balanced and not: the transforms change
    /// nothing, so skipping them changes no report.
    #[test]
    fn transforms_are_the_identity_on_straight_line(
        seed in 0u64..1_000_000,
        swaps in 0usize..10,
        tasks in 2usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_transforms_skip_exactly(&random_balanced(
            &mut rng,
            &BalancedConfig { tasks: 3, events: 6, message_types: 2, swaps },
        ))?;
        check_transforms_skip_exactly(&random_structured(
            &mut rng,
            &StructuredConfig {
                tasks,
                rendezvous_per_task: 4,
                branch_prob: 0.0,
                loop_prob: 0.0,
                message_types: 2,
            },
        ))?;
    }

    /// Balanced straight-line programs: Lemma 3 certifies them all, and
    /// indeed no wave ever contains a stall node (deadlocks may occur).
    #[test]
    fn lemma3_sound_on_straight_line(seed in 0u64..1_000_000, swaps in 0usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_balanced(
            &mut rng,
            &BalancedConfig { tasks: 3, events: 5, message_types: 2, swaps },
        );
        let report = stall_analysis(&p, &StallOptions::default());
        prop_assert_eq!(report.verdict, StallVerdict::StallFree, "balanced ⇒ certified");
        check_stall_soundness(&p)?;
    }

    /// Structured loop-free programs: whenever Lemma 4's path enumeration
    /// certifies, the oracle agrees.
    #[test]
    fn lemma4_sound_on_branching(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_structured(
            &mut rng,
            &StructuredConfig {
                tasks: 3,
                rendezvous_per_task: 4,
                branch_prob: 0.3,
                loop_prob: 0.0, // loop-free so the verdict is decidable
                message_types: 2,
            },
        );
        check_stall_soundness(&p)?;
    }
}

/// Unbalanced straight-line programs can never fully terminate, so the
/// `PossibleStall` verdict is not merely conservative there.
#[test]
fn unbalanced_straight_line_never_terminates() {
    let p = iwa::tasklang::parse(
        "task a { send b.m; send b.m; send b.m; } task b { accept m; }",
    )
    .unwrap();
    let r = stall_analysis(&p, &StallOptions::default());
    assert!(matches!(r.verdict, StallVerdict::PossibleStall { .. }));
    let e = explore(&SyncGraph::from_program(&p), &ExploreConfig::default()).unwrap();
    assert!(!e.can_terminate);
    assert!(e.has_stall());
}

/// A pinned false alarm: feasibly-coupled opaque branches. The analysis
/// cannot know the two conditionals agree, reports `PossibleStall`, yet
/// with *these* opaque conditions the oracle indeed stalls on the
/// mismatched combination — so to exhibit a real false alarm we use the
/// encapsulated-variable program (fig5d) *without* transforms: the
/// verdict is `PossibleStall` although co-dependence makes every real
/// execution balanced.
#[test]
fn pinned_false_alarm_without_transforms() {
    let p = iwa::workloads::figures::fig5d();
    let raw = stall_analysis(
        &p,
        &StallOptions {
            apply_transforms: false,
        },
    );
    assert!(matches!(raw.verdict, StallVerdict::PossibleStall { .. }));
    let with = stall_analysis(&p, &StallOptions::default());
    assert_eq!(with.verdict, StallVerdict::StallFree);
}

/// Loops remain out of scope and say so.
#[test]
fn loops_answer_unknown() {
    let p = iwa::workloads::classics::pipeline_looping(3);
    let r = stall_analysis(&p, &StallOptions::default());
    assert!(matches!(r.verdict, StallVerdict::Unknown { .. }));
}
