//! Cross-checks for the `.lok` lock-order frontend over `corpus/locks/`:
//! the shared wait-graph suite ([`wait_suite`]) plus the lock-specific
//! witness case.

mod wait_suite;

use iwa::frontend::Lang;
use wait_suite::Corpus;

const LOCKS: Corpus = Corpus {
    dir: "corpus/locks",
    lang: Lang::Lok,
};

/// Wait graph, naive CLG check, seeded refined search, the wave oracle
/// and the engine ladder all agree with each fixture's `// expect:`
/// header.
#[test]
fn every_fixture_agrees_across_all_four_analyses() {
    LOCKS.every_fixture_agrees();
}

#[test]
fn seeded_and_unseeded_refined_verdicts_match() {
    LOCKS.seeded_and_unseeded_refined_verdicts_match();
}

#[test]
fn lowering_matches_the_golden() {
    LOCKS.lowering_matches_the_golden("tests/golden/lowered_locks.txt");
}

/// The seeded acceptance case: a three-mutex ring is reported with a
/// witness chain naming every mutex and anchoring each acquire site to
/// its source span.
#[test]
fn three_cycle_witness_walks_the_ring_with_spans() {
    let model = LOCKS.fixture("three_cycle.lok");
    let m = model.as_lok().unwrap();
    assert_eq!(m.cycles.len(), 1, "exactly one ring: {:?}", m.cycles);
    let witness = m.lock_graph.render_cycle(&m.cycles[0]);
    assert!(witness.contains("a → b → c → a"), "chain: {witness}");
    for mutex in ["a", "b", "c"] {
        assert!(
            witness.contains(&format!("holds {mutex} (")),
            "span-anchored hold of {mutex}: {witness}"
        );
    }
    // Spans are line:column pairs into the fixture source.
    assert!(witness.contains("(6:13)"), "acquire spans: {witness}");
}
