//! Cross-checks for the `.chan` channel/select frontend over
//! `corpus/channels/`: the shared wait-graph suite ([`wait_suite`]) plus
//! the channel-specific witness cases and workload flavours.

mod wait_suite;

use iwa::frontend::{registry, Lang};
use wait_suite::Corpus;

const CHANNELS: Corpus = Corpus {
    dir: "corpus/channels",
    lang: Lang::Chan,
};

/// Wait graph, livelock witnesses, naive CLG check, seeded refined
/// search, the wave oracle and the engine ladder all agree with each
/// fixture's `// expect:` header.
#[test]
fn every_fixture_agrees_across_all_analyses() {
    CHANNELS.every_fixture_agrees();
}

#[test]
fn seeded_and_unseeded_refined_verdicts_match() {
    CHANNELS.seeded_and_unseeded_refined_verdicts_match();
}

#[test]
fn lowering_matches_the_golden() {
    CHANNELS.lowering_matches_the_golden("tests/golden/lowered_channels.txt");
}

/// The seeded acceptance case: the spin-on-default poller is reported
/// with a span-anchored witness naming the loop, the select, and the
/// starved arm with its ranked rationale.
#[test]
fn select_default_spin_witness_is_span_anchored_with_rationale() {
    let model = CHANNELS.fixture("select_default_spin.chan");
    let m = model.as_chan().unwrap();
    assert!(m.cycles.is_empty(), "no deadlock: {:?}", m.cycles);
    assert_eq!(m.livelocks.len(), 1, "one witness: {:?}", m.livelocks);
    let w = &m.livelocks[0];
    assert!(w.loop_span.is_real() && w.site_span.is_real());
    assert_eq!(w.starved.len(), 1);
    assert_eq!(w.starved[0].counterparts, 0, "the arm can never fire");
    let rendered = m.render_livelock(w);
    assert!(rendered.contains("proc poller livelocks"), "{rendered}");
    assert!(rendered.contains("spins on select default"), "{rendered}");
    assert!(
        rendered.contains("recv c") && rendered.contains("can never fire"),
        "starved-arm rationale: {rendered}"
    );
    // Spans are line:column pairs into the fixture source.
    assert!(rendered.contains(&w.site_span.to_string()), "{rendered}");
}

/// The ring acceptance case: the three-process ring is reported with a
/// witness chain walking every port and anchoring each blocked site.
#[test]
fn ring_three_witness_walks_the_ring_with_spans() {
    let model = CHANNELS.fixture("ring_three.chan");
    let m = model.as_chan().unwrap();
    assert_eq!(m.cycles.len(), 1, "exactly one ring: {:?}", m.cycles);
    let witness = m.comm_graph.render_cycle(&m.cycles[0]);
    for port in ["c0!", "c1!", "c2!"] {
        assert!(witness.contains(port), "port {port} in chain: {witness}");
    }
    assert!(witness.contains("blocks at"), "span-anchored: {witness}");
}

/// The bench workload generators deliver the flavours they document:
/// the ring deadlocks unless broken, the storm livelocks iff it spins.
#[test]
fn workload_generator_flavours_have_the_documented_verdicts() {
    use iwa::workloads::chan::{chan_ring, chan_select_storm};
    let frontend = registry::by_lang(Lang::Chan);
    let load = |src: String| frontend.load(&src).expect("generated .chan is valid");
    for n in [2, 3, 8] {
        let ring = load(chan_ring(n, false));
        let m = ring.as_chan().unwrap();
        assert_eq!(m.cycles.len(), 1, "ring({n}): {:?}", m.cycles);
        assert!(m.livelocks.is_empty(), "ring({n})");
        let broken = load(chan_ring(n, true));
        let m = broken.as_chan().unwrap();
        assert!(m.cycles.is_empty(), "broken ring({n}): {:?}", m.cycles);
        assert!(m.livelocks.is_empty(), "broken ring({n})");

        let spin = load(chan_select_storm(n, true));
        let m = spin.as_chan().unwrap();
        assert!(m.cycles.is_empty(), "spin storm({n}): {:?}", m.cycles);
        assert_eq!(m.livelocks.len(), 1, "spin storm({n})");
        assert_eq!(m.livelocks[0].starved.len(), n, "spin storm({n}) arms");
        let served = load(chan_select_storm(n, false));
        let m = served.as_chan().unwrap();
        assert!(m.cycles.is_empty(), "served storm({n}): {:?}", m.cycles);
        assert!(m.livelocks.is_empty(), "served storm({n})");
    }
}
