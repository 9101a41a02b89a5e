//! One seed, one input list: the same seed must give the same inputs,
//! the same verdicts and the same per-layer counts, run after run, and
//! `BENCHMARK.json` must list exactly the metrics the runs print.

use iwa_engine::EngineVerdict;
use iwa_perfbench::closed::{self, Closed};
use iwa_perfbench::inputs::{self, Fixture, Input};
use iwa_perfbench::replay::Tally;
use iwa_perfbench::stats::Checks;
use iwa_perfbench::trace::Recorder;
use iwa_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;

fn corpus() -> Vec<Fixture> {
    inputs::load_corpus(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus"))
        .expect("the corpus has fixtures with known verdicts")
}

fn listing(inputs: &[Input]) -> Vec<(String, String)> {
    inputs
        .iter()
        .map(|i| (i.label.clone(), i.source.clone()))
        .collect()
}

/// One traced pass: every verdict, and every per-layer count (times
/// excluded: they are the only thing allowed to differ).
fn traced_pass(inputs: &[Input], w: &Closed) -> (Vec<Result<EngineVerdict, String>>, Tally) {
    let mut rec = Recorder::new(false);
    let mut tally = Tally::default();
    let mut checks = Checks::default();
    let verdicts = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let v = closed::trace_op(i as u64, input, w, &mut rec, &mut tally).map(|o| o.verdict);
            checks.record(input, v.clone());
            v
        })
        .collect();
    assert_eq!(
        checks.failed, 0,
        "known-answer failures: {:?}",
        checks.failures
    );
    tally.0.retain(|k, _| !k.ends_with("_ms"));
    (verdicts, tally)
}

fn repeats(generate: &dyn Fn(u64) -> Vec<Input>, w: &Closed) {
    let (a, b) = (generate(7), generate(7));
    assert_eq!(listing(&a), listing(&b), "one seed, one input list");
    assert_ne!(
        listing(&a),
        listing(&generate(8)),
        "the seed changes the draw"
    );
    let (first, second) = (traced_pass(&a, w), traced_pass(&b, w));
    assert_eq!(first.0, second.0, "verdicts");
    assert_eq!(first.1, second.1, "per-layer counts");
    assert!(first.1.get("engine.steps") > 0.0);
}

#[test]
fn certify_mix_repeats_exactly() {
    let c = corpus();
    repeats(&|seed| inputs::certify_mix(seed, &c), &closed::CERTIFY);
}

#[test]
fn oracle_waves_repeats_exactly() {
    repeats(&inputs::oracle_waves, &closed::ORACLE);
}

#[test]
fn serve_working_set_repeats_exactly() {
    let c = corpus();
    let a = inputs::serve_working_set(7, &c);
    assert_eq!(listing(&a), listing(&inputs::serve_working_set(7, &c)));
    assert!(a.len() < iwa_serve::ServeOptions::default().cache_cap);
}

#[test]
fn a_clean_verdict_on_a_known_anomaly_fails_and_a_flag_on_clean_is_a_false_alarm() {
    let mut input = inputs::oracle_waves(1).remove(0);
    let mut checks = Checks::default();
    input.expect = inputs::Expect::Anomalous;
    checks.record(&input, Ok(EngineVerdict::Clean));
    checks.record(&input, Ok(EngineVerdict::Unknown));
    input.expect = inputs::Expect::Clean;
    checks.record(&input, Ok(EngineVerdict::Anomalous));
    checks.record(&input, Err("panicked".to_owned()));
    assert_eq!((checks.attempted, checks.failed), (4, 2));
    assert_eq!((checks.known_clean, checks.false_alarms), (1, 1));
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .expect("a list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or_default().to_owned(),
                    m["unit"].as_str().unwrap_or_default().to_owned(),
                )
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&END_TO_END));
    assert_eq!(names("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = doc["workloads"]
        .as_array()
        .expect("a list")
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
