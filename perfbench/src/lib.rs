//! The iwa benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run.
//!
//! * `certify_mix` — closed loop, one thread: source to verdict through
//!   the Heads rung plus the quick lint stage, over a heavy-tailed mix of
//!   generator families in all three languages and the `corpus/`
//!   fixtures.
//! * `oracle_waves` — closed loop, one thread: the ladder from the Oracle
//!   rung over small programs whose wave spaces reach 59 049 states.
//! * `serve_replay` — open loop against an in-process `iwa serve` daemon:
//!   rounds over a working set, 10% of it edited before each round.
//!
//! Every input carries a known answer; every verdict is checked. See
//! `SIZING.md` next to this package for why each workload looks the way
//! it does.

#![forbid(unsafe_code)]

pub mod closed;
pub mod inputs;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;

use closed::InputTrace;
use replay::Tally;
use stats::median;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["certify_mix", "oracle_waves", "serve_replay"];

/// End-to-end metrics `(name, unit)`, printed by the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("certified_clean_pct", "%"),
];

/// Per-layer metrics `(name, unit)`, printed by the traced run. Times are
/// milliseconds per pass over the workload's inputs (per round on
/// serve_replay), the median over traced passes; counts are per pass.
pub const PER_LAYER: [(&str, &str); 61] = [
    ("tasklang.parse_ms", "ms"),
    ("tasklang.parse_mb_per_s", "MB/s"),
    ("tasklang.validate_ms", "ms"),
    ("tasklang.transform_ms", "ms"),
    ("frontend.lok.parse_ms", "ms"),
    ("frontend.lok.dataflow_ms", "ms"),
    ("frontend.lok.lower_ms", "ms"),
    ("frontend.chan.parse_ms", "ms"),
    ("frontend.chan.dataflow_ms", "ms"),
    ("frontend.chan.livelock_ms", "ms"),
    ("frontend.chan.lower_ms", "ms"),
    ("syncgraph.build_ms", "ms"),
    ("syncgraph.clg_ms", "ms"),
    ("syncgraph.port_clg_ms", "ms"),
    ("syncgraph.nodes", "count"),
    ("syncgraph.clg_edges", "count"),
    ("graphs.scc_ms", "ms"),
    ("graphs.scc_runs", "count"),
    ("analysis.naive_ms", "ms"),
    ("analysis.sequence_ms", "ms"),
    ("analysis.coexec_ms", "ms"),
    ("analysis.head_search_ms", "ms"),
    ("analysis.stall_ms", "ms"),
    ("analysis.heads_examined", "count"),
    ("analysis.sequenceable_hits", "count"),
    ("analysis.not_coexec_hits", "count"),
    ("analysis.coaccept_hits", "count"),
    ("analysis.stall_combinations", "count"),
    ("analysis.scc_runs_per_head", "ratio"),
    ("analysis.refined_exponent", "ratio"),
    ("wavesim.initial_ms", "ms"),
    ("wavesim.initial_waves", "count"),
    ("wavesim.explore_ms", "ms"),
    ("wavesim.states", "count"),
    ("wavesim.us_per_state", "us"),
    ("wavesim.kb_per_state", "kB"),
    ("wavesim.state_exponent", "ratio"),
    ("engine.residual_ms", "ms"),
    ("engine.steps", "count"),
    ("engine.rungs_abandoned", "count"),
    ("lint.quick_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("serve.hit_rtt_ms", "ms"),
    ("serve.miss_rtt_ms", "ms"),
    ("serve.hit_path_us", "us"),
    ("serve.transport_ms", "ms"),
    ("serve.cache_hit_pct", "%"),
    ("serve.generator_lag_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("tasklang.busy_pct", "%"),
    ("frontend.busy_pct", "%"),
    ("syncgraph.busy_pct", "%"),
    ("graphs.busy_pct", "%"),
    ("analysis.busy_pct", "%"),
    ("wavesim.busy_pct", "%"),
    ("engine.busy_pct", "%"),
    ("lint.busy_pct", "%"),
    ("serve.busy_pct", "%"),
    ("trace.overhead_ms_per_op", "ms"),
    ("trace.spans", "count"),
];

/// The untraced run's end-to-end figures.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Verdicts (serve: `ok` responses) per second of the timed phase.
    pub throughput_per_s: f64,
    /// Median latency per verdict or request.
    pub latency_p50_ms: f64,
    /// 99th-percentile latency.
    pub latency_p99_ms: f64,
    /// The three figures above before scaling to nominal host speed.
    pub raw_throughput_per_s: f64,
    /// Raw median latency.
    pub raw_latency_p50_ms: f64,
    /// Raw 99th-percentile latency.
    pub raw_latency_p99_ms: f64,
    /// Median reference-kernel time over the run (0 when not scaled).
    pub ref_ms: f64,
    /// Peak resident set at the end of the timed phase, MB.
    pub peak_rss_mb: f64,
    /// Latency samples.
    pub samples: usize,
    /// Whole passes (serve: rounds) measured.
    pub passes: usize,
}

/// The traced run's raw per-layer record.
#[derive(Clone, Debug, Default)]
pub struct Layered {
    /// One tally per traced pass (serve: one, already per round).
    pub tallies: Vec<Tally>,
    /// Per-input figures (closed loops).
    pub per_input: Vec<InputTrace>,
    /// Time per operation traced minus untraced.
    pub overhead_ms_per_op: f64,
    /// Operation labels by op id (serve: by request id).
    pub labels: Vec<String>,
}

/// The layers whose time shares make up busy time.
const LAYERS: [&str; 9] = [
    "tasklang",
    "frontend",
    "syncgraph",
    "graphs",
    "analysis",
    "wavesim",
    "engine",
    "lint",
    "serve",
];

impl Layered {
    /// Every per-layer metric by name: medians across passes, plus the
    /// derived rates, ratios, shares and fitted exponents.
    #[must_use]
    pub fn metrics(&self, kb_per_state: f64, spans: usize) -> Tally {
        let mut keys: Vec<&'static str> = self
            .tallies
            .iter()
            .flat_map(|t| t.0.keys().copied())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let mut m = Tally::default();
        for k in keys {
            let vals: Vec<f64> = self.tallies.iter().map(|t| t.get(k)).collect();
            m.add(k, median(&vals));
        }
        let parse_ms = m.get("tasklang.parse_ms");
        if parse_ms > 0.0 {
            m.add(
                "tasklang.parse_mb_per_s",
                m.get("tasklang.bytes") / 1e6 / (parse_ms / 1e3),
            );
        }
        let heads = m.get("analysis.heads_examined");
        if heads > 0.0 {
            m.add(
                "analysis.scc_runs_per_head",
                m.get("graphs.scc_runs") / heads,
            );
        }
        let states = m.get("wavesim.states");
        if states > 0.0 {
            m.add(
                "wavesim.us_per_state",
                m.get("wavesim.explore_ms") * 1e3 / states,
            );
            m.add("wavesim.kb_per_state", kb_per_state);
        }
        let fit = |x: fn(&InputTrace) -> f64| {
            let pts: Vec<(f64, f64)> = self
                .per_input
                .iter()
                .filter(|i| x(i) > 0.0 && !i.analyze_ms.is_empty())
                .map(|i| (x(i), median(&i.analyze_ms)))
                .collect();
            let slope = iwa_bench::loglog_slope(&pts);
            if slope.is_finite() {
                slope
            } else {
                0.0
            }
        };
        if states > 0.0 {
            m.add("wavesim.state_exponent", fit(|i| i.states));
        } else {
            m.add("analysis.refined_exponent", fit(|i| i.clg_size));
        }

        let busy_of = |layer: &str| -> f64 {
            m.0.iter()
                .filter(|(k, _)| k.starts_with(layer) && k.ends_with("_ms") && is_layer_time(k))
                .map(|(_, v)| v.max(0.0))
                .sum()
        };
        let busy: Vec<(&str, f64)> = LAYERS.iter().map(|&l| (l, busy_of(l))).collect();
        let total: f64 = busy.iter().map(|(_, v)| v).sum();
        for (layer, v) in busy {
            if total > 0.0 {
                m.add(share_key(layer), v * 100.0 / total);
            }
        }
        m.add("trace.overhead_ms_per_op", self.overhead_ms_per_op);
        m.add("trace.spans", spans as f64);
        m
    }
}

/// Busy time counts the layer spans only, not round trips or lags.
fn is_layer_time(k: &str) -> bool {
    !matches!(
        k,
        "serve.hit_rtt_ms" | "serve.miss_rtt_ms" | "serve.transport_ms" | "serve.generator_lag_ms"
    ) && !k.starts_with("trace.")
}

fn share_key(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|(k, _)| *k)
        .find(|k| k.strip_suffix(".busy_pct") == Some(layer))
        .expect("every layer has a busy share metric")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str)],
    values: &Tally,
) -> String {
    use serde::Value;
    let metrics = metrics
        .iter()
        .map(|(name, unit)| {
            (
                (*name).to_owned(),
                Value::Object(vec![
                    ("value".to_owned(), Value::Float(values.get(name))),
                    ("unit".to_owned(), Value::String((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    let doc = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(attempted)),
        ("failed".to_owned(), Value::UInt(failed)),
        ("metrics".to_owned(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&doc).expect("the result serializes")
}
