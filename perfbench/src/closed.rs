//! The closed-loop workloads, certify_mix and oracle_waves: one thread
//! takes each input from source to verdict, the next only after the last.
//!
//! The reference kernel runs between passes; each pass's timings are
//! scaled to the nominal host speed by the samples around it (see
//! [`crate::stats::REF_NOMINAL_MS`]). Raw figures are kept beside them.

use crate::inputs::Input;
use crate::replay::{replay, Path, Tally};
use crate::stats::{median, percentile, ref_ms, speed_scale, Checks};
use crate::trace::Recorder;
use crate::{Layered, Outcome};
use iwa_core::Metrics;
use iwa_engine::{analyze_model, EngineOptions, EngineVerdict, Rung};
use iwa_frontend::{registry, Lang, LoadedModel, ModelIr};
use iwa_lint::{
    quick_registry, registry_for, run_lints, run_lints_chan, run_lints_lok, LintConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// One closed-loop workload's fixed settings.
#[derive(Clone, Copy, Debug)]
pub struct Closed {
    /// Ladder start.
    pub start: Rung,
    /// Run the quick lint stage after the verdict (as `iwa check` does).
    pub lint: bool,
    /// Step ceiling for the whole ladder; no input comes near it, so it
    /// never chooses a rung.
    pub max_steps: Option<u64>,
}

/// certify_mix: Heads rung, quick lint.
pub const CERTIFY: Closed = Closed {
    start: Rung::Heads,
    lint: true,
    max_steps: Some(4_000_000_000),
};

/// oracle_waves: the Oracle rung, no lint.
pub const ORACLE: Closed = Closed {
    start: Rung::Oracle,
    lint: false,
    max_steps: Some(40_000_000_000),
};

/// The daemon's analysis of a missed request: Heads rung at the daemon's
/// options, no lint.
pub const SERVE_MISS: Closed = Closed {
    start: Rung::Heads,
    lint: false,
    max_steps: None,
};

impl Closed {
    fn options(&self, metrics: Option<Metrics>) -> EngineOptions {
        EngineOptions {
            start: self.start,
            max_steps: self.max_steps,
            workers: 1,
            metrics,
            ..EngineOptions::default()
        }
    }

    fn path(&self) -> Path {
        if self.start == Rung::Oracle {
            Path::Oracle
        } else {
            Path::Heads
        }
    }
}

/// The operation: source to verdict, the way `iwa check` handles a file
/// minus disk I/O. Panics are caught and reported as failures.
fn operate(input: &Input, opts: &EngineOptions, lint: bool) -> Result<EngineVerdict, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let model = registry::by_lang(input.lang)
            .load(&input.source)
            .map_err(|e| e.to_string())?;
        let report = analyze_model(&model, opts).map_err(|e| e.to_string())?;
        if lint {
            std::hint::black_box(quick_lint(&model));
        }
        Ok(report.verdict)
    }))
    .unwrap_or_else(|_| Err("panicked".to_owned()))
}

/// The quick lint stage `iwa check` runs per file.
fn quick_lint(model: &LoadedModel) -> usize {
    let config = LintConfig::default();
    match &model.ir {
        ModelIr::Tasklang(p) => {
            let ctx = iwa_analysis::AnalysisCtx::builder().build();
            run_lints(&ctx, p, &config, &quick_registry())
                .map(|d| d.len())
                .unwrap_or(0)
        }
        ModelIr::Lok(m) => run_lints_lok(m, &config, &registry_for(Lang::Lok)).len(),
        ModelIr::Chan(m) => run_lints_chan(m, &config, &registry_for(Lang::Chan)).len(),
    }
}

/// One pass; returns each operation's raw milliseconds.
fn pass(inputs: &[Input], w: &Closed, checks: &mut Checks) -> Vec<f64> {
    let opts = w.options(None);
    inputs
        .iter()
        .map(|input| {
            let t = Instant::now();
            let verdict = operate(input, &opts, w.lint);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            checks.record(input, verdict);
            ms
        })
        .collect()
}

/// Set up `reps` times (generate the inputs, one warm-up pass) and keep
/// the last input list. Returns it with the median set-up seconds at
/// nominal speed and raw.
pub fn setup(
    reps: usize,
    generate: &dyn Fn() -> Vec<Input>,
    w: &Closed,
    checks: &mut Checks,
) -> (Vec<Input>, f64, f64) {
    let mut scaled = Vec::new();
    let mut raw = Vec::new();
    let mut inputs = Vec::new();
    let mut before = ref_ms();
    for _ in 0..reps {
        let t0 = Instant::now();
        inputs = generate();
        pass(&inputs, w, checks);
        let secs = t0.elapsed().as_secs_f64();
        let after = ref_ms();
        raw.push(secs);
        scaled.push(secs * speed_scale(before, after));
        before = after;
    }
    (inputs, median(&scaled), median(&raw))
}

/// The untraced run: whole passes until `budget` has elapsed.
pub fn run(inputs: &[Input], w: &Closed, budget: Duration, checks: &mut Checks) -> Outcome {
    let mut latencies = Vec::new();
    let mut raw_latencies = Vec::new();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut refs = vec![ref_ms()];
    let started = Instant::now();
    while rates.is_empty() || started.elapsed() < budget {
        let t = Instant::now();
        let ms = pass(inputs, w, checks);
        let secs = t.elapsed().as_secs_f64();
        refs.push(ref_ms());
        let scale = speed_scale(refs[refs.len() - 2], refs[refs.len() - 1]);
        rates.push(inputs.len() as f64 / (secs * scale));
        raw_rates.push(inputs.len() as f64 / secs);
        latencies.extend(ms.iter().map(|m| m * scale));
        raw_latencies.extend(ms);
    }
    latencies.sort_by(f64::total_cmp);
    raw_latencies.sort_by(f64::total_cmp);
    Outcome {
        throughput_per_s: median(&rates),
        latency_p50_ms: percentile(&latencies, 0.50),
        latency_p99_ms: percentile(&latencies, 0.99),
        raw_throughput_per_s: median(&raw_rates),
        raw_latency_p50_ms: percentile(&raw_latencies, 0.50),
        raw_latency_p99_ms: percentile(&raw_latencies, 0.99),
        ref_ms: median(&refs),
        peak_rss_mb: crate::stats::status_kb("VmHWM") / 1024.0,
        samples: latencies.len(),
        passes: rates.len(),
    }
}

/// One input's traced figures, for the scaling fits and the hot-spot check.
#[derive(Clone, Debug, Default)]
pub struct InputTrace {
    /// Input label.
    pub label: String,
    /// CLG nodes + edges (Heads path).
    pub clg_size: f64,
    /// Waves visited (Oracle path).
    pub states: f64,
    /// `analyze_model` milliseconds at nominal speed, one per traced pass.
    pub analyze_ms: Vec<f64>,
    /// The layer spans `analyze_model` repeats, likewise.
    pub layers_ms: Vec<f64>,
}

/// The traced run: untraced reference passes for the overhead, then
/// traced passes until `budget` has elapsed.
pub fn traced(
    inputs: &[Input],
    w: &Closed,
    budget: Duration,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Layered {
    let mut untraced_ms = Vec::new();
    let mut before = ref_ms();
    for _ in 0..2 {
        let total: f64 = pass(inputs, w, checks).iter().sum();
        let after = ref_ms();
        untraced_ms.push(total * speed_scale(before, after) / inputs.len() as f64);
        before = after;
    }

    let mut per_input: Vec<InputTrace> = inputs
        .iter()
        .map(|i| InputTrace {
            label: i.label.clone(),
            ..InputTrace::default()
        })
        .collect();
    let mut tallies = Vec::new();
    let mut traced_ms = Vec::new();
    let started = Instant::now();
    while tallies.is_empty() || started.elapsed() < budget {
        let mut tally = Tally::default();
        let mut figures = Vec::with_capacity(inputs.len());
        let t = Instant::now();
        for (i, input) in inputs.iter().enumerate() {
            let outcome = trace_op(i as u64, input, w, rec, &mut tally);
            if let Ok(o) = &outcome {
                per_input[i].clg_size = o.clg_size;
                per_input[i].states = o.states;
                if !o.replay_agrees {
                    checks.replay_mismatches += 1;
                }
            }
            figures.push(outcome.as_ref().ok().map(|o| (o.analyze_ms, o.layers_ms)));
            checks.record(input, outcome.map(|o| o.verdict));
        }
        let total_ms = t.elapsed().as_secs_f64() * 1e3;
        let after = ref_ms();
        let scale = speed_scale(before, after);
        before = after;
        tally.scale_times(scale);
        for (record, f) in per_input.iter_mut().zip(figures) {
            if let Some((analyze, layers)) = f {
                record.analyze_ms.push(analyze * scale);
                record.layers_ms.push(layers * scale);
            }
        }
        traced_ms.push(total_ms * scale / inputs.len() as f64);
        tallies.push(tally);
    }
    Layered {
        tallies,
        per_input,
        overhead_ms_per_op: median(&traced_ms) - median(&untraced_ms),
        ..Layered::default()
    }
}

/// One traced operation's findings.
#[derive(Clone, Debug)]
pub struct TracedOp {
    /// The engine's verdict.
    pub verdict: EngineVerdict,
    /// Did the layer replay reach the same verdict?
    pub replay_agrees: bool,
    /// Raw `analyze_model` milliseconds.
    pub analyze_ms: f64,
    /// Raw milliseconds of the layer spans `analyze_model` repeats.
    pub layers_ms: f64,
    /// CLG nodes + edges.
    pub clg_size: f64,
    /// Waves visited by the oracle.
    pub states: f64,
}

/// Trace one operation: the layer-by-layer replay, then `analyze_model`
/// on the same input for its counters and its residual, then lint.
pub fn trace_op(
    op: u64,
    input: &Input,
    w: &Closed,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<TracedOp, String> {
    let root = rec.open("op", "operation", op);
    let replayed = replay(rec, root, op, input, w.path(), tally);
    let metrics = Metrics::new();
    let opts = w.options(Some(metrics.clone()));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let model = registry::by_lang(input.lang)
            .load(&input.source)
            .map_err(|e| e.to_string())?;
        let (report, ms) = rec.time("engine", "engine::analyze_model", root, op, || {
            analyze_model(&model, &opts)
        });
        let report = report.map_err(|e| e.to_string())?;
        if w.lint {
            let (n, lint_ms) = rec.time("lint", "lint::quick", root, op, || quick_lint(&model));
            tally.add("lint.quick_ms", lint_ms);
            tally.add("lint.diagnostics", n as f64);
        }
        Ok((report, ms))
    }))
    .unwrap_or_else(|_| Err("panicked".to_owned()));
    rec.close(root);

    let (report, analyze_ms) = outcome?;
    let replayed = replayed.map_err(|e| format!("layer replay: {e}"))?;
    let c = metrics.snapshot();
    tally.add("syncgraph.nodes", c.sg_nodes as f64);
    tally.add("syncgraph.clg_edges", c.clg_edges as f64);
    tally.add("graphs.scc_runs", c.scc_runs as f64);
    tally.add("analysis.heads_examined", c.heads_examined as f64);
    tally.add("analysis.sequenceable_hits", c.sequenceable_hits as f64);
    tally.add("analysis.not_coexec_hits", c.not_coexec_hits as f64);
    tally.add("analysis.coaccept_hits", c.coaccept_hits as f64);
    tally.add("analysis.stall_combinations", c.stall_combinations as f64);
    tally.add("engine.rungs_abandoned", c.ladder_rungs_abandoned as f64);
    tally.add(
        "engine.steps",
        report.attempts.iter().map(|a| a.steps).sum::<u64>() as f64,
    );
    tally.add("engine.residual_ms", analyze_ms - replayed.engine_layers_ms);
    let engine_clean = match report.verdict {
        EngineVerdict::Clean => Some(true),
        EngineVerdict::Anomalous => Some(false),
        EngineVerdict::Unknown => None,
    };
    Ok(TracedOp {
        verdict: report.verdict,
        replay_agrees: replayed.clean == engine_clean,
        analyze_ms,
        layers_ms: replayed.engine_layers_ms,
        clg_size: (c.clg_nodes + c.clg_edges) as f64,
        states: replayed.states as f64,
    })
}
