//! The traced path: one input's trip through every layer, called layer by
//! layer through the public functions `analyze_model` calls, in its order.
//!
//! Each call is one span. Calls that repeat table builds the benchmark
//! timed separately (`refined_with` rebuilds the port CLG and the shared
//! SCC; `refined_seeded` also the CLG, `SEQUENCEABLE` and `NOT-COEXEC`;
//! `explore_budgeted` its initial waves) are charged to their own layer
//! minus those builds, so each unit of work is counted once.

use crate::inputs::Input;
use crate::trace::Recorder;
use iwa_analysis::{
    naive_analysis, AnalysisCtx, CoexecInfo, RefinedOptions, SequenceInfo, StallOptions,
    StallVerdict,
};
use iwa_core::Budget;
use iwa_frontend::chan::{self, parse_chan, ChanEffects, CommGraph};
use iwa_frontend::lok::{self, parse_lok, LockGraph};
use iwa_frontend::Lang;
use iwa_graphs::Scc;
use iwa_syncgraph::{Clg, PortClg, SyncGraph};
use iwa_tasklang::transforms::{inline_procs, unroll_twice};
use iwa_tasklang::validate::{check_model, model_warnings};
use iwa_tasklang::Program;
use iwa_wavesim::explore::initial_waves;
use iwa_wavesim::{explore_budgeted, ExploreConfig, Verdict};
use std::collections::BTreeMap;

/// Per-layer sums: milliseconds and counts by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Tally(pub BTreeMap<&'static str, f64>);

impl Tally {
    /// Add `v` to metric `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_insert(0.0) += v;
    }

    /// Metric `k`, 0 when never added.
    #[must_use]
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }

    /// Multiply every time (`*_ms`, `*_us`) by `f`.
    pub fn scale_times(&mut self, f: f64) {
        for (k, v) in &mut self.0 {
            if k.ends_with("_ms") || k.ends_with("_us") {
                *v *= f;
            }
        }
    }
}

/// What the replay of one input found.
#[derive(Clone, Debug, Default)]
pub struct Replayed {
    /// The replay's own verdict: `Some(true)` clean, `Some(false)`
    /// anomalous, `None` undecided (the stall analysis abstained).
    pub clean: Option<bool>,
    /// Milliseconds of the layer work `analyze_model` itself repeats
    /// (everything after loading); the engine's residual is its own time
    /// minus this.
    pub engine_layers_ms: f64,
    /// Waves visited by the oracle (0 on the Heads path).
    pub states: u64,
}

/// Which ladder start the replay mirrors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `Rung::Heads`: the refined algorithm plus stall analysis.
    Heads,
    /// `Rung::Oracle`: exhaustive wave exploration.
    Oracle,
}

type Res<T> = Result<T, String>;

/// Replay `input` layer by layer under `parent`, adding each call's time
/// to `tally`.
pub fn replay(
    rec: &mut Recorder,
    parent: Option<usize>,
    op: u64,
    input: &Input,
    path: Path,
    tally: &mut Tally,
) -> Res<Replayed> {
    let mut t = Timer {
        rec,
        parent,
        op,
        tally,
        engine_ms: 0.0,
    };
    let mut out = match input.lang {
        Lang::Tasklang => tasklang(&mut t, &input.source, path)?,
        Lang::Lok => lok(&mut t, &input.source, path)?,
        Lang::Chan => chan(&mut t, &input.source, path)?,
    };
    out.engine_layers_ms = t.engine_ms;
    Ok(out)
}

struct Timer<'a> {
    rec: &'a mut Recorder,
    parent: Option<usize>,
    op: u64,
    tally: &'a mut Tally,
    engine_ms: f64,
}

impl Timer<'_> {
    /// Time one loading-stage call (parse and frontend dataflow).
    fn load<T>(&mut self, metric: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let layer = layer_of(metric);
        let (out, ms) = self.rec.time(layer, name, self.parent, self.op, f);
        self.tally.add(metric, ms);
        out
    }

    /// Time one call `analyze_model` repeats; returns its milliseconds.
    fn engine<T>(
        &mut self,
        metric: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let layer = layer_of(metric);
        let (out, ms) = self.rec.time(layer, name, self.parent, self.op, f);
        self.tally.add(metric, ms);
        self.engine_ms += ms;
        (out, ms)
    }

    /// Charge a call's time minus the builds it repeats to `metric`.
    fn engine_net<T>(
        &mut self,
        metric: &'static str,
        name: &'static str,
        repeated_ms: f64,
        f: impl FnOnce() -> T,
    ) -> T {
        let layer = layer_of(metric);
        let (out, ms) = self.rec.time(layer, name, self.parent, self.op, f);
        let net = (ms - repeated_ms).max(0.0);
        self.tally.add(metric, net);
        self.engine_ms += net;
        out
    }
}

/// The layer a metric belongs to: its first dotted component.
fn layer_of(metric: &'static str) -> &'static str {
    metric.split('.').next().unwrap_or(metric)
}

fn ctx() -> AnalysisCtx {
    AnalysisCtx::builder().workers(1).build()
}

fn tasklang(t: &mut Timer<'_>, src: &str, path: Path) -> Res<Replayed> {
    let p = t
        .load("tasklang.parse_ms", "iwa_tasklang::parse", || {
            iwa_tasklang::parse(src)
        })
        .map_err(|e| e.to_string())?;
    t.tally.add("tasklang.bytes", src.len() as f64);
    t.load("tasklang.validate_ms", "validate::check_model", || {
        check_model(&p).map(|()| model_warnings(&p))
    })
    .map_err(|e| e.to_string())?;

    let inlined: Program = if p.has_calls() {
        t.engine("tasklang.transform_ms", "transforms::inline_procs", || {
            inline_procs(&p)
        })
        .0
        .map_err(|e| e.to_string())?
    } else {
        p
    };
    if path == Path::Oracle {
        let sg = t
            .engine("syncgraph.build_ms", "SyncGraph::from_program", || {
                SyncGraph::from_program(&inlined)
            })
            .0;
        return oracle(t, &sg, ExploreConfig::default(), true);
    }
    let unrolled = (!inlined.is_loop_free()).then(|| {
        t.engine("tasklang.transform_ms", "transforms::unroll_twice", || {
            unroll_twice(&inlined)
        })
        .0
    });
    let target = unrolled.as_ref().unwrap_or(&inlined);
    let (sg, _) = t.engine("syncgraph.build_ms", "SyncGraph::from_program", || {
        SyncGraph::from_program(target)
    });
    t.engine("analysis.naive_ms", "naive_analysis", || {
        naive_analysis(&sg)
    });
    let (clg, seq, cx, _) = tables(t, &sg);
    let (pg, pg_ms) = t.engine("syncgraph.port_clg_ms", "PortClg::build", || {
        PortClg::build(&sg)
    });
    let (_, scc_ms) = t.engine("graphs.scc_ms", "Scc::compute", || {
        Scc::compute(&pg.graph, None)
    });
    let ctx = ctx();
    let refined = t
        .engine_net(
            "analysis.head_search_ms",
            "AnalysisCtx::refined_with",
            pg_ms + scc_ms,
            || ctx.refined_with(&sg, &clg, &seq, &cx, &RefinedOptions::default()),
        )
        .map_err(|e| e.to_string())?;
    let stall = t
        .engine("analysis.stall_ms", "AnalysisCtx::stall", || {
            ctx.stall(&inlined, &StallOptions::default())
        })
        .0;
    let clean = if !refined.deadlock_free {
        Some(false)
    } else {
        match stall.verdict {
            StallVerdict::StallFree => Some(true),
            StallVerdict::PossibleStall { .. } => Some(false),
            StallVerdict::Unknown { .. } => None,
        }
    };
    Ok(Replayed {
        clean,
        ..Replayed::default()
    })
}

/// The three tables the refined search reads, each its own span.
fn tables(t: &mut Timer<'_>, sg: &SyncGraph) -> (Clg, SequenceInfo, CoexecInfo, f64) {
    let (clg, a) = t.engine("syncgraph.clg_ms", "Clg::build", || Clg::build(sg));
    let (seq, b) = t.engine("analysis.sequence_ms", "SequenceInfo::compute", || {
        SequenceInfo::compute(sg)
    });
    let (cx, c) = t.engine("analysis.coexec_ms", "CoexecInfo::compute", || {
        CoexecInfo::compute(sg)
    });
    (clg, seq, cx, a + b + c)
}

/// The refined search over a frontend's lowered graph, seeded with its
/// hold or wait points. Returns "deadlock-free".
fn seeded(t: &mut Timer<'_>, sg: &SyncGraph, seeds: &[usize]) -> Res<bool> {
    let (_, _, _, tables_ms) = tables(t, sg);
    let (pg, pg_ms) = t.engine("syncgraph.port_clg_ms", "PortClg::build", || {
        PortClg::build(sg)
    });
    let (_, scc_ms) = t.engine("graphs.scc_ms", "Scc::compute", || {
        Scc::compute(&pg.graph, None)
    });
    drop(pg);
    let ctx = ctx();
    let r = t
        .engine_net(
            "analysis.head_search_ms",
            "AnalysisCtx::refined_seeded",
            tables_ms + pg_ms + scc_ms,
            || ctx.refined_seeded(sg, seeds, &RefinedOptions::default()),
        )
        .map_err(|e| e.to_string())?;
    Ok(r.deadlock_free)
}

fn oracle(
    t: &mut Timer<'_>,
    sg: &SyncGraph,
    config: ExploreConfig,
    no_livelock: bool,
) -> Res<Replayed> {
    let (initial, initial_ms) = t.engine("wavesim.initial_ms", "wavesim::initial_waves", || {
        initial_waves(sg)
    });
    let initial = initial.map_err(|e| e.to_string())?;
    t.tally.add("wavesim.initial_waves", initial.len() as f64);
    drop(initial);
    let e = t
        .engine_net(
            "wavesim.explore_ms",
            "wavesim::explore_budgeted",
            initial_ms,
            || explore_budgeted(sg, &config, &Budget::unlimited()),
        )
        .map_err(|e| e.to_string())?;
    t.tally.add("wavesim.states", e.states as f64);
    Ok(Replayed {
        clean: Some(e.verdict == Verdict::AnomalyFree && no_livelock),
        states: e.states as u64,
        ..Replayed::default()
    })
}

/// Deadlock-only exploration for the frontends' lowerings (every lowered
/// task is skippable, so stall-only stuck waves are benign).
fn frontend_oracle() -> ExploreConfig {
    ExploreConfig {
        ignore_stalls: true,
        ..ExploreConfig::default()
    }
}

fn lok(t: &mut Timer<'_>, src: &str, path: Path) -> Res<Replayed> {
    let prog = t
        .load("frontend.lok.parse_ms", "lok::parse_lok", || parse_lok(src))
        .map_err(|e| e.to_string())?;
    let lg = t.load(
        "frontend.lok.dataflow_ms",
        "LockGraph::build+cycles",
        || {
            let lg = LockGraph::build(&prog);
            let warnings: Vec<String> = lg.issues.iter().map(|i| lg.render_issue(i)).collect();
            let cycles = lg.cycles();
            std::hint::black_box((warnings, cycles));
            lg
        },
    );
    let (sg, holds) = t.load("frontend.lok.lower_ms", "lok::lower::lower", || {
        lok::lower::lower(&lg)
    });
    if path == Path::Oracle {
        return oracle(t, &sg, frontend_oracle(), true);
    }
    Ok(Replayed {
        clean: Some(seeded(t, &sg, &holds)?),
        ..Replayed::default()
    })
}

fn chan(t: &mut Timer<'_>, src: &str, path: Path) -> Res<Replayed> {
    let prog = t
        .load("frontend.chan.parse_ms", "chan::parse_chan", || {
            parse_chan(src)
        })
        .map_err(|e| e.to_string())?;
    let (effects, cg) = t.load(
        "frontend.chan.dataflow_ms",
        "ChanEffects::compute+CommGraph::build+cycles",
        || {
            let effects = ChanEffects::compute(&prog);
            let cg = CommGraph::build(&prog, &effects);
            let warnings: Vec<String> = effects.issues.iter().map(|i| cg.render_issue(i)).collect();
            let cycles = cg.cycles();
            std::hint::black_box((warnings, cycles));
            (effects, cg)
        },
    );
    let livelocks = t.load(
        "frontend.chan.livelock_ms",
        "chan::livelock::find_livelocks",
        || chan::livelock::find_livelocks(&prog, &effects),
    );
    let (sg, waits) = t.load("frontend.chan.lower_ms", "chan::lower::lower", || {
        chan::lower::lower(&cg)
    });
    if path == Path::Oracle {
        return oracle(t, &sg, frontend_oracle(), livelocks.is_empty());
    }
    Ok(Replayed {
        clean: Some(seeded(t, &sg, &waits)? && livelocks.is_empty()),
        ..Replayed::default()
    })
}
