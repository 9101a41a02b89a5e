//! `iwa` — static infinite-wait anomaly analyzer for rendezvous programs.
//!
//! ```text
//! iwa analyze <file.iwa | fixture:NAME> [--tier heads|pairs|headtails]
//!             [--oracle] [--json] [--no-transforms] [-j N]
//!             [--deadline-ms N] [--max-steps N] [--start RUNG]
//! iwa check   <file.iwa | dir> [--deadline-ms N] [--max-steps N]
//!             [--start RUNG] [--json] [-j N]
//! iwa graph   <file.iwa | fixture:NAME> [--clg]
//! iwa inline  <file.iwa | fixture:NAME>
//! iwa unroll  <file.iwa | fixture:NAME>
//! iwa fixtures
//! iwa langs
//! iwa help
//! ```
//!
//! Exit codes for `analyze` and `check`: `0` clean at full precision,
//! `1` anomalous, `2` usage or input error, `3` degraded or undecided.

use iwa_analysis::{AnalysisCtx, CertifyOptions, RefinedOptions, StallOptions, StallVerdict, Tier};
use iwa_core::obs::{Meta, Metrics, TraceSink};
use iwa_core::{Budget, FaultPlan, IwaError};
use iwa_engine::{
    CheckOptions, EngineOptions, EngineReport, EngineVerdict, LintStage, Rung, SCHEMA_VERSION,
};
use iwa_frontend::{registry as frontends, Lang};
use iwa_lint::render::{render_diagnostic, render_diagnostics, render_parse_error};
use iwa_lint::{
    lint_model, quick_registry, registry, registry_for, run_lints, Diagnostic, LintConfig, Severity,
};
use iwa_syncgraph::{dot, Clg, SyncGraph};
use iwa_tasklang::{parse, Program};
use iwa_wavesim::{explore, ExploreConfig, Verdict};
use serde::Serialize;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("serve-bench") => serve_bench(&args[1..]),
        Some("graph") => graph(&args[1..]),
        Some("inline") => transform(&args[1..], Transform::Inline),
        Some("unroll") => transform(&args[1..], Transform::Unroll),
        Some("fixtures") => {
            for (name, p) in iwa_workloads::figures::all_figures() {
                println!(
                    "fixture:{name:<8}  {} tasks, {} rendezvous",
                    p.num_tasks(),
                    p.num_rendezvous()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("langs") => {
            for f in frontends::all() {
                println!(
                    "{:<6} .{:<6} {}",
                    f.lang().name(),
                    f.extensions().join(", ."),
                    f.description()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand '{other}' (try 'iwa help')")),
    }
}

const USAGE: &str = "\
iwa — static infinite-wait anomaly detection (Masticola & Ryder, ICPP 1990)

USAGE:
    iwa analyze <file.iwa | file.lok | file.chan | fixture:NAME> [OPTIONS]
    iwa check   <file | dir> [OPTIONS]         batch-check a corpus
    iwa lint    <file | dir> [OPTIONS]         run the lint catalog
    iwa lint    --explain [<lint>]             describe one lint, or list
                                               the catalog per frontend
    iwa bench   [--smoke] [--validate] [--label NAME] [--history PATH]
                [--no-history]
    iwa serve   [OPTIONS]                      persistent analysis daemon
    iwa serve-bench [OPTIONS]                  replay benchmark against a daemon
    iwa graph   <file.iwa | fixture:NAME> [--clg]
    iwa inline  <file.iwa | fixture:NAME>   print with procedures inlined
    iwa unroll  <file.iwa | fixture:NAME>   print the Lemma-1 unrolled form
    iwa fixtures
    iwa langs                      list the registered frontends
    iwa help

COMMON OPTIONS (analyze, check, lint):
    --lang iwa|lok|chan            force the frontend for every input file
                                   (default: by extension; .iwa, .lok and
                                   .chan are recognised, explicit files
                                   with an unknown extension fall back to
                                   iwa — see 'iwa langs')
    --json                         machine-readable output
    --deadline-ms N                wall-clock budget (analyze: whole ladder;
                                   check: per file, default 2000)
    --max-steps N                  cooperative-step budget
    --start RUNG                   most precise ladder rung to attempt:
                                   oracle|headtails|pairs|heads|naive
    -j, --jobs N                   worker threads (analyze: per-head fan-out;
                                   check: files in parallel); 0 = all cores

LINT OPTIONS:
    --format text|json|sarif       output format (default: text)
    -W, -A, -D <lint>              set a lint to warn, allow, or deny
    --deny-warnings                promote every warning to an error
    --explain [<lint>]             print a lint's description, default
                                   severity, and applicable frontends;
                                   with no name, list the whole catalog
                                   grouped by frontend
    (directory walks report files no frontend speaks as skipped;
     exit 0: no denials; 1: at least one denial; 2: usage/parse error)

ANALYZE OPTIONS:
    --tier heads|pairs|headtails   refined-algorithm tier (default: heads)
    --oracle                       also run the exhaustive wave oracle
    --no-transforms                skip the §5.1 stall transforms
    --trace-out PATH               write a Chrome trace_event JSON of every
                                   analysis phase (open in about:tracing
                                   or https://ui.perfetto.dev)
    (a budget flag switches analyze to the degradation ladder)

BENCH OPTIONS:
    --smoke                        CI-sized workloads (same families)
    --validate                     gate this run against the last
                                   same-mode trajectory record; fail on a
                                   >15% step regression on any family
    --history PATH                 trajectory file to append to / gate against
                                   (default: reports/bench_history.jsonl)
    --no-history                   run without appending a trajectory record
    --label NAME                   label stored in the appended record

SERVE OPTIONS:
    --addr HOST:PORT               bind address (default 127.0.0.1:0)
    --workers N                    worker threads (default 2)
    --queue N                      admission-queue depth; a full queue sheds
                                   with an explicit retry-after hint
    --deadline-ms N                default per-request deadline (default 2000);
                                   overloaded requests degrade down the ladder
    --grace-ms N                   watchdog grace past the deadline before a
                                   stalled worker is abandoned (default 250)
    --drain-ms N                   graceful-drain budget on shutdown
    --cache N                      verdict-cache capacity (default 4096)
    --start RUNG                   default starting rung for requests
    --fault PLAN                   inject faults (site=action[:ms][:skip=N]
                                   [:times=N][:label=S];...)
    --port-file PATH               write the bound port for scripts to read
    (runs until a client sends the 'shutdown' op)

SERVE-BENCH OPTIONS:
    --corpus PATH                  .iwa corpus to replay (default: corpus)
    --rounds N --clients N         replay shape (defaults 5, 4)
    --mutate-permille N            per-round variant mutation rate (default 10)
    --smoke                        CI-sized run (same schema)
    --fault PLAN                   run the daemon under an active fault plan
    --seed N                       mutation-schedule seed
    --out PATH                     report path (default: BENCH_serve.json)
    --validate FILE                validate an existing report instead
    (exit 1 if any request hangs or any verdict diverges from single-shot)

EXIT CODES (analyze, check):
    0  clean at full precision     1  anomaly flagged
    2  usage or input error        3  degraded or undecided result
";

/// Load a program plus (for real files) its source text, which the
/// diagnostic renderer needs for caret excerpts. Fixtures have no text.
fn load_program(spec: &str) -> Result<(Program, Option<String>), String> {
    if let Some(name) = spec.strip_prefix("fixture:") {
        iwa_workloads::figures::all_figures()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| (p, None))
            .ok_or_else(|| format!("unknown fixture '{name}' (see 'iwa fixtures')"))
    } else {
        let src = std::fs::read_to_string(spec)
            .map_err(|e| format!("cannot read {spec}: {e}"))?;
        match parse(&src) {
            Ok(p) => Ok((p, Some(src))),
            Err(e) => Err(parse_failure(spec, &src, &e)),
        }
    }
}

/// The frontend for `path`: `--lang` wins, then the file extension, then
/// the tasklang default (an explicit file always stands for itself).
/// Thin string-path wrapper over the registry's shared resolver.
fn frontend_for(path: &str, forced: Option<Lang>) -> &'static dyn iwa_frontend::Frontend {
    frontends::resolve(std::path::Path::new(path), forced)
}

/// The canonical `Display` line ("parse error at L:C: …"), followed by
/// the same caret excerpt lint diagnostics get.
fn parse_failure(path: &str, src: &str, e: &IwaError) -> String {
    match render_parse_error(path, src, e) {
        Some(block) => {
            let excerpt: Vec<&str> = block.lines().skip(1).collect();
            format!("{e}\n{}", excerpt.join("\n"))
        }
        None => e.to_string(),
    }
}

#[derive(Serialize)]
struct AnalyzeReport {
    schema_version: u32,
    program: String,
    tasks: usize,
    rendezvous: usize,
    was_unrolled: bool,
    naive_deadlock_free: bool,
    refined_deadlock_free: bool,
    refined_tier: String,
    flagged_heads: Vec<String>,
    stall_verdict: String,
    diagnostics: Vec<Diagnostic>,
    oracle: Option<OracleReport>,
    meta: Meta,
}

#[derive(Serialize)]
struct OracleReport {
    verdict: String,
    states: usize,
    can_terminate: bool,
    deadlock: bool,
    stall: bool,
    /// Rendezvous schedule leading to the first anomaly, human-readable.
    witness: Vec<String>,
    /// The first stuck wave, rendered.
    stuck_wave: Option<String>,
}

fn analyze(args: &[String]) -> Result<ExitCode, String> {
    let mut spec = None;
    let mut tier = Tier::Heads;
    let mut tier_given = false;
    let mut want_oracle = false;
    let mut transforms = true;
    let mut trace_out: Option<String> = None;
    let mut common = CommonOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if common.try_parse(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--tier" => {
                tier = match it.next().map(String::as_str) {
                    Some("heads") => Tier::Heads,
                    Some("pairs") => Tier::HeadPairs,
                    Some("headtails") => Tier::HeadTails,
                    other => return Err(format!("bad --tier {other:?}")),
                };
                tier_given = true;
            }
            "--oracle" => want_oracle = true,
            "--no-transforms" => transforms = false,
            "--trace-out" => {
                trace_out =
                    Some(it.next().ok_or("--trace-out needs a path")?.to_owned());
            }
            other if spec.is_none() && !other.starts_with("--") => {
                spec = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let spec = spec.ok_or("missing program (file path or fixture:NAME)")?;

    // Non-tasklang programs (`.lok`, `.chan`) have no single-tier certify
    // pipeline and no Lemma-1 transforms; they always run the engine
    // ladder (the full-precision oracle rung is the default start, so a
    // budget-free run is exact).
    if !spec.starts_with("fixture:")
        && frontend_for(&spec, common.lang).lang() != Lang::Tasklang
    {
        if tier_given {
            return Err("--tier applies to .iwa programs (use --start for other frontends)".into());
        }
        if !transforms {
            return Err("--no-transforms applies to .iwa programs".into());
        }
        return analyze_frontend(&spec, &common, trace_out.as_deref());
    }

    let (program, source) = load_program(&spec)?;
    let trace = trace_out.as_ref().map(|_| TraceSink::new());

    // Any budget flag switches from the single-tier pipeline to the
    // engine's degradation ladder.
    if common.budget_given() {
        let fallback = if tier_given {
            Some(match tier {
                Tier::Heads => Rung::Heads,
                Tier::HeadPairs => Rung::HeadPairs,
                Tier::HeadTails => Rung::HeadTails,
            })
        } else {
            None
        };
        let mut opts = common.engine_options(fallback)?;
        opts.apply_transforms = transforms;
        opts.workers = common.jobs();
        opts.trace = trace.clone();
        let report = iwa_engine::analyze(&program, &opts).map_err(|e| e.to_string())?;
        if let (Some(path), Some(sink)) = (&trace_out, &trace) {
            write_trace(path, sink)?;
        }
        if common.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
        } else {
            print_engine_report(&spec, &report);
        }
        return Ok(engine_exit(report.verdict, report.degraded));
    }

    let opts = CertifyOptions {
        refined: RefinedOptions {
            tier,
            ..RefinedOptions::default()
        },
        stall: StallOptions {
            apply_transforms: transforms,
            ..StallOptions::default()
        },
    };
    let metrics = Metrics::new();
    let mut builder = AnalysisCtx::builder()
        .workers(common.jobs())
        .metrics(metrics.clone());
    if let Some(sink) = &trace {
        builder = builder.trace(sink.clone());
    }
    let cert = builder
        .build()
        .certify(&program, &opts)
        .map_err(|e| e.to_string())?;
    if let (Some(path), Some(sink)) = (&trace_out, &trace) {
        write_trace(path, sink)?;
    }

    let oracle = if want_oracle {
        // The oracle explores the program's own (inlined, never unrolled)
        // graph.
        let inlined =
            iwa_tasklang::transforms::inline_procs(&program).map_err(|e| e.to_string())?;
        let sg = SyncGraph::from_program(&inlined);
        let e = explore(&sg, &ExploreConfig::default()).map_err(|e| e.to_string())?;
        let witness = e
            .witnesses
            .first()
            .map(|steps| steps.iter().map(|s| s.render(&sg)).collect())
            .unwrap_or_default();
        let stuck_wave = e.anomalies.first().map(|(w, _)| w.render(&sg));
        Some(OracleReport {
            verdict: match e.verdict {
                Verdict::AnomalyFree => "anomaly-free".into(),
                Verdict::Anomalous => "anomalous".into(),
            },
            states: e.states,
            can_terminate: e.can_terminate,
            deadlock: e.has_deadlock(),
            stall: e.has_stall(),
            witness,
            stuck_wave,
        })
    } else {
        None
    };

    // Describe flagged heads in source terms, on the graph `certify`
    // analysed.
    let sg = &cert.sg;
    let flagged: Vec<String> = cert
        .refined
        .flagged
        .iter()
        .map(|f| {
            let d = sg.node(f.head);
            let name = d
                .label
                .clone()
                .unwrap_or_else(|| format!("node {}", f.head));
            format!(
                "{} at {} ({}{})",
                sg.symbols.task_name(d.task),
                name,
                sg.symbols.signal_name(d.rendezvous.signal),
                d.rendezvous.sign
            )
        })
        .collect();

    let report = AnalyzeReport {
        schema_version: SCHEMA_VERSION,
        program: spec.clone(),
        tasks: program.num_tasks(),
        rendezvous: program.num_rendezvous(),
        was_unrolled: cert.was_unrolled,
        naive_deadlock_free: cert.naive.deadlock_free,
        refined_deadlock_free: cert.refined.deadlock_free,
        refined_tier: format!("{tier:?}"),
        flagged_heads: flagged,
        stall_verdict: match &cert.stall.verdict {
            StallVerdict::StallFree => "stall-free".into(),
            StallVerdict::PossibleStall { signal, sends, accepts } => format!(
                "possible stall on {} ({sends} sends vs {accepts} accepts)",
                program.symbols.signal_name(*signal)
            ),
            StallVerdict::Unknown { reason } => format!("unknown ({reason})"),
        },
        // The quick (AST-level) lints subsume the old validate warnings;
        // `certify` succeeded, so the model is valid and this cannot fail.
        diagnostics: run_lints(
            &AnalysisCtx::builder().workers(common.jobs()).build(),
            &program,
            &LintConfig::default(),
            &quick_registry(),
        )
        .unwrap_or_default(),
        oracle,
        meta: metrics.meta(),
    };

    if common.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print_human(&report, source.as_deref());
    }
    let clean = report.refined_deadlock_free
        && report.stall_verdict == "stall-free";
    Ok(if clean { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `iwa analyze` for a non-tasklang program (`.lok`, `.chan`): load
/// through the file's frontend, run the engine ladder over the lowered
/// sync graph, and report the frontend's findings (lock-order cycles,
/// channel-wait cycles, livelocks — each with span-anchored witness
/// chains) as lint diagnostics alongside the verdict.
fn analyze_frontend(
    spec: &str,
    common: &CommonOpts,
    trace_out: Option<&str>,
) -> Result<ExitCode, String> {
    let src = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
    let model = frontend_for(spec, common.lang)
        .load(&src)
        .map_err(|e| parse_failure(spec, &src, &e))?;

    let trace = trace_out.map(|_| TraceSink::new());
    let mut opts = common.engine_options(None)?;
    opts.workers = common.jobs();
    opts.trace = trace.clone();
    let report = iwa_engine::analyze_model(&model, &opts).map_err(|e| e.to_string())?;
    if let (Some(path), Some(sink)) = (trace_out, &trace) {
        write_trace(path, sink)?;
    }

    if common.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        print_engine_report(spec, &report);
        for w in &model.warnings {
            println!("warning   : {w}");
        }
        let ctx = AnalysisCtx::builder().build();
        let passes = registry_for(model.lang);
        let diags =
            lint_model(&ctx, &model, &LintConfig::default(), &passes).map_err(|e| e.to_string())?;
        for d in &diags {
            print!("{}", render_diagnostic(spec, &src, d));
        }
    }
    Ok(engine_exit(report.verdict, report.degraded))
}

/// The flags `analyze` and `check` accept identically — one parser, one
/// set of error messages, whichever subcommand the flag appears under.
#[derive(Default)]
struct CommonOpts {
    json: bool,
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
    start: Option<String>,
    jobs: Option<usize>,
    lang: Option<Lang>,
}

impl CommonOpts {
    /// Consume `arg` (and its value from `it`) if it is a common flag.
    fn try_parse<'a>(
        &mut self,
        arg: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg {
            "--json" => self.json = true,
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                self.deadline_ms =
                    Some(v.parse().map_err(|_| format!("bad --deadline-ms '{v}'"))?);
            }
            "--max-steps" => {
                let v = value("--max-steps")?;
                self.max_steps = Some(v.parse().map_err(|_| format!("bad --max-steps '{v}'"))?);
            }
            "--start" => {
                self.start = Some(value("--start")?.to_owned());
            }
            "-j" | "--jobs" => {
                let v = value("-j")?;
                self.jobs = Some(v.parse().map_err(|_| format!("bad -j '{v}'"))?);
            }
            "--lang" => {
                self.lang = Some(Lang::from_name(value("--lang")?)?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Did any *budget* flag appear? (Switches `analyze` to ladder mode;
    /// `--json`/`-j` alone do not.)
    fn budget_given(&self) -> bool {
        self.deadline_ms.is_some() || self.max_steps.is_some() || self.start.is_some()
    }

    /// The worker count, defaulting to 1 (sequential); `-j 0` means all
    /// cores and is resolved by the pool.
    fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1)
    }

    /// Build engine options; `fallback_start` supplies a start rung when
    /// `--start` was not given (e.g. mapped from `--tier`). `workers`
    /// stays at its default — the caller decides which layer `-j` feeds
    /// (per-head fan-out for `analyze`, file fan-out for `check`).
    fn engine_options(&self, fallback_start: Option<Rung>) -> Result<EngineOptions, String> {
        let start = match &self.start {
            Some(s) => s.parse::<Rung>()?,
            None => fallback_start.unwrap_or(Rung::Oracle),
        };
        Ok(EngineOptions {
            start,
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
            max_steps: self.max_steps,
            ..EngineOptions::default()
        })
    }
}

fn engine_exit(verdict: EngineVerdict, degraded: bool) -> ExitCode {
    match verdict {
        EngineVerdict::Anomalous => ExitCode::FAILURE,
        EngineVerdict::Clean if !degraded => ExitCode::SUCCESS,
        _ => ExitCode::from(3),
    }
}

fn print_engine_report(spec: &str, r: &EngineReport) {
    println!("program   : {spec}");
    let verdict = match r.verdict {
        EngineVerdict::Clean => "clean",
        EngineVerdict::Anomalous => "anomalous",
        EngineVerdict::Unknown => "unknown",
    };
    if r.degraded {
        println!("verdict   : {verdict} (degraded: produced by rung '{}')", r.rung);
    } else {
        println!("verdict   : {verdict} (rung '{}')", r.rung);
    }
    println!("ladder    : {} ms total", r.elapsed_ms);
    for a in &r.attempts {
        print!(
            "    {:<10} {:<16} {:>6} ms {:>10} steps",
            a.rung.name(),
            a.outcome,
            a.elapsed_ms,
            a.steps
        );
        match &a.detail {
            Some(d) => println!("  ({d})"),
            None => println!(),
        }
    }
    for f in &r.flagged {
        println!("flagged   : {f}");
    }
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let mut target = None;
    let mut faults = None;
    let mut retries: u32 = 1;
    let mut common = CommonOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if common.try_parse(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--fault" => {
                let spec = it.next().ok_or("--fault needs a plan spec")?;
                faults = Some(FaultPlan::parse(spec).map_err(|e| format!("bad --fault: {e}"))?);
            }
            "--retries" => {
                let v = it.next().ok_or("--retries needs a count")?;
                retries = v.parse().map_err(|_| format!("bad --retries '{v}'"))?;
            }
            other if target.is_none() && !other.starts_with("--") => {
                target = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let target = target.ok_or("missing path (a .iwa file or a directory)")?;
    let mut opts = common.engine_options(None)?;
    if opts.deadline.is_none() {
        // Batch runs always carry a per-file deadline: one adversarial
        // input must not stall the whole corpus.
        opts.deadline = Some(std::time::Duration::from_millis(2_000));
    }

    let sources =
        iwa_engine::collect_sources(std::path::Path::new(&target)).map_err(|e| e.to_string())?;
    if sources.files.is_empty() {
        return Err(format!("no analyzable files under {target}"));
    }
    let summary = iwa_engine::check_batch(
        &sources.files,
        &CheckOptions {
            engine: opts,
            jobs: common.jobs(),
            batch_deadline: None,
            // Surface the AST-level lints (the old validate warnings)
            // with every batch check; graph lints stay behind `iwa lint`.
            lint: LintStage::Quick,
            lint_config: LintConfig::default(),
            faults,
            retry: iwa_engine::RetryPolicy::with_attempts(retries.max(1)),
            lang: common.lang,
            skipped: sources
                .skipped
                .iter()
                .map(|p| p.display().to_string())
                .collect(),
        },
    );

    if common.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
        );
    } else {
        for f in &summary.files {
            let verdict = match f.verdict {
                Some(EngineVerdict::Clean) => "clean",
                Some(EngineVerdict::Anomalous) => "anomalous",
                Some(EngineVerdict::Unknown) => "unknown",
                None => "-",
            };
            print!("{:<14} {:<9} {}", f.status, verdict, f.path);
            if let Some(rung) = f.rung {
                print!("  [{}{}]", rung.name(), if f.degraded { ", degraded" } else { "" });
            }
            if let Some(e) = &f.error {
                print!("  ({e})");
            }
            println!();
            if !f.diagnostics.is_empty() {
                let src = std::fs::read_to_string(&f.path).unwrap_or_default();
                print!("{}", render_diagnostics(&f.path, &src, &f.diagnostics));
            }
        }
        for s in &summary.skipped {
            println!("{:<14} {:<9} {s}  (unknown language)", "skipped", "-");
        }
        println!(
            "checked {} files in {} ms: {} clean, {} anomalous, {} unknown, \
             {} degraded, {} errors, {} panicked, {} skipped",
            summary.total,
            summary.elapsed_ms,
            summary.clean,
            summary.anomalous,
            summary.unknown,
            summary.degraded,
            summary.errors,
            summary.panicked,
            summary.skipped.len(),
        );
    }
    Ok(ExitCode::from(summary.exit_code()))
}


/// Serialize the recorded spans in Chrome `trace_event` format, loadable
/// by `about:tracing` and Perfetto.
fn write_trace(path: &str, sink: &TraceSink) -> Result<(), String> {
    let doc = sink.to_chrome_trace();
    let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("trace written to {path} (open in chrome://tracing or ui.perfetto.dev)");
    Ok(())
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let mut smoke = false;
    let mut validate = false;
    let mut history = iwa_bench::history::DEFAULT_HISTORY_PATH.to_owned();
    let mut no_history = false;
    let mut label = String::new();
    let mut i = 0;
    while i < args.len() {
        let takes_value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--validate" => validate = true,
            "--history" => history = takes_value(&mut i, "--history")?,
            "--no-history" => no_history = true,
            "--label" => label = takes_value(&mut i, "--label")?,
            other => return Err(format!("unexpected argument '{other}'")),
        }
        i += 1;
    }

    let report = iwa_bench::suite::run_suite(smoke);
    for row in &report.rows {
        println!(
            "{:<18} size {:>3}  {:>6} ms {:>12} steps  {:>5} heads examined",
            row.family, row.size, row.wall_ms, row.steps, row.metrics.heads_examined
        );
    }

    // Gate against the trajectory BEFORE appending: a regressing run must
    // neither pollute the history nor look like a fresh baseline.
    if validate {
        let lines = iwa_bench::history::validate_trajectory(
            &history,
            &report,
            iwa_bench::history::DEFAULT_STEP_REGRESSION_PCT,
        )
        .map_err(|e| format!("bench trajectory regression:\n{e}"))?;
        println!("trajectory check against {history}:");
        for line in lines {
            println!("  {line}");
        }
    }

    if !no_history {
        let record = iwa_bench::history::HistoryRecord::from_report(&report, &label);
        iwa_bench::history::append(&history, &record)?;
        println!("appended {} record to {history}", report.mode);
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = iwa_serve::ServeOptions::default();
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    let next = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
            .map(str::to_owned)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => opts.addr = next("--addr", &mut it)?,
            "--workers" => {
                let v = next("--workers", &mut it)?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers '{v}'"))?;
            }
            "--queue" => {
                let v = next("--queue", &mut it)?;
                opts.queue_cap = v.parse().map_err(|_| format!("bad --queue '{v}'"))?;
            }
            "--deadline-ms" => {
                let v = next("--deadline-ms", &mut it)?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --deadline-ms '{v}'"))?;
                opts.default_deadline = std::time::Duration::from_millis(ms);
            }
            "--grace-ms" => {
                let v = next("--grace-ms", &mut it)?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --grace-ms '{v}'"))?;
                opts.watchdog_grace = std::time::Duration::from_millis(ms);
            }
            "--drain-ms" => {
                let v = next("--drain-ms", &mut it)?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --drain-ms '{v}'"))?;
                opts.drain_timeout = std::time::Duration::from_millis(ms);
            }
            "--cache" => {
                let v = next("--cache", &mut it)?;
                opts.cache_cap = v.parse().map_err(|_| format!("bad --cache '{v}'"))?;
            }
            "--start" => {
                opts.start = next("--start", &mut it)?.parse::<Rung>()?;
            }
            "--fault" => {
                let spec = next("--fault", &mut it)?;
                opts.faults =
                    Some(FaultPlan::parse(&spec).map_err(|e| format!("bad --fault: {e}"))?);
            }
            "--port-file" => port_file = Some(next("--port-file", &mut it)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if opts.faults.is_none() {
        opts.faults = FaultPlan::from_env().map_err(|e| format!("bad fault env: {e}"))?;
    }

    let server = iwa_serve::Server::start(opts).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    println!("iwa serve listening on {addr} (send the 'shutdown' op to stop)");
    if let Some(path) = port_file {
        std::fs::write(&path, addr.port().to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let stats = server.join();
    println!(
        "{}",
        serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?
    );
    Ok(ExitCode::SUCCESS)
}

fn serve_bench(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = iwa_serve::ServeBenchOptions::default();
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut it = args.iter();
    let next = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
            .map(str::to_owned)
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--corpus" => opts.corpus = next("--corpus", &mut it)?.into(),
            "--rounds" => {
                let v = next("--rounds", &mut it)?;
                opts.rounds = v.parse().map_err(|_| format!("bad --rounds '{v}'"))?;
            }
            "--clients" => {
                let v = next("--clients", &mut it)?;
                opts.clients = v.parse().map_err(|_| format!("bad --clients '{v}'"))?;
            }
            "--mutate-permille" => {
                let v = next("--mutate-permille", &mut it)?;
                opts.mutate_permille =
                    v.parse().map_err(|_| format!("bad --mutate-permille '{v}'"))?;
            }
            "--fault" => {
                let spec = next("--fault", &mut it)?;
                opts.faults =
                    Some(FaultPlan::parse(&spec).map_err(|e| format!("bad --fault: {e}"))?);
            }
            "--seed" => {
                let v = next("--seed", &mut it)?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--out" => out = Some(next("--out", &mut it)?),
            "--validate" => validate = Some(next("--validate", &mut it)?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }

    if let Some(path) = validate {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        let v = serde_json::from_str(&src)
            .map_err(|e| format!("{path}: invalid JSON: {e}"))?;
        iwa_serve::validate_report(&v).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid (schema v{})",
            iwa_serve::BENCH_SERVE_SCHEMA_VERSION
        );
        return Ok(ExitCode::SUCCESS);
    }

    let report = iwa_serve::run_bench(&opts)?;
    let get = |k: &str| report.get(k).and_then(serde::Value::as_u64).unwrap_or(0);
    println!(
        "serve-bench: {} requests, {} ok ({} cached), {} errors, {} shed, \
         {} timeouts, {} cancelled, {} hangs",
        get("requests"),
        get("ok"),
        get("cached_responses"),
        get("errors"),
        get("shed"),
        get("timeouts"),
        get("cancelled"),
        get("hangs"),
    );
    println!(
        "cache: {} hits / {} misses; client round trip p50 {} µs, p99 {} µs; \
         {} ms wall; {} verdict mismatches",
        get("cache_hits"),
        get("cache_misses"),
        get("rtt_p50_us"),
        get("rtt_p99_us"),
        get("wall_ms"),
        get("verdict_mismatches"),
    );
    let path = out.unwrap_or_else(|| "BENCH_serve.json".to_owned());
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    if get("hangs") > 0 || get("verdict_mismatches") > 0 {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[derive(Serialize)]
struct LintReport {
    schema_version: u32,
    files: Vec<LintFileReport>,
    /// Files the directory walk saw but no frontend speaks, each
    /// paths; the text renderer suffixes "skipped (unknown language)".
    skipped: Vec<String>,
}

#[derive(Serialize)]
struct LintFileReport {
    path: String,
    lang: String,
    diagnostics: Vec<Diagnostic>,
}

/// `iwa lint --explain <lint>`: the lint's registry card — description,
/// default severity, and which frontends it applies to (the same
/// applicability matrix `registry_for` filters by).
fn explain_lint(name: &str) -> Result<ExitCode, String> {
    let passes = registry();
    let Some(pass) = passes.iter().find(|p| p.lint().name == name) else {
        let known: Vec<&str> = passes.iter().map(|p| p.lint().name).collect();
        return Err(format!(
            "unknown lint '{name}'; known lints: {}",
            known.join(", ")
        ));
    };
    let l = pass.lint();
    println!("{}", l.name);
    println!("  default severity : {}", l.default_severity);
    println!("  description      : {}", l.description);
    let frontends: Vec<String> = l
        .applies_to
        .iter()
        .map(|lang| {
            let f = frontends::by_lang(*lang);
            format!("{} (.{})", lang.name(), f.extensions().join(", ."))
        })
        .collect();
    println!("  applies to       : {}", frontends.join(", "));
    Ok(ExitCode::SUCCESS)
}

/// Bare `iwa lint --explain`: the whole catalog, grouped by the frontend
/// each lint applies to (a lint speaking several frontends appears under
/// each of them).
fn list_lints() -> Result<ExitCode, String> {
    for f in frontends::all() {
        let lang = f.lang();
        let passes = registry_for(lang);
        println!("{} (.{}): {} lints", lang.name(), f.extensions().join(", ."), passes.len());
        for p in &passes {
            let l = p.lint();
            println!("  {:<22} {:<7} {}", l.name, l.default_severity.to_string(), l.description);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn lint(args: &[String]) -> Result<ExitCode, String> {
    let mut target = None;
    let mut format: Option<String> = None;
    let mut explain: Option<Option<String>> = None;
    let mut config = LintConfig::default();
    let mut common = CommonOpts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if common.try_parse(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--explain" => {
                // A following non-flag operand names one lint; bare
                // `--explain` lists the catalog grouped by frontend.
                explain = match it.as_slice().first() {
                    Some(next) if !next.starts_with('-') => {
                        Some(Some(it.next().expect("just peeked").clone()))
                    }
                    _ => Some(None),
                };
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value")?;
                match v.as_str() {
                    "text" | "json" | "sarif" => format = Some(v.clone()),
                    other => return Err(format!("bad --format '{other}' (text|json|sarif)")),
                }
            }
            "--deny-warnings" => config.deny_warnings = true,
            "-W" | "-A" | "-D" => {
                let sev = match a.as_str() {
                    "-W" => Severity::Warn,
                    "-A" => Severity::Allow,
                    _ => Severity::Deny,
                };
                let name = it.next().ok_or_else(|| format!("{a} needs a lint name"))?;
                if !LintConfig::is_known(name) {
                    return Err(format!("unknown lint '{name}' (see 'iwa lint --help')"));
                }
                config.levels.push((name.clone(), sev));
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if let Some(request) = explain {
        return match request {
            Some(name) => explain_lint(&name),
            None => list_lints(),
        };
    }
    let target = target.ok_or("missing path (a source file or a directory)")?;
    if common.start.is_some() {
        return Err("--start applies to analyze/check, not lint".into());
    }
    let format = match format {
        Some(f) => f,
        None if common.json => "json".to_owned(),
        None => "text".to_owned(),
    };

    // The shared budget flags feed the graph lints through AnalysisCtx —
    // an exhausted budget silences a graph lint, never corrupts it.
    let mut budget = Budget::unlimited();
    if let Some(ms) = common.deadline_ms {
        budget = budget.and_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(steps) = common.max_steps {
        budget = budget.and_max_steps(steps);
    }
    let ctx = AnalysisCtx::builder()
        .budget(budget)
        .workers(common.jobs())
        .build();

    let collected =
        iwa_engine::collect_sources(std::path::Path::new(&target)).map_err(|e| e.to_string())?;
    if collected.files.is_empty() {
        return Err(format!("no lintable files under {target}"));
    }
    let skipped: Vec<String> = collected
        .skipped
        .iter()
        .map(|p| p.display().to_string())
        .collect();

    // Each file runs the catalog slice its frontend speaks — the same
    // applicability matrix `--explain` prints.
    let mut per_file: Vec<(String, String, Vec<Diagnostic>)> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    for path in &collected.files {
        let display = path.display().to_string();
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {display}: {e}"))?;
        // A parse error gets the caret excerpt; a model violation, like a
        // failed lint, gets the path prefix.
        let model = frontend_for(&display, common.lang)
            .load(&src)
            .map_err(|e| match e {
                IwaError::Parse { .. } => parse_failure(&display, &src, &e),
                other => format!("{display}: {other}"),
            })?;
        let diags = lint_model(&ctx, &model, &config, &registry_for(model.lang))
            .map_err(|e| format!("{display}: {e}"))?;
        sources.push(src);
        per_file.push((display, model.lang.name().to_owned(), diags));
    }

    match format.as_str() {
        "sarif" => {
            let flat: Vec<(String, Vec<Diagnostic>)> = per_file
                .iter()
                .map(|(path, _, diags)| (path.clone(), diags.clone()))
                .collect();
            let doc = iwa_lint::sarif::to_sarif(&flat);
            println!(
                "{}",
                serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
            );
        }
        "json" => {
            let report = LintReport {
                schema_version: SCHEMA_VERSION,
                files: per_file
                    .iter()
                    .map(|(path, lang, diagnostics)| LintFileReport {
                        path: path.clone(),
                        lang: lang.clone(),
                        diagnostics: diagnostics.clone(),
                    })
                    .collect(),
                skipped: skipped.clone(),
            };
            println!(
                "{}",
                serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
            );
        }
        _ => {
            for ((path, _, diags), src) in per_file.iter().zip(&sources) {
                if !diags.is_empty() {
                    print!("{}", render_diagnostics(path, src, diags));
                }
            }
            for s in &skipped {
                println!("{s}: skipped (unknown language)");
            }
            let errors: usize = per_file
                .iter()
                .flat_map(|(_, _, d)| d)
                .filter(|d| d.severity == Severity::Deny)
                .count();
            let warnings: usize = per_file
                .iter()
                .flat_map(|(_, _, d)| d)
                .filter(|d| d.severity == Severity::Warn)
                .count();
            println!(
                "linted {} file(s): {errors} error(s), {warnings} warning(s), {} skipped",
                per_file.len(),
                skipped.len()
            );
        }
    }

    let denied = per_file
        .iter()
        .any(|(_, _, diags)| iwa_lint::has_denials(diags));
    Ok(if denied {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn print_human(r: &AnalyzeReport, source: Option<&str>) {
    println!("program      : {}", r.program);
    println!("size         : {} tasks, {} rendezvous", r.tasks, r.rendezvous);
    if r.was_unrolled {
        println!("transform    : loops unrolled twice (Lemma 1)");
    }
    println!(
        "naive  (§3.1): {}",
        if r.naive_deadlock_free {
            "deadlock-free"
        } else {
            "potential deadlock"
        }
    );
    println!(
        "refined(§4.2): {} [tier {}]",
        if r.refined_deadlock_free {
            "deadlock-free"
        } else {
            "potential deadlock"
        },
        r.refined_tier
    );
    for f in &r.flagged_heads {
        println!("    flagged head: {f}");
    }
    println!("stall  (§5)  : {}", r.stall_verdict);
    for d in &r.diagnostics {
        // With no source text (fixtures) the renderer degrades to the
        // message plus a bare `--> path` line.
        print!("{}", render_diagnostic(&r.program, source.unwrap_or(""), d));
    }
    if let Some(o) = &r.oracle {
        println!(
            "oracle       : {} ({} states{}{}{})",
            o.verdict,
            o.states,
            if o.deadlock { ", deadlock" } else { "" },
            if o.stall { ", stall" } else { "" },
            if o.can_terminate { ", can terminate" } else { "" },
        );
        if let Some(wave) = &o.stuck_wave {
            println!("    stuck wave : {wave}");
            if o.witness.is_empty() {
                println!("    schedule   : stuck from the start");
            } else {
                for (i, s) in o.witness.iter().enumerate() {
                    println!("    schedule {:>2}: {s}", i + 1);
                }
            }
        }
    }
}

enum Transform {
    Inline,
    Unroll,
}

fn transform(args: &[String], which: Transform) -> Result<ExitCode, String> {
    let spec = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("missing program (file path or fixture:NAME)")?;
    let (program, _) = load_program(spec)?;
    let out = match which {
        Transform::Inline => {
            iwa_tasklang::transforms::inline_procs(&program).map_err(|e| e.to_string())?
        }
        Transform::Unroll => {
            let inlined = iwa_tasklang::transforms::inline_procs(&program)
                .map_err(|e| e.to_string())?;
            iwa_tasklang::transforms::unroll_twice(&inlined)
        }
    };
    print!("{}", out.to_source());
    Ok(ExitCode::SUCCESS)
}

fn graph(args: &[String]) -> Result<ExitCode, String> {
    let mut spec = None;
    let mut want_clg = false;
    for a in args {
        match a.as_str() {
            "--clg" => want_clg = true,
            other if spec.is_none() && !other.starts_with("--") => {
                spec = Some(other.to_owned());
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let spec = spec.ok_or("missing program (file path or fixture:NAME)")?;
    // Non-tasklang models (`.lok`, `.chan`) lower eagerly; dump the
    // lowered graph directly.
    let sg = if !spec.starts_with("fixture:")
        && frontend_for(&spec, None).lang() != Lang::Tasklang
    {
        let src = std::fs::read_to_string(&spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        let model = frontend_for(&spec, None)
            .load(&src)
            .map_err(|e| parse_failure(&spec, &src, &e))?;
        model.sync_graph()
    } else {
        let (program, _) = load_program(&spec)?;
        let program = iwa_tasklang::transforms::inline_procs(&program)
            .map_err(|e| e.to_string())?;
        SyncGraph::from_program(&program)
    };
    if want_clg {
        let clg = Clg::build(&sg);
        print!("{}", dot::clg_dot(&sg, &clg));
    } else {
        print!("{}", dot::sync_graph_dot(&sg));
    }
    Ok(ExitCode::SUCCESS)
}
