//! `iwa` — static infinite-wait anomaly analyzer for rendezvous programs.
//!
//! ```text
//! iwa analyze <file.iwa | file.lok | file.chan | fixture:NAME> [--json]
//!             [--deadline-ms N] [--max-steps N] [--start RUNG]
//!             [--no-transforms] [--trace-out PATH] [--lang L] [-j N]
//! iwa check   <file | dir> [--deadline-ms N] [--max-steps N]
//!             [--start RUNG] [--json] [-j N]
//! iwa graph   <file | fixture:NAME> [--clg]
//! iwa inline  <file.iwa | fixture:NAME>
//! iwa unroll  <file.iwa | fixture:NAME>
//! iwa fixtures
//! iwa langs
//! iwa help
//! ```
//!
//! Exit codes for `analyze` and `check`: `0` clean at full precision,
//! `1` anomalous, `2` usage or input error, `3` degraded or undecided.

use iwa_analysis::AnalysisCtx;
use iwa_core::obs::TraceSink;
use iwa_core::{Budget, FaultPlan, IwaError};
use iwa_engine::{CheckOptions, EngineOptions, EngineReport, EngineVerdict, Rung, SCHEMA_VERSION};
use iwa_frontend::{registry as frontends, Lang, LoadedModel};
use iwa_lint::render::{render_diagnostic, render_diagnostics, render_parse_error};
use iwa_lint::{
    lint_model, quick_registry, registry_for, Diagnostic, LintConfig, Severity, CATALOG,
};
use iwa_syncgraph::{dot, PortClg, SyncGraph};
use iwa_tasklang::transforms::{inline_procs, unroll_twice};
use serde::Serialize;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Write to standard output. A reader that closes it early (`iwa check
/// corpus | head`) ends the output, not the command: after the first
/// `BrokenPipe` every later write is dropped, and the command still exits
/// with the status it computes. Any other write error panics, as
/// `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    static CLOSED: AtomicBool = AtomicBool::new(false);
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() != ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
        CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

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
        Some("graph") => graph(&args[1..]),
        Some("inline") => transform(&args[1..], Transform::Inline),
        Some("unroll") => transform(&args[1..], Transform::Unroll),
        Some("fixtures") => {
            for (name, p) in iwa_workloads::figures::all_figures() {
                outln!(
                    "fixture:{name:<8}  {} tasks, {} rendezvous",
                    p.num_tasks(),
                    p.num_rendezvous()
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("langs") => {
            for f in frontends::all() {
                outln!(
                    "{:<6} .{:<6} {}",
                    f.lang.name(),
                    f.extensions.join(", ."),
                    f.description
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("help") | None => {
            out!("{USAGE}");
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
    iwa graph   <file | fixture:NAME> [--clg]
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
                                   check: per file); default 2000
    --max-steps N                  cooperative-step budget
    --start RUNG                   most precise ladder rung to attempt:
                                   oracle|headtails|pairs|heads|naive
                                   (default: oracle)
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
    --no-transforms                skip the §5.1 stall transforms (.iwa)
    --trace-out PATH               write a Chrome trace_event JSON of every
                                   analysis phase (open in about:tracing
                                   or https://ui.perfetto.dev)
    (the oracle rung prints the schedule that reaches its first anomaly)

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

EXIT CODES (analyze, check):
    0  clean at full precision     1  anomaly flagged
    2  usage or input error        3  degraded or undecided result
";

/// One subcommand's arguments, walked front to back. Every subcommand
/// parses through it, so each words a missing value, a bad value and a
/// stray argument the same way.
struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The subcommand's one bare argument (a path, `fixture:NAME`).
    operand: Option<&'a str>,
}

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.rest.next().map(String::as_str)
    }
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args {
            rest: args.iter(),
            operand: None,
        }
    }

    /// The value that follows `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value that follows `flag`, parsed.
    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} '{v}'"))
    }

    /// Take `arg` as the subcommand's operand. A second operand, or a
    /// flag the subcommand does not know, is a usage error.
    fn operand(&mut self, arg: &'a str) -> Result<(), String> {
        if self.operand.is_some() || arg.starts_with('-') {
            return Err(unexpected(arg));
        }
        self.operand = Some(arg);
        Ok(())
    }
}

fn unexpected(arg: &str) -> String {
    format!("unexpected argument '{arg}'")
}

fn fault_plan(spec: &str) -> Result<FaultPlan, String> {
    FaultPlan::parse(spec).map_err(|e| format!("bad --fault: {e}"))
}

fn print_json(value: &impl Serialize) -> Result<(), String> {
    let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    outln!("{json}");
    Ok(())
}

/// Load `spec` — `fixture:NAME`, or a file read by the frontend `--lang`
/// forces or its extension picks — plus the source text the diagnostic
/// renderer needs for caret excerpts (fixtures have none).
fn load_model(spec: &str, lang: Option<Lang>) -> Result<(LoadedModel, Option<String>), String> {
    if let Some(name) = spec.strip_prefix("fixture:") {
        let (_, p) = iwa_workloads::figures::all_figures()
            .into_iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("unknown fixture '{name}' (see 'iwa fixtures')"))?;
        let model = LoadedModel::from_program(p).map_err(|e| e.to_string())?;
        return Ok((model, None));
    }
    let src = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
    let model = frontends::resolve(Path::new(spec), lang)
        .load(&src)
        .map_err(|e| parse_failure(spec, &src, &e))?;
    Ok((model, Some(src)))
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

/// `iwa analyze`: one pipeline for every language. Load the model, run
/// the engine ladder on the defaults `iwa check` uses, and print the
/// ladder report — plus, as text, the lints of check's quick stage
/// (`.lok`/`.chan` witness chains among them).
fn analyze(args: &[String]) -> Result<ExitCode, String> {
    let mut transforms = true;
    let mut trace_out = None;
    let mut common = CommonOpts::default();
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        if common.try_parse(a, &mut args)? {
            continue;
        }
        match a {
            "--no-transforms" => transforms = false,
            "--trace-out" => trace_out = Some(args.value(a)?),
            _ => args.operand(a)?,
        }
    }
    let spec = args
        .operand
        .ok_or("missing program (file path or fixture:NAME)")?;
    let (model, src) = load_model(spec, common.lang)?;
    // Only tasklang has the §5.1 source transforms.
    if !transforms && model.lang != Lang::Tasklang {
        return Err("--no-transforms applies to .iwa programs".into());
    }

    let trace = trace_out.map(|_| TraceSink::new());
    let opts = EngineOptions {
        apply_transforms: transforms,
        workers: common.jobs(),
        trace: trace.clone(),
        ..common.engine_options()
    };
    let report = iwa_engine::analyze_model(&model, &opts).map_err(|e| e.to_string())?;
    if let (Some(path), Some(sink)) = (trace_out, &trace) {
        write_trace(path, sink)?;
    }

    if common.json {
        print_json(&report)?;
    } else {
        print_engine_report(spec, &report);
        let ctx = AnalysisCtx::builder().build();
        let diags = lint_model(&ctx, &model, &LintConfig::default(), &quick_registry())
            .map_err(|e| e.to_string())?;
        let src = src.as_deref().unwrap_or("");
        for d in &diags {
            out!("{}", render_diagnostic(spec, src, d));
        }
    }
    Ok(engine_exit(report.verdict, report.degraded))
}

/// The flags `analyze`, `check` and `lint` accept identically — one
/// parser, one set of error messages, whichever subcommand the flag
/// appears under.
#[derive(Default)]
struct CommonOpts {
    json: bool,
    deadline_ms: Option<u64>,
    max_steps: Option<u64>,
    start: Option<Rung>,
    jobs: Option<usize>,
    lang: Option<Lang>,
}

impl CommonOpts {
    /// Consume `flag` (and its value from `args`) if it is a common flag.
    fn try_parse(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--json" => self.json = true,
            "--deadline-ms" => self.deadline_ms = Some(args.parse(flag)?),
            "--max-steps" => self.max_steps = Some(args.parse(flag)?),
            "--start" => self.start = Some(args.value(flag)?.parse()?),
            // Both spellings answer as `-j`.
            "-j" | "--jobs" => self.jobs = Some(args.parse("-j")?),
            "--lang" => self.lang = Some(Lang::from_name(args.value(flag)?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The worker count, defaulting to 1 (sequential); `-j 0` means all
    /// cores and is resolved by the pool.
    fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1)
    }

    /// The engine options `analyze` and `check` share: the ladder from
    /// `--start` (default `oracle`) under `--deadline-ms` (default
    /// 2000 ms, so one adversarial input cannot stall a run) and
    /// `--max-steps`. `workers` stays at its default — the caller decides
    /// which layer `-j` feeds (per-head fan-out for `analyze`, file
    /// fan-out for `check`).
    fn engine_options(&self) -> EngineOptions {
        EngineOptions {
            start: self.start.unwrap_or(Rung::Oracle),
            deadline: Some(Duration::from_millis(self.deadline_ms.unwrap_or(2_000))),
            max_steps: self.max_steps,
            ..EngineOptions::default()
        }
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
    outln!("program   : {spec}");
    let verdict = match r.verdict {
        EngineVerdict::Clean => "clean",
        EngineVerdict::Anomalous => "anomalous",
        EngineVerdict::Unknown => "unknown",
    };
    if r.degraded {
        outln!("verdict   : {verdict} (degraded: produced by rung '{}')", r.rung);
    } else {
        outln!("verdict   : {verdict} (rung '{}')", r.rung);
    }
    outln!("ladder    : {} ms total", r.elapsed_ms);
    for a in &r.attempts {
        out!(
            "    {:<10} {:<16} {:>6} ms {:>10} steps",
            a.rung.name(),
            a.outcome,
            a.elapsed_ms,
            a.steps
        );
        match &a.detail {
            Some(d) => outln!("  ({d})"),
            None => outln!(),
        }
    }
    for f in &r.flagged {
        outln!("flagged   : {f}");
    }
}

fn check(args: &[String]) -> Result<ExitCode, String> {
    let mut faults = None;
    let mut retries: u32 = 1;
    let mut common = CommonOpts::default();
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        if common.try_parse(a, &mut args)? {
            continue;
        }
        match a {
            "--fault" => faults = Some(fault_plan(args.value(a)?)?),
            "--retries" => retries = args.parse(a)?,
            _ => args.operand(a)?,
        }
    }
    let target = args
        .operand
        .ok_or("missing path (a .iwa file or a directory)")?;

    let sources = iwa_engine::collect_sources(Path::new(target)).map_err(|e| e.to_string())?;
    if sources.files.is_empty() {
        return Err(format!("no analyzable files under {target}"));
    }
    let summary = iwa_engine::check_batch(
        &sources.files,
        &CheckOptions {
            engine: EngineOptions {
                faults,
                ..common.engine_options()
            },
            jobs: common.jobs(),
            batch_deadline: None,
            max_attempts: retries,
            lang: common.lang,
            skipped: sources
                .skipped
                .iter()
                .map(|p| p.display().to_string())
                .collect(),
        },
    );

    if common.json {
        print_json(&summary)?;
    } else {
        for f in &summary.files {
            let verdict = match f.verdict {
                Some(EngineVerdict::Clean) => "clean",
                Some(EngineVerdict::Anomalous) => "anomalous",
                Some(EngineVerdict::Unknown) => "unknown",
                None => "-",
            };
            out!("{:<14} {:<9} {}", f.status, verdict, f.path);
            if let Some(rung) = f.rung {
                out!("  [{}{}]", rung.name(), if f.degraded { ", degraded" } else { "" });
            }
            if let Some(e) = &f.error {
                out!("  ({e})");
            }
            outln!();
            if !f.diagnostics.is_empty() {
                let src = std::fs::read_to_string(&f.path).unwrap_or_default();
                out!("{}", render_diagnostics(&f.path, &src, &f.diagnostics));
            }
        }
        for s in &summary.skipped {
            outln!("{:<14} {:<9} {s}  (unknown language)", "skipped", "-");
        }
        outln!(
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
    let (mut smoke, mut validate, mut no_history) = (false, false, false);
    let mut history = iwa_bench::history::DEFAULT_HISTORY_PATH;
    let mut label = "";
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--smoke" => smoke = true,
            "--validate" => validate = true,
            "--history" => history = args.value(a)?,
            "--no-history" => no_history = true,
            "--label" => label = args.value(a)?,
            _ => return Err(unexpected(a)),
        }
    }

    let report = iwa_bench::suite::run_suite(smoke);
    for row in &report.rows {
        outln!(
            "{:<18} size {:>3}  {:>6} ms {:>12} steps  {:>5} heads examined",
            row.family, row.size, row.wall_ms, row.steps, row.metrics.heads_examined
        );
    }

    // Gate against the trajectory BEFORE appending: a regressing run must
    // neither pollute the history nor look like a fresh baseline.
    if validate {
        let lines = iwa_bench::history::validate_trajectory(
            history,
            &report,
            iwa_bench::history::DEFAULT_STEP_REGRESSION_PCT,
        )
        .map_err(|e| format!("bench trajectory regression:\n{e}"))?;
        outln!("trajectory check against {history}:");
        for line in lines {
            outln!("  {line}");
        }
    }

    if !no_history {
        let record = iwa_bench::history::HistoryRecord::from_report(&report, label);
        iwa_bench::history::append(history, &record)?;
        outln!("appended {} record to {history}", report.mode);
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut opts = iwa_serve::ServeOptions::default();
    let mut port_file = None;
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--addr" => opts.addr = args.value(a)?.to_owned(),
            "--workers" => opts.workers = args.parse(a)?,
            "--queue" => opts.queue_cap = args.parse(a)?,
            "--deadline-ms" => opts.default_deadline = Duration::from_millis(args.parse(a)?),
            "--grace-ms" => opts.watchdog_grace = Duration::from_millis(args.parse(a)?),
            "--drain-ms" => opts.drain_timeout = Duration::from_millis(args.parse(a)?),
            "--cache" => opts.cache_cap = args.parse(a)?,
            "--start" => opts.start = args.value(a)?.parse()?,
            "--fault" => opts.faults = Some(fault_plan(args.value(a)?)?),
            "--port-file" => port_file = Some(args.value(a)?),
            _ => return Err(unexpected(a)),
        }
    }

    let server = iwa_serve::Server::start(opts).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    outln!("iwa serve listening on {addr} (send the 'shutdown' op to stop)");
    if let Some(path) = port_file {
        std::fs::write(path, addr.port().to_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    print_json(&server.join())?;
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

/// `iwa lint --explain <lint>`: the lint's catalog card — description,
/// default severity, and the frontend whose models its check reads.
fn explain_lint(name: &str) -> Result<ExitCode, String> {
    let Some(l) = CATALOG.iter().find(|l| l.name == name) else {
        let known: Vec<&str> = CATALOG.iter().map(|l| l.name).collect();
        return Err(format!(
            "unknown lint '{name}'; known lints: {}",
            known.join(", ")
        ));
    };
    let lang = l.check.lang();
    outln!("{}", l.name);
    outln!("  default severity : {}", l.default_severity);
    outln!("  description      : {}", l.description);
    let extensions = frontends::by_lang(lang).extensions.join(", .");
    outln!("  applies to       : {} (.{extensions})", lang.name());
    Ok(ExitCode::SUCCESS)
}

/// Bare `iwa lint --explain`: the whole catalog, grouped by the frontend
/// each lint's check reads.
fn list_lints() -> Result<ExitCode, String> {
    for f in frontends::all() {
        let lang = f.lang;
        let lints = registry_for(lang);
        let extensions = f.extensions.join(", .");
        outln!("{} (.{extensions}): {} lints", lang.name(), lints.len());
        for l in lints {
            let severity = l.default_severity.to_string();
            outln!("  {:<22} {severity:<7} {}", l.name, l.description);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn lint(args: &[String]) -> Result<ExitCode, String> {
    let mut format = None;
    let mut explain = None;
    let mut config = LintConfig::default();
    let mut common = CommonOpts::default();
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        if common.try_parse(a, &mut args)? {
            continue;
        }
        match a {
            // A following non-flag operand names one lint; bare
            // `--explain` lists the catalog grouped by frontend.
            "--explain" => {
                explain = match args.rest.as_slice().first() {
                    Some(name) if !name.starts_with('-') => Some(args.next()),
                    _ => Some(None),
                };
            }
            "--format" => match args.value(a)? {
                v @ ("text" | "json" | "sarif") => format = Some(v),
                other => return Err(format!("bad --format '{other}' (text|json|sarif)")),
            },
            "--deny-warnings" => config.deny_warnings = true,
            "-W" | "-A" | "-D" => {
                let sev = match a {
                    "-W" => Severity::Warn,
                    "-A" => Severity::Allow,
                    _ => Severity::Deny,
                };
                let name = args.value(a)?;
                if !LintConfig::is_known(name) {
                    return Err(format!("unknown lint '{name}' (see 'iwa lint --help')"));
                }
                config.levels.push((name.to_owned(), sev));
            }
            _ => args.operand(a)?,
        }
    }
    if let Some(request) = explain {
        return match request {
            Some(name) => explain_lint(name),
            None => list_lints(),
        };
    }
    let target = args
        .operand
        .ok_or("missing path (a source file or a directory)")?;
    if common.start.is_some() {
        return Err("--start applies to analyze/check, not lint".into());
    }
    let format = format.unwrap_or(if common.json { "json" } else { "text" });

    // The shared budget flags feed the graph lints through AnalysisCtx —
    // an exhausted budget silences a graph lint, never corrupts it.
    let mut budget = Budget::unlimited();
    if let Some(ms) = common.deadline_ms {
        budget = budget.and_deadline(Duration::from_millis(ms));
    }
    if let Some(steps) = common.max_steps {
        budget = budget.and_max_steps(steps);
    }
    let ctx = AnalysisCtx::builder()
        .budget(budget)
        .workers(common.jobs())
        .build();

    let collected = iwa_engine::collect_sources(Path::new(target)).map_err(|e| e.to_string())?;
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
        let model = frontends::resolve(path, common.lang)
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

    match format {
        "sarif" => {
            let flat: Vec<(String, Vec<Diagnostic>)> = per_file
                .iter()
                .map(|(path, _, diags)| (path.clone(), diags.clone()))
                .collect();
            print_json(&iwa_lint::sarif::to_sarif(&flat))?;
        }
        "json" => {
            print_json(&LintReport {
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
            })?;
        }
        _ => {
            for ((path, _, diags), src) in per_file.iter().zip(&sources) {
                if !diags.is_empty() {
                    out!("{}", render_diagnostics(path, src, diags));
                }
            }
            for s in &skipped {
                outln!("{s}: skipped (unknown language)");
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
            outln!(
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

enum Transform {
    Inline,
    Unroll,
}

fn transform(args: &[String], which: Transform) -> Result<ExitCode, String> {
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        args.operand(a)?;
    }
    let spec = args
        .operand
        .ok_or("missing program (file path or fixture:NAME)")?;
    let (model, _) = load_model(spec, None)?;
    let program = model
        .as_tasklang()
        .ok_or("inline and unroll apply to .iwa programs")?;
    let inlined = inline_procs(program).map_err(|e| e.to_string())?;
    let out = match which {
        Transform::Inline => inlined,
        Transform::Unroll => unroll_twice(&inlined),
    };
    out!("{}", out.to_source());
    Ok(ExitCode::SUCCESS)
}

fn graph(args: &[String]) -> Result<ExitCode, String> {
    let mut want_clg = false;
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--clg" => want_clg = true,
            _ => args.operand(a)?,
        }
    }
    let spec = args
        .operand
        .ok_or("missing program (file path or fixture:NAME)")?;
    let (model, _) = load_model(spec, None)?;
    // Tasklang lowers after inlining; `.lok` and `.chan` models arrive
    // lowered.
    let sg = match model.as_tasklang() {
        Some(p) => SyncGraph::from_program(&inline_procs(p).map_err(|e| e.to_string())?),
        None => model.sync_graph(),
    };
    if want_clg {
        out!("{}", dot::clg_dot(&sg, &PortClg::build(&sg)));
    } else {
        out!("{}", dot::sync_graph_dot(&sg));
    }
    Ok(ExitCode::SUCCESS)
}
