//! Batch driver: run the ladder over a corpus of `.iwa` files.
//!
//! Each file is analysed under its own budget **and** its own panic
//! boundary ([`std::panic::catch_unwind`]): one malformed or adversarial
//! input — even one that crashes an analysis outright — cannot take down
//! the rest of the run. With [`CheckOptions::jobs`] > 1 the files fan out
//! across the [`pool`](iwa_core::pool) workers; outcomes keep input
//! order, so the summary is byte-identical for any job count (timing
//! fields aside). The per-file outcomes roll up into a [`CheckSummary`]
//! with an error taxonomy and a stable
//! [exit-code contract](CheckSummary::exit_code).
//!
//! For end-to-end tests of the isolation machinery the driver honours
//! a structured [`FaultPlan`](iwa_core::fault::FaultPlan)
//! (`engine.faults` in [`CheckOptions`]): rules fire at the `check-file`
//! site (label: the file path) before the file is read and at the
//! `parse` site before it is parsed, on top of the rung-level sites the
//! engine ladder fires itself.

use crate::ladder::{analyze_model, EngineOptions, EngineReport, EngineVerdict, Rung, SCHEMA_VERSION};
use iwa_core::fault::FaultSite;
use iwa_core::obs::{Counters, Meta};
use iwa_core::{panic_message, pool, Budget, IwaError};
use iwa_frontend::{registry as frontends, Lang};
use iwa_lint::{lint_model, quick_registry, Diagnostic, LintConfig};
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Base backoff between attempts at one file: retry `n` sleeps
/// `RETRY_BACKOFF * n`, a deterministic linear schedule (no jitter —
/// reproducibility beats thundering-herd avoidance in a batch checker).
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// What happened to one file.
#[derive(Clone, Debug, Serialize)]
pub struct FileOutcome {
    /// The file's path as given.
    pub path: String,
    /// The frontend that handled the file ([`Lang::name`]: `"iwa"`,
    /// `"lok"`, or `"chan"`), resolved from [`CheckOptions::lang`] or
    /// the extension.
    pub lang: String,
    /// `"ok"`, `"parse-error"`, `"invalid-program"`, `"io-error"`, or
    /// `"panicked"`.
    pub status: String,
    /// The engine verdict (present only when `status` is `"ok"`).
    pub verdict: Option<EngineVerdict>,
    /// The rung that produced the verdict (present only when `"ok"`).
    pub rung: Option<Rung>,
    /// Whether the verdict came from a cheaper rung than requested.
    pub degraded: bool,
    /// Wall-clock milliseconds spent on this file.
    pub elapsed_ms: u64,
    /// The error or panic message (absent when `"ok"`).
    pub error: Option<String>,
    /// The quick lint stage's findings for this file ([`quick_registry`]
    /// at the default severities: every lint of the file's language
    /// except the tasklang sync-graph ones); empty on any non-`"ok"`
    /// status.
    pub diagnostics: Vec<Diagnostic>,
}

/// Options for [`check_batch`].
#[derive(Clone, Debug, Default)]
pub struct CheckOptions {
    /// Per-file engine options. A `deadline` here applies to each file
    /// separately; a `cancel` token is shared with every worker (one is
    /// created when absent, so the batch deadline can trip everyone).
    /// A `faults` plan is shared by every file and also fires at the
    /// batch's `check-file` and `parse` sites.
    pub engine: EngineOptions,
    /// Worker threads for the file fan-out. `0` means one per available
    /// core; `1`/default runs sequentially. Inner analyses stay
    /// single-threaded (`engine.workers` is honoured as given) — the batch
    /// parallelises across files, not within them.
    pub jobs: usize,
    /// Global wall-clock deadline for the whole batch. Each file's own
    /// deadline is clamped to what remains of it, so no worker outlives
    /// the batch by more than one file's budget probe.
    pub batch_deadline: Option<Duration>,
    /// Attempts per file, the first included, for transient `io-error`
    /// outcomes. `0` and `1` (the default) both disable retries, so
    /// determinism goldens are unchanged unless a caller opts in.
    /// Retries are counted in [`Counters::io_retries`].
    pub max_attempts: u32,
    /// Force every file through this frontend instead of resolving by
    /// extension (the CLI's `--lang`). `None` (the default) dispatches
    /// per file; unknown extensions fall back to tasklang.
    pub lang: Option<Lang>,
    /// Paths discovered but not analysable (unknown language), carried
    /// into [`CheckSummary::skipped`] so batch reports account for every
    /// file the walk saw. Populate from [`collect_sources`].
    pub skipped: Vec<String>,
}

/// Roll-up of a whole [`check_batch`] run.
#[derive(Clone, Debug, Serialize)]
pub struct CheckSummary {
    /// The JSON shape version
    /// ([`SCHEMA_VERSION`](crate::ladder::SCHEMA_VERSION)).
    pub schema_version: u32,
    /// Per-file outcomes, in input order (regardless of job count).
    pub files: Vec<FileOutcome>,
    /// Total files checked.
    pub total: usize,
    /// Files with a `Clean` verdict.
    pub clean: usize,
    /// Files with an `Anomalous` verdict.
    pub anomalous: usize,
    /// Files with an `Unknown` verdict.
    pub unknown: usize,
    /// Files whose verdict was degraded (any verdict, cheaper rung).
    pub degraded: usize,
    /// Files that failed to read, parse, or validate.
    pub errors: usize,
    /// Files whose analysis panicked (isolated; the run continued).
    pub panicked: usize,
    /// Files the collection walk saw but no frontend speaks (unknown
    /// language) — reported so a batch accounts for every file, never
    /// silently drops one.
    pub skipped: Vec<String>,
    /// Wall-clock milliseconds for the whole run.
    pub elapsed_ms: u64,
    /// Deterministic analysis counters, summed over every file in the
    /// batch: byte-identical for any [`jobs`](CheckOptions::jobs) value.
    pub meta: Meta,
}

impl CheckSummary {
    /// The exit-code contract:
    ///
    /// * `1` — at least one file is `Anomalous`;
    /// * `3` — no anomalies, but something is off: a degraded or
    ///   `Unknown` verdict, an unreadable/unparsable/invalid file, or an
    ///   isolated panic;
    /// * `0` — every file clean, full precision, no errors.
    ///
    /// (`2` is reserved for CLI usage errors and never produced here.)
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        if self.anomalous > 0 {
            1
        } else if self.degraded + self.unknown + self.errors + self.panicked > 0 {
            3
        } else {
            0
        }
    }
}

/// What a directory walk found: the analysable source files plus every
/// file no registered frontend speaks.
#[derive(Clone, Debug, Default)]
pub struct CollectedSources {
    /// Files some frontend can load, sorted for reproducible output.
    pub files: Vec<PathBuf>,
    /// Files whose extension matches no registered frontend, sorted.
    /// Empty when the root was a single explicit file (an explicit file
    /// always stands for itself).
    pub skipped: Vec<PathBuf>,
}

/// Expand `root` into the source files to check: a file stands for
/// itself; a directory is walked recursively for files any registered
/// frontend speaks (`*.iwa`, `*.lok`, `*.chan`), with everything else
/// accounted
/// for in [`CollectedSources::skipped`] rather than silently dropped.
pub fn collect_sources(root: &Path) -> Result<CollectedSources, IwaError> {
    let meta = std::fs::metadata(root)
        .map_err(|e| IwaError::Io(format!("{}: {e}", root.display())))?;
    if meta.is_file() {
        return Ok(CollectedSources {
            files: vec![root.to_path_buf()],
            skipped: Vec::new(),
        });
    }
    let mut out = CollectedSources::default();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| IwaError::Io(format!("{}: {e}", dir.display())))?;
        for entry in entries {
            let path = entry
                .map_err(|e| IwaError::Io(format!("{}: {e}", dir.display())))?
                .path();
            if path.is_dir() {
                stack.push(path);
            } else if frontends::by_extension(&path).is_some() {
                out.files.push(path);
            } else {
                out.skipped.push(path);
            }
        }
    }
    out.files.sort();
    out.skipped.sort();
    Ok(out)
}

/// Check every file in `paths`, each behind its own panic boundary and
/// under its own copy of the engine options, fanned across
/// [`CheckOptions::jobs`] workers. Every file that analyses also runs
/// the quick lint stage ([`quick_registry`]) into its
/// [`FileOutcome::diagnostics`].
///
/// All workers share one cancel token (the caller's, when
/// `opts.engine.cancel` is set): cancelling it — or exhausting
/// [`CheckOptions::batch_deadline`] — trips every in-flight analysis at
/// its next budget probe and degrades files not yet started to their
/// naive floor, so the batch still answers promptly and completely.
#[must_use]
pub fn check_batch(paths: &[PathBuf], opts: &CheckOptions) -> CheckSummary {
    let started = Instant::now();

    // One token shared by every per-file ladder; the batch budget exists
    // only to meter the global deadline.
    let cancel = opts.engine.cancel.clone().unwrap_or_default();
    let batch_budget = opts
        .batch_deadline
        .map(|d| Budget::with_deadline(d).and_cancel_token(cancel.clone()));

    // One accumulator shared by every per-file ladder. Counter commits are
    // saturating adds of non-negative deltas, so the summed totals are
    // independent of worker interleaving — identical for any job count.
    let metrics = opts.engine.metrics.clone().unwrap_or_default();

    let files = pool::try_map(opts.jobs, paths.len(), |i| {
        // Clones of a fault plan share its hit counters, so trigger
        // windows (skip/times) count one hit sequence over every file.
        let mut eopts = opts.engine.clone();
        eopts.cancel = Some(cancel.clone());
        eopts.metrics = Some(metrics.clone());
        // Clamp the per-file deadline to what remains of the batch; an
        // already-exhausted batch leaves each remaining file a zero
        // deadline, degrading it straight to the naive floor.
        if let Some(rem) = batch_budget.as_ref().and_then(Budget::remaining_time) {
            eopts.deadline = Some(eopts.deadline.map_or(rem, |d| d.min(rem)));
        }
        Ok::<_, IwaError>(check_one(&paths[i], &eopts, opts.lang, opts.max_attempts))
    });
    let files: Vec<FileOutcome> = files.expect("per-file closure is infallible");

    let count = |f: &dyn Fn(&FileOutcome) -> bool| files.iter().filter(|o| f(o)).count();
    CheckSummary {
        schema_version: SCHEMA_VERSION,
        total: files.len(),
        clean: count(&|o| o.verdict == Some(EngineVerdict::Clean)),
        anomalous: count(&|o| o.verdict == Some(EngineVerdict::Anomalous)),
        unknown: count(&|o| o.verdict == Some(EngineVerdict::Unknown)),
        degraded: count(&|o| o.degraded),
        errors: count(&|o| matches!(o.status.as_str(), "parse-error" | "invalid-program" | "io-error")),
        panicked: count(&|o| o.status == "panicked"),
        skipped: opts.skipped.clone(),
        elapsed_ms: started.elapsed().as_millis().try_into().unwrap_or(u64::MAX),
        meta: metrics.meta(),
        files,
    }
}

enum Checked {
    Report(EngineReport, Vec<Diagnostic>),
    Parse(IwaError),
    Invalid(IwaError),
    Io(String),
}

/// Map an injected fault error onto the outcome taxonomy: io-errors are
/// the (retryable) `"io-error"` status, anything else lands in
/// `"invalid-program"` like an organic analysis error.
fn checked_fault(e: IwaError) -> Checked {
    match e {
        IwaError::Io(msg) => Checked::Io(msg),
        other => Checked::Invalid(other),
    }
}

fn check_attempt(
    path: &Path,
    display: &str,
    opts: &EngineOptions,
    forced: Option<Lang>,
) -> Checked {
    if let Some(plan) = &opts.faults {
        if let Err(e) = plan.fire(FaultSite::CheckFile, display) {
            return checked_fault(e);
        }
    }
    let src = match std::fs::read_to_string(path) {
        Ok(src) => src,
        Err(e) => return Checked::Io(e.to_string()),
    };
    if let Some(plan) = &opts.faults {
        if let Err(e) = plan.fire(FaultSite::Parse, display) {
            return checked_fault(e);
        }
    }
    // `load` covers both parsing and model validation; keep the two
    // apart in the outcome taxonomy.
    let model = match frontends::resolve(path, forced).load(&src) {
        Ok(m) => m,
        Err(e @ IwaError::Parse { .. }) => return Checked::Parse(e),
        Err(e) => return Checked::Invalid(e),
    };
    let report = match analyze_model(&model, opts) {
        Ok(report) => report,
        Err(e) => return Checked::Invalid(e),
    };
    // The model analysed cleanly, so the lint context builds; the quick
    // lints run no analysis, so the context needs no budget or workers.
    let ctx = iwa_analysis::AnalysisCtx::default();
    let diagnostics =
        lint_model(&ctx, &model, &LintConfig::default(), &quick_registry()).unwrap_or_default();
    Checked::Report(report, diagnostics)
}

fn check_one(
    path: &Path,
    opts: &EngineOptions,
    forced: Option<Lang>,
    max_attempts: u32,
) -> FileOutcome {
    let started = Instant::now();
    let display = path.display().to_string();
    let lang = frontends::resolve(path, forced).lang().name().to_owned();
    let max_attempts = u64::from(max_attempts.max(1));

    let mut retries = 0u64;
    let run = loop {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            check_attempt(path, &display, opts, forced)
        }));
        // Only transient io-errors are retryable; panics, parse errors,
        // and analysis errors are not going to change on a second look.
        match attempt {
            Ok(Checked::Io(msg)) if retries + 1 < max_attempts => {
                retries += 1;
                std::thread::sleep(RETRY_BACKOFF * u32::try_from(retries).unwrap_or(u32::MAX));
                drop(msg);
            }
            other => break other,
        }
    };
    if retries > 0 {
        if let Some(metrics) = &opts.metrics {
            metrics.commit(&Counters {
                io_retries: retries,
                ..Counters::default()
            });
        }
    }

    let elapsed_ms = started.elapsed().as_millis().try_into().unwrap_or(u64::MAX);
    let (status, verdict, rung, degraded, error, diagnostics) = match run {
        Ok(Checked::Report(r, d)) => ("ok", Some(r.verdict), Some(r.rung), r.degraded, None, d),
        Ok(Checked::Parse(e)) => ("parse-error", None, None, false, Some(e.to_string()), vec![]),
        Ok(Checked::Invalid(e)) => {
            ("invalid-program", None, None, false, Some(e.to_string()), vec![])
        }
        Ok(Checked::Io(msg)) => ("io-error", None, None, false, Some(msg), vec![]),
        Err(payload) => (
            "panicked",
            None,
            None,
            false,
            // `as_ref` to downcast the *contents*, not the box itself.
            Some(panic_message(payload.as_ref())),
            vec![],
        ),
    };
    FileOutcome {
        path: display,
        lang,
        status: status.to_owned(),
        verdict,
        rung,
        degraded,
        elapsed_ms,
        error,
        diagnostics,
    }
}
