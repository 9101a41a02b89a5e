//! Span-carrying diagnostics for `.iwa` programs.
//!
//! The paper's algorithms certify whole programs; a production analyzer
//! must also *explain* findings at source granularity. This crate holds
//! the pieces the CLI and engine share to do that:
//!
//! * [`Diagnostic`] — one finding: a lint name, a [`Severity`], a message,
//!   and a [`Span`](iwa_core::Span) pointing into the original source
//!   (spans survive the Lemma-1 transforms, so graph-level lints computed
//!   on the unrolled program still underline the statement the user
//!   wrote);
//! * [`LintPass`] / [`registry`] — the lint catalog, from migrated
//!   `validate` census warnings up to sync-graph lints that reuse
//!   [`AnalysisCtx`](iwa_analysis::AnalysisCtx) (budgets, cancellation and
//!   worker counts all respected);
//! * [`render`] — rustc-style text output with a source-excerpt caret
//!   line, also used to render parse errors;
//! * [`sarif`] — SARIF 2.1.0 emission for editor and CI integration.
//!
//! Determinism: for a fixed program and configuration the diagnostic list
//! is byte-stable regardless of worker count — passes run in registry
//! order, findings are sorted positionally and deduplicated, and the
//! underlying analyses are deterministic for any `-j`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use iwa_analysis::AnalysisCtx;
use iwa_core::{IwaError, Span};
use iwa_frontend::{ChanModel, LoadedModel, LokModel, ModelIr};
use iwa_tasklang::Program;
use serde::Serialize;
use std::fmt;

pub mod context;
pub mod passes;
pub mod render;
pub mod sarif;

pub use context::LintContext;
pub use iwa_frontend::Lang;

/// How seriously a finding is taken.
///
/// `Allow` findings are dropped before they reach any output; `Deny`
/// findings flip the `iwa lint` exit code. `--deny-warnings` promotes
/// every `Warn` to `Deny` after per-lint overrides are applied.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize)]
pub enum Severity {
    /// Suppressed: computed but not reported.
    Allow,
    /// Reported, does not affect the exit code.
    Warn,
    /// Reported and fails the run.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Allow => "allow",
            Severity::Warn => "warning",
            Severity::Deny => "error",
        })
    }
}

/// Static description of one lint: its registry identity and defaults.
#[derive(Clone, Copy, Debug)]
pub struct Lint {
    /// Kebab-case registry name (`-W`/`-A`/`-D` key and SARIF rule id).
    pub name: &'static str,
    /// Severity when no override applies.
    pub default_severity: Severity,
    /// One-line description (shown in SARIF rule metadata and
    /// `iwa lint --explain`).
    pub description: &'static str,
    /// The frontends this lint speaks — the applicability matrix behind
    /// [`registry_for`] and `iwa lint --explain`.
    pub applies_to: &'static [Lang],
}

/// One finding.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Diagnostic {
    /// Name of the lint that produced this ([`Lint::name`]).
    pub lint: String,
    /// Effective severity after configuration.
    pub severity: Severity,
    /// Human-readable, source-level message.
    pub message: String,
    /// Where in the original source the finding points
    /// ([`Span::DUMMY`] when the construct has no source location).
    pub span: Span,
}

/// Per-run lint configuration: severity overrides in flag order, plus the
/// `--deny-warnings` promotion.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// `(lint name, severity)` overrides, applied in order (last wins).
    pub levels: Vec<(String, Severity)>,
    /// Promote every `Warn` finding to `Deny` (after overrides).
    pub deny_warnings: bool,
}

impl LintConfig {
    /// The effective severity of `lint` under this configuration.
    #[must_use]
    pub fn severity_of(&self, lint: &Lint) -> Severity {
        let mut sev = lint.default_severity;
        for (name, level) in &self.levels {
            if name == lint.name {
                sev = *level;
            }
        }
        if self.deny_warnings && sev == Severity::Warn {
            Severity::Deny
        } else {
            sev
        }
    }

    /// Does `name` refer to a registered lint? (Catches `-W typo`.)
    #[must_use]
    pub fn is_known(name: &str) -> bool {
        registry().iter().any(|p| p.lint().name == name)
    }
}

/// One lint: a descriptor plus the code that looks for it.
///
/// Passes append [`Diagnostic`]s with [`Severity::Warn`]; the drivers
/// ([`run_lints`], [`run_lints_lok`], [`run_lints_chan`]) rewrite
/// severities from the configuration, drop `Allow`s, sort, and
/// deduplicate. A pass therefore never needs to see the configuration.
///
/// A pass implements the entry point(s) for the language(s) in its
/// descriptor's [`Lint::applies_to`]; the other entry points default to
/// no-ops, so mixed registries are safe to run against any model.
pub trait LintPass {
    /// The static descriptor.
    fn lint(&self) -> &'static Lint;
    /// Scan a tasklang model and append findings to `out`.
    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let _ = (ctx, out);
    }
    /// Scan a `.lok` model and append findings to `out`.
    fn run_lok(&self, model: &LokModel, out: &mut Vec<Diagnostic>) {
        let _ = (model, out);
    }
    /// Scan a `.chan` model and append findings to `out`.
    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        let _ = (model, out);
    }
}

/// The full lint catalog across every frontend, in documentation order.
#[must_use]
pub fn registry() -> Vec<Box<dyn LintPass>> {
    let mut v = quick_registry();
    v.extend(graph_registry());
    v.extend(locks_registry());
    v.extend(channels_registry());
    v
}

/// The catalog filtered to the lints that speak `lang`.
#[must_use]
pub fn registry_for(lang: Lang) -> Vec<Box<dyn LintPass>> {
    let mut v = registry();
    v.retain(|p| p.lint().applies_to.contains(&lang));
    v
}

/// The AST-level lints: cheap passes over the parsed program (the three
/// migrated `validate` warnings plus the structural lints). `analyze` and
/// `check` surface these without paying for the sync-graph analyses: they
/// read only the [`LintContext`]'s AST views, so no sync graph is built.
#[must_use]
pub fn quick_registry() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(passes::structural::SelfSend),
        Box::new(passes::structural::UnmatchedSignal),
        Box::new(passes::structural::EntryNeverCalled),
        Box::new(passes::structural::SilentTask),
        Box::new(passes::structural::NeverStartedTask),
        Box::new(passes::structural::UnreachableStatement),
    ]
}

/// The sync-graph/CLG-derived lints: these run the paper's analyses via
/// the shared [`AnalysisCtx`], so budgets and cancellation apply.
#[must_use]
pub fn graph_registry() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(passes::graph::SelfRendezvousCycle),
        Box::new(passes::graph::AlwaysStallingWait),
        Box::new(passes::graph::DeadlockHead),
    ]
}

/// The `.lok` lock-order lints. All are AST/lock-graph level (the lock
/// graph and its cycles are precomputed on the loaded model), so there is
/// no quick/deep split for this frontend.
#[must_use]
pub fn locks_registry() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(passes::locks::LockOrderCycle),
        Box::new(passes::locks::DoubleLock),
        Box::new(passes::locks::UnbalancedUnlock),
        Box::new(passes::locks::LockHeldAtExit),
    ]
}

/// The `.chan` channel/select lints. All run on the precomputed pieces
/// of the loaded model (communication graph, cycles, livelocks, effect
/// sets), so — like the `.lok` family — there is no quick/deep split.
#[must_use]
pub fn channels_registry() -> Vec<Box<dyn LintPass>> {
    vec![
        Box::new(passes::channels::ChannelCycle),
        Box::new(passes::channels::Livelock),
        Box::new(passes::channels::SendOnClosed),
        Box::new(passes::channels::SelectArmStarved),
        Box::new(passes::channels::NeverReceived),
        Box::new(passes::channels::UnboundedGrowth),
    ]
}

/// Run `passes` over one program and post-process the findings:
/// configure severities, drop `Allow`s, sort positionally
/// (span, then lint name, then message), and deduplicate — transform
/// copies share their original's span, so lints firing on both unrolled
/// copies of a loop body collapse to one finding here.
///
/// Fails only when the program violates the model assumptions
/// ([`iwa_tasklang::validate::check_model`]) so badly that the derived
/// graphs cannot be built.
pub fn run_lints(
    ctx: &AnalysisCtx,
    program: &Program,
    config: &LintConfig,
    passes: &[Box<dyn LintPass>],
) -> Result<Vec<Diagnostic>, IwaError> {
    let lcx = LintContext::new(program, ctx)?;
    Ok(drive(config, passes, |pass, out| pass.run(&lcx, out)))
}

/// Run `passes` over one loaded `.lok` model, with the same severity
/// configuration and post-processing as [`run_lints`]. Infallible: the
/// lock graph and its cycles are already on the model.
#[must_use]
pub fn run_lints_lok(
    model: &LokModel,
    config: &LintConfig,
    passes: &[Box<dyn LintPass>],
) -> Vec<Diagnostic> {
    drive(config, passes, |pass, out| pass.run_lok(model, out))
}

/// Run `passes` over one loaded `.chan` model, with the same severity
/// configuration and post-processing as [`run_lints`]. Infallible: the
/// communication graph, its cycles, and the livelock witnesses are
/// already on the model.
#[must_use]
pub fn run_lints_chan(
    model: &ChanModel,
    config: &LintConfig,
    passes: &[Box<dyn LintPass>],
) -> Vec<Diagnostic> {
    drive(config, passes, |pass, out| pass.run_chan(model, out))
}

/// Run `passes` over a loaded model of any language with that
/// language's entry point ([`run_lints`], [`run_lints_lok`] or
/// [`run_lints_chan`]). `ctx` feeds the tasklang graph lints; the `.lok`
/// and `.chan` lints read only the model.
///
/// Fails only where [`run_lints`] does.
pub fn lint_model(
    ctx: &AnalysisCtx,
    model: &LoadedModel,
    config: &LintConfig,
    passes: &[Box<dyn LintPass>],
) -> Result<Vec<Diagnostic>, IwaError> {
    match &model.ir {
        ModelIr::Tasklang(program) => run_lints(ctx, program, config, passes),
        ModelIr::Lok(m) => Ok(run_lints_lok(m, config, passes)),
        ModelIr::Chan(m) => Ok(run_lints_chan(m, config, passes)),
    }
}

/// The one lint driver: run each non-`Allow` pass through `run`, stamp
/// its findings with the configured severity, then sort positionally
/// (span, then lint name, then message) and deduplicate.
fn drive(
    config: &LintConfig,
    passes: &[Box<dyn LintPass>],
    run: impl Fn(&dyn LintPass, &mut Vec<Diagnostic>),
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for pass in passes {
        let sev = config.severity_of(pass.lint());
        if sev == Severity::Allow {
            continue;
        }
        let start = out.len();
        run(pass.as_ref(), &mut out);
        for d in &mut out[start..] {
            d.severity = sev;
        }
    }
    out.sort_by(|a, b| {
        (a.span, a.lint.as_str(), a.message.as_str())
            .cmp(&(b.span, b.lint.as_str(), b.message.as_str()))
    });
    out.dedup();
    out
}

/// Does any finding fail the run under the exit-code contract?
#[must_use]
pub fn has_denials(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Deny)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_kebab_case() {
        let passes = registry();
        let mut names: Vec<_> = passes.iter().map(|p| p.lint().name).collect();
        names.sort_unstable();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "duplicate lint name");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "not kebab-case: {n}"
            );
        }
    }

    #[test]
    fn severity_resolution_last_override_wins_then_deny_warnings() {
        let lint = Lint {
            name: "self-send",
            default_severity: Severity::Warn,
            description: "",
            applies_to: &[Lang::Tasklang],
        };
        let mut cfg = LintConfig::default();
        assert_eq!(cfg.severity_of(&lint), Severity::Warn);
        cfg.levels.push(("self-send".into(), Severity::Allow));
        cfg.levels.push(("self-send".into(), Severity::Deny));
        assert_eq!(cfg.severity_of(&lint), Severity::Deny);
        cfg.levels.push(("self-send".into(), Severity::Warn));
        cfg.deny_warnings = true;
        assert_eq!(cfg.severity_of(&lint), Severity::Deny);
    }

    #[test]
    fn unknown_lint_names_are_detected() {
        assert!(LintConfig::is_known("self-send"));
        assert!(!LintConfig::is_known("no-such-lint"));
    }
}
