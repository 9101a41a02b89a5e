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
//! * [`CATALOG`] — the lint catalog, one plain [`Lint`] record per lint,
//!   from migrated `validate` census warnings up to sync-graph lints that
//!   reuse [`AnalysisCtx`] (budgets, cancellation and worker counts all
//!   respected). Each record's [`Check`] names the one language it reads
//!   and whether it belongs to the quick stage ([`quick_registry`]);
//! * [`render`] — rustc-style text output with a source-excerpt caret
//!   line, also used to render parse errors;
//! * [`sarif`] — SARIF 2.1.0 emission for editor and CI integration.
//!
//! Determinism: for a fixed program and configuration the diagnostic list
//! is byte-stable regardless of worker count — checks run in catalog
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
mod passes;
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

/// One lint: its registry identity, its defaults, and the check that
/// looks for it.
#[derive(Clone, Copy, Debug)]
pub struct Lint {
    /// Kebab-case registry name (`-W`/`-A`/`-D` key and SARIF rule id).
    pub name: &'static str,
    /// Severity when no override applies.
    pub default_severity: Severity,
    /// One-line description (shown in SARIF rule metadata and
    /// `iwa lint --explain`).
    pub description: &'static str,
    /// The code that looks for the lint, and what it reads; the lint's
    /// language ([`Check::lang`]) and its membership of the quick stage
    /// ([`Check::is_quick`]) both follow from it.
    pub check: Check,
}

/// What a lint's check reads, holding the function that reads it.
///
/// A check appends [`Diagnostic`]s with [`Severity::Warn`]; the drivers
/// ([`run_lints`], [`run_lints_lok`], [`run_lints_chan`]) rewrite
/// severities from the configuration, drop `Allow`s, sort, and
/// deduplicate, so a check never needs to see the configuration. Each
/// driver runs only the checks of its own input kind, so any list of
/// lints is safe to hand any driver.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// Reads a tasklang program's AST views ([`LintContext::program`],
    /// [`LintContext::inlined`], [`LintContext::counts`]); builds no
    /// sync graph.
    Ast(fn(&Lint, &LintContext<'_>, &mut Vec<Diagnostic>)),
    /// Reads a tasklang program's sync-graph views and runs the paper's
    /// analyses through [`LintContext::ctx`].
    Graph(fn(&Lint, &LintContext<'_>, &mut Vec<Diagnostic>)),
    /// Reads a loaded `.lok` model.
    Lok(fn(&Lint, &LokModel, &mut Vec<Diagnostic>)),
    /// Reads a loaded `.chan` model.
    Chan(fn(&Lint, &ChanModel, &mut Vec<Diagnostic>)),
}

impl Check {
    /// The language whose models this check reads.
    #[must_use]
    pub fn lang(self) -> Lang {
        match self {
            Check::Ast(_) | Check::Graph(_) => Lang::Tasklang,
            Check::Lok(_) => Lang::Lok,
            Check::Chan(_) => Lang::Chan,
        }
    }

    /// Is the check cheap enough for the quick stage? Every kind but
    /// [`Graph`](Check::Graph) is: the `.lok` and `.chan` checks read
    /// what the load already computed.
    #[must_use]
    pub fn is_quick(self) -> bool {
        !matches!(self, Check::Graph(_))
    }
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
        CATALOG.iter().any(|l| l.name == name)
    }
}

/// The lint catalog across every frontend, in documentation order.
pub static CATALOG: &[Lint] = {
    use passes::{channels, graph, locks, structural};
    use Severity::{Deny, Warn};
    &[
        Lint {
            name: "self-send",
            default_severity: Warn,
            description: "a task sends a signal to itself; the rendezvous can never complete",
            check: Check::Ast(structural::self_send),
        },
        Lint {
            name: "unmatched-signal",
            default_severity: Warn,
            description: "a signal is sent but has no accept point anywhere",
            check: Check::Ast(structural::unmatched_signal),
        },
        Lint {
            name: "entry-never-called",
            default_severity: Warn,
            description: "an entry is accepted but no task ever calls it",
            check: Check::Ast(structural::entry_never_called),
        },
        Lint {
            name: "silent-task",
            default_severity: Warn,
            description: "a task contains no rendezvous and is invisible to the analyses",
            check: Check::Ast(structural::silent_task),
        },
        Lint {
            name: "never-started-task",
            default_severity: Warn,
            description:
                "every path into the task starts by waiting on an entry that is never called",
            check: Check::Ast(structural::never_started_task),
        },
        Lint {
            name: "unreachable-statement",
            default_severity: Warn,
            description: "the statement follows a wait that can never complete",
            check: Check::Ast(structural::unreachable_statement),
        },
        Lint {
            name: "self-rendezvous-cycle",
            default_severity: Warn,
            description:
                "an entry is only ever called from its own task; the rendezvous cannot complete",
            check: Check::Graph(graph::self_rendezvous_cycle),
        },
        Lint {
            name: "always-stalling-wait",
            default_severity: Warn,
            description:
                "the stall analysis found a path combination with unbalanced waits on a signal",
            check: Check::Graph(graph::always_stalling_wait),
        },
        Lint {
            name: "deadlock-head",
            default_severity: Deny,
            description:
                "the refined analysis flagged this rendezvous as the head of a deadlock cycle",
            check: Check::Graph(graph::deadlock_head),
        },
        Lint {
            name: "lock-order-cycle",
            default_severity: Deny,
            description:
                "mutexes are acquired in a cyclic order; threads can deadlock in a circular wait",
            check: Check::Lok(locks::lock_order_cycle),
        },
        Lint {
            name: "double-lock",
            default_severity: Deny,
            description: "a thread may re-acquire a mutex it already holds; the second acquire self-deadlocks",
            check: Check::Lok(locks::double_lock),
        },
        Lint {
            name: "unbalanced-unlock",
            default_severity: Warn,
            description: "a mutex is unlocked on a path where it is not held",
            check: Check::Lok(locks::unbalanced_unlock),
        },
        Lint {
            name: "lock-held-at-exit",
            default_severity: Warn,
            description: "a thread may exit still holding a mutex; later acquirers wait forever",
            check: Check::Lok(locks::lock_held_at_exit),
        },
        Lint {
            name: "channel-cycle",
            default_severity: Deny,
            description:
                "channel ports form a circular wait; processes can deadlock starving each other",
            check: Check::Chan(channels::channel_cycle),
        },
        Lint {
            name: "livelock",
            default_severity: Deny,
            description: "a loop can spin forever without communicating; starved arms never fire",
            check: Check::Chan(channels::livelock),
        },
        Lint {
            name: "send-on-closed",
            default_severity: Deny,
            description: "a process sends on a channel after closing it; the send faults at runtime",
            check: Check::Chan(channels::send_on_closed),
        },
        Lint {
            name: "close-of-closed",
            default_severity: Deny,
            description:
                "a process closes a channel that is already closed; the second close faults at runtime",
            check: Check::Chan(channels::close_of_closed),
        },
        Lint {
            name: "select-arm-starved",
            default_severity: Warn,
            description: "a select arm has no counterpart in any other process and can never fire",
            check: Check::Chan(channels::select_arm_starved),
        },
        Lint {
            name: "never-received",
            default_severity: Warn,
            description: "a channel is sent on but never received anywhere; sends back up or block forever",
            check: Check::Chan(channels::never_received),
        },
        Lint {
            name: "unbounded-growth",
            default_severity: Warn,
            description: "an unbounded channel is filled in a loop but drained by none; its buffer can grow without bound",
            check: Check::Chan(channels::unbounded_growth),
        },
    ]
};

/// The whole [`CATALOG`], in documentation order.
#[must_use]
pub fn registry() -> Vec<&'static Lint> {
    CATALOG.iter().collect()
}

/// The catalog filtered to the lints that speak `lang`.
#[must_use]
pub fn registry_for(lang: Lang) -> Vec<&'static Lint> {
    CATALOG.iter().filter(|l| l.check.lang() == lang).collect()
}

/// The quick stage: every lint whose check [`is_quick`](Check::is_quick),
/// in every language. `analyze` and `check` surface these without paying
/// for the sync-graph analyses; the tasklang ones read only the
/// [`LintContext`]'s AST views, so no sync graph is built.
#[must_use]
pub fn quick_registry() -> Vec<&'static Lint> {
    CATALOG.iter().filter(|l| l.check.is_quick()).collect()
}

/// Run the tasklang checks among `lints` over one program and
/// post-process the findings: configure severities, drop `Allow`s, sort
/// positionally (span, then lint name, then message), and deduplicate —
/// transform copies share their original's span, so lints firing on both
/// unrolled copies of a loop body collapse to one finding here.
///
/// Fails only when the program violates the model assumptions
/// ([`iwa_tasklang::validate::check_model`]) so badly that the derived
/// graphs cannot be built.
pub fn run_lints(
    ctx: &AnalysisCtx,
    program: &Program,
    config: &LintConfig,
    lints: &[&Lint],
) -> Result<Vec<Diagnostic>, IwaError> {
    let lcx = LintContext::new(program, ctx)?;
    Ok(drive(config, lints, |lint, out| {
        if let Check::Ast(check) | Check::Graph(check) = lint.check {
            check(lint, &lcx, out);
        }
    }))
}

/// Run the `.lok` checks among `lints` over one loaded model, with the
/// same severity configuration and post-processing as [`run_lints`].
/// Infallible: the lock graph and its cycles are already on the model.
#[must_use]
pub fn run_lints_lok(model: &LokModel, config: &LintConfig, lints: &[&Lint]) -> Vec<Diagnostic> {
    drive(config, lints, |lint, out| {
        if let Check::Lok(check) = lint.check {
            check(lint, model, out);
        }
    })
}

/// Run the `.chan` checks among `lints` over one loaded model, with the
/// same severity configuration and post-processing as [`run_lints`].
/// Infallible: the communication graph, its cycles, and the livelock
/// witnesses are already on the model.
#[must_use]
pub fn run_lints_chan(model: &ChanModel, config: &LintConfig, lints: &[&Lint]) -> Vec<Diagnostic> {
    drive(config, lints, |lint, out| {
        if let Check::Chan(check) = lint.check {
            check(lint, model, out);
        }
    })
}

/// Run `lints` over a loaded model of any language with that language's
/// driver ([`run_lints`], [`run_lints_lok`] or [`run_lints_chan`]).
/// `ctx` feeds the tasklang graph lints; the `.lok` and `.chan` lints
/// read only the model.
///
/// Fails only where [`run_lints`] does.
pub fn lint_model(
    ctx: &AnalysisCtx,
    model: &LoadedModel,
    config: &LintConfig,
    lints: &[&Lint],
) -> Result<Vec<Diagnostic>, IwaError> {
    match &model.ir {
        ModelIr::Tasklang(program) => run_lints(ctx, program, config, lints),
        ModelIr::Lok(m) => Ok(run_lints_lok(m, config, lints)),
        ModelIr::Chan(m) => Ok(run_lints_chan(m, config, lints)),
    }
}

/// The one lint driver: hand each non-`Allow` lint to `run`, stamp its
/// findings with the configured severity, then sort positionally (span,
/// then lint name, then message) and deduplicate.
fn drive(
    config: &LintConfig,
    lints: &[&Lint],
    run: impl Fn(&Lint, &mut Vec<Diagnostic>),
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &lint in lints {
        let sev = config.severity_of(lint);
        if sev == Severity::Allow {
            continue;
        }
        let start = out.len();
        run(lint, &mut out);
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
        let mut names: Vec<_> = CATALOG.iter().map(|l| l.name).collect();
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
            check: CATALOG[0].check,
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
