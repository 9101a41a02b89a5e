//! Structured, deterministic fault injection.
//!
//! A tool whose whole thesis is detecting infinite waits must itself be
//! testable against hangs, crashes, and slow I/O — so instead of a
//! single "panic when the path matches" environment hook, the workspace
//! carries a [`FaultPlan`]: a set of rules, each naming an injection
//! **site** ([`FaultSite`]), an **action** ([`FaultAction`]), and a
//! deterministic trigger window (`skip` hits pass untouched, then
//! `times` hits fire). Sites are compiled into the engine and the serve
//! daemon at the exact points where production failures would strike:
//! parsing, certification, the refined per-head search, cache lookups,
//! and response writes.
//!
//! Determinism discipline: every rule counts *its own* site hits with a
//! shared atomic counter, so for a fixed request schedule the same hits
//! fire on every run — which is what lets the chaos suite assert exact
//! outcomes ("the second parse panics, everything else completes").
//!
//! # Spec grammar
//!
//! A plan is parsed from a spec string — one rule per `;`-separated
//! entry:
//!
//! ```text
//! site=action[:ms][:skip=N][:times=N][:label=SUBSTR]
//! ```
//!
//! * `site` — one of `parse`, `certify`, `refined-search`,
//!   `cache-lookup`, `response-write`, `check-file`;
//! * `action` — `panic`, `sleep` (optionally `sleep:MS`, default 100),
//!   `io-error`, or `budget-trip`;
//! * `skip=N` — let the first `N` matching hits pass (default 0);
//! * `times=N` — fire on at most `N` hits after the skip window
//!   (default: every hit);
//! * `label=SUBSTR` — only hits whose label (file path, rung name, …)
//!   contains `SUBSTR` count for this rule.
//!
//! Example: `parse=panic:times=1;certify=sleep:250:skip=2` — the first
//! parse panics, and every certification after the second stalls 250 ms.
//! A plan reaches the code as a value (`EngineOptions::faults`,
//! `ServeOptions::faults`); the CLI parses it from `--fault`.

use crate::error::IwaError;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A named injection site — a point in the engine or serve daemon where
/// a fault plan may interpose.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// Source-text parsing (engine `check_one`, serve request executor).
    Parse,
    /// Start of a budgeted ladder rung (oracle or refined certification).
    Certify,
    /// The refined per-head search specifically (fires in addition to
    /// [`FaultSite::Certify`] on refined rungs).
    RefinedSearch,
    /// Content-addressed verdict-cache lookup (serve daemon).
    CacheLookup,
    /// Response frame write-back (serve daemon).
    ResponseWrite,
    /// Per-file batch-check boundary (the label is the file path).
    CheckFile,
}

/// All sites, in a stable order (used by docs and the chaos suite).
pub const ALL_SITES: [FaultSite; 6] = [
    FaultSite::Parse,
    FaultSite::Certify,
    FaultSite::RefinedSearch,
    FaultSite::CacheLookup,
    FaultSite::ResponseWrite,
    FaultSite::CheckFile,
];

impl FaultSite {
    /// The stable spec name of this site.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::Parse => "parse",
            FaultSite::Certify => "certify",
            FaultSite::RefinedSearch => "refined-search",
            FaultSite::CacheLookup => "cache-lookup",
            FaultSite::ResponseWrite => "response-write",
            FaultSite::CheckFile => "check-file",
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultSite {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "parse" => Ok(FaultSite::Parse),
            "certify" => Ok(FaultSite::Certify),
            "refined-search" => Ok(FaultSite::RefinedSearch),
            "cache-lookup" => Ok(FaultSite::CacheLookup),
            "response-write" => Ok(FaultSite::ResponseWrite),
            "check-file" => Ok(FaultSite::CheckFile),
            other => Err(format!(
                "unknown fault site '{other}' (expected parse, certify, refined-search, \
                 cache-lookup, response-write, or check-file)"
            )),
        }
    }
}

/// What an armed rule does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an "injected fault" message — exercises every
    /// `catch_unwind` isolation boundary.
    Panic,
    /// Sleep for the given duration — models a stalled worker and
    /// exercises deadline watchdogs (a sleep ignores budgets and cancel
    /// tokens by design).
    Sleep(Duration),
    /// Fail with [`IwaError::Io`] — models transient I/O failure and
    /// exercises retry paths.
    IoError,
    /// Fail with [`IwaError::BudgetExceeded`] — models an exhausted
    /// budget and exercises degradation ladders.
    BudgetTrip,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Panic => f.write_str("panic"),
            FaultAction::Sleep(d) => write!(f, "sleep:{}", d.as_millis()),
            FaultAction::IoError => f.write_str("io-error"),
            FaultAction::BudgetTrip => f.write_str("budget-trip"),
        }
    }
}

/// One parsed rule plus its deterministic hit counter.
#[derive(Debug)]
struct Rule {
    site: FaultSite,
    action: FaultAction,
    /// Matching hits to let pass before firing.
    skip: u64,
    /// Maximum hits that fire once the skip window is spent
    /// (`u64::MAX` = every hit).
    times: u64,
    /// Only hits whose label contains this substring count.
    label: Option<String>,
    /// Matching hits observed so far (shared across plan clones).
    hits: AtomicU64,
}

/// A set of fault rules with shared, deterministic trigger counters.
///
/// Cheap to clone: clones share the rule counters, so one plan threaded
/// through engine options, serve options, and a cache all counts one
/// global sequence of site hits per rule.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    rules: Arc<Vec<Rule>>,
}

impl FaultPlan {
    /// Parse a plan from its spec string (see the module docs for the
    /// grammar). An empty spec yields an empty plan that never fires.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault rule '{entry}' is missing '=' (site=action)"))?;
            let site: FaultSite = site.trim().parse()?;
            let mut parts = rest.split(':').map(str::trim);
            let action_name = parts.next().unwrap_or_default();
            let mut action = match action_name {
                "panic" => FaultAction::Panic,
                "sleep" => FaultAction::Sleep(Duration::from_millis(100)),
                "io-error" => FaultAction::IoError,
                "budget-trip" => FaultAction::BudgetTrip,
                other => {
                    return Err(format!(
                        "unknown fault action '{other}' in rule '{entry}' \
                         (expected panic, sleep, io-error, or budget-trip)"
                    ))
                }
            };
            let mut skip = 0u64;
            let mut times = u64::MAX;
            let mut label = None;
            for modifier in parts {
                if let Some((key, value)) = modifier.split_once('=') {
                    match key {
                        "skip" => {
                            skip = value
                                .parse()
                                .map_err(|_| format!("bad skip '{value}' in rule '{entry}'"))?;
                        }
                        "times" => {
                            times = value
                                .parse()
                                .map_err(|_| format!("bad times '{value}' in rule '{entry}'"))?;
                        }
                        "label" => label = Some(value.to_owned()),
                        other => {
                            return Err(format!("unknown modifier '{other}' in rule '{entry}'"))
                        }
                    }
                } else if let FaultAction::Sleep(_) = action {
                    let ms: u64 = modifier
                        .parse()
                        .map_err(|_| format!("bad sleep duration '{modifier}' in rule '{entry}'"))?;
                    action = FaultAction::Sleep(Duration::from_millis(ms));
                } else {
                    return Err(format!("unexpected modifier '{modifier}' in rule '{entry}'"));
                }
            }
            rules.push(Rule {
                site,
                action,
                skip,
                times,
                label,
                hits: AtomicU64::new(0),
            });
        }
        Ok(FaultPlan {
            rules: Arc::new(rules),
        })
    }

    /// `true` when the plan has no rules (and [`decide`](Self::decide)
    /// can never fire).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Record one hit of `site` with `label` against every matching rule
    /// and return the action of the first rule whose trigger window is
    /// open. Every matching rule's counter advances even when an earlier
    /// rule fires, so per-rule counts stay equal to the site hit count.
    #[must_use]
    pub fn decide(&self, site: FaultSite, label: &str) -> Option<FaultAction> {
        let mut fired = None;
        for rule in self.rules.iter() {
            if rule.site != site {
                continue;
            }
            if let Some(l) = &rule.label {
                if !label.contains(l.as_str()) {
                    continue;
                }
            }
            let hit = rule.hits.fetch_add(1, Ordering::Relaxed);
            if fired.is_none() && hit >= rule.skip && hit - rule.skip < rule.times {
                fired = Some(rule.action);
            }
        }
        fired
    }

    /// [`decide`](Self::decide) and apply: panic for
    /// [`FaultAction::Panic`], sleep then `Ok` for
    /// [`FaultAction::Sleep`], and `Err` carrying the injected
    /// [`IwaError`] for the two error actions.
    ///
    /// # Panics
    ///
    /// Panics when a [`FaultAction::Panic`] rule fires — that is the
    /// point; the caller's isolation boundary is under test.
    pub fn fire(&self, site: FaultSite, label: &str) -> Result<(), IwaError> {
        match self.decide(site, label) {
            None => Ok(()),
            Some(FaultAction::Panic) => {
                panic!("injected fault: panic at site {site} ({label})")
            }
            Some(FaultAction::Sleep(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultAction::IoError) => Err(IwaError::Io(format!(
                "injected io-error at site {site} ({label})"
            ))),
            Some(FaultAction::BudgetTrip) => Err(IwaError::BudgetExceeded {
                what: format!("injected budget trip at site {site} ({label})"),
                limit: 0,
                steps: 0,
                items: 0,
                degraded: false,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_spec_never_fires() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.decide(FaultSite::Parse, "x"), None);
        plan.fire(FaultSite::Certify, "x").unwrap();
    }

    #[test]
    fn the_grammar_round_trips_sites_actions_and_modifiers() {
        let plan = FaultPlan::parse(
            "parse=panic:times=1; certify=sleep:250:skip=2 ;cache-lookup=io-error:label=big;\
             refined-search=budget-trip;response-write=sleep",
        )
        .unwrap();
        assert_eq!(plan.decide(FaultSite::Parse, "a"), Some(FaultAction::Panic));
        assert_eq!(plan.decide(FaultSite::Parse, "b"), None, "times=1 exhausted");
        assert_eq!(plan.decide(FaultSite::Certify, "r1"), None, "skip window");
        assert_eq!(plan.decide(FaultSite::Certify, "r2"), None, "skip window");
        assert_eq!(
            plan.decide(FaultSite::Certify, "r3"),
            Some(FaultAction::Sleep(Duration::from_millis(250)))
        );
        assert_eq!(plan.decide(FaultSite::CacheLookup, "small"), None, "label filter");
        assert_eq!(
            plan.decide(FaultSite::CacheLookup, "a-big-one"),
            Some(FaultAction::IoError)
        );
        assert_eq!(
            plan.decide(FaultSite::RefinedSearch, ""),
            Some(FaultAction::BudgetTrip)
        );
        assert_eq!(
            plan.decide(FaultSite::ResponseWrite, ""),
            Some(FaultAction::Sleep(Duration::from_millis(100))),
            "sleep defaults to 100 ms"
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for bad in [
            "explode",
            "parse",
            "nowhere=panic",
            "parse=detonate",
            "parse=panic:times=soon",
            "parse=panic:skip=-1",
            "parse=panic:zork=1",
            "parse=io-error:250",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad}: {err}");
        }
    }

    #[test]
    fn clones_share_trigger_counters() {
        let plan = FaultPlan::parse("parse=panic:skip=1:times=1").unwrap();
        let clone = plan.clone();
        assert_eq!(clone.decide(FaultSite::Parse, "a"), None, "skipped");
        assert_eq!(plan.decide(FaultSite::Parse, "b"), Some(FaultAction::Panic));
        assert_eq!(clone.decide(FaultSite::Parse, "c"), None, "window spent");
    }

    #[test]
    fn fire_maps_error_actions_onto_iwa_errors() {
        let plan = FaultPlan::parse("parse=io-error;certify=budget-trip").unwrap();
        match plan.fire(FaultSite::Parse, "f.iwa") {
            Err(IwaError::Io(msg)) => assert!(msg.contains("injected"), "{msg}"),
            other => panic!("unexpected: {other:?}"),
        }
        match plan.fire(FaultSite::Certify, "oracle") {
            Err(IwaError::BudgetExceeded { what, .. }) => {
                assert!(what.contains("injected budget trip"), "{what}");
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn panic_action_panics_with_an_injected_message() {
        let plan = FaultPlan::parse("check-file=panic").unwrap();
        let payload = std::panic::catch_unwind(|| {
            let _ = plan.fire(FaultSite::CheckFile, "boom.iwa");
        })
        .unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(msg.contains("check-file"), "{msg}");
    }

    #[test]
    fn every_site_name_round_trips() {
        for site in ALL_SITES {
            assert_eq!(site.name().parse::<FaultSite>().unwrap(), site);
        }
    }
}
