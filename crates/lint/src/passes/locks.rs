//! The `.lok` lock-order lints.
//!
//! All four run on the precomputed lock-order graph of a loaded
//! [`LokModel`] — no further analysis, so they are as cheap as the
//! structural tasklang lints. The two `Deny` lints split the cycle
//! taxonomy: `lock-order-cycle` reports multi-mutex cycles with their
//! span-anchored acquisition chain, `double-lock` reports self-cycles
//! (re-acquiring a held, non-reentrant mutex). The two `Warn` lints
//! surface the walk's hygiene issues.

use crate::{Diagnostic, Lang, Lint, LintPass, Severity};
use iwa_frontend::lok::LockIssue;
use iwa_frontend::LokModel;

fn finding(lint: &Lint, span: iwa_core::Span, message: String) -> Diagnostic {
    Diagnostic {
        lint: lint.name.to_owned(),
        severity: Severity::Warn,
        message,
        span,
    }
}

/// `lock-order-cycle`: the lock-order graph has a multi-mutex cycle —
/// threads can each hold one mutex of the ring while blocking on the
/// next, the classic circular wait. The message carries the full
/// witness acquisition chain with the span of every acquire site.
pub struct LockOrderCycle;

static LOCK_ORDER_CYCLE: Lint = Lint {
    name: "lock-order-cycle",
    default_severity: Severity::Deny,
    description: "mutexes are acquired in a cyclic order; threads can deadlock in a circular wait",
    applies_to: &[Lang::Lok],
};

impl LintPass for LockOrderCycle {
    fn lint(&self) -> &'static Lint {
        &LOCK_ORDER_CYCLE
    }

    fn run_lok(&self, model: &LokModel, out: &mut Vec<Diagnostic>) {
        for c in &model.cycles {
            if c.resources.len() < 2 {
                continue; // self-cycles are `double-lock`'s
            }
            out.push(finding(
                self.lint(),
                model.lock_graph.wait.edges[c.edges[0]].wanted_span,
                format!(
                    "lock-order cycle: {}",
                    model.lock_graph.render_cycle(c)
                ),
            ));
        }
    }
}

/// `double-lock`: a thread may acquire a mutex it already holds. The
/// mutexes of this model are non-reentrant, so the second acquire waits
/// on the thread itself — a self-deadlock, and a length-one cycle in the
/// lock-order graph.
pub struct DoubleLock;

static DOUBLE_LOCK: Lint = Lint {
    name: "double-lock",
    default_severity: Severity::Deny,
    description: "a thread may re-acquire a mutex it already holds; the second acquire self-deadlocks",
    applies_to: &[Lang::Lok],
};

impl LintPass for DoubleLock {
    fn lint(&self) -> &'static Lint {
        &DOUBLE_LOCK
    }

    fn run_lok(&self, model: &LokModel, out: &mut Vec<Diagnostic>) {
        for c in &model.cycles {
            let [m] = c.resources[..] else { continue };
            let e = &model.lock_graph.wait.edges[c.edges[0]];
            out.push(finding(
                self.lint(),
                e.wanted_span,
                format!(
                    "thread {} locks {} ({}) while already holding it (locked at {})",
                    e.actor,
                    model.lock_graph.mutex_name(m),
                    e.wanted_span,
                    e.held_span
                ),
            ));
        }
    }
}

/// `unbalanced-unlock`: an `unlock` of a mutex that is held on no path
/// to it — a no-op at best, a sign of confused pairing at worst.
pub struct UnbalancedUnlock;

static UNBALANCED_UNLOCK: Lint = Lint {
    name: "unbalanced-unlock",
    default_severity: Severity::Warn,
    description: "a mutex is unlocked on a path where it is not held",
    applies_to: &[Lang::Lok],
};

impl LintPass for UnbalancedUnlock {
    fn lint(&self) -> &'static Lint {
        &UNBALANCED_UNLOCK
    }

    fn run_lok(&self, model: &LokModel, out: &mut Vec<Diagnostic>) {
        for i in &model.lock_graph.issues {
            if let LockIssue::UnlockNotHeld { span, .. } = i {
                out.push(finding(
                    self.lint(),
                    *span,
                    model.lock_graph.render_issue(i),
                ));
            }
        }
    }
}

/// `lock-held-at-exit`: a thread's body can end with a mutex still held
/// — nothing in this model ever releases it afterwards, so every later
/// acquire of that mutex waits forever.
pub struct LockHeldAtExit;

static LOCK_HELD_AT_EXIT: Lint = Lint {
    name: "lock-held-at-exit",
    default_severity: Severity::Warn,
    description: "a thread may exit still holding a mutex; later acquirers wait forever",
    applies_to: &[Lang::Lok],
};

impl LintPass for LockHeldAtExit {
    fn lint(&self) -> &'static Lint {
        &LOCK_HELD_AT_EXIT
    }

    fn run_lok(&self, model: &LokModel, out: &mut Vec<Diagnostic>) {
        for i in &model.lock_graph.issues {
            if let LockIssue::ExitHolding { span, .. } = i {
                out.push(finding(
                    self.lint(),
                    *span,
                    model.lock_graph.render_issue(i),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{registry_for, run_lints_lok, Lang, LintConfig, Severity};
    use iwa_frontend::{registry, ModelIr};

    fn lint(src: &str) -> Vec<crate::Diagnostic> {
        let model = registry::by_lang(Lang::Lok).load(src).unwrap();
        let ModelIr::Lok(lok) = &model.ir else {
            panic!("not a lok model")
        };
        run_lints_lok(lok, &LintConfig::default(), &registry_for(Lang::Lok))
    }

    #[test]
    fn abba_yields_a_denying_cycle_with_witness_chain() {
        let diags = lint(
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with b { lock a; unlock a; } }",
        );
        let cycle: Vec<_> = diags.iter().filter(|d| d.lint == "lock-order-cycle").collect();
        assert_eq!(cycle.len(), 1);
        assert_eq!(cycle[0].severity, Severity::Deny);
        assert!(cycle[0].message.contains("a → b → a"), "{}", cycle[0].message);
        assert!(cycle[0].message.contains("1:22"), "{}", cycle[0].message);
        assert!(cycle[0].span.is_real());
    }

    #[test]
    fn double_lock_is_its_own_lint_not_a_cycle() {
        let diags = lint("thread t { lock a; lock a; unlock a; }");
        assert!(diags.iter().any(|d| d.lint == "double-lock"));
        assert!(!diags.iter().any(|d| d.lint == "lock-order-cycle"));
    }

    #[test]
    fn hygiene_lints_warn() {
        let diags = lint("thread t { unlock a; lock b; }");
        assert!(diags
            .iter()
            .any(|d| d.lint == "unbalanced-unlock" && d.severity == Severity::Warn));
        assert!(diags
            .iter()
            .any(|d| d.lint == "lock-held-at-exit" && d.severity == Severity::Warn));
    }

    #[test]
    fn clean_program_has_no_findings() {
        assert!(lint(
            "thread t1 { with a { with b { } } }
             thread t2 { with a { with b { } } }"
        )
        .is_empty());
    }

    #[test]
    fn applicability_matrix_partitions_the_catalog() {
        let lok = registry_for(Lang::Lok);
        let chan = registry_for(Lang::Chan);
        let iwa = registry_for(Lang::Tasklang);
        assert_eq!(lok.len(), 4);
        assert_eq!(chan.len(), 7);
        assert_eq!(iwa.len() + lok.len() + chan.len(), crate::registry().len());
        for p in lok.iter().chain(&chan) {
            assert!(!p.lint().applies_to.contains(&Lang::Tasklang));
        }
    }

    #[test]
    fn severity_overrides_apply_to_lok_lints() {
        let model = registry::by_lang(Lang::Lok)
            .load("thread t { lock a; lock a; unlock a; }")
            .unwrap();
        let ModelIr::Lok(lok) = &model.ir else { panic!() };
        let cfg = LintConfig {
            levels: vec![("double-lock".into(), Severity::Allow)],
            deny_warnings: false,
        };
        let diags = run_lints_lok(lok, &cfg, &registry_for(Lang::Lok));
        assert!(!diags.iter().any(|d| d.lint == "double-lock"));
    }
}
