//! The static lock-order graph: edge `m1 → m2` whenever some thread may
//! hold `m1` while acquiring `m2`.
//!
//! Built by a path-insensitive may-hold walk over each thread's
//! structured body. Branches union their exits; `with` blocks restore
//! the guard mutex's pre-entry state on exit; loop bodies are walked
//! **twice** — the may-hold transfer function of a structured body is
//! `S ↦ (S ∩ M) ∪ G` (a kill-mask plus a gen-set, both closed under
//! sequencing and branch union), which is idempotent after one
//! application, so the second walk runs from the loop's fixpoint state
//! and sees every cross-iteration hold. This is the same "twice is
//! enough" argument behind the paper's Lemma 1 unrolling.
//!
//! A self-edge `m → m` is a double acquire of a non-reentrant mutex —
//! itself a deadlock — and shows up as a length-one cycle.

use super::ast::{LokProgram, LokStmt};
use crate::wait::{EdgeSet, Scheme, WaitCycle, WaitGraph};
use iwa_core::Span;

/// `.lok` resources: each mutex is its own lowered task with signal
/// `held`; nodes read "a held by t1" and "b wanted by t1".
static MUTEXES: Scheme = Scheme {
    signals: &["held"],
    marks: &[""],
    held: "held by",
    wanted: "wanted by",
};

/// A suspicious-but-analysable pattern the walk surfaced.
#[derive(Clone, Debug)]
pub enum LockIssue {
    /// `unlock m` where `m` is held on no path.
    UnlockNotHeld {
        /// The releasing thread.
        thread: String,
        /// The mutex.
        mutex: usize,
        /// Span of the `unlock`.
        span: Span,
    },
    /// A thread's body can end with `m` still held.
    ExitHolding {
        /// The exiting thread.
        thread: String,
        /// The mutex.
        mutex: usize,
        /// The acquire site left unreleased.
        span: Span,
    },
}

/// The static lock-order graph of a [`LokProgram`].
#[derive(Clone, Debug)]
pub struct LockGraph {
    /// Mutexes (shared index space with the program) and the lock-order
    /// edges `m1 → m2`, first witness per pair in walk order (threads in
    /// declaration order).
    pub wait: WaitGraph<()>,
    /// The issues the walk surfaced.
    pub issues: Vec<LockIssue>,
}

/// Per-mutex may-hold state: the acquire span while possibly held.
type HeldState = Vec<Option<Span>>;

struct Walker<'a> {
    thread: &'a str,
    edges: EdgeSet<()>,
    issues: Vec<LockIssue>,
}

impl Walker<'_> {
    fn acquire(&mut self, state: &mut HeldState, mutex: usize, span: Span) {
        for (h, held) in state.iter().enumerate() {
            if let Some(held_span) = held {
                self.edges.add(h, mutex, self.thread, *held_span, span, ());
            }
        }
        if state[mutex].is_none() {
            state[mutex] = Some(span);
        }
    }

    fn release(&mut self, state: &mut HeldState, mutex: usize, span: Span, implicit: bool) {
        if state[mutex].is_none() && !implicit {
            self.issues.push(LockIssue::UnlockNotHeld {
                thread: self.thread.to_owned(),
                mutex,
                span,
            });
        }
        state[mutex] = None;
    }

    fn walk(&mut self, state: &mut HeldState, body: &[LokStmt]) {
        for stmt in body {
            match stmt {
                LokStmt::Lock { mutex, span } => self.acquire(state, *mutex, *span),
                LokStmt::Unlock { mutex, span } => self.release(state, *mutex, *span, false),
                LokStmt::With { mutex, body, span } => {
                    let pre = state[*mutex];
                    self.acquire(state, *mutex, *span);
                    self.walk(state, body);
                    // Scoped release: restore the guard mutex to its
                    // pre-entry state (an outer hold survives the block).
                    state[*mutex] = pre;
                }
                LokStmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let mut else_state = state.clone();
                    self.walk(state, then_branch);
                    self.walk(&mut else_state, else_branch);
                    merge_may(state, &else_state);
                }
                LokStmt::Loop { body, .. } => {
                    // Zero iterations leave the state alone; one walk
                    // reaches the may-fixpoint; the second walk observes
                    // cross-iteration holds from it (see module docs).
                    let entry = state.clone();
                    self.walk(state, body);
                    self.walk(state, body);
                    merge_may(state, &entry);
                }
            }
        }
    }
}

/// Union two may-hold states in place (keep `a`'s span when both hold).
fn merge_may(a: &mut HeldState, b: &HeldState) {
    for (x, y) in a.iter_mut().zip(b) {
        if x.is_none() {
            *x = *y;
        }
    }
}

impl LockGraph {
    /// Build the lock-order graph of `p`.
    #[must_use]
    pub fn build(p: &LokProgram) -> LockGraph {
        let n = p.mutexes.len();
        let mut walker = Walker {
            thread: "",
            edges: EdgeSet::default(),
            issues: Vec::new(),
        };
        for thread in &p.threads {
            walker.thread = &thread.name;
            let mut state: HeldState = vec![None; n];
            walker.walk(&mut state, &thread.body);
            for (m, held) in state.iter().enumerate() {
                if let Some(span) = held {
                    walker.issues.push(LockIssue::ExitHolding {
                        thread: thread.name.clone(),
                        mutex: m,
                        span: *span,
                    });
                }
            }
        }
        let mut issues = walker.issues;
        // Loop bodies are walked twice, which can surface the same issue
        // twice; keep the first occurrence.
        let mut seen_issues = std::collections::HashSet::new();
        issues.retain(|i| {
            seen_issues.insert(match i {
                LockIssue::UnlockNotHeld { thread, mutex, span } => {
                    (0u8, thread.clone(), *mutex, *span)
                }
                LockIssue::ExitHolding { thread, mutex, span } => {
                    (1u8, thread.clone(), *mutex, *span)
                }
            })
        });
        LockGraph {
            wait: WaitGraph {
                groups: p.mutexes.clone(),
                scheme: &MUTEXES,
                edges: walker.edges.edges,
            },
            issues,
        }
    }

    /// The name of mutex `m`.
    #[must_use]
    pub fn mutex_name(&self, m: usize) -> &str {
        self.wait
            .groups
            .get(m)
            .map_or("<unknown mutex>", String::as_str)
    }

    /// The lock-order cycles ([`WaitGraph::cycles`]).
    #[must_use]
    pub fn cycles(&self) -> Vec<WaitCycle> {
        self.wait.cycles()
    }

    /// Render one issue as a human-readable warning line.
    #[must_use]
    pub fn render_issue(&self, i: &LockIssue) -> String {
        match i {
            LockIssue::UnlockNotHeld {
                thread,
                mutex,
                span,
            } => format!(
                "thread {} unlocks {} ({}) while it is not held",
                thread,
                self.mutex_name(*mutex),
                span
            ),
            LockIssue::ExitHolding {
                thread,
                mutex,
                span,
            } => format!(
                "thread {} may exit still holding {} (locked at {})",
                thread,
                self.mutex_name(*mutex),
                span
            ),
        }
    }

    /// Render one cycle as the span-anchored acquisition chain the
    /// reports and lints print:
    /// `a → b → a (thread t1 holds a (2:5) while locking b (3:5); …)`.
    #[must_use]
    pub fn render_cycle(&self, c: &WaitCycle) -> String {
        self.wait.render_cycle(c, |e| {
            format!(
                "thread {} holds {} ({}) while locking {} ({})",
                e.actor,
                self.mutex_name(e.from),
                e.held_span,
                self.mutex_name(e.to),
                e.wanted_span
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_lok;
    use super::*;

    fn graph(src: &str) -> LockGraph {
        LockGraph::build(&parse_lok(src).unwrap())
    }

    #[test]
    fn ordered_chain_is_acyclic() {
        let g = graph(
            "thread t1 { with a { with b { } } }
             thread t2 { with a { with b { } } }",
        );
        assert_eq!(g.wait.edges.len(), 1);
        assert!(g.cycles().is_empty());
        assert!(g.issues.is_empty());
    }

    #[test]
    fn abba_is_a_two_cycle_with_spans() {
        let g = graph(
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with b { lock a; unlock a; } }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.resources.len(), 2);
        assert_eq!(c.edges.len(), 2);
        for &i in &c.edges {
            let e = &g.wait.edges[i];
            assert!(e.held_span.is_real() && e.wanted_span.is_real());
        }
        let rendered = g.render_cycle(c);
        assert!(rendered.contains("a → b → a"), "got: {rendered}");
        assert!(rendered.contains("thread t1"), "got: {rendered}");
    }

    #[test]
    fn double_lock_is_a_self_cycle() {
        let g = graph("thread t { lock a; lock a; unlock a; }");
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].resources, [0]);
    }

    #[test]
    fn with_restores_the_outer_hold() {
        // The inner `with a` is a double acquire; after it exits, `a` is
        // still held from the outer block, so `lock b` sees it.
        let g = graph("thread t { with a { with a { } lock b; unlock b; } }");
        assert!(g.wait.edges.iter().any(|e| e.from == 0 && e.to == 0));
        assert!(g.wait.edges.iter().any(|e| e.from == 0 && e.to == 1));
    }

    #[test]
    fn branches_union_their_holds() {
        let g = graph(
            "thread t {
                 if { lock a; } else { lock b; }
                 lock c;
                 unlock a; unlock b; unlock c;
             }",
        );
        assert!(g.wait.edges.iter().any(|e| e.from == 0 && e.to == 2), "a→c");
        assert!(g.wait.edges.iter().any(|e| e.from == 1 && e.to == 2), "b→c");
        // The unlocks release may-held mutexes: no UnlockNotHeld issues.
        assert!(g.issues.is_empty());
    }

    #[test]
    fn loop_carried_holds_create_cross_iteration_edges() {
        // Each iteration acquires `a` at its tail and releases it at the
        // head of the *next* iteration, so `lock b` runs holding the
        // previous iteration's `a` — only the second walk sees it.
        // (Mutex ids are first-mention order: b = 0, a = 1.)
        let g = graph("thread t { loop { lock b; unlock a; unlock b; lock a; } }");
        assert!(
            g.wait.edges.iter().any(|e| e.from == 1 && e.to == 0),
            "cross-iteration a→b edge missing: {:?}",
            g.wait.edges
        );
    }

    #[test]
    fn issues_are_surfaced() {
        let g = graph("thread t { unlock a; lock b; }");
        assert!(matches!(
            g.issues[0],
            LockIssue::UnlockNotHeld { mutex: 0, .. }
        ));
        assert!(matches!(
            g.issues[1],
            LockIssue::ExitHolding { mutex: 1, .. }
        ));
    }

    #[test]
    fn three_cycle_has_a_deterministic_witness() {
        let src = "thread t1 { with a { lock b; unlock b; } }
                   thread t2 { with b { lock c; unlock c; } }
                   thread t3 { with c { lock a; unlock a; } }";
        let g = graph(src);
        let c1 = g.cycles();
        let c2 = graph(src).cycles();
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].resources, c2[0].resources);
        assert_eq!(c1[0].resources.len(), 3);
        assert_eq!(c1[0].resources[0], 0, "canonical start = smallest id");
    }
}
