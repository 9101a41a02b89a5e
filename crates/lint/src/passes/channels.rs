//! The `.chan` channel/select lints.
//!
//! All seven run on the precomputed pieces of a loaded
//! [`ChanModel`] — the communication dependency graph with its cycles,
//! the livelock witnesses, and the channel-effect sets — so, like the
//! `.lok` family, they cost nothing beyond the load. The four `Deny`
//! lints cover the anomalies the engine also flags (`channel-cycle`,
//! `livelock`) plus the `send-on-closed` and `close-of-closed` runtime
//! faults; the three `Warn`
//! lints surface channel hygiene: starved select arms, channels sent on
//! but never received, and unbounded buffers that only ever grow.

use crate::{Diagnostic, Lang, Lint, LintPass, Severity};
use iwa_frontend::chan::{Capacity, ChanIssue, Dir};
use iwa_frontend::ChanModel;

fn finding(lint: &Lint, span: iwa_core::Span, message: String) -> Diagnostic {
    Diagnostic {
        lint: lint.name.to_owned(),
        severity: Severity::Warn,
        message,
        span,
    }
}

/// `channel-cycle`: the communication dependency graph has a cycle —
/// processes can each block at a channel port of the ring while
/// withholding the op the next port's waiters need, the channel analogue
/// of a lock-order cycle. The message carries the full span-anchored
/// wait chain.
pub struct ChannelCycle;

static CHANNEL_CYCLE: Lint = Lint {
    name: "channel-cycle",
    default_severity: Severity::Deny,
    description: "channel ports form a circular wait; processes can deadlock starving each other",
    applies_to: &[Lang::Chan],
};

impl LintPass for ChannelCycle {
    fn lint(&self) -> &'static Lint {
        &CHANNEL_CYCLE
    }

    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        for c in &model.cycles {
            out.push(finding(
                self.lint(),
                model.comm_graph.wait.edges[c.edges[0]].held_span,
                format!("channel-wait cycle: {}", model.comm_graph.render_cycle(c)),
            ));
        }
    }
}

/// `livelock`: a loop can be traversed forever without externally
/// visible communication — a spin-on-default select with starved arms,
/// or a busy-wait receiving from a closed channel. The message carries
/// the witness with its ranked starved-arm rationale.
pub struct Livelock;

static LIVELOCK: Lint = Lint {
    name: "livelock",
    default_severity: Severity::Deny,
    description: "a loop can spin forever without communicating; starved arms never fire",
    applies_to: &[Lang::Chan],
};

impl LintPass for Livelock {
    fn lint(&self) -> &'static Lint {
        &LIVELOCK
    }

    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        for w in &model.livelocks {
            out.push(finding(self.lint(), w.site_span, model.render_livelock(w)));
        }
    }
}

/// `send-on-closed`: a `send` on a path where the channel is closed on
/// every prefix — a runtime fault (the op can never complete usefully),
/// distinct from a wait anomaly.
pub struct SendOnClosed;

static SEND_ON_CLOSED: Lint = Lint {
    name: "send-on-closed",
    default_severity: Severity::Deny,
    description: "a process sends on a channel after closing it; the send faults at runtime",
    applies_to: &[Lang::Chan],
};

impl LintPass for SendOnClosed {
    fn lint(&self) -> &'static Lint {
        &SEND_ON_CLOSED
    }

    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        for i in &model.effects.issues {
            if let ChanIssue::SendOnClosed { span, .. } = i {
                out.push(finding(
                    self.lint(),
                    *span,
                    model.comm_graph.render_issue(i),
                ));
            }
        }
    }
}

/// `close-of-closed`: a `close` of a channel that is already closed on
/// every path — the second close faults at runtime, like a send on a
/// closed channel.
pub struct CloseOfClosed;

static CLOSE_OF_CLOSED: Lint = Lint {
    name: "close-of-closed",
    default_severity: Severity::Deny,
    description:
        "a process closes a channel that is already closed; the second close faults at runtime",
    applies_to: &[Lang::Chan],
};

impl LintPass for CloseOfClosed {
    fn lint(&self) -> &'static Lint {
        &CLOSE_OF_CLOSED
    }

    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        for i in &model.effects.issues {
            if let ChanIssue::CloseOfClosed { span, .. } = i {
                out.push(finding(
                    self.lint(),
                    *span,
                    model.comm_graph.render_issue(i),
                ));
            }
        }
    }
}

/// `select-arm-starved`: a select arm whose op has no counterpart site
/// in any other process — the arm can never fire, so the select's
/// fairness degenerates to whatever the remaining arms (or `default`)
/// offer.
pub struct SelectArmStarved;

static SELECT_ARM_STARVED: Lint = Lint {
    name: "select-arm-starved",
    default_severity: Severity::Warn,
    description: "a select arm has no counterpart in any other process and can never fire",
    applies_to: &[Lang::Chan],
};

impl LintPass for SelectArmStarved {
    fn lint(&self) -> &'static Lint {
        &SELECT_ARM_STARVED
    }

    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        for sel in &model.effects.selects {
            for arm in &sel.arms {
                if model.effects.counterparts(&sel.proc_name, arm.chan, arm.dir) > 0 {
                    continue;
                }
                let needs = match arm.dir {
                    Dir::Send => "no other proc ever receives",
                    Dir::Recv => "no other proc ever sends or closes",
                };
                out.push(finding(
                    self.lint(),
                    arm.span,
                    format!(
                        "select arm {} {} in proc {} can never fire ({} on it)",
                        arm.dir.verb(),
                        model.comm_graph.chan_name(arm.chan),
                        sel.proc_name,
                        needs
                    ),
                ));
            }
        }
    }
}

/// `never-received`: a channel with send sites but no recv site anywhere
/// — every send eventually blocks (rendezvous/bounded) or accumulates
/// forever (unbounded). A non-circular infinite wait the cycle verdict
/// cannot see.
pub struct NeverReceived;

static NEVER_RECEIVED: Lint = Lint {
    name: "never-received",
    default_severity: Severity::Warn,
    description: "a channel is sent on but never received anywhere; sends back up or block forever",
    applies_to: &[Lang::Chan],
};

impl LintPass for NeverReceived {
    fn lint(&self) -> &'static Lint {
        &NEVER_RECEIVED
    }

    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        for (c, sends) in model.effects.send_sites.iter().enumerate() {
            let Some(first) = sends.first() else { continue };
            if model.effects.recv_sites[c].is_empty() {
                out.push(finding(
                    self.lint(),
                    first.span,
                    format!(
                        "channel {} is sent on ({} site{}) but never received",
                        model.comm_graph.chan_name(c),
                        sends.len(),
                        if sends.len() == 1 { "" } else { "s" }
                    ),
                ));
            }
        }
    }
}

/// `unbounded-growth`: an unbounded channel sent on from inside a loop
/// while no loop ever drains it — the buffer can grow without bound.
/// (Bounded channels exert backpressure instead, so only `[*]` buffers
/// qualify.)
pub struct UnboundedGrowth;

static UNBOUNDED_GROWTH: Lint = Lint {
    name: "unbounded-growth",
    default_severity: Severity::Warn,
    description: "an unbounded channel is filled in a loop but drained by none; its buffer can grow without bound",
    applies_to: &[Lang::Chan],
};

impl LintPass for UnboundedGrowth {
    fn lint(&self) -> &'static Lint {
        &UNBOUNDED_GROWTH
    }

    fn run_chan(&self, model: &ChanModel, out: &mut Vec<Diagnostic>) {
        for (c, sends) in model.effects.send_sites.iter().enumerate() {
            if model.comm_graph.capacities[c] != Capacity::Unbounded {
                continue;
            }
            let Some(looped) = sends.iter().find(|s| s.in_loop) else {
                continue;
            };
            if model.effects.recv_sites[c].iter().any(|s| s.in_loop) {
                continue;
            }
            out.push(finding(
                self.lint(),
                looped.span,
                format!(
                    "unbounded channel {} is sent on in a loop but no loop receives from it",
                    model.comm_graph.chan_name(c)
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{registry_for, run_lints_chan, Lang, LintConfig, Severity};
    use iwa_frontend::{registry, ModelIr};

    fn lint(src: &str) -> Vec<crate::Diagnostic> {
        let model = registry::by_lang(Lang::Chan).load(src).unwrap();
        let ModelIr::Chan(chan) = &model.ir else {
            panic!("not a chan model")
        };
        run_lints_chan(chan, &LintConfig::default(), &registry_for(Lang::Chan))
    }

    #[test]
    fn crossed_pair_yields_a_denying_cycle_with_witness_chain() {
        let diags = lint(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv b; recv a; }",
        );
        let cycle: Vec<_> = diags.iter().filter(|d| d.lint == "channel-cycle").collect();
        assert_eq!(cycle.len(), 1);
        assert_eq!(cycle[0].severity, Severity::Deny);
        assert!(cycle[0].message.contains("a! → b? → a!"), "{}", cycle[0].message);
        assert!(cycle[0].message.contains("blocks at send a"), "{}", cycle[0].message);
        assert!(cycle[0].span.is_real());
    }

    #[test]
    fn spin_on_default_yields_a_denying_livelock() {
        let diags = lint(
            "chan c;
             proc poller { loop { select { recv c { } default { } } } }",
        );
        let ll: Vec<_> = diags.iter().filter(|d| d.lint == "livelock").collect();
        assert_eq!(ll.len(), 1);
        assert_eq!(ll[0].severity, Severity::Deny);
        assert!(ll[0].message.contains("spins on select default"), "{}", ll[0].message);
        // The starved arm is also its own warning.
        assert!(diags.iter().any(|d| d.lint == "select-arm-starved"));
    }

    #[test]
    fn closed_hygiene_lints_fire_together() {
        let diags = lint("chan c[*]; proc p { close c; send c; }");
        assert!(diags
            .iter()
            .any(|d| d.lint == "send-on-closed" && d.severity == Severity::Deny));
        assert!(diags
            .iter()
            .any(|d| d.lint == "never-received" && d.severity == Severity::Warn));
    }

    #[test]
    fn a_second_close_is_a_denial_at_its_own_span() {
        let diags = lint("chan c; proc p { close c; close c; } proc q { recv c; }");
        let closes: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == "close-of-closed")
            .collect();
        assert_eq!(closes.len(), 1, "{diags:?}");
        assert_eq!(closes[0].severity, Severity::Deny);
        assert_eq!(
            closes[0].message,
            "proc p closes c (1:27) twice (first closed at 1:18)"
        );
        assert_eq!((closes[0].span.line, closes[0].span.col), (1, 27));
        // One close is no finding.
        assert!(!lint("chan c; proc p { close c; } proc q { recv c; }")
            .iter()
            .any(|d| d.lint == "close-of-closed"));
    }

    #[test]
    fn unbounded_growth_needs_a_looped_send_and_no_looped_recv() {
        let diags = lint(
            "chan log[*];
             proc p { loop { send log; } }
             proc q { recv log; }",
        );
        assert!(diags.iter().any(|d| d.lint == "unbounded-growth"));
        // A draining loop silences it.
        let drained = lint(
            "chan log[*];
             proc p { loop { send log; } }
             proc q { loop { recv log; } }",
        );
        assert!(!drained.iter().any(|d| d.lint == "unbounded-growth"));
    }

    #[test]
    fn starved_arm_names_the_missing_counterpart() {
        let diags = lint(
            "chan a; chan b;
             proc chooser { select { recv a { } recv b { } } }
             proc feeder { send a; }",
        );
        let starved: Vec<_> = diags
            .iter()
            .filter(|d| d.lint == "select-arm-starved")
            .collect();
        assert_eq!(starved.len(), 1);
        assert!(starved[0].message.contains("recv b"), "{}", starved[0].message);
        assert!(
            starved[0].message.contains("ever sends or closes"),
            "{}",
            starved[0].message
        );
    }

    #[test]
    fn clean_pipeline_has_no_findings() {
        assert!(lint(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv a; recv b; }"
        )
        .is_empty());
    }

    #[test]
    fn severity_overrides_apply_to_chan_lints() {
        let model = registry::by_lang(Lang::Chan)
            .load("chan c[*]; proc p { close c; send c; }")
            .unwrap();
        let ModelIr::Chan(chan) = &model.ir else { panic!() };
        let cfg = LintConfig {
            levels: vec![("send-on-closed".into(), Severity::Allow)],
            deny_warnings: false,
        };
        let diags = run_lints_chan(chan, &cfg, &registry_for(Lang::Chan));
        assert!(!diags.iter().any(|d| d.lint == "send-on-closed"));
    }
}
