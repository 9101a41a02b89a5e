//! The per-process channel-effect dataflow: may-send/may-recv/must-close
//! sets, select-arm reachability, and the **wait records** that become
//! the edges of the communication dependency graph.
//!
//! The walk is path-insensitive and mirrors the `.lok` may-hold walk:
//! branches union their exits, loop bodies are walked **twice** (the
//! transfer function is a gen-set union closed under sequencing, so the
//! second walk runs from the loop's fixpoint and sees every
//! cross-iteration dependency — the paper's "twice is enough" Lemma 1
//! argument), and `must`-facts merge by intersection while `may`-facts
//! merge by union.
//!
//! **Ports and wait records.** A *port* is a channel end: `(c, send)` or
//! `(c, recv)`, with id `2c + dir`. Along each path the walk keeps the
//! set of ports the process may currently be *blocked* at (a pending
//! set — it only grows: once a path may block at an op, everything
//! later on the path is withheld until that op completes). Every
//! communication op *offers* to the waiters at some port: `send c`
//! offers to `(c, recv)`, `recv c` offers to `(c, send)`, `close c`
//! offers to `(c, recv)` (a close releases blocked receivers), a recv
//! on a must-closed channel offers nothing (it completes without a
//! partner). When the walk reaches an op offering to port `q` while the
//! path may already be blocked at port `h`, it records the wait edge
//! `h → q`: *h's blockage starves the waiters at q*.
//!
//! One refinement keeps buffered pipelines clean: the edge is skipped
//! when the pending op at `h` itself offers to `q` — a process blocked
//! sending on `c` is a *live* offer to `(c, recv)`, so a second send on
//! `c` withheld behind it starves nobody the first send doesn't serve.
//! This is what keeps `send q; send q;` against `recv q; recv q;`
//! acyclic while `send a; recv a;` still yields the self-deadlock loop
//! `(a,send) → (a,send)`.
//!
//! Blocking classification: `recv` blocks unless the channel is
//! must-closed at that point; `send` blocks unless the channel is
//! unbounded (a bounded buffer may be full — conservative); `close`
//! never blocks; a `select` with a `default` arm never blocks, one
//! without blocks at all of its arm ports simultaneously (each arm is
//! walked as an alternative path).

use super::ast::{Capacity, ChanProgram, ChanStmt, Dir, SelectArm};
use crate::wait::{EdgeSet, WaitEdge};
use iwa_core::Span;
use std::collections::HashSet;

/// Number of ports of a program with `n` channels.
#[must_use]
pub fn num_ports(n_chans: usize) -> usize {
    n_chans * 2
}

/// The port id of channel `c`'s `dir` end.
#[must_use]
pub fn port(chan: usize, dir: Dir) -> usize {
    chan * 2 + dir as usize
}

/// The channel of port `p`.
#[must_use]
pub fn port_chan(p: usize) -> usize {
    p / 2
}

/// The direction of port `p`.
#[must_use]
pub fn port_dir(p: usize) -> Dir {
    if p.is_multiple_of(2) {
        Dir::Send
    } else {
        Dir::Recv
    }
}

/// What kind of op a wait record withheld.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// A `send`.
    Send,
    /// A `recv`.
    Recv,
    /// A `close`.
    Close,
}

impl OpKind {
    /// The keyword spelling.
    #[must_use]
    pub fn verb(self) -> &'static str {
        match self {
            OpKind::Send => "send",
            OpKind::Recv => "recv",
            OpKind::Close => "close",
        }
    }
}

/// One wait record: `actor` may block at port `from` (at `held_span`)
/// while a later op of kind `tag` on `to`'s channel (at `wanted_span`),
/// whose completion the waiters at port `to` need, sits unreached
/// behind it.
pub type DepEdge = WaitEdge<OpKind>;

/// A suspicious-but-analysable pattern the walk surfaced.
#[derive(Clone, Debug)]
pub enum ChanIssue {
    /// `send c` on a path where `c` is closed on every prefix — a
    /// runtime fault, not a wait.
    SendOnClosed {
        /// The sending process.
        proc_name: String,
        /// The channel.
        chan: usize,
        /// Span of the `send`.
        span: Span,
        /// Span of the dominating `close`.
        closed_span: Span,
    },
    /// `close c` where `c` is already closed on every path.
    CloseOfClosed {
        /// The closing process.
        proc_name: String,
        /// The channel.
        chan: usize,
        /// Span of the second `close`.
        span: Span,
        /// Span of the first `close`.
        closed_span: Span,
    },
}

/// One `send`/`recv`/`close` site, for the program-wide per-channel
/// effect sets.
#[derive(Clone, Debug)]
pub struct Site {
    /// The process the site is in.
    pub proc_name: String,
    /// The op's span.
    pub span: Span,
    /// Whether the site sits inside a `loop` body (so it may execute
    /// unboundedly often).
    pub in_loop: bool,
}

/// One select arm, summarised for starvation reasoning.
#[derive(Clone, Debug)]
pub struct ArmSummary {
    /// The arm's direction.
    pub dir: Dir,
    /// The arm's channel.
    pub chan: usize,
    /// Span of the arm's op keyword.
    pub span: Span,
}

/// One `select`, summarised.
#[derive(Clone, Debug)]
pub struct SelectSummary {
    /// The process containing the select.
    pub proc_name: String,
    /// Span of the `select` keyword.
    pub span: Span,
    /// Whether the select has a `default` arm.
    pub has_default: bool,
    /// Whether the select sits inside a `loop` body.
    pub in_loop: bool,
    /// The communication arms, in source order.
    pub arms: Vec<ArmSummary>,
}

/// The computed channel effects of a program.
#[derive(Clone, Debug)]
pub struct ChanEffects {
    /// Per-channel may-send sites, program-wide (select send arms
    /// included).
    pub send_sites: Vec<Vec<Site>>,
    /// Per-channel may-recv sites, program-wide (select recv arms
    /// included).
    pub recv_sites: Vec<Vec<Site>>,
    /// Per-channel close sites, program-wide.
    pub close_sites: Vec<Vec<Site>>,
    /// Every select in the program, in walk order.
    pub selects: Vec<SelectSummary>,
    /// The wait records, deduplicated to the first witness per
    /// `(from, to)` port pair in walk order (procs in declaration
    /// order).
    pub dep_edges: Vec<DepEdge>,
    /// The issues the walk surfaced.
    pub issues: Vec<ChanIssue>,
}

impl ChanEffects {
    /// Run the dataflow over `p`.
    #[must_use]
    pub fn compute(p: &ChanProgram) -> ChanEffects {
        let n = p.chans.len();
        let mut effects = ChanEffects {
            send_sites: vec![Vec::new(); n],
            recv_sites: vec![Vec::new(); n],
            close_sites: vec![Vec::new(); n],
            selects: Vec::new(),
            dep_edges: Vec::new(),
            issues: Vec::new(),
        };

        // Pass 1: syntactic effect sets (single walk — no loop doubling,
        // so each site is recorded exactly once).
        for proc_ in &p.procs {
            collect_sites(&mut effects, &proc_.name, &proc_.body, false);
        }

        // Pass 2: the blocking dataflow producing wait records.
        let caps: Vec<Capacity> = p.chans.iter().map(|c| c.capacity).collect();
        let mut walker = Walker {
            proc_name: "",
            caps: &caps,
            edges: EdgeSet::default(),
            issues: Vec::new(),
        };
        for proc_ in &p.procs {
            walker.proc_name = &proc_.name;
            walker.walk(&mut PathState::new(n), &proc_.body);
        }
        effects.dep_edges = walker.edges.edges;
        effects.issues = walker.issues;

        // Loop bodies are walked twice, which can surface the same issue
        // twice; keep the first occurrence.
        let mut seen_issues = HashSet::new();
        effects.issues.retain(|i| {
            seen_issues.insert(match i {
                ChanIssue::SendOnClosed {
                    proc_name,
                    chan,
                    span,
                    ..
                } => (0u8, proc_name.clone(), *chan, *span),
                ChanIssue::CloseOfClosed {
                    proc_name,
                    chan,
                    span,
                    ..
                } => (1u8, proc_name.clone(), *chan, *span),
            })
        });
        effects
    }

    /// The counterpart sites of an op at `(chan, dir)` — the sites in
    /// *other* processes whose completion would let the op fire: sends
    /// pair with recvs, recvs pair with sends *or* closes (a close
    /// releases a blocked receiver). Sites in `proc_name` itself are
    /// excluded — a process blocked at the op cannot run them.
    #[must_use]
    pub fn counterparts(&self, proc_name: &str, chan: usize, dir: Dir) -> usize {
        let from_others = |sites: &[Site]| {
            sites
                .iter()
                .filter(|s| s.proc_name != proc_name)
                .count()
        };
        match dir {
            Dir::Send => from_others(&self.recv_sites[chan]),
            Dir::Recv => {
                from_others(&self.send_sites[chan]) + from_others(&self.close_sites[chan])
            }
        }
    }
}

/// Pass 1: record every op site and select, with its loop context.
fn collect_sites(out: &mut ChanEffects, proc_name: &str, body: &[ChanStmt], in_loop: bool) {
    for stmt in body {
        match stmt {
            ChanStmt::Send { chan, span } => out.send_sites[*chan].push(Site {
                proc_name: proc_name.to_owned(),
                span: *span,
                in_loop,
            }),
            ChanStmt::Recv { chan, span } => out.recv_sites[*chan].push(Site {
                proc_name: proc_name.to_owned(),
                span: *span,
                in_loop,
            }),
            ChanStmt::Close { chan, span } => out.close_sites[*chan].push(Site {
                proc_name: proc_name.to_owned(),
                span: *span,
                in_loop,
            }),
            ChanStmt::Select {
                arms,
                default_body,
                span,
            } => {
                out.selects.push(SelectSummary {
                    proc_name: proc_name.to_owned(),
                    span: *span,
                    has_default: default_body.is_some(),
                    in_loop,
                    arms: arms
                        .iter()
                        .map(|a| ArmSummary {
                            dir: a.dir,
                            chan: a.chan,
                            span: a.span,
                        })
                        .collect(),
                });
                for a in arms {
                    let sites = match a.dir {
                        Dir::Send => &mut out.send_sites[a.chan],
                        Dir::Recv => &mut out.recv_sites[a.chan],
                    };
                    sites.push(Site {
                        proc_name: proc_name.to_owned(),
                        span: a.span,
                        in_loop,
                    });
                    collect_sites(out, proc_name, &a.body, in_loop);
                }
                if let Some(d) = default_body {
                    collect_sites(out, proc_name, d, in_loop);
                }
            }
            ChanStmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_sites(out, proc_name, then_branch, in_loop);
                collect_sites(out, proc_name, else_branch, in_loop);
            }
            ChanStmt::Loop { body, .. } => collect_sites(out, proc_name, body, true),
        }
    }
}

/// Per-path dataflow state.
#[derive(Clone)]
struct PathState {
    /// Per-port: the first site this path may be blocked at, if any.
    /// Grows monotonically along a path — a possible blockage withholds
    /// everything after it.
    pending: Vec<Option<Span>>,
    /// Per-channel: closed on *every* prefix of this path (first close
    /// site). Drives the recv-doesn't-block and send-faults rules.
    must_closed: Vec<Option<Span>>,
}

impl PathState {
    fn new(n_chans: usize) -> PathState {
        PathState {
            pending: vec![None; num_ports(n_chans)],
            must_closed: vec![None; n_chans],
        }
    }

    /// Union the may-facts, intersect the must-facts (keep `self`'s
    /// spans when both sides have one).
    fn merge(&mut self, other: &PathState) {
        for (x, y) in self.pending.iter_mut().zip(&other.pending) {
            if x.is_none() {
                *x = *y;
            }
        }
        for (x, y) in self.must_closed.iter_mut().zip(&other.must_closed) {
            if y.is_none() {
                *x = None;
            }
        }
    }
}

struct Walker<'a> {
    proc_name: &'a str,
    caps: &'a [Capacity],
    edges: EdgeSet<OpKind>,
    issues: Vec<ChanIssue>,
}

impl Walker<'_> {
    /// Record wait edges for an op offering to port `to`, withheld
    /// behind every pending blockage on the path. Skips a pending port
    /// whose own blocked op already offers to `to` (see module docs).
    fn offer(&mut self, state: &PathState, to: usize, kind: OpKind, span: Span) {
        for (h, pending) in state.pending.iter().enumerate() {
            let Some(held) = *pending else {
                continue;
            };
            if port(port_chan(h), port_dir(h).opposite()) != to {
                self.edges.add(h, to, self.proc_name, held, span, kind);
            }
        }
    }

    /// Process one communication op: emit its offer edges, then mark the
    /// path pending at its port if it may block.
    fn comm_op(&mut self, state: &mut PathState, dir: Dir, chan: usize, span: Span) {
        match dir {
            Dir::Send => {
                if let Some(closed_span) = state.must_closed[chan] {
                    // A send on a closed channel faults; it neither
                    // offers nor blocks.
                    self.issues.push(ChanIssue::SendOnClosed {
                        proc_name: self.proc_name.to_owned(),
                        chan,
                        span,
                        closed_span,
                    });
                    return;
                }
                self.offer(state, port(chan, Dir::Recv), OpKind::Send, span);
                if self.caps[chan].send_may_block() {
                    state.pending[port(chan, Dir::Send)].get_or_insert(span);
                }
            }
            Dir::Recv => {
                if state.must_closed[chan].is_some() {
                    // A recv on a closed channel completes immediately
                    // without a partner: no offer, no blockage.
                    return;
                }
                self.offer(state, port(chan, Dir::Send), OpKind::Recv, span);
                state.pending[port(chan, Dir::Recv)].get_or_insert(span);
            }
        }
    }

    fn close_op(&mut self, state: &mut PathState, chan: usize, span: Span) {
        if let Some(closed_span) = state.must_closed[chan] {
            self.issues.push(ChanIssue::CloseOfClosed {
                proc_name: self.proc_name.to_owned(),
                chan,
                span,
                closed_span,
            });
            return;
        }
        // A close releases every blocked receiver of the channel.
        self.offer(state, port(chan, Dir::Recv), OpKind::Close, span);
        state.must_closed[chan] = Some(span);
    }

    fn walk(&mut self, state: &mut PathState, body: &[ChanStmt]) {
        for stmt in body {
            match stmt {
                ChanStmt::Send { chan, span } => self.comm_op(state, Dir::Send, *chan, *span),
                ChanStmt::Recv { chan, span } => self.comm_op(state, Dir::Recv, *chan, *span),
                ChanStmt::Close { chan, span } => self.close_op(state, *chan, *span),
                ChanStmt::Select {
                    arms, default_body, ..
                } => self.select(state, arms, default_body.as_deref()),
                ChanStmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let mut else_state = state.clone();
                    self.walk(state, then_branch);
                    self.walk(&mut else_state, else_branch);
                    state.merge(&else_state);
                }
                ChanStmt::Loop { body, .. } => {
                    // Zero iterations leave the state alone; one walk
                    // reaches the may-fixpoint; the second walk observes
                    // cross-iteration dependencies from it (module docs).
                    let entry = state.clone();
                    self.walk(state, body);
                    self.walk(state, body);
                    state.merge(&entry);
                }
            }
        }
    }

    /// A select: each arm is an alternative path from the pre-select
    /// state. Every arm op offers (a withheld select withholds all its
    /// arms); without a `default` the select may block at each arm's
    /// port, with one the select never blocks and the default body is
    /// one more alternative path.
    fn select(
        &mut self,
        state: &mut PathState,
        arms: &[SelectArm],
        default_body: Option<&[ChanStmt]>,
    ) {
        let entry = state.clone();
        let blocking = default_body.is_none();
        let mut merged: Option<PathState> = None;
        for arm in arms {
            let mut arm_state = entry.clone();
            match arm.dir {
                Dir::Send => {
                    if let Some(closed_span) = entry.must_closed[arm.chan] {
                        self.issues.push(ChanIssue::SendOnClosed {
                            proc_name: self.proc_name.to_owned(),
                            chan: arm.chan,
                            span: arm.span,
                            closed_span,
                        });
                    } else {
                        self.offer(&entry, port(arm.chan, Dir::Recv), OpKind::Send, arm.span);
                        if blocking && self.caps[arm.chan].send_may_block() {
                            arm_state.pending[port(arm.chan, Dir::Send)].get_or_insert(arm.span);
                        }
                    }
                }
                Dir::Recv => {
                    if entry.must_closed[arm.chan].is_none() {
                        self.offer(&entry, port(arm.chan, Dir::Send), OpKind::Recv, arm.span);
                        if blocking {
                            arm_state.pending[port(arm.chan, Dir::Recv)].get_or_insert(arm.span);
                        }
                    }
                }
            }
            self.walk(&mut arm_state, &arm.body);
            match &mut merged {
                None => merged = Some(arm_state),
                Some(m) => m.merge(&arm_state),
            }
        }
        if let Some(d) = default_body {
            let mut d_state = entry.clone();
            self.walk(&mut d_state, d);
            match &mut merged {
                None => merged = Some(d_state),
                Some(m) => m.merge(&d_state),
            }
        }
        if let Some(m) = merged {
            *state = m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_chan;
    use super::*;

    fn effects(src: &str) -> ChanEffects {
        ChanEffects::compute(&parse_chan(src).unwrap())
    }

    fn edge_ports(e: &ChanEffects) -> Vec<(usize, usize)> {
        e.dep_edges.iter().map(|d| (d.from, d.to)).collect()
    }

    #[test]
    fn crossed_pair_is_a_two_cycle() {
        let e = effects(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv b; recv a; }",
        );
        // a=0 (ports 0!,1?), b=1 (ports 2!,3?).
        assert_eq!(edge_ports(&e), [(0, 3), (3, 0)]);
    }

    #[test]
    fn matching_order_is_acyclic() {
        let e = effects(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv a; recv b; }",
        );
        assert_eq!(edge_ports(&e), [(0, 3), (1, 2)]);
    }

    #[test]
    fn self_rendezvous_is_a_self_loop() {
        let e = effects("chan a; proc p { send a; recv a; }");
        assert_eq!(edge_ports(&e), [(0, 0)]);
    }

    #[test]
    fn repeated_same_direction_ops_are_skipped() {
        // The pending first send is itself a live offer to the
        // receivers, so the withheld second send starves nobody new.
        let e = effects(
            "chan q[2];
             proc p1 { send q; send q; }
             proc p2 { recv q; recv q; }",
        );
        assert!(e.dep_edges.is_empty(), "{:?}", e.dep_edges);
    }

    #[test]
    fn unbounded_sends_never_block_but_still_offer() {
        let e = effects(
            "chan log[*]; chan a;
             proc p1 { send log; send a; }
             proc p2 { recv a; recv log; }",
        );
        // p1's unbounded send never pends; p2 blocked at recv a (port 3)
        // withholds recv log, an offer to log's senders (port 0).
        assert_eq!(edge_ports(&e), [(3, 0)]);
    }

    #[test]
    fn recv_on_must_closed_does_not_block() {
        let e = effects(
            "chan c; chan a;
             proc p { close c; recv c; send a; }",
        );
        // recv c completes immediately: no pending, so send a is not
        // withheld by anything.
        assert!(e.dep_edges.is_empty(), "{:?}", e.dep_edges);
    }

    #[test]
    fn close_offers_to_blocked_receivers() {
        let e = effects(
            "chan a; chan c;
             proc p { recv a; close c; }",
        );
        // Blocked at (a,recv)=port 1 withholding close c → starves
        // (c,recv)=port 3.
        assert_eq!(edge_ports(&e), [(1, 3)]);
        assert_eq!(e.dep_edges[0].tag, OpKind::Close);
    }

    #[test]
    fn send_on_closed_is_an_issue_not_an_edge() {
        let e = effects("chan c[*]; proc p { close c; send c; }");
        assert!(e.dep_edges.is_empty());
        assert!(matches!(
            e.issues[0],
            ChanIssue::SendOnClosed { chan: 0, .. }
        ));
    }

    #[test]
    fn double_close_is_an_issue() {
        let e = effects("chan c; proc p { close c; close c; }");
        assert!(matches!(
            e.issues[0],
            ChanIssue::CloseOfClosed { chan: 0, .. }
        ));
        assert_eq!(e.issues.len(), 1);
    }

    #[test]
    fn branches_union_their_pendings() {
        let e = effects(
            "chan a; chan b; chan c;
             proc p { if { recv a; } else { recv b; } send c; }
             proc q { recv c; }",
        );
        // Both (a,recv)=1 and (b,recv)=3 withhold the offer to
        // (c,recv)=5.
        assert_eq!(edge_ports(&e), [(1, 5), (3, 5)]);
    }

    #[test]
    fn loop_carried_dependencies_need_the_second_walk() {
        // Iteration k blocks at recv b with iteration k+1's send a
        // withheld — only visible walking the body from the fixpoint.
        let e = effects(
            "chan a; chan b;
             proc p { loop { send a; recv b; } }",
        );
        // (a,send)=0 → (b,send)=2 from the first walk; (b,recv)=3 →
        // (a,recv)=1 cross-iteration from the second.
        assert!(edge_ports(&e).contains(&(3, 1)), "{:?}", edge_ports(&e));
    }

    #[test]
    fn blocking_select_pends_each_arm_as_an_alternative() {
        let e = effects(
            "chan a; chan b; chan d;
             proc p { select { recv a { } recv b { } } send d; }
             proc q { recv d; }",
        );
        // Blocked at either arm port withholds the offer to (d,recv)=5.
        let ports = edge_ports(&e);
        assert!(ports.contains(&(1, 5)), "{ports:?}");
        assert!(ports.contains(&(3, 5)), "{ports:?}");
    }

    #[test]
    fn select_with_default_never_pends() {
        let e = effects(
            "chan a; chan d;
             proc p { select { recv a { } default { } } send d; }
             proc q { recv d; }",
        );
        assert!(e.dep_edges.is_empty(), "{:?}", e.dep_edges);
    }

    #[test]
    fn effect_sets_cover_select_arms_and_loops() {
        let e = effects(
            "chan a; chan b;
             proc p { loop { select { send a { } recv b { } } } }
             proc q { close b; }",
        );
        assert_eq!(e.send_sites[0].len(), 1);
        assert!(e.send_sites[0][0].in_loop);
        assert_eq!(e.recv_sites[1].len(), 1);
        assert_eq!(e.close_sites[1].len(), 1);
        assert!(!e.close_sites[1][0].in_loop);
        assert_eq!(e.selects.len(), 1);
        assert!(e.selects[0].in_loop);
        assert!(!e.selects[0].has_default);
    }

    #[test]
    fn counterparts_exclude_the_blocked_process_itself() {
        let e = effects(
            "chan c;
             proc p { recv c; send c; }
             proc q { send c; }",
        );
        // p blocked at recv c cannot run its own later send.
        assert_eq!(e.counterparts("p", 0, Dir::Recv), 1);
        assert_eq!(e.counterparts("q", 0, Dir::Send), 1);
    }
}
