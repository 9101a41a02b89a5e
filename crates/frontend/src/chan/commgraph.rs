//! The communication dependency graph: nodes are channel *ports*
//! (`c!` = the send end, `c?` = the receive end), and an edge `h → q`
//! records that some process may block at port `h` while withholding an
//! op the waiters at port `q` need ([`super::effects`] produces the
//! edges). A cycle is a circular wait over channel ends — the `.chan`
//! analogue of a lock-order cycle. Both ports of a channel lower into
//! the channel's one task (signals `snd` and `rcv`), which is what keeps
//! the oracle from realising a cycle through both ends of one channel
//! (see [`crate::wait`]).

use super::ast::{Capacity, ChanProgram};
use super::effects::{port_chan, port_dir, ChanEffects, ChanIssue, OpKind};
use crate::wait::{Scheme, WaitCycle, WaitGraph};

/// `.chan` resources: a channel's two ports, `c!` then `c?`, share one
/// lowered task with signals `snd` and `rcv`; nodes read "a! blocked in
/// p1" and "b? starved by p1".
static PORTS: Scheme = Scheme {
    signals: &["snd", "rcv"],
    marks: &["!", "?"],
    held: "blocked in",
    wanted: "starved by",
};

/// The communication dependency graph of a [`ChanProgram`].
#[derive(Clone, Debug)]
pub struct CommGraph {
    /// Channels (shared index space with the program) and the wait
    /// edges between their ports, first witness per `(from, to)` pair in
    /// walk order.
    pub wait: WaitGraph<OpKind>,
    /// Channel capacities, same index space.
    pub capacities: Vec<Capacity>,
}

impl CommGraph {
    /// Assemble the graph from a program's computed effects.
    #[must_use]
    pub fn build(p: &ChanProgram, effects: &ChanEffects) -> CommGraph {
        CommGraph {
            wait: WaitGraph {
                groups: p.chans.iter().map(|c| c.name.clone()).collect(),
                scheme: &PORTS,
                edges: effects.dep_edges.clone(),
            },
            capacities: p.chans.iter().map(|c| c.capacity).collect(),
        }
    }

    /// The name of channel `c`.
    #[must_use]
    pub fn chan_name(&self, c: usize) -> &str {
        self.wait
            .groups
            .get(c)
            .map_or("<unknown channel>", String::as_str)
    }

    /// The communication cycles ([`WaitGraph::cycles`]).
    #[must_use]
    pub fn cycles(&self) -> Vec<WaitCycle> {
        self.wait.cycles()
    }

    /// Render one issue as a human-readable warning line.
    #[must_use]
    pub fn render_issue(&self, i: &ChanIssue) -> String {
        match i {
            ChanIssue::SendOnClosed {
                proc_name,
                chan,
                span,
                closed_span,
            } => format!(
                "proc {} sends on {} ({}) after it is closed ({}) — a runtime fault",
                proc_name,
                self.chan_name(*chan),
                span,
                closed_span
            ),
            ChanIssue::CloseOfClosed {
                proc_name,
                chan,
                span,
                closed_span,
            } => format!(
                "proc {} closes {} ({}) twice (first closed at {})",
                proc_name,
                self.chan_name(*chan),
                span,
                closed_span
            ),
        }
    }

    /// Render one cycle as the span-anchored wait chain the reports and
    /// lints print:
    /// `a! → b? → a! (proc p1 blocks at send a (2:5) withholding send b
    /// (3:5); …)`.
    #[must_use]
    pub fn render_cycle(&self, c: &WaitCycle) -> String {
        self.wait.render_cycle(c, |e| {
            format!(
                "proc {} blocks at {} {} ({}) withholding {} {} ({})",
                e.actor,
                port_dir(e.from).verb(),
                self.chan_name(port_chan(e.from)),
                e.held_span,
                e.tag.verb(),
                self.chan_name(port_chan(e.to)),
                e.wanted_span
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::effects::ChanEffects;
    use super::super::parser::parse_chan;
    use super::*;

    fn graph(src: &str) -> CommGraph {
        let p = parse_chan(src).unwrap();
        let e = ChanEffects::compute(&p);
        CommGraph::build(&p, &e)
    }

    #[test]
    fn crossed_pair_is_a_two_cycle_with_spans() {
        let g = graph(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv b; recv a; }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.resources.len(), 2);
        for &i in &c.edges {
            let e = &g.wait.edges[i];
            assert!(e.held_span.is_real() && e.wanted_span.is_real());
        }
        let rendered = g.render_cycle(c);
        assert!(rendered.contains("a! → b? → a!"), "got: {rendered}");
        assert!(rendered.contains("proc p1 blocks at send a"), "got: {rendered}");
        assert!(rendered.contains("withholding recv a"), "got: {rendered}");
    }

    #[test]
    fn matching_order_is_acyclic() {
        let g = graph(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv a; recv b; }",
        );
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn self_rendezvous_is_a_length_one_cycle() {
        let g = graph("chan a; proc p { send a; recv a; }");
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].resources, [0]);
        let rendered = g.render_cycle(&cycles[0]);
        assert!(rendered.contains("a! → a!"), "got: {rendered}");
    }

    #[test]
    fn ring_has_a_deterministic_witness() {
        let src = "chan c0; chan c1; chan c2;
                   proc p0 { send c0; recv c2; }
                   proc p1 { send c1; recv c0; }
                   proc p2 { send c2; recv c1; }";
        let c1 = graph(src).cycles();
        let c2 = graph(src).cycles();
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].resources, c2[0].resources);
        assert_eq!(c1[0].resources.len(), 3);
        assert_eq!(c1[0].resources[0], 0, "canonical start = smallest id");
    }

    #[test]
    fn bounded_handoff_is_clean() {
        let g = graph(
            "chan q[2];
             proc p1 { send q; send q; }
             proc p2 { recv q; recv q; }",
        );
        assert!(g.wait.edges.is_empty());
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn issues_render_with_spans() {
        let g = graph("chan c[*]; proc p { close c; send c; }");
        // Rebuild effects to fetch the issue (build() copies edges only).
        let p = parse_chan("chan c[*]; proc p { close c; send c; }").unwrap();
        let e = ChanEffects::compute(&p);
        let rendered = g.render_issue(&e.issues[0]);
        assert!(rendered.contains("sends on c"), "got: {rendered}");
        assert!(rendered.contains("after it is closed"), "got: {rendered}");
    }
}
