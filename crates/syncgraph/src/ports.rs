//! The cycle location graph (paper §3.1), with each sync-edge endpoint
//! reified as a *port* node.
//!
//! The paper builds the CLG in six steps:
//!
//! 1. create distinguished nodes `b` and `e`;
//! 2. for each sync-graph node `r` (other than `b`/`e`) create `r_i`
//!    (incoming sync edges only) and `r_o` (outgoing sync edges only);
//! 3. create the internal edge `(r_o, r_i)`;
//! 4. for each control edge `(b, r)` create `(b, r_o)`; for `(r, e)` create
//!    `(r_i, e)`;
//! 5. for each control edge `(r, s)` with `r ≠ b`, `s ≠ e`, create
//!    `(r_i, s_o)`;
//! 6. for each sync edge `{r, s}` create directed `(r_o, s_i)` and
//!    `(s_o, r_i)`.
//!
//! Any path entering a node via a sync edge arrives at an `_i` node whose
//! only exits are control edges, so constraint 1b holds structurally.
//!
//! [`PortClg`] builds exactly this graph, except that step 6 routes every
//! sync edge through two port nodes:
//!
//! * `r_o → r_so` — the sync-out port: every sync edge leaving `r` departs
//!   from `r_so`;
//! * `r_si → r_i` — the sync-in port: every sync edge entering `r` arrives
//!   at `r_si`;
//! * sync edge `{r, s}` becomes `r_so → s_si` and `s_so → r_si`.
//!
//! The refined algorithm (paper §4.2) repeatedly asks for the SCCs of the
//! CLG *with some sync edges removed* — sync edges incident to marked nodes
//! are banned per hypothesised head. Edge-filtered SCC queries cannot be
//! answered from one shared decomposition, but node-masked ones can
//! (`iwa_graphs::Scc::compute` takes an `Option<&BitSet>` mask). With the
//! ports, banning all outgoing sync edges of `r` is exactly "mask out node
//! `r_so`"; banning incoming ones is "mask out `r_si`"; marking `r`
//! do-not-enter is "mask out all four nodes". Because `r_so` has a single
//! in-edge (from `r_o`) and `r_si` a single out-edge (to `r_i`), cycles of
//! the port graph correspond one-to-one to cycles of the edge-filtered CLG,
//! and the SCC membership of the `r_o`/`r_i` nodes is identical. One shared
//! whole-graph SCC (computed once per analysis) then serves every per-head
//! query: heads whose witness ports sit in trivial or differing components
//! are refuted for free, and the rest need a single Tarjan run masked down
//! to one component's members.
//!
//! Readers of the paper's graph itself — the naive check, the exact cycle
//! enumeration, the `clg_*` counters and the DOT rendering — look through
//! the ports: [`PortClg::clg_successors`] lists a node's successors in the
//! paper's CLG, in the order its six steps create them, and
//! [`PortClg::clg_nodes`]/[`PortClg::clg_edges`] count the paper's graph.
//! Edges carry no labels: the roles of an edge's endpoints give its kind
//! (`r_o → r_i` is internal, [`PortClg::is_sync_edge`] tells sync edges,
//! every other edge is a control edge).

use crate::graph::{SyncGraph, B, E, FIRST_RV};
use iwa_graphs::{Csr, GraphBuilder};

/// The cycle location graph of a [`SyncGraph`], its sync edges routed
/// through port nodes.
#[derive(Clone, Debug)]
pub struct PortClg {
    /// The directed graph. Node indices: `b` = 0, `e` = 1, then
    /// `r_o`/`r_i`/`r_so`/`r_si` quadruples (see [`PortClg::out_node`] and
    /// friends).
    pub graph: Csr,
    num_rendezvous: usize,
}

impl PortClg {
    /// Build the CLG of `sg`: the paper's six steps, with step 6 routed
    /// port to port.
    #[must_use]
    pub fn build(sg: &SyncGraph) -> PortClg {
        let nrv = sg.num_rendezvous();
        let mut graph = GraphBuilder::with_nodes(2 + 4 * nrv);
        let pg = PortClg {
            graph: Csr::new(),
            num_rendezvous: nrv,
        };
        // Step 3, plus the two port stubs per rendezvous.
        for r in sg.rendezvous_nodes() {
            graph.add_arc(pg.out_node(r), pg.in_node(r));
            graph.add_arc(pg.out_node(r), pg.sync_out_port(r));
            graph.add_arc(pg.sync_in_port(r), pg.in_node(r));
        }
        // Steps 4–5: control edges.
        for (u, v, ()) in sg.control.edges() {
            match (u, v) {
                (B, E) => graph.add_arc(B, E),
                (B, v) => graph.add_arc(B, pg.out_node(v)),
                (u, E) => graph.add_arc(pg.in_node(u), E),
                (u, v) => graph.add_arc(pg.in_node(u), pg.out_node(v)),
            }
        }
        // Step 6: sync edges, both directions, port to port. Each
        // undirected edge is seen from both sides; emit it from the lower
        // index only.
        for r in sg.rendezvous_nodes() {
            for &s in sg.sync_neighbors(r) {
                let s = s as usize;
                if r < s {
                    graph.add_arc(pg.sync_out_port(r), pg.sync_in_port(s));
                    graph.add_arc(pg.sync_out_port(s), pg.sync_in_port(r));
                }
            }
        }
        PortClg {
            graph: graph.freeze(),
            num_rendezvous: nrv,
        }
    }

    /// The `r_o` (control-out) node of sync-graph node `r`.
    ///
    /// # Panics
    /// If `r` is `b`/`e`.
    #[must_use]
    pub fn out_node(&self, r: usize) -> usize {
        assert!(r >= FIRST_RV, "b/e have no split nodes");
        2 + 4 * (r - FIRST_RV)
    }

    /// The `r_i` (control-in) node of sync-graph node `r`.
    #[must_use]
    pub fn in_node(&self, r: usize) -> usize {
        self.out_node(r) + 1
    }

    /// The `r_so` port all sync edges leaving `r` depart from.
    #[must_use]
    pub fn sync_out_port(&self, r: usize) -> usize {
        self.out_node(r) + 2
    }

    /// The `r_si` port all sync edges entering `r` arrive at.
    #[must_use]
    pub fn sync_in_port(&self, r: usize) -> usize {
        self.out_node(r) + 3
    }

    /// Map a port-CLG node back to its sync-graph node (`b`/`e` map to
    /// themselves).
    #[must_use]
    pub fn sync_node_of(&self, node: usize) -> usize {
        if node < 2 {
            node
        } else {
            FIRST_RV + (node - 2) / 4
        }
    }

    /// Is `node` an `r_i` node?
    #[must_use]
    pub fn is_in_node(&self, node: usize) -> bool {
        node >= 2 && (node - 2) % 4 == 1
    }

    /// Is `node` a port (`r_so` or `r_si`) rather than a node of the
    /// paper's CLG?
    #[must_use]
    pub fn is_port(&self, node: usize) -> bool {
        node >= 2 && (node - 2) % 4 >= 2
    }

    /// The successors of `u` in the paper's CLG, in the order its six
    /// steps create them, with the ports looked through: `r_o` yields
    /// `r_i`, then the `s_i` of every sync partner `s`.
    pub fn clg_successors(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.graph.successors(u).iter().flat_map(move |&w| {
            let w = w as usize;
            let (direct, ports) = if self.is_port(w) {
                (None, self.graph.successors(w))
            } else {
                (Some(w), &[][..])
            };
            direct.into_iter().chain(
                ports
                    .iter()
                    .map(|&p| self.in_node(self.sync_node_of(p as usize))),
            )
        })
    }

    /// Is the paper-CLG edge `u → v` a sync edge? Sync edges are the only
    /// edges that enter an `_i` node from another rendezvous.
    #[must_use]
    pub fn is_sync_edge(&self, u: usize, v: usize) -> bool {
        self.is_in_node(v) && self.sync_node_of(u) != self.sync_node_of(v)
    }

    /// Number of port-CLG nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        2 + 4 * self.num_rendezvous
    }

    /// |N_CLG|, the node count of the paper's CLG: `b`, `e`, and `r_o`,
    /// `r_i` per rendezvous.
    #[must_use]
    pub fn clg_nodes(&self) -> usize {
        2 + 2 * self.num_rendezvous
    }

    /// |E_CLG| = |rendezvous| + |E_C| + 2·|E_S|, the edge count of the
    /// paper's CLG: this graph's edges minus the two port stubs per
    /// rendezvous.
    #[must_use]
    pub fn clg_edges(&self) -> usize {
        self.graph.num_edges() - 2 * self.num_rendezvous
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_graphs::dfs::has_cycle_from;
    use iwa_tasklang::parse;

    fn build(src: &str) -> (SyncGraph, PortClg) {
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let pg = PortClg::build(&sg);
        (sg, pg)
    }

    const DEADLOCK: &str =
        "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }";
    const CLEAN: &str =
        "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }";

    /// Figure 4(a) flavour: sync edges r—s and t—u would chain into a
    /// "cycle" through q, but no path may leave q the way it entered.
    const SYNC_ONLY: &str = "task p { send q.m1 as r; }
         task q { accept m1 as s; accept m2 as t; }
         task x { send q.m2 as u; }";

    #[test]
    fn structure_counts() {
        for src in [DEADLOCK, CLEAN, SYNC_ONLY] {
            let (sg, pg) = build(src);
            let nrv = sg.num_rendezvous();
            assert_eq!(pg.num_nodes(), 2 + 4 * nrv);
            assert_eq!(pg.clg_nodes(), 2 + 2 * nrv);
            assert_eq!(
                pg.clg_edges(),
                nrv + sg.control.num_edges() + 2 * sg.num_sync_edges()
            );
            // Two stub edges per rendezvous on top of the paper's graph.
            assert_eq!(pg.graph.num_edges(), pg.clg_edges() + 2 * nrv);
        }
    }

    #[test]
    fn node_mapping_roundtrips() {
        let (sg, pg) = build(DEADLOCK);
        for r in sg.rendezvous_nodes() {
            assert_eq!(pg.sync_node_of(pg.out_node(r)), r);
            assert_eq!(pg.sync_node_of(pg.in_node(r)), r);
            assert_eq!(pg.sync_node_of(pg.sync_out_port(r)), r);
            assert_eq!(pg.sync_node_of(pg.sync_in_port(r)), r);
            assert!(pg.is_in_node(pg.in_node(r)));
            assert!(!pg.is_in_node(pg.out_node(r)));
            assert!(pg.is_port(pg.sync_out_port(r)) && pg.is_port(pg.sync_in_port(r)));
            assert!(!pg.is_port(pg.out_node(r)) && !pg.is_port(pg.in_node(r)));
        }
        assert_eq!(pg.sync_node_of(B), B);
        assert_eq!(pg.sync_node_of(E), E);
        assert!(!pg.is_port(B) && !pg.is_port(E));
    }

    /// Sync edges leave `_o` nodes and enter `_i` nodes of sync partners;
    /// `_i` nodes have control exits only.
    #[test]
    fn sync_edges_run_from_out_nodes_to_partner_in_nodes() {
        let (sg, pg) = build(SYNC_ONLY);
        let mut sync_edges = 0;
        for u in (0..pg.num_nodes()).filter(|&u| !pg.is_port(u)) {
            for v in pg.clg_successors(u) {
                assert!(!pg.is_port(v));
                if pg.is_sync_edge(u, v) {
                    sync_edges += 1;
                    assert!(!pg.is_in_node(u), "sync edge leaves an _i node");
                    assert!(sg.has_sync_edge(pg.sync_node_of(u), pg.sync_node_of(v)));
                }
            }
        }
        assert_eq!(sync_edges, 2 * sg.num_sync_edges());
    }

    #[test]
    fn sync_only_cycles_are_broken() {
        let (_, pg) = build(SYNC_ONLY);
        assert!(!has_cycle_from(&pg.graph, B));
    }

    #[test]
    fn straight_line_deadlock_keeps_its_cycle() {
        let (_, pg) = build(DEADLOCK);
        assert!(has_cycle_from(&pg.graph, B), "deadlock cycle must survive");
        let (_, pg) = build(CLEAN);
        assert!(!has_cycle_from(&pg.graph, B));
    }
}
