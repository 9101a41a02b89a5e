//! Sync graph construction and queries.

use iwa_core::{Rendezvous, Sign, SignalId, Span, Symbols, TaskId};
use iwa_graphs::{Csr, GraphBuilder};
use iwa_tasklang::cfg::{self, Guard, ProgramCfg};
use iwa_tasklang::Program;

/// Index of the distinguished begin node `b`.
pub const B: usize = 0;
/// Index of the distinguished end node `e`.
pub const E: usize = 1;
/// First index used for rendezvous nodes.
pub const FIRST_RV: usize = 2;

/// Data attached to one rendezvous node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeData {
    /// The task whose body contains the statement.
    pub task: TaskId,
    /// The rendezvous point type `(t, m, s)`.
    pub rendezvous: Rendezvous,
    /// Source label, if any.
    pub label: Option<String>,
    /// Encapsulated-variable guards lexically enclosing the statement
    /// (innermost last; empty for raw-built graphs). Fuel for the
    /// condition-aware co-executability extension.
    pub guards: Vec<Guard>,
    /// Condition variable carried by a send, if any.
    pub carrying: Option<String>,
    /// Condition variable bound by an accept, if any.
    pub binding: Option<String>,
    /// Source location of the originating statement ([`Span::DUMMY`] for
    /// raw-built graphs and builder-made programs).
    pub span: Span,
}

/// The sync graph `SG_P = (T, N, E_C, E_S)`.
///
/// Node indices: [`B`], [`E`], then rendezvous nodes from [`FIRST_RV`].
/// Control edges are directed; sync edges are undirected and stored as
/// sorted neighbour lists.
#[derive(Clone, Debug)]
pub struct SyncGraph {
    /// Task/signal names.
    pub symbols: Symbols,
    /// Number of tasks (`|T|`).
    pub num_tasks: usize,
    /// Per-rendezvous-node data, indexed by `node - FIRST_RV`.
    nodes: Vec<NodeData>,
    /// Directed control-flow edges `E_C` (over all node indices, including
    /// `b` and `e`).
    pub control: Csr<()>,
    /// Undirected sync edges `E_S`: `sync[n]` lists the sync neighbours of
    /// node `n` (empty for `b`/`e`).
    sync: Vec<Vec<u32>>,
    /// Rendezvous nodes of each task.
    task_nodes: Vec<Vec<u32>>,
    /// Send (`+`) and accept (`-`) nodes of each signal, ascending.
    by_signal: BySignal,
    /// Per task: does some control path run from `b` to `e` without any
    /// rendezvous (the task may finish without synchronising)?
    skippable: Vec<bool>,
}

impl SyncGraph {
    /// Derive the sync graph of a program (paper §2).
    ///
    /// Sync edges are exactly the complementary same-signal pairs. Control
    /// edges come from the per-task rendezvous CFGs; each task contributes
    /// `b → first` and `last → e` edges (and `b → e` when some path through
    /// the task has no rendezvous).
    ///
    /// # Panics
    /// If the program still contains procedure calls — apply
    /// `iwa_tasklang::transforms::inline_procs` first (call sites hide
    /// rendezvous the graph must represent).
    #[must_use]
    pub fn from_program(p: &Program) -> SyncGraph {
        assert!(
            !p.has_calls(),
            "inline procedures before building the sync graph"
        );
        let cfgs = ProgramCfg::build(p);
        let mut b = SyncGraphBuilder::new(p.symbols.clone(), p.num_tasks());

        // Global index per (task, task-cfg node).
        let mut global: Vec<Vec<usize>> = Vec::with_capacity(cfgs.tasks.len());
        for tcfg in &cfgs.tasks {
            let mut map = vec![usize::MAX; tcfg.graph.num_nodes()];
            for n in tcfg.rendezvous_nodes() {
                let rv = tcfg.rv(n);
                map[n] = b.add_node_full(
                    tcfg.task,
                    rv.rendezvous,
                    rv.label.clone(),
                    rv.guards.clone(),
                    rv.carrying.clone(),
                    rv.binding.clone(),
                    rv.span,
                );
            }
            global.push(map);
        }
        let mut b_to_e = false;
        for tcfg in &cfgs.tasks {
            let map = &global[tcfg.task.index()];
            for (u, v, ()) in tcfg.graph.edges() {
                match (u, v) {
                    (cfg::ENTRY, cfg::EXIT) => {
                        b_to_e = true;
                        b.mark_task_skippable(tcfg.task);
                    }
                    (cfg::ENTRY, v) => b.add_control(B, map[v]),
                    (u, cfg::EXIT) => b.add_control(map[u], E),
                    (u, v) => b.add_control(map[u], map[v]),
                }
            }
        }
        if b_to_e {
            b.add_control(B, E);
        }
        b.derive_sync_edges();
        b.build()
    }

    /// Total number of nodes (including `b` and `e`).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        FIRST_RV + self.nodes.len()
    }

    /// Number of rendezvous nodes.
    #[must_use]
    pub fn num_rendezvous(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (undirected) sync edges.
    #[must_use]
    pub fn num_sync_edges(&self) -> usize {
        self.sync.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Iterate rendezvous node indices.
    pub fn rendezvous_nodes(&self) -> impl Iterator<Item = usize> {
        FIRST_RV..FIRST_RV + self.nodes.len()
    }

    /// Is `n` a rendezvous node (not `b`/`e`)?
    #[must_use]
    pub fn is_rendezvous(&self, n: usize) -> bool {
        n >= FIRST_RV && n < self.num_nodes()
    }

    /// Data of rendezvous node `n`.
    ///
    /// # Panics
    /// If `n` is `b` or `e`.
    #[must_use]
    pub fn node(&self, n: usize) -> &NodeData {
        &self.nodes[n - FIRST_RV]
    }

    /// The display name of rendezvous node `n`: its source label, or
    /// else its signal name and sign (`m+`).
    #[must_use]
    pub fn node_name(&self, n: usize) -> String {
        let d = self.node(n);
        match &d.label {
            Some(label) => label.clone(),
            None => {
                let signal = self.symbols.signal_name(d.rendezvous.signal);
                format!("{signal}{}", d.rendezvous.sign)
            }
        }
    }

    /// Sync neighbours of `n` (empty for `b`/`e`).
    #[must_use]
    pub fn sync_neighbors(&self, n: usize) -> &[u32] {
        &self.sync[n]
    }

    /// Is `{a, b}` a sync edge?
    #[must_use]
    pub fn has_sync_edge(&self, a: usize, b: usize) -> bool {
        self.sync[a].binary_search(&(b as u32)).is_ok()
    }

    /// The rendezvous nodes of `task`.
    #[must_use]
    pub fn nodes_of_task(&self, task: TaskId) -> &[u32] {
        &self.task_nodes[task.index()]
    }

    /// May `task` run from begin to end without any rendezvous?
    #[must_use]
    pub fn task_skippable(&self, task: TaskId) -> bool {
        self.skippable[task.index()]
    }

    /// Find a rendezvous node by its source label.
    #[must_use]
    pub fn node_by_label(&self, label: &str) -> Option<usize> {
        self.rendezvous_nodes()
            .find(|&n| self.node(n).label.as_deref() == Some(label))
    }

    /// All send (`+`) nodes of `signal`, ascending.
    #[must_use]
    pub fn sends_of(&self, signal: SignalId) -> &[u32] {
        self.by_signal.of(signal, Sign::Plus)
    }

    /// All accept (`-`) nodes of `signal`, ascending.
    #[must_use]
    pub fn accepts_of(&self, signal: SignalId) -> &[u32] {
        self.by_signal.of(signal, Sign::Minus)
    }

    /// `COACCEPT[r]` (paper §4.2): for an accept node, the *other* accept
    /// nodes of the same signal type; empty for signalling nodes.
    ///
    /// `r` itself is excluded — the refined algorithm hypothesises `r` as a
    /// deadlock head and must still be able to re-enter it through a sync
    /// edge.
    #[must_use]
    pub fn coaccept(&self, n: usize) -> Vec<usize> {
        let data = self.node(n);
        if data.rendezvous.sign != Sign::Minus {
            return Vec::new();
        }
        self.accepts_of(data.rendezvous.signal)
            .iter()
            .map(|&m| m as usize)
            .filter(|&m| m != n)
            .collect()
    }

    /// `POSS-HEADS` (paper §4.2): rendezvous nodes connected to at least one
    /// sync edge that are the tail of at least one control edge leading to
    /// another rendezvous node.
    #[must_use]
    pub fn poss_heads(&self) -> Vec<usize> {
        self.rendezvous_nodes()
            .filter(|&n| {
                !self.sync[n].is_empty()
                    && self
                        .control
                        .successors(n)
                        .iter()
                        .any(|&v| self.is_rendezvous(v as usize))
            })
            .collect()
    }

    /// Per-task control subgraph rooted at `b`, restricted to the task's
    /// nodes: used by dominator-based ordering (rule 1).
    ///
    /// Returns a graph over the *global* node indices where only edges
    /// within `task` (plus `b →` entries and `→ e` exits of that task) are
    /// kept.
    #[must_use]
    pub fn task_control_view(&self, task: TaskId) -> Csr<()> {
        self.control.filtered(
            |n| {
                n == B || n == E || (self.is_rendezvous(n) && self.node(n).task == task)
            },
            |_, _, ()| true,
        )
    }
}

/// Assembles sync graphs, either from programs (via
/// [`SyncGraph::from_program`]) or raw (Theorem 3 constructions).
#[derive(Debug)]
pub struct SyncGraphBuilder {
    symbols: Symbols,
    num_tasks: usize,
    nodes: Vec<NodeData>,
    control_edges: Vec<(usize, usize)>,
    sync_edges: Vec<(usize, usize)>,
    skippable: Vec<bool>,
}

impl SyncGraphBuilder {
    /// Start a builder for `num_tasks` tasks with the given symbol table.
    #[must_use]
    pub fn new(symbols: Symbols, num_tasks: usize) -> SyncGraphBuilder {
        SyncGraphBuilder {
            symbols,
            num_tasks,
            nodes: Vec::new(),
            control_edges: Vec::new(),
            sync_edges: Vec::new(),
            skippable: vec![false; num_tasks],
        }
    }

    /// Record that `task` has a rendezvous-free begin-to-end path.
    pub fn mark_task_skippable(&mut self, task: TaskId) {
        self.skippable[task.index()] = true;
    }

    /// Add a rendezvous node; returns its global index.
    pub fn add_node(
        &mut self,
        task: TaskId,
        rendezvous: Rendezvous,
        label: Option<String>,
    ) -> usize {
        self.add_node_full(task, rendezvous, label, Vec::new(), None, None, Span::DUMMY)
    }

    /// Add a rendezvous node with full metadata (guards, carried/bound
    /// condition variables, and source span).
    #[allow(clippy::too_many_arguments)]
    pub fn add_node_full(
        &mut self,
        task: TaskId,
        rendezvous: Rendezvous,
        label: Option<String>,
        guards: Vec<Guard>,
        carrying: Option<String>,
        binding: Option<String>,
        span: Span,
    ) -> usize {
        assert!(task.index() < self.num_tasks, "task out of range");
        self.nodes.push(NodeData {
            task,
            rendezvous,
            label,
            guards,
            carrying,
            binding,
            span,
        });
        FIRST_RV + self.nodes.len() - 1
    }

    /// Add a directed control edge (endpoints may be [`B`]/[`E`]).
    pub fn add_control(&mut self, from: usize, to: usize) {
        self.control_edges.push((from, to));
    }

    /// Add an explicit undirected sync edge.
    ///
    /// Normally sync edges are derived from signal types
    /// ([`Self::derive_sync_edges`]); raw graphs (Theorem 3) may add edges
    /// that correspond to no signal typing.
    pub fn add_sync_edge(&mut self, a: usize, b: usize) {
        self.sync_edges.push((a, b));
    }

    /// Add the sync edges the definition implies: one between every pair of
    /// complementary rendezvous points of the same signal type. Each send
    /// meets only the accepts of its own signal, so this costs
    /// `O(|N| + |E_S|)`.
    pub fn derive_sync_edges(&mut self) {
        let by_signal = BySignal::group(&self.nodes);
        for signal in 0..by_signal.num_signals() {
            let signal = SignalId(signal as u32);
            for &s in by_signal.of(signal, Sign::Plus) {
                for &a in by_signal.of(signal, Sign::Minus) {
                    self.sync_edges.push((s as usize, a as usize));
                }
            }
        }
    }

    /// Finish, deduplicating edges.
    #[must_use]
    pub fn build(self) -> SyncGraph {
        let n = FIRST_RV + self.nodes.len();
        let mut control = GraphBuilder::with_nodes(n);
        let mut seen = std::collections::HashSet::new();
        for (u, v) in self.control_edges {
            assert!(u < n && v < n, "control edge endpoint out of range");
            if seen.insert((u, v)) {
                control.add_edge(u, v, ());
            }
        }
        let control = control.freeze();
        let mut sync: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in self.sync_edges {
            assert!(
                a >= FIRST_RV && b >= FIRST_RV && a < n && b < n && a != b,
                "sync edge endpoints must be distinct rendezvous nodes"
            );
            sync[a].push(b as u32);
            sync[b].push(a as u32);
        }
        for adj in &mut sync {
            adj.sort_unstable();
            adj.dedup();
        }
        let mut task_nodes: Vec<Vec<u32>> = vec![Vec::new(); self.num_tasks];
        for (i, d) in self.nodes.iter().enumerate() {
            task_nodes[d.task.index()].push((FIRST_RV + i) as u32);
        }
        SyncGraph {
            symbols: self.symbols,
            num_tasks: self.num_tasks,
            by_signal: BySignal::group(&self.nodes),
            nodes: self.nodes,
            control,
            sync,
            task_nodes,
            skippable: self.skippable,
        }
    }
}

/// The rendezvous nodes of each signal, split by sign: the index behind
/// [`SyncGraph::sends_of`], [`SyncGraph::accepts_of`] and
/// [`SyncGraph::coaccept`], and the grouping
/// [`SyncGraphBuilder::derive_sync_edges`] pairs.
#[derive(Clone, Debug)]
struct BySignal {
    /// Every rendezvous node, grouped by `(signal, sign)` with the sends of
    /// a signal before its accepts, ascending within a group.
    nodes: Vec<u32>,
    /// Group `g` is `nodes[start[g]..start[g + 1]]`, where group
    /// `2s` holds the sends of signal `s` and `2s + 1` its accepts.
    start: Vec<u32>,
}

impl BySignal {
    /// Group `nodes` (rendezvous data, indexed from [`FIRST_RV`]) by signal,
    /// with one counting sort.
    fn group(nodes: &[NodeData]) -> BySignal {
        let group_of = |d: &NodeData| {
            2 * d.rendezvous.signal.index() + usize::from(d.rendezvous.sign == Sign::Minus)
        };
        let groups = nodes.iter().map(|d| group_of(d) + 1).max().unwrap_or(0);
        let mut start = vec![0u32; groups + 1];
        for d in nodes {
            start[group_of(d) + 1] += 1;
        }
        for g in 0..groups {
            start[g + 1] += start[g];
        }
        let mut next = start.clone();
        let mut grouped = vec![0u32; nodes.len()];
        for (i, d) in nodes.iter().enumerate() {
            let g = group_of(d);
            grouped[next[g] as usize] = (FIRST_RV + i) as u32;
            next[g] += 1;
        }
        BySignal {
            nodes: grouped,
            start,
        }
    }

    /// The number of signals with a group.
    fn num_signals(&self) -> usize {
        self.start.len() / 2
    }

    /// The nodes of `signal` with sign `sign`.
    fn of(&self, signal: SignalId, sign: Sign) -> &[u32] {
        let g = 2 * signal.index() + usize::from(sign == Sign::Minus);
        match (self.start.get(g), self.start.get(g + 1)) {
            (Some(&from), Some(&to)) => &self.nodes[from as usize..to as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    /// The paper's Figure 1 program:
    ///
    /// ```text
    /// task t1:  send t2.sig1 (r);  accept sig2 (s)
    /// task t2:  if … then accept sig1 (t) else accept sig1 (u); send t1.sig2 (v)
    /// ```
    /// (labels in parentheses; the exact figure has two accepts of sig1 on
    /// the two branches of a conditional).
    fn fig1_like() -> SyncGraph {
        let p = parse(
            "task t1 {
                send t2.sig1 as r;
                accept sig2 as s;
             }
             task t2 {
                if {
                    accept sig1 as t;
                } else {
                    accept sig1 as u;
                }
                send t1.sig2 as v;
             }",
        )
        .unwrap();
        SyncGraph::from_program(&p)
    }

    #[test]
    fn nodes_and_edges_match_figure() {
        let sg = fig1_like();
        assert_eq!(sg.num_rendezvous(), 5);
        let r = sg.node_by_label("r").unwrap();
        let s = sg.node_by_label("s").unwrap();
        let t = sg.node_by_label("t").unwrap();
        let u = sg.node_by_label("u").unwrap();
        let v = sg.node_by_label("v").unwrap();
        // Control: b→r→s→e in t1; b→{t,u}→v→e in t2.
        assert!(sg.control.has_edge(B, r));
        assert!(sg.control.has_edge(r, s));
        assert!(sg.control.has_edge(s, E));
        assert!(sg.control.has_edge(B, t));
        assert!(sg.control.has_edge(B, u));
        assert!(sg.control.has_edge(t, v));
        assert!(sg.control.has_edge(u, v));
        assert!(sg.control.has_edge(v, E));
        // Sync: r—t, r—u (sig1), s—v (sig2).
        assert!(sg.has_sync_edge(r, t));
        assert!(sg.has_sync_edge(r, u));
        assert!(sg.has_sync_edge(s, v));
        assert!(!sg.has_sync_edge(t, u));
        assert_eq!(sg.num_sync_edges(), 3);
    }

    #[test]
    fn task_partitions() {
        let sg = fig1_like();
        let t1 = sg.symbols.task("t1").unwrap();
        let t2 = sg.symbols.task("t2").unwrap();
        assert_eq!(sg.nodes_of_task(t1).len(), 2);
        assert_eq!(sg.nodes_of_task(t2).len(), 3);
        let r = sg.node_by_label("r").unwrap();
        assert_eq!(sg.node(r).task, t1);
        assert!(sg.node(r).rendezvous.sign.is_send());
    }

    #[test]
    fn coaccept_lists_same_type_accepts() {
        let sg = fig1_like();
        let t = sg.node_by_label("t").unwrap();
        let u = sg.node_by_label("u").unwrap();
        let r = sg.node_by_label("r").unwrap();
        assert_eq!(sg.coaccept(t), vec![u]);
        assert_eq!(sg.coaccept(u), vec![t]);
        assert!(sg.coaccept(r).is_empty(), "send nodes have no coaccepts");
    }

    #[test]
    fn poss_heads_requires_sync_and_following_rendezvous() {
        let sg = fig1_like();
        let r = sg.node_by_label("r").unwrap();
        let t = sg.node_by_label("t").unwrap();
        let u = sg.node_by_label("u").unwrap();
        let s = sg.node_by_label("s").unwrap();
        let v = sg.node_by_label("v").unwrap();
        let heads = sg.poss_heads();
        assert!(heads.contains(&r)); // r → s
        assert!(heads.contains(&t) && heads.contains(&u)); // → v
        // s and v are followed only by e.
        assert!(!heads.contains(&s));
        assert!(!heads.contains(&v));
    }

    #[test]
    fn sends_and_accepts_indexes() {
        let sg = fig1_like();
        let sig1 = sg
            .symbols
            .signal(sg.symbols.task("t2").unwrap(), "sig1")
            .unwrap();
        assert_eq!(sg.sends_of(sig1).len(), 1);
        assert_eq!(sg.accepts_of(sig1).len(), 2);
    }

    #[test]
    fn rendezvous_free_task_contributes_b_to_e() {
        let p = parse("task a { } task b { send c.m; } task c { accept m; }").unwrap();
        let sg = SyncGraph::from_program(&p);
        assert!(sg.control.has_edge(B, E));
    }

    #[test]
    fn raw_builder_allows_untyped_sync_edges() {
        let mut syms = Symbols::new();
        let t0 = syms.intern_task("x");
        let t1 = syms.intern_task("y");
        let sig = syms.intern_signal(t1, "m");
        let mut b = SyncGraphBuilder::new(syms, 2);
        let n0 = b.add_node(t0, Rendezvous::send(sig), None);
        let n1 = b.add_node(t1, Rendezvous::send(sig), None); // same sign!
        b.add_control(B, n0);
        b.add_control(n0, E);
        b.add_control(B, n1);
        b.add_control(n1, E);
        b.add_sync_edge(n0, n1); // not derivable from typing
        let sg = b.build();
        assert!(sg.has_sync_edge(n0, n1));
        assert_eq!(sg.num_sync_edges(), 1);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut syms = Symbols::new();
        let t0 = syms.intern_task("x");
        let t1 = syms.intern_task("y");
        let sig = syms.intern_signal(t1, "m");
        let mut b = SyncGraphBuilder::new(syms, 2);
        let n0 = b.add_node(t0, Rendezvous::send(sig), None);
        let n1 = b.add_node(t1, Rendezvous::accept(sig), None);
        b.add_control(B, n0);
        b.add_control(B, n0);
        b.add_sync_edge(n0, n1);
        b.derive_sync_edges(); // would add {n0, n1} again
        let sg = b.build();
        assert_eq!(sg.control.num_edges(), 1);
        assert_eq!(sg.num_sync_edges(), 1);
    }

    #[test]
    fn task_control_view_isolates_one_task() {
        let sg = fig1_like();
        let t2 = sg.symbols.task("t2").unwrap();
        let view = sg.task_control_view(t2);
        let r = sg.node_by_label("r").unwrap();
        let t = sg.node_by_label("t").unwrap();
        let v = sg.node_by_label("v").unwrap();
        assert!(view.has_edge(B, t));
        assert!(view.has_edge(t, v));
        assert!(!view.has_edge(B, r), "t1 nodes are outside the view");
        assert!(!view.has_edge(r, sg.node_by_label("s").unwrap()));
    }
}
