//! The one cycle location graph against a test-only copy of the plain CLG
//! builder it replaced, and the exact cycle checker against a copy of its
//! old walk over that plain graph.
//!
//! The port CLG must present the paper's CLG exactly: the same node and
//! edge counts, the same successor lists in the same order with the same
//! edge kinds, the same SCC membership with and without a ban mask, and
//! the same naive components. The exact checker must find the same cycles
//! in the same order, report the same `complete` and `scanned`, and charge
//! the same budget steps, also when a soft or hard budget cuts it short.
//! Inputs: generated loopy programs and their Lemma 1 unrollings,
//! generated balanced programs, Theorem 2 and 3 instances, and the paper's
//! figures.

use iwa::analysis::exact::{ConstraintSet, ExactBudget, SeqRelation};
use iwa::analysis::{naive_analysis, AnalysisCtx, CoexecInfo, FinishOrder, SequenceInfo};
use iwa::core::{Budget, IwaError};
use iwa::frontend::{registry, Lang};
use iwa::graphs::{BitSet, Csr, GraphBuilder, Scc};
use iwa::reductions::{theorem2_program, theorem3_graph};
use iwa::sat::Cnf;
use iwa::syncgraph::dot::clg_dot;
use iwa::syncgraph::{PortClg, SyncGraph, B, E, FIRST_RV};
use iwa::tasklang::parse;
use iwa::tasklang::transforms::unroll_twice;
use iwa::workloads::figures::all_figures;
use iwa::workloads::{random_balanced, random_structured, BalancedConfig, StructuredConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Edge provenance in the plain CLG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Internal,
    Control,
    Sync,
}

/// The plain CLG builder as it was: the paper's six steps, `r_o`/`r_i` at
/// `2 + 2k`/`3 + 2k`, every edge labelled with its kind.
struct PlainClg {
    graph: Csr<Kind>,
}

impl PlainClg {
    fn build(sg: &SyncGraph) -> PlainClg {
        let mut graph = GraphBuilder::with_nodes(2 + 2 * sg.num_rendezvous());
        for r in sg.rendezvous_nodes() {
            graph.add_edge(out_node(r), in_node(r), Kind::Internal);
        }
        for (u, v, ()) in sg.control.edges() {
            match (u, v) {
                (B, E) => graph.add_edge(B, E, Kind::Control),
                (B, v) => graph.add_edge(B, out_node(v), Kind::Control),
                (u, E) => graph.add_edge(in_node(u), E, Kind::Control),
                (u, v) => graph.add_edge(in_node(u), out_node(v), Kind::Control),
            }
        }
        for r in sg.rendezvous_nodes() {
            for &s in sg.sync_neighbors(r) {
                let s = s as usize;
                if r < s {
                    graph.add_edge(out_node(r), in_node(s), Kind::Sync);
                    graph.add_edge(out_node(s), in_node(r), Kind::Sync);
                }
            }
        }
        PlainClg {
            graph: graph.freeze(),
        }
    }

    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }
}

fn out_node(r: usize) -> usize {
    2 + 2 * (r - FIRST_RV)
}

fn in_node(r: usize) -> usize {
    out_node(r) + 1
}

fn sync_node_of(c: usize) -> usize {
    if c < 2 {
        c
    } else {
        FIRST_RV + (c - 2) / 2
    }
}

fn is_in_node(c: usize) -> bool {
    c >= 2 && (c - 2) % 2 == 1
}

/// The port-CLG index of plain-CLG node `c`.
fn to_port(pg: &PortClg, c: usize) -> usize {
    match c {
        B | E => c,
        c if is_in_node(c) => pg.in_node(sync_node_of(c)),
        c => pg.out_node(sync_node_of(c)),
    }
}

/// The kind of paper-CLG edge `u → v`, read from the port CLG's node roles.
fn port_kind(pg: &PortClg, u: usize, v: usize) -> Kind {
    if pg.is_sync_edge(u, v) {
        Kind::Sync
    } else if pg.is_in_node(v) {
        Kind::Internal
    } else {
        Kind::Control
    }
}

/// The naive check's components, computed as it did on the plain CLG.
fn plain_naive_components(sg: &SyncGraph) -> Vec<Vec<usize>> {
    let clg = PlainClg::build(sg);
    let reachable = clg.graph.reachable_from(B);
    let scc = Scc::compute(&clg.graph, Some(&reachable));
    let mut components = Vec::new();
    for members in scc.nontrivial_components(&clg.graph) {
        if members.iter().any(|&m| !reachable.contains(m as usize)) {
            continue;
        }
        let mut nodes: Vec<usize> = members.iter().map(|&m| sync_node_of(m as usize)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        components.push(nodes);
    }
    components.sort();
    components
}

/// One exact run's observable outcome: `(cycles as (heads, nodes),
/// complete, scanned)` or the budget error's `(limit, steps, items)`, plus
/// the steps and items charged to the budget.
type ExactOutcome = (
    Result<(Vec<(Vec<usize>, Vec<usize>)>, bool, usize), (usize, u64, usize)>,
    u64,
    u64,
);

fn tripped(e: IwaError) -> (usize, u64, usize) {
    match e {
        IwaError::BudgetExceeded {
            limit,
            steps,
            items,
            ..
        } => (limit, steps, items),
        other => panic!("unexpected error {other}"),
    }
}

/// The exact checker as it was: the constraint-pruning DFS over the plain
/// CLG, one step and one budget checkpoint per CLG edge.
fn plain_exact(
    sg: &SyncGraph,
    constraints: &ConstraintSet,
    limits: &ExactBudget,
    wallclock: &Budget,
) -> ExactOutcome {
    let clg = PlainClg::build(sg);
    let seq = constraints.c3a.map(|_| SequenceInfo::compute(sg));
    let finish = match (constraints.c3a, &seq) {
        (Some(SeqRelation::FinishBeforeStart), Some(seq)) => Some(FinishOrder::compute(sg, seq)),
        _ => None,
    };
    let cx = constraints.c3b.then(|| CoexecInfo::compute(sg));
    let n = clg.num_nodes();
    let mut search = PlainSearch {
        sg,
        clg: &clg,
        constraints,
        seq: seq.as_ref(),
        finish: finish.as_ref(),
        cx: cx.as_ref(),
        limits,
        wallclock,
        budget_err: None,
        cycles: Vec::new(),
        scanned: 0,
        steps: 0,
        truncated: false,
        on_path: BitSet::new(n),
        allowed: BitSet::new(n),
        path: Vec::new(),
        heads: Vec::new(),
        sync_nodes: Vec::new(),
    };
    for root in 2..n {
        if search.truncated {
            break;
        }
        let fwd = clg.graph.reachable_from_filtered(root, |_, v, _| v >= root);
        let mut rev = BitSet::new(n);
        let mut stack = vec![root];
        rev.insert(root);
        while let Some(u) = stack.pop() {
            for &p in clg.graph.predecessors(u) {
                let p = p as usize;
                if p >= root && rev.insert(p) {
                    stack.push(p);
                }
            }
        }
        let mut allowed = fwd;
        allowed.intersect_with(&rev);
        if allowed.count() <= 1 {
            continue;
        }
        search.allowed = allowed;
        search.on_path.insert(root);
        search.path.push(root);
        search.dfs(root, root);
        search.path.pop();
        search.on_path.remove(root);
    }
    let result = match search.budget_err {
        Some(e) => Err(tripped(e)),
        None => Ok((search.cycles, !search.truncated, search.scanned)),
    };
    (result, wallclock.steps(), wallclock.items())
}

struct PlainSearch<'a> {
    sg: &'a SyncGraph,
    clg: &'a PlainClg,
    constraints: &'a ConstraintSet,
    seq: Option<&'a SequenceInfo>,
    finish: Option<&'a FinishOrder>,
    cx: Option<&'a CoexecInfo>,
    limits: &'a ExactBudget,
    wallclock: &'a Budget,
    budget_err: Option<IwaError>,
    cycles: Vec<(Vec<usize>, Vec<usize>)>,
    scanned: usize,
    steps: usize,
    truncated: bool,
    on_path: BitSet,
    allowed: BitSet,
    path: Vec<usize>,
    heads: Vec<usize>,
    sync_nodes: Vec<usize>,
}

impl PlainSearch<'_> {
    fn head_ok(&self, h: usize) -> bool {
        for &other in &self.heads {
            if self.constraints.c1c && self.sg.node(h).task == self.sg.node(other).task {
                return false;
            }
            if self.constraints.c2 && self.sg.has_sync_edge(h, other) {
                return false;
            }
            let ordered = match self.constraints.c3a {
                Some(SeqRelation::WaveExclusion) => {
                    self.seq.unwrap().wave_exclusive(self.sg, h, other)
                }
                Some(SeqRelation::FinishBeforeStart) => {
                    self.finish.unwrap().paper_sequenceable(self.sg, h, other)
                }
                None => false,
            };
            if ordered {
                return false;
            }
        }
        true
    }

    fn node_ok(&self, n: usize) -> bool {
        !self.constraints.c3b
            || self
                .sync_nodes
                .iter()
                .all(|&m| !self.cx.unwrap().not_coexec(self.sg, n, m))
    }

    fn dfs(&mut self, u: usize, root: usize) {
        if self.truncated {
            return;
        }
        for idx in 0..self.clg.graph.out_degree(u) {
            if self.truncated {
                return;
            }
            let v = self.clg.graph.successors(u)[idx] as usize;
            let kind = self.clg.graph.successor_labels(u)[idx];
            self.steps += 1;
            if self.steps >= self.limits.max_steps {
                self.truncated = true;
                return;
            }
            if let Err(e) = self
                .wallclock
                .checkpoint("enumerating exact deadlock cycles")
            {
                self.budget_err = Some(e);
                self.truncated = true;
                return;
            }
            if v < root || (v != root && !self.allowed.contains(v)) {
                continue;
            }
            if v == root {
                let closes_as_head = kind == Kind::Sync && is_in_node(root);
                let root_sync = sync_node_of(root);
                if closes_as_head && !self.head_ok(root_sync) {
                    continue;
                }
                let mut heads = self.heads.clone();
                if closes_as_head {
                    heads.push(root_sync);
                }
                if heads.is_empty() {
                    continue;
                }
                let mut nodes: Vec<usize> = self
                    .path
                    .iter()
                    .map(|&c| sync_node_of(c))
                    .filter(|&n| self.sg.is_rendezvous(n))
                    .collect();
                nodes.sort_unstable();
                nodes.dedup();
                self.cycles.push((heads, nodes));
                self.scanned += 1;
                self.wallclock.record_items(1);
                if self.cycles.len() >= self.limits.max_witnesses
                    || self.scanned >= self.limits.max_scanned
                {
                    self.truncated = true;
                    return;
                }
                continue;
            }
            if self.on_path.contains(v) {
                continue;
            }
            let v_sync = sync_node_of(v);
            let is_new_head = kind == Kind::Sync && is_in_node(v);
            if is_new_head && !self.head_ok(v_sync) {
                continue;
            }
            let is_new_sync_node =
                self.sg.is_rendezvous(v_sync) && !self.sync_nodes.contains(&v_sync);
            if is_new_sync_node && !self.node_ok(v_sync) {
                continue;
            }
            if is_new_head {
                self.heads.push(v_sync);
            }
            if is_new_sync_node {
                self.sync_nodes.push(v_sync);
            }
            self.on_path.insert(v);
            self.path.push(v);
            self.dfs(v, root);
            self.path.pop();
            self.on_path.remove(v);
            if is_new_sync_node {
                self.sync_nodes.pop();
            }
            if is_new_head {
                self.heads.pop();
            }
        }
    }
}

/// `AnalysisCtx::exact_cycles` under `wallclock`, in [`ExactOutcome`] form.
fn port_exact(
    sg: &SyncGraph,
    constraints: &ConstraintSet,
    limits: &ExactBudget,
    wallclock: &Budget,
) -> ExactOutcome {
    let ctx = AnalysisCtx::builder().budget(wallclock.clone()).build();
    let result = ctx
        .exact_cycles(sg, constraints, limits)
        .map(|r| {
            let cycles = r.cycles.into_iter().map(|w| (w.heads, w.nodes)).collect();
            (cycles, r.complete, r.scanned)
        })
        .map_err(tripped);
    (result, wallclock.steps(), wallclock.items())
}

/// The paper's counts, successor lists (order and kinds), and naive
/// components agree.
fn check_graph(sg: &SyncGraph) -> Result<(), TestCaseError> {
    let plain = PlainClg::build(sg);
    let pg = PortClg::build(sg);
    prop_assert_eq!(pg.clg_nodes(), plain.num_nodes());
    prop_assert_eq!(pg.clg_edges(), plain.graph.num_edges());
    let paper_nodes: Vec<usize> = (0..pg.num_nodes()).filter(|&u| !pg.is_port(u)).collect();
    let mapped: Vec<usize> = (0..plain.num_nodes()).map(|c| to_port(&pg, c)).collect();
    prop_assert_eq!(&paper_nodes, &mapped);
    for c in 0..plain.num_nodes() {
        let want: Vec<(usize, Kind)> = plain
            .graph
            .successors(c)
            .iter()
            .zip(plain.graph.successor_labels(c))
            .map(|(&v, &k)| (to_port(&pg, v as usize), k))
            .collect();
        let u = to_port(&pg, c);
        let got: Vec<(usize, Kind)> = pg
            .clg_successors(u)
            .map(|v| (v, port_kind(&pg, u, v)))
            .collect();
        prop_assert_eq!(got, want, "successors of plain node {}", c);
    }
    prop_assert_eq!(
        naive_analysis(sg).cycle_components,
        plain_naive_components(sg)
    );
    Ok(())
}

/// SCC membership of every `r_o`/`r_i` node agrees, unmasked and with the
/// refined search's bans: a sync-out ban, a sync-in ban and do-not-enter,
/// as port masks on one side and as edge and node filters of the plain CLG
/// on the other.
fn check_scc(sg: &SyncGraph, rng: &mut StdRng) -> Result<(), TestCaseError> {
    let plain = PlainClg::build(sg);
    let pg = PortClg::build(sg);
    let n = sg.num_nodes();
    for round in 0..4 {
        let mut out_banned = BitSet::new(n);
        let mut in_banned = BitSet::new(n);
        let mut dne = BitSet::new(n);
        if round > 0 {
            for r in sg.rendezvous_nodes() {
                match rng.gen_range(0..6) {
                    0 => out_banned.insert(r),
                    1 => in_banned.insert(r),
                    2 => dne.insert(r),
                    _ => false,
                };
            }
        }
        let filtered = plain.graph.filtered(
            |c| c < 2 || !dne.contains(sync_node_of(c)),
            |u, v, kind| {
                *kind != Kind::Sync
                    || !(out_banned.contains(sync_node_of(u))
                        || in_banned.contains(sync_node_of(v)))
            },
        );
        let mut mask = BitSet::full(pg.num_nodes());
        for r in sg.rendezvous_nodes() {
            if dne.contains(r) {
                for x in [
                    pg.out_node(r),
                    pg.in_node(r),
                    pg.sync_out_port(r),
                    pg.sync_in_port(r),
                ] {
                    mask.remove(x);
                }
            }
            if out_banned.contains(r) {
                mask.remove(pg.sync_out_port(r));
            }
            if in_banned.contains(r) {
                mask.remove(pg.sync_in_port(r));
            }
        }
        let scc_plain = Scc::compute(&filtered, None);
        let scc_port = Scc::compute(&pg.graph, Some(&mask));
        for a in 2..plain.num_nodes() {
            let pa = to_port(&pg, a);
            if dne.contains(sync_node_of(a)) {
                continue;
            }
            prop_assert_eq!(
                scc_plain.in_nontrivial_component(&filtered, a),
                scc_port.in_nontrivial_component(&pg.graph, pa),
                "round {} node {}",
                round,
                a
            );
            for b in 2..plain.num_nodes() {
                if dne.contains(sync_node_of(b)) {
                    continue;
                }
                prop_assert_eq!(
                    scc_plain.same_component(a, b),
                    scc_port.same_component(pa, to_port(&pg, b)),
                    "round {} nodes {} {}",
                    round,
                    a,
                    b
                );
            }
        }
    }
    Ok(())
}

fn constraint_sets() -> [ConstraintSet; 5] {
    [
        ConstraintSet::c1_only(),
        ConstraintSet::c1_and_2(),
        ConstraintSet::c1_and_3a(),
        ConstraintSet::all(),
        ConstraintSet {
            c1c: false,
            c2: false,
            c3a: None,
            c3b: true,
        },
    ]
}

/// Soft budgets from roomy to tight, so some runs stop on each limit.
fn limits() -> [ExactBudget; 4] {
    let roomy = ExactBudget {
        max_steps: 20_000,
        ..ExactBudget::default()
    };
    [
        roomy,
        ExactBudget {
            max_steps: 40,
            ..roomy
        },
        ExactBudget {
            max_scanned: 2,
            ..roomy
        },
        ExactBudget {
            max_witnesses: 1,
            ..roomy
        },
    ]
}

/// Exact results and budget charges agree, under every constraint set
/// and soft budget, and under hard step ceilings that trip mid-walk.
fn check_exact(sg: &SyncGraph) -> Result<(), TestCaseError> {
    for cs in &constraint_sets() {
        for lim in &limits() {
            let want = plain_exact(sg, cs, lim, &Budget::unlimited());
            let got = port_exact(sg, cs, lim, &Budget::unlimited());
            prop_assert_eq!(&got, &want, "{:?} {:?}", cs, lim);
            // Hard ceilings inside the walk: the trip lands on the same
            // edge with the same progress counters.
            let steps = want.1;
            for ceiling in [steps / 3, steps / 2 + 1] {
                if ceiling == 0 || ceiling >= steps {
                    continue;
                }
                let want = plain_exact(sg, cs, lim, &Budget::with_max_steps(ceiling));
                let got = port_exact(sg, cs, lim, &Budget::with_max_steps(ceiling));
                prop_assert!(want.0.is_err(), "ceiling {} trips", ceiling);
                prop_assert_eq!(&got, &want, "{:?} {:?} ceiling {}", cs, lim, ceiling);
            }
        }
    }
    Ok(())
}

fn check_all(sg: &SyncGraph, seed: u64) -> Result<(), TestCaseError> {
    check_graph(sg)?;
    check_scc(sg, &mut StdRng::seed_from_u64(seed))?;
    check_exact(sg)
}

fn loopy(seed: u64, tasks: usize) -> iwa::tasklang::Program {
    random_structured(
        &mut StdRng::seed_from_u64(seed),
        &StructuredConfig {
            tasks,
            rendezvous_per_task: 3,
            branch_prob: 0.25,
            loop_prob: 0.25,
            message_types: 2,
        },
    )
}

fn cnf(seed: u64, vars: usize, clauses: usize) -> Cnf {
    Cnf::random_3cnf(&mut StdRng::seed_from_u64(seed), vars, clauses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Loopy programs as written: control cycles reach the CLG.
    #[test]
    fn port_clg_matches_plain_on_loopy_programs(seed in 0u64..1_000_000, tasks in 2usize..5) {
        let sg = SyncGraph::from_program(&loopy(seed, tasks));
        check_all(&sg, seed)?;
    }

    /// The same family after Lemma 1 unrolling, as `certify` analyses
    /// it.
    #[test]
    fn port_clg_matches_plain_on_unrolled_programs(seed in 0u64..1_000_000, tasks in 2usize..4) {
        let sg = SyncGraph::from_program(&unroll_twice(&loopy(seed, tasks)));
        check_all(&sg, seed)?;
    }

    /// Balanced straight-line programs, where crossed waits are real.
    #[test]
    fn port_clg_matches_plain_on_balanced_programs(seed in 0u64..1_000_000, swaps in 0usize..8) {
        let p = random_balanced(
            &mut StdRng::seed_from_u64(seed),
            &BalancedConfig { tasks: 3, events: 6, message_types: 2, swaps },
        );
        check_all(&SyncGraph::from_program(&p), seed)?;
    }

    /// Theorem 2 programs and Theorem 3 raw graphs over random 3-CNFs.
    #[test]
    fn port_clg_matches_plain_on_reductions(seed in 0u64..1_000_000, clauses in 1usize..4) {
        let f = cnf(seed, 3, clauses);
        check_all(&SyncGraph::from_program(&theorem2_program(&f)), seed)?;
        check_all(&theorem3_graph(&f), seed)?;
    }
}

#[test]
fn port_clg_matches_plain_on_the_figures() {
    for (name, p) in all_figures() {
        let sg = SyncGraph::from_program(&p);
        check_all(&sg, 7).unwrap_or_else(|e| panic!("{name}: {e}"));
        let unrolled = SyncGraph::from_program(&unroll_twice(&p));
        check_all(&unrolled, 7).unwrap_or_else(|e| panic!("{name} unrolled: {e}"));
    }
}

/// A Theorem 3 instance whose exact walk is long enough for a soft step
/// limit alone to end it.
#[test]
fn the_soft_step_limit_ends_both_walks_on_the_same_edge() {
    let sg = theorem3_graph(&cnf(11, 4, 6));
    let lim = ExactBudget {
        max_steps: 5_000,
        max_scanned: usize::MAX,
        max_witnesses: usize::MAX,
    };
    let want = plain_exact(&sg, &ConstraintSet::c1_only(), &lim, &Budget::unlimited());
    let got = port_exact(&sg, &ConstraintSet::c1_only(), &lim, &Budget::unlimited());
    assert!(
        matches!(&want.0, Ok((_, false, _))),
        "the step limit must cut the walk"
    );
    assert_eq!(got, want);
}

/// The DOT id `clg_dot` gives paper-CLG node `c`.
fn dot_id(pg: &PortClg, c: usize) -> String {
    match c {
        B => "b".into(),
        E => "e".into(),
        c if pg.is_in_node(c) => format!("n{}_i", pg.sync_node_of(c)),
        c => format!("n{}_o", pg.sync_node_of(c)),
    }
}

/// Rendezvous that share a label: `guarded.lok` lowers to two nodes
/// labelled `a held by t1` and two labelled `c wanted by t1`, and the
/// second program names both sends `x`. Each CLG node must stay its own
/// DOT node, and the drawing must show exactly the CLG's edges, in order.
#[test]
fn clg_dot_keeps_rendezvous_that_share_a_label_apart() {
    let guarded = registry::by_lang(Lang::Lok)
        .load(include_str!("../corpus/locks/guarded.lok"))
        .unwrap()
        .sync_graph();
    let dup = SyncGraph::from_program(
        &parse("task a { send b.m as x; send b.m as x; } task b { accept m; accept m; }").unwrap(),
    );
    for sg in [guarded, dup] {
        let pg = PortClg::build(&sg);
        let dot = clg_dot(&sg, &pg);
        let mut nodes = BTreeSet::new();
        let mut labels = BTreeSet::new();
        let mut edges = Vec::new();
        for line in dot.lines().map(str::trim) {
            let head = line.split(" [").next().unwrap().trim_end_matches(';');
            if let Some((u, v)) = head.split_once(" -> ") {
                nodes.extend([u.to_owned(), v.to_owned()]);
                edges.push((u.to_owned(), v.to_owned()));
            } else if let Some(label) = line
                .strip_prefix(head)
                .and_then(|l| l.strip_prefix(" [label="))
            {
                nodes.insert(head.to_owned());
                labels.insert(label.to_owned());
            }
        }
        assert!(
            labels.len() < 2 * sg.num_rendezvous(),
            "labels collide:\n{dot}"
        );
        assert_eq!(nodes.len(), 2 + 2 * sg.num_rendezvous(), "{dot}");
        let want: Vec<(String, String)> = (0..pg.num_nodes())
            .filter(|&u| !pg.is_port(u))
            .flat_map(|u| pg.clg_successors(u).map(move |v| (u, v)))
            .map(|(u, v)| (dot_id(&pg, u), dot_id(&pg, v)))
            .collect();
        assert_eq!(edges, want);
    }
}
