//! The wait-for graph: the one IR the `.lok` and `.chan` frontends
//! produce, and the one construction that lowers it onto the paper's
//! sync-graph model.
//!
//! A **resource** is something an actor can hold while waiting for
//! another: a mutex (`.lok`) or a channel port (`.chan`). An edge
//! `r1 → r2` records that some actor may hold `r1` (acquired or blocked
//! at `held_span`) while waiting for `r2` (through the op at
//! `wanted_span`). Producers run their own dataflow and record edges
//! through an `EdgeSet`, which keeps the first witness per `(from, to)`
//! pair in walk order.
//!
//! **Grouping.** Resources come in groups of `k`, the length of the
//! producer's [`Scheme::signals`]: resource `r` lowers to signal `r % k`
//! of task `r / k`. `.lok` has `k = 1` (mutex `m` ↦ task `T_m` with
//! signal `held`); `.chan` has `k = 2` (channel `c` ↦ task `T_c` with
//! signals `snd` and `rcv`, one per port). The grouping is not cosmetic:
//! it decides which resources a wave can hold at once (below).
//!
//! **Lowering.** Every task is skippable (a wait pattern may simply never
//! be reached), and every edge `r1 → r2` becomes its own begin-to-end
//! branch of `r1`'s task:
//!
//! ```text
//! b → A(accept sig_r1) → B(send sig_r2) → e
//! ```
//!
//! `A` is the **hold point** ("an actor holds `r1` here") and `B` the
//! **request** ("…while waiting for `r2`"). Sync edges follow the signal
//! typing: every `A` of `r` pairs with every `B` sending `sig_r`, i.e.
//! with every request that waits on `r`. The hold points, in edge order,
//! seed the refined per-head search. A self-edge `r → r` lowers to
//! `A(accept sig_r) → B(send sig_r)` in one task: tasklang's self-send,
//! which the whole stack flags as a one-node deadlock cycle.
//!
//! **Theorem.** For the lowered graph `G` of a wait-for graph `W`:
//!
//! 1. *CLG cycles ⇔ cycles of `W`.* A `B` node's only control successor
//!    is `e`, so a CLG cycle alternates `A_i → B_i` control steps with
//!    `B_i — A_{i+1}` sync steps, and each alternation follows one edge
//!    of `W`; conversely every cycle of `W` lays out such an alternation.
//!    The control edges are loop-free, so no Lemma 1 unrolling is needed.
//! 2. *Oracle deadlocks ⇔ cycles of `W` that hold at most one resource
//!    per lowered task.* On a stuck wave only `A` nodes have outgoing
//!    coupling edges (only `A` has a rendezvous successor), and
//!    `A(r1)`'s couplings follow the edges out of `r1`; so every coupling
//!    cycle, the paper's deadlocked set `D` (Theorem 1), traces a cycle
//!    of `W` whose hold points sit in one wave, one per task. Conversely,
//!    if a cycle's held resources lie in distinct tasks, the wave holding
//!    each of its `A` nodes is reachable (all tasks skippable) and stuck.
//!
//! With `k = 1` every simple cycle holds one resource per task, so (1)
//! and (2) coincide: every rung of the ladder is exact for `.lok`, from
//! the naive CLG check up. With `k = 2` a cycle may pass through both
//! ports of one channel; the oracle rightly cannot realise it (a channel
//! never has blocked senders and blocked receivers at once), but the CLG
//! sees it. So on `.chan` the polynomial rungs may over-report and never
//! under-report. Acyclic graphs still produce stall-only stuck waves,
//! which are benign here (a skippable task that started and found no
//! partner): the oracle runs in deadlock-only mode (`ignore_stalls`).

use iwa_core::{Rendezvous, Span, Symbols, TaskId};
use iwa_graphs::{Csr, GraphBuilder, Scc};
use iwa_syncgraph::{SyncGraph, SyncGraphBuilder, B, E};
use std::collections::{HashSet, VecDeque};

/// How a producer groups its resources into lowered tasks and words the
/// lowered node labels.
#[derive(Debug)]
pub struct Scheme {
    /// The lowered signal of each resource in a group, in resource
    /// order; its length is the group size `k`.
    pub signals: &'static [&'static str],
    /// The display suffix of each resource in a group, same order.
    pub marks: &'static [&'static str],
    /// Hold-point label wording: `"{resource} {held} {actor}"`.
    pub held: &'static str,
    /// Request label wording: `"{resource} {wanted} {actor}"`.
    pub wanted: &'static str,
}

/// One wait-for edge: `actor` may hold resource `from` (at `held_span`)
/// while waiting for resource `to` (through the op at `wanted_span`).
#[derive(Clone, Debug)]
pub struct WaitEdge<T> {
    /// The held resource.
    pub from: usize,
    /// The resource waited for.
    pub to: usize,
    /// The thread or process the pattern occurs in.
    pub actor: String,
    /// Site of the hold (the acquire, or the op blocked at `from`).
    pub held_span: Span,
    /// Site of the waiting op.
    pub wanted_span: Span,
    /// Producer detail for the witness sentence.
    pub tag: T,
}

/// Wait edges in walk order, deduplicated to the first witness per
/// `(from, to)` pair.
#[derive(Debug)]
pub(crate) struct EdgeSet<T> {
    /// The recorded edges.
    pub(crate) edges: Vec<WaitEdge<T>>,
    seen: HashSet<(usize, usize)>,
}

impl<T> EdgeSet<T> {
    /// Record `from → to` unless the pair already has a witness.
    pub(crate) fn add(
        &mut self,
        from: usize,
        to: usize,
        actor: &str,
        held_span: Span,
        wanted_span: Span,
        tag: T,
    ) {
        if self.seen.insert((from, to)) {
            self.edges.push(WaitEdge {
                from,
                to,
                actor: actor.to_owned(),
                held_span,
                wanted_span,
                tag,
            });
        }
    }
}

impl<T> Default for EdgeSet<T> {
    fn default() -> Self {
        EdgeSet {
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }
}

/// One cycle of a [`WaitGraph`], with its witness chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WaitCycle {
    /// The resources on the cycle, from the smallest id; length 1 for a
    /// self-edge.
    pub resources: Vec<usize>,
    /// The edges closing the cycle, as indices into
    /// [`WaitGraph::edges`]: edge `i` goes from `resources[i]` to
    /// `resources[(i + 1) % len]`.
    pub edges: Vec<usize>,
}

/// A wait-for graph: named resource groups and the edges between their
/// resources.
#[derive(Clone, Debug)]
pub struct WaitGraph<T> {
    /// Group names (mutexes, channels), one lowered task each.
    pub groups: Vec<String>,
    /// How resources map onto groups, signals and labels.
    pub scheme: &'static Scheme,
    /// The edges, first witness per `(from, to)` pair in walk order.
    pub edges: Vec<WaitEdge<T>>,
}

impl<T> WaitGraph<T> {
    fn group_size(&self) -> usize {
        self.scheme.signals.len()
    }

    /// The group name and display suffix of resource `r`.
    fn name_parts(&self, r: usize) -> (&str, &str) {
        let k = self.group_size();
        (&self.groups[r / k], self.scheme.marks[r % k])
    }

    /// The display name of resource `r`: its group's name plus its mark
    /// (`a`, or `c!` / `c?` for a channel's send / receive port).
    fn resource_name(&self, r: usize) -> String {
        let (group, mark) = self.name_parts(r);
        format!("{group}{mark}")
    }

    /// Deterministic witness cycles: one per self-edge, plus one per
    /// non-trivial strong component, found by a shortest-cycle BFS from
    /// the component's smallest resource with successors in edge order.
    /// Sorted by resource list; byte-stable across runs.
    #[must_use]
    pub fn cycles(&self) -> Vec<WaitCycle> {
        let mut g: GraphBuilder<u32> =
            GraphBuilder::with_nodes(self.groups.len() * self.group_size());
        for (i, e) in self.edges.iter().enumerate() {
            g.add_edge(e.from, e.to, i as u32);
        }
        let g = g.freeze();
        let scc = Scc::compute(&g, None);

        // Self-edges first: each deadlocks on its own, even inside a
        // larger component.
        let mut out: Vec<WaitCycle> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.from == e.to)
            .map(|(i, e)| WaitCycle {
                resources: vec![e.from],
                edges: vec![i],
            })
            .collect();
        for comp in scc.nontrivial_components(&g) {
            // A single node is only non-trivial through a self-edge,
            // which was already emitted above.
            if comp.len() < 2 {
                continue;
            }
            let start = comp.iter().copied().min().expect("non-empty") as usize;
            out.push(self.shortest_cycle_from(&g, &comp, start));
        }
        out.sort_by(|a, b| a.resources.cmp(&b.resources));
        out
    }

    /// Shortest cycle through `start` staying inside `comp`, successors
    /// in edge order (the CSR keeps per-source insertion order, which is
    /// walk order — deterministic).
    fn shortest_cycle_from(&self, g: &Csr<u32>, comp: &[u32], start: usize) -> WaitCycle {
        let in_comp = |v: usize| comp.contains(&(v as u32));
        // BFS over edges from `start`; parent[v] = edge index used to
        // first reach v.
        let mut parent: Vec<Option<u32>> = vec![None; g.num_nodes()];
        let mut queue = VecDeque::from([start]);
        let mut closing: Option<u32> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for (&v, &eidx) in g.successors(u).iter().zip(g.successor_labels(u)) {
                let v = v as usize;
                // Self-edges are reported as their own length-1 cycles.
                if v == u {
                    continue;
                }
                if v == start {
                    closing = Some(eidx);
                    break 'bfs;
                }
                if in_comp(v) && parent[v].is_none() {
                    parent[v] = Some(eidx);
                    queue.push_back(v);
                }
            }
        }
        let closing = closing.expect("a non-trivial SCC has a cycle through every member");
        let mut edges = vec![closing as usize];
        let mut cur = self.edges[edges[0]].from;
        while cur != start {
            let eidx = parent[cur].expect("BFS reached every chain node") as usize;
            edges.push(eidx);
            cur = self.edges[eidx].from;
        }
        edges.reverse();
        WaitCycle {
            resources: edges.iter().map(|&i| self.edges[i].from).collect(),
            edges,
        }
    }

    /// Render cycle `c` as its resource ring followed by one `site`
    /// sentence per edge: `a → b → a (site; site)`.
    #[must_use]
    pub fn render_cycle(&self, c: &WaitCycle, site: impl Fn(&WaitEdge<T>) -> String) -> String {
        let ring: Vec<String> = c
            .resources
            .iter()
            .chain(c.resources.first())
            .map(|&r| self.resource_name(r))
            .collect();
        let sites: Vec<String> = c.edges.iter().map(|&i| site(&self.edges[i])).collect();
        format!("{} ({})", ring.join(" → "), sites.join("; "))
    }

    /// Lower the graph to a sync graph (module docs). Returns the graph
    /// and the hold-point (`A`) node indices in edge order — the head
    /// seeds for the refined analysis, which cover every possible head.
    ///
    /// Interning order is all tasks first, then the signals of each task
    /// in resource order, so `signals[r]` is resource `r`'s signal.
    #[must_use]
    pub fn lower(&self) -> (SyncGraph, Vec<usize>) {
        let k = self.group_size();
        let mut symbols = Symbols::new();
        let tasks: Vec<TaskId> = self
            .groups
            .iter()
            .map(|name| symbols.intern_task(name))
            .collect();
        let mut signals = Vec::with_capacity(tasks.len() * k);
        for &t in &tasks {
            for s in self.scheme.signals {
                signals.push(symbols.intern_signal(t, s));
            }
        }

        let mut builder = SyncGraphBuilder::new(symbols, tasks.len());
        for &t in &tasks {
            builder.mark_task_skippable(t);
        }
        let mut seeds = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let label = |r: usize, word: &str| {
                let (group, mark) = self.name_parts(r);
                Some(format!("{group}{mark} {word} {}", e.actor))
            };
            let task = tasks[e.from / k];
            let a = builder.add_node_full(
                task,
                Rendezvous::accept(signals[e.from]),
                label(e.from, self.scheme.held),
                Vec::new(),
                None,
                None,
                e.held_span,
            );
            let b = builder.add_node_full(
                task,
                Rendezvous::send(signals[e.to]),
                label(e.to, self.scheme.wanted),
                Vec::new(),
                None,
                None,
                e.wanted_span,
            );
            builder.add_control(B, a);
            builder.add_control(a, b);
            builder.add_control(b, E);
            seeds.push(a);
        }
        builder.derive_sync_edges();
        (builder.build(), seeds)
    }
}

/// A loaded wait-graph model, as the engine ladder and the cross-checks
/// read it. `.lok` and `.chan` models implement it.
pub trait WaitModel {
    /// The lowered sync graph and its head seeds.
    fn lowered(&self) -> (&SyncGraph, &[usize]);
    /// The wait graph's deterministic witness cycles.
    fn cycles(&self) -> &[WaitCycle];
    /// Whether the model is free of livelock witnesses (`.lok` always
    /// is); a livelock makes the model anomalous whatever the graph says.
    fn livelock_free(&self) -> bool {
        true
    }
    /// The witness sentences, rendered on demand: one per cycle, then one
    /// per livelock.
    fn witnesses(&self) -> Vec<String>;
}

#[cfg(test)]
mod tests {
    use crate::{registry, Lang, LoadedModel};
    use iwa_analysis::{naive_analysis, AnalysisCtx, RefinedOptions, Tier};
    use iwa_wavesim::{explore, ExploreConfig, Verdict};

    fn load(lang: Lang, src: &str) -> LoadedModel {
        registry::by_lang(lang).load(src).unwrap()
    }

    fn deadlock_only() -> ExploreConfig {
        ExploreConfig {
            ignore_stalls: true,
            ..ExploreConfig::default()
        }
    }

    /// `(language, program, length of its one cycle)`; `None` = acyclic.
    const CASES: &[(Lang, &str, Option<usize>)] = &[
        // ABBA.
        (
            Lang::Lok,
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with b { lock a; unlock a; } }",
            Some(2),
        ),
        // Ordered acquisition.
        (
            Lang::Lok,
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with a { lock b; unlock b; } }",
            None,
        ),
        // Double lock: a self-edge.
        (Lang::Lok, "thread t { lock a; lock a; unlock a; }", Some(1)),
        // Three-mutex ring.
        (
            Lang::Lok,
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with b { lock c; unlock c; } }
             thread t3 { with c { lock a; unlock a; } }",
            Some(3),
        ),
        // Crossed pair.
        (
            Lang::Chan,
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv b; recv a; }",
            Some(2),
        ),
        // Pipeline order.
        (
            Lang::Chan,
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv a; recv b; }",
            None,
        ),
        // Self-rendezvous: a self-edge.
        (Lang::Chan, "chan a; proc p { send a; recv a; }", Some(1)),
        // Three-process ring.
        (
            Lang::Chan,
            "chan c0; chan c1; chan c2;
             proc p0 { send c0; recv c2; }
             proc p1 { send c1; recv c0; }
             proc p2 { send c2; recv c1; }",
            Some(3),
        ),
        // Bounded hand-off: no edges at all, an empty clean graph.
        (
            Lang::Chan,
            "chan q[2];
             proc p1 { send q; send q; }
             proc p2 { recv q; recv q; }",
            None,
        ),
    ];

    /// Both producers, every rung: the wait graph's cycles are what the
    /// naive check, the seeded refined search and the deadlock-only
    /// oracle all see (one resource per task on every cycle here).
    #[test]
    fn every_rung_agrees_with_the_wait_graph() {
        let ctx = AnalysisCtx::builder().build();
        for &(lang, src, cycle) in CASES {
            let model = load(lang, src);
            let m = model.as_wait().unwrap();
            let (sg, seeds) = m.lowered();
            let lens: Vec<usize> = m.cycles().iter().map(|c| c.resources.len()).collect();
            assert_eq!(lens, Vec::from_iter(cycle), "{src}");
            let deadlock = cycle.is_some();
            assert_eq!(!naive_analysis(sg).deadlock_free, deadlock, "naive: {src}");
            let refined = ctx
                .refined_seeded(sg, seeds, &RefinedOptions::default())
                .unwrap();
            assert_eq!(!refined.deadlock_free, deadlock, "refined: {src}");
            let e = explore(sg, &deadlock_only()).unwrap();
            assert_eq!(e.verdict == Verdict::Anomalous, deadlock, "oracle: {src}");
            assert_eq!(e.has_deadlock(), deadlock, "oracle: {src}");
        }
    }

    /// `b → A → B → e` only: one hold point and one request per edge,
    /// every rendezvous carries its op site, every hold point's sole
    /// successor is its request, and the generic head scan proposes
    /// nothing but hold points (a request's sole successor is `e`), so
    /// seeding them loses nothing.
    #[test]
    fn lowered_graphs_are_control_loop_free_with_real_spans() {
        for &(lang, src, _) in CASES {
            let model = load(lang, src);
            let (sg, seeds) = model.as_wait().unwrap().lowered();
            assert_eq!(sg.num_rendezvous(), 2 * seeds.len(), "{src}");
            for n in sg.rendezvous_nodes() {
                assert!(sg.node(n).span.is_real(), "node {n} lost its span: {src}");
            }
            for &a in seeds {
                let succs = sg.control.successors(a);
                assert_eq!(succs.len(), 1, "{src}");
                assert!(sg.is_rendezvous(succs[0] as usize), "{src}");
            }
            for h in sg.poss_heads() {
                assert!(
                    seeds.contains(&h),
                    "poss_head {h} is not a hold point: {src}"
                );
            }
        }
    }

    /// The theorem's second half: a `.chan` cycle through both ports of
    /// channel `a` is a CLG cycle, so every polynomial rung flags it, but
    /// no wave holds both of task `T_a`'s hold points, so the oracle finds
    /// no deadlock. It is right: the program terminates (p1 and p3 meet
    /// on `a`, then `b` and `c` pair up, then p2 and p4 meet on `a`).
    #[test]
    fn a_cycle_through_both_ports_of_one_channel_is_no_deadlock() {
        let model = load(
            Lang::Chan,
            "chan a; chan b; chan c;
             proc p1 { send a; send b; }
             proc p2 { recv b; send a; }
             proc p3 { recv a; send c; }
             proc p4 { recv c; recv a; }",
        );
        let m = model.as_wait().unwrap();
        let (sg, seeds) = m.lowered();
        // a! → b? → a? → c? → a!: ports 0 and 1 are both channel a's.
        let [c] = m.cycles() else {
            panic!("one cycle: {:?}", m.cycles())
        };
        assert_eq!(c.resources, [0, 3, 1, 5]);
        assert!(!naive_analysis(sg).deadlock_free);
        let ctx = AnalysisCtx::builder().build();
        for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
            let opts = RefinedOptions {
                tier,
                ..RefinedOptions::default()
            };
            assert!(!ctx.refined_seeded(sg, seeds, &opts).unwrap().deadlock_free);
        }
        assert_eq!(
            explore(sg, &deadlock_only()).unwrap().verdict,
            Verdict::AnomalyFree
        );
    }
}
