//! The refined algorithm (paper §4.2) and its extensions.
//!
//! For each hypothesised head node `h` the algorithm marks nodes that
//! cannot participate in a deadlock cycle headed by `h` and searches the
//! filtered CLG for a strong component containing `h_i`:
//!
//! * nodes `SEQUENCEABLE` with `h` can never share a wave with `h`, so they
//!   cannot be **heads** — their sync *entries* (`k_i`) are banned. Their
//!   sync *exits* stay: the paper notes tails may legitimately be ordered
//!   with heads, so banning `k_o` too (the pseudocode's broadest reading)
//!   would be unsound; that strict reading is available behind
//!   [`RefinedOptions::strict_sequenceable_marking`] for the precision
//!   study only.
//! * `COACCEPT[h]` nodes are banned in **both** directions: a cycle
//!   entering a task through one accept of a type and leaving through
//!   another of the same type has rendezvous-able head nodes (Lemma 2) and
//!   is spurious under constraint 2.
//! * `NOT-COEXEC[h]` nodes cannot appear in any run blocking at `h`
//!   (constraint 3b) and are cut out entirely (`DO-NOT-ENTER`).
//!
//! If no hypothesised head survives in a non-trivial strong component the
//! program is certified deadlock-free. Cost: the paper's bound is one
//! `O(|N| + |E|)` SCC pass per head — `O(|N_CLG| · (|N_CLG| + |E_CLG|))`
//! total. This implementation does better in the common case: it computes
//! **one** shared SCC decomposition of the port-expanded CLG
//! ([`iwa_syncgraph::PortClg`]) up front, refutes for free every hypothesis
//! whose witness nodes sit in trivial or differing shared components
//! (masked components only ever refine the unmasked ones) before building
//! any ban set, and answers each remaining hypothesis from that
//! decomposition when none of its banned ports lies in the witnesses'
//! shared component. Only the rest search the graph, and only from the
//! first witness, over that component's unbanned nodes
//! ([`Scc::rooted_component`]). The certify driver builds the port CLG and
//! this decomposition once and reads the naive check from them too. The
//! `SEQUENCEABLE` and `NOT-COEXEC` tables are read only to mark the CLG
//! for a hypothesis that survives free refutation, so they are built when
//! the first one does: a program whose CLG has no cycle through a head
//! never builds them.
//!
//! The extensions (paper §4.2's bullet list) trade time for precision:
//! [`Tier::HeadPairs`] confirms each flagged head with a second
//! hypothesised head (both mark sets applied; constraint 2 and 3a checked
//! directly on the pair), and [`Tier::HeadTails`] confirms each flagged
//! head with an explicit tail hypothesis. Both fall back to the base
//! verdict for single-task (self-coupled) components, since a deadlock
//! cycle may have a single head (footnote 6's caution).

use crate::coexec::CoexecInfo;
use crate::ctx::AnalysisCtx;
use crate::sequence::{FinishOrder, SequenceInfo};
use iwa_core::obs::Counters;
use iwa_core::{pool, IwaError};
use iwa_graphs::{BitSet, Scc};
use iwa_syncgraph::{PortClg, SyncGraph};
use std::sync::OnceLock;

/// Which accuracy/cost point of the paper's spectrum to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Tier {
    /// Base algorithm: hypothesise single head nodes.
    #[default]
    Heads,
    /// Confirm every flagged head with a second head hypothesis.
    HeadPairs,
    /// Confirm every flagged head with an explicit tail hypothesis.
    HeadTails,
}

/// Options for [`AnalysisCtx::refined`].
#[derive(Clone, Copy, Debug)]
pub struct RefinedOptions {
    /// The accuracy/cost tier.
    pub tier: Tier,
    /// Use the `SEQUENCEABLE[h]` marking (ablation switch; default on).
    pub use_sequenceable: bool,
    /// Use the `COACCEPT[h]` marking (ablation switch; default on).
    pub use_coaccept: bool,
    /// Use the `NOT-COEXEC[h]` pruning (ablation switch; default on).
    pub use_not_coexec: bool,
    /// Derive additional **cross-task** NOT-COEXEC facts from encapsulated
    /// condition variables (§5.1): opposite-polarity guards over provably
    /// equal booleans are mutually exclusive. Off by default (our
    /// extension; sound under the single-assignment encapsulated-boolean
    /// discipline, exercised by experiment E17).
    pub use_condition_coexec: bool,
    /// Mark `SEQUENCEABLE[h]` nodes NO-SYNC on both `k_i` and `k_o`
    /// (the pseudocode's literal reading). **Unsound** — kept only so the
    /// precision/safety experiments can demonstrate why the `k_i`-only
    /// reading is the right one.
    pub strict_sequenceable_marking: bool,
    /// Build `SEQUENCEABLE[h]` from the paper's literal finish-before-start
    /// relation instead of wave exclusion. **Unsound** (the crossed
    /// deadlock's heads are finish-before-start ordered); kept for the
    /// safety experiments.
    pub paper_sequence_relation: bool,
    /// Apply the constraint-4 post-pass (paper §3, Figure 3 — "methods of
    /// applying constraint 4 more generally are under investigation").
    /// Off by default (it is our extension, not the paper's algorithm).
    ///
    /// A node `t` is **rescued** when some *initial* node `w` of another
    /// task has a sync edge to `t` and every *other* sync partner of `w`
    /// fires strictly after `t`: while `t` sits unexecuted on a wave, `w`
    /// must still be sitting on its own task's initial position (none of
    /// its partners can have fired), so the two can always rendezvous and
    /// the wave advances — `t` can never be WAITING on an anomalous wave.
    /// Rescued nodes are removed from the head hypotheses and their sync
    /// entries are banned in every search. Certifies Figure 3.
    ///
    /// **Contract: only on a program's own sync graph, not on a Lemma-1
    /// unrolled image.** Unrolling preserves deadlock *cycles* but not
    /// deadlock *waves* (the fuzzer exhibits loopy programs whose `T(P)`
    /// has no semantic deadlock at all while `P` deadlocks); a rescue is a
    /// wave-semantic fact about the analysed graph, so on `T(P)` it can
    /// kill the only cycle witnessing `P`'s deadlock. The certify driver
    /// applies it only to programs that needed no unrolling.
    pub apply_constraint4: bool,
}

impl Default for RefinedOptions {
    fn default() -> Self {
        RefinedOptions {
            tier: Tier::Heads,
            use_sequenceable: true,
            use_coaccept: true,
            use_not_coexec: true,
            use_condition_coexec: false,
            strict_sequenceable_marking: false,
            paper_sequence_relation: false,
            apply_constraint4: false,
        }
    }
}

/// One surviving (potential) deadlock.
#[derive(Clone, Debug)]
pub struct FlaggedHead {
    /// The hypothesised head node (sync-graph index).
    pub head: usize,
    /// The confirming second hypothesis, when a pair/tail tier was used:
    /// a second head (`HeadPairs`) or a tail node (`HeadTails`).
    pub partner: Option<usize>,
    /// Sync-graph nodes of the strong component that witnessed the cycle.
    pub component: Vec<usize>,
}

/// Result of the refined analysis.
#[derive(Clone, Debug)]
pub struct RefinedResult {
    /// No hypothesis survived: certified deadlock-free.
    pub deadlock_free: bool,
    /// The surviving hypotheses (empty iff `deadlock_free`).
    pub flagged: Vec<FlaggedHead>,
    /// Number of SCC passes, the paper's per-head unit of cost (a
    /// diagnostic): the shared whole-graph pass, plus one masked search per
    /// hypothesis that free refutation does not dismiss. A masked search
    /// counts whether the shared component answers it (no ban inside) or a
    /// search from its witness does.
    pub scc_runs: usize,
}

/// [`AnalysisCtx::refined`] and [`AnalysisCtx::refined_seeded`]: build
/// the port CLG and its shared decomposition, then run the marked
/// searches over `seeds`, or over every possible head when `None`.
///
/// The sync graph should be loop-free in its control edges (apply the
/// Lemma 1 unrolling first — the [`AnalysisCtx::certify`] driver does);
/// with control cycles the result is still safe but every loop is flagged.
///
/// The ctx budget is probed once per head hypothesis and checkpointed once
/// per marked SCC search, so higher tiers (which run more searches) consume
/// proportionally more steps — the property the engine's degradation
/// ladder relies on. `items` in a [`IwaError::BudgetExceeded`] counts SCC
/// runs completed before the trip.
pub(crate) fn refined_impl(
    sg: &SyncGraph,
    seeds: Option<&[usize]>,
    opts: &RefinedOptions,
    ctx: &AnalysisCtx,
) -> Result<RefinedResult, IwaError> {
    let (clg, full) = clg_and_scc(sg, ctx);
    refined_on(sg, &clg, &full, seeds, opts, ctx)
}

/// The port CLG of `sg` and its whole-graph SCC decomposition, each under
/// its own span: the two graphs the naive check and the refined search
/// both read, so one certify call derives each once.
pub(crate) fn clg_and_scc(sg: &SyncGraph, ctx: &AnalysisCtx) -> (PortClg, Scc) {
    let clg = {
        let _span = ctx.span("analysis", "clg");
        PortClg::build(sg)
    };
    let full = shared_scc(&clg, ctx);
    (clg, full)
}

/// The shared decomposition every head hypothesis is checked against: one
/// full SCC pass over the port-expanded CLG.
fn shared_scc(pg: &PortClg, ctx: &AnalysisCtx) -> Scc {
    let _span = ctx.span("analysis", "shared scc");
    Scc::compute(&pg.graph, None)
}

/// The refined analysis over a port CLG and its shared decomposition
/// ([`clg_and_scc`]) the caller already holds. The relation tables are
/// built on first read ([`Tables::OnFirstRead`]): when the first
/// hypothesis survives free refutation, or before the search when an
/// option reads the finish-before-start relation.
pub(crate) fn refined_on(
    sg: &SyncGraph,
    pg: &PortClg,
    full: &Scc,
    seeds: Option<&[usize]>,
    opts: &RefinedOptions,
    ctx: &AnalysisCtx,
) -> Result<RefinedResult, IwaError> {
    let tables = Tables::OnFirstRead(OnceLock::new());
    search_heads(sg, pg, full, &tables, seeds, opts, ctx)
}

/// The `SEQUENCEABLE` and `NOT-COEXEC` tables a search reads.
enum Tables<'a> {
    /// The caller's ([`AnalysisCtx::refined_with`]).
    Given(&'a SequenceInfo, &'a CoexecInfo),
    /// Built as one pair by the first reader, on whichever worker that
    /// is. NOT-COEXEC is built first, so its transient reachability table
    /// is gone before SEQUENCEABLE's two `N × N` matrices exist.
    OnFirstRead(OnceLock<(CoexecInfo, SequenceInfo)>),
}

impl Tables<'_> {
    fn get(
        &self,
        sg: &SyncGraph,
        opts: &RefinedOptions,
        ctx: &AnalysisCtx,
    ) -> (&SequenceInfo, &CoexecInfo) {
        match self {
            Tables::Given(seq, cx) => (seq, cx),
            Tables::OnFirstRead(cell) => {
                let (cx, seq) = cell.get_or_init(|| {
                    let cx = {
                        let _span = ctx.span("analysis", "coexec");
                        if opts.use_condition_coexec {
                            CoexecInfo::compute_with_conditions(sg)
                        } else {
                            CoexecInfo::compute(sg)
                        }
                    };
                    let seq = {
                        let _span = ctx.span("analysis", "sequence");
                        SequenceInfo::compute(sg)
                    };
                    (cx, seq)
                });
                (seq, cx)
            }
        }
    }
}

/// The outcome of one head hypothesis: SCC searches performed, the
/// surviving flag (if any), and the head's deterministic counter delta
/// (committed only if the whole refined call completes).
type HeadOutcome = (usize, Option<FlaggedHead>, Counters);

/// [`AnalysisCtx::refined_with`]: the shared decomposition of `pg`, then
/// the per-head search over the caller's tables.
pub(crate) fn refined_with_impl(
    sg: &SyncGraph,
    pg: &PortClg,
    seq: &SequenceInfo,
    cx: &CoexecInfo,
    opts: &RefinedOptions,
    ctx: &AnalysisCtx,
) -> Result<RefinedResult, IwaError> {
    let full = shared_scc(pg, ctx);
    search_heads(sg, pg, &full, &Tables::Given(seq, cx), None, opts, ctx)
}

/// The per-head search loop over `tables` and `full`, the shared
/// decomposition of `pg`. `seeds` overrides the hypothesis set: frontends
/// that know where deadlock cycles can start (the lock-order lowering's
/// hold-points, for instance) seed exactly those nodes instead of paying
/// the generic [`SyncGraph::poss_heads`] scan over every rendezvous — the
/// searches, pruning rules, and result shape are identical either way.
///
/// Heads are independent by construction — each hypothesis searches its
/// own filtered copy of the CLG — so they fan out across the ctx's
/// workers. Results merge in head order, making the output byte-identical
/// for any worker count; the shared budget keeps the overall step/time
/// ceiling exact across workers (clones share counters).
fn search_heads(
    sg: &SyncGraph,
    pg: &PortClg,
    full: &Scc,
    tables: &Tables<'_>,
    seeds: Option<&[usize]>,
    opts: &RefinedOptions,
    ctx: &AnalysisCtx,
) -> Result<RefinedResult, IwaError> {
    // The finish-before-start relation is read only by the constraint-4
    // rescue and the literal-relation ablation; build it, and the tables
    // it derives from, for them alone before the search.
    let finish = (opts.apply_constraint4
        || (opts.use_sequenceable && opts.paper_sequence_relation))
        .then(|| {
            let (seq, _) = tables.get(sg, opts, ctx);
            let _span = ctx.span("analysis", "finish order");
            FinishOrder::compute(sg, seq)
        });
    let rescued = match (&finish, opts.apply_constraint4) {
        (Some(finish), true) => constraint4_rescued(sg, finish),
        _ => Vec::new(),
    };
    // Constraint-4 rescued nodes can never be WAITING on an anomalous
    // wave, so they are dropped from the hypothesis list up front.
    let heads: Vec<usize> = match seeds {
        Some(s) => s.iter().copied().filter(|h| !rescued.contains(h)).collect(),
        None => sg
            .poss_heads()
            .into_iter()
            .filter(|h| !rescued.contains(h))
            .collect(),
    };

    // The sync nodes of each non-trivial shared component, the answer to
    // every hypothesis whose bans miss its witnesses' component.
    let full_sync_nodes: Vec<(usize, Vec<usize>)> = full
        .components()
        .enumerate()
        .filter(|(_, m)| m.len() > 1)
        .map(|(c, m)| (c, sync_nodes_of(sg, pg, m)))
        .collect();
    // The head-pair tier's second-head candidates: POSS-HEADS minus the
    // rescued nodes.
    let mut second_heads = BitSet::new(sg.num_nodes());
    if opts.tier == Tier::HeadPairs {
        for h in sg.poss_heads() {
            second_heads.insert(h);
        }
        for &t in &rescued {
            second_heads.remove(t);
        }
    }
    let search = Search {
        sg,
        pg,
        full,
        full_sync_nodes: &full_sync_nodes,
        second_heads: &second_heads,
        tables,
        finish: finish.as_ref(),
        opts,
        rescued: &rescued,
        ctx,
    };

    let mut search_span = ctx
        .span("analysis", "head search")
        .map(|s| s.arg("heads", heads.len() as u64));
    let (outcomes, pool_stats) = pool::try_map_stats(ctx.num_workers(), heads.len(), |i| {
        search.examine_head(heads[i])
    });
    // Steal counts are scheduling-dependent by nature; recording them
    // even for a tripped run keeps the quarantined sched stats honest.
    ctx.record_steals(pool_stats.steals);
    let outcomes: Vec<HeadOutcome> = outcomes?;

    let mut runs = 1usize; // the shared full pass
    let mut flagged = Vec::new();
    let mut delta = Counters {
        clg_nodes: pg.clg_nodes() as u64,
        clg_edges: pg.clg_edges() as u64,
        constraint4_rescues: rescued.len() as u64,
        pool_tasks: pool_stats.tasks,
        scc_runs: 1,
        ..Counters::default()
    };
    for (head_runs, flag, head_delta) in outcomes {
        runs += head_runs;
        flagged.extend(flag);
        delta.absorb(&head_delta);
    }
    if let Some(span) = &mut search_span {
        span.note("scc_runs", runs as u64);
    }
    drop(search_span);
    // Commit-on-completion: a tripped call (above `?`) commits nothing.
    ctx.commit_metrics(&delta);
    Ok(RefinedResult {
        deadlock_free: flagged.is_empty(),
        flagged,
        scc_runs: runs,
    })
}

/// The shared, immutable tables every head hypothesis reads. Hypotheses
/// touch nothing else but the ctx's shared budget, so they fan out across
/// workers freely.
struct Search<'a> {
    sg: &'a SyncGraph,
    pg: &'a PortClg,
    /// The shared SCC decomposition of `pg`.
    full: &'a Scc,
    /// Each non-trivial component of `full` with its sorted sync nodes,
    /// in component order.
    full_sync_nodes: &'a [(usize, Vec<usize>)],
    /// The second heads the head-pair tier may try (empty at other tiers).
    second_heads: &'a BitSet,
    /// Read only once a hypothesis survives free refutation.
    tables: &'a Tables<'a>,
    /// `S`, present only when an option reads it.
    finish: Option<&'a FinishOrder>,
    opts: &'a RefinedOptions,
    /// Constraint-4 rescued nodes (empty unless the post-pass is on).
    rescued: &'a [usize],
    ctx: &'a AnalysisCtx,
}

impl Search<'_> {
    /// `SEQUENCEABLE` and `NOT-COEXEC`, built if no reader has yet.
    fn tables(&self) -> (&SequenceInfo, &CoexecInfo) {
        self.tables.get(self.sg, self.opts, self.ctx)
    }

    /// Examine one head hypothesis end to end: the base marked search plus
    /// any pair/tail confirmation the tier asks for. This is the unit of
    /// parallel work.
    fn examine_head(&self, h: usize) -> Result<HeadOutcome, IwaError> {
        let sg = self.sg;
        let budget = self.ctx.budget();
        budget.probe("refined head hypotheses")?;
        let _span = self
            .ctx
            .trace()
            .map(|t| t.span("refined", format!("head {h}")));
        let mut delta = Counters {
            heads_examined: 1,
            ..Counters::default()
        };
        // Only masked searches count here; hypotheses the shared
        // decomposition refutes outright cost zero runs.
        let mut runs = 0usize;
        let Some(component) = self.marked_search(&[h], None, &mut runs, &mut delta)? else {
            delta.scc_runs = runs as u64;
            return Ok((runs, None, delta)); // h certified
        };
        let single_task = component
            .iter()
            .all(|&n| sg.node(n).task == sg.node(h).task);
        let flag = match self.opts.tier {
            Tier::Heads => Some(FlaggedHead {
                head: h,
                partner: None,
                component,
            }),
            _ if single_task => {
                // A deadlock cycle may have a single head (self-coupling);
                // pair/tail confirmation does not apply (footnote 6).
                Some(FlaggedHead {
                    head: h,
                    partner: None,
                    component,
                })
            }
            Tier::HeadPairs => self
                .confirm_with_second_head(h, &component, &mut runs, &mut delta)?
                .map(|(h2, comp2)| FlaggedHead {
                    head: h,
                    partner: Some(h2),
                    component: comp2,
                }),
            Tier::HeadTails => self
                .confirm_with_tail(h, &component, &mut runs, &mut delta)?
                .map(|(t, comp2)| FlaggedHead {
                    head: h,
                    partner: Some(t),
                    component: comp2,
                }),
        };
        delta.scc_runs = runs as u64;
        Ok((runs, flag, delta))
    }

    /// The marked SCC search shared by all tiers, answered incrementally
    /// against the shared full decomposition.
    ///
    /// `heads` is the hypothesis set (1 or 2 heads). `tail` switches to the
    /// head–tail marking discipline (no `COACCEPT` marks; `NOT-COEXEC` of
    /// both `h` and the tail). Returns the sync-graph nodes of the strong
    /// component containing every required witness node, or `None` when
    /// the hypothesis dies.
    ///
    /// Because masking only ever *shrinks* components, a hypothesis whose
    /// witnesses sit in trivial or differing components of `full` is
    /// refuted first, with no graph work and no ban set at all. Otherwise
    /// the ban sets are sync-node-indexed bit rows unioned in whole 64-bit
    /// words from the [`SequenceInfo`]/[`CoexecInfo`] tables, then
    /// translated to the banned ports: all four of a do-not-enter node's,
    /// and the sync-in or sync-out port of a node banned in that
    /// direction. One masked search runs (`runs` counts it), restricted to
    /// the witnesses' shared component: when no banned port lies in that
    /// component the answer is the component itself, and when one does,
    /// the first witness's component among the unbanned members is
    /// searched from that witness alone.
    fn marked_search(
        &self,
        heads: &[usize],
        tail: Option<usize>,
        runs: &mut usize,
        delta: &mut Counters,
    ) -> Result<Option<Vec<usize>>, IwaError> {
        let (sg, pg, full, opts) = (self.sg, self.pg, self.full, self.opts);
        let budget = self.ctx.budget();
        // One checkpoint per marked search: the unit of work the paper's
        // cost bound counts, and the step currency of the engine's rung
        // budgets.
        budget.checkpoint("refined marked SCC search")?;
        budget.record_items(1);

        // Every witness must sit in one common non-trivial component —
        // first of the *shared* decomposition (free refutation), then of
        // the masked one.
        let mut witnesses: Vec<usize> = heads.iter().map(|&h| pg.in_node(h)).collect();
        if let Some(t) = tail {
            witnesses.push(pg.out_node(t));
        }
        let first = witnesses[0];
        let full_comp = full.component_of(first);
        // The port CLG has no self-loops, so non-trivial ⇔ >1 member.
        if full.members(full_comp).len() <= 1 {
            return Ok(None);
        }
        if !witnesses.iter().all(|&w| full.same_component(first, w)) {
            return Ok(None);
        }
        *runs += 1;

        let (seq, cx) = self.tables();
        let n = sg.num_nodes();
        let mut sync_in_banned = BitSet::new(n);
        let mut sync_out_banned = BitSet::new(n);
        let mut do_not_enter = BitSet::new(n);

        // Constraint-4 rescued nodes can never be WAITING on an anomalous
        // wave, hence never be heads of any deadlock cycle.
        for &t in self.rescued {
            sync_in_banned.insert(t);
        }
        for &h in heads {
            if opts.use_sequenceable {
                if opts.paper_sequence_relation {
                    // Ablation path: the (unsound) literal relation has no
                    // precomputed rows; mark scalar.
                    let finish = self
                        .finish
                        .expect("built when paper_sequence_relation is on");
                    for k in sg.rendezvous_nodes() {
                        if !finish.paper_sequenceable(sg, h, k) {
                            continue;
                        }
                        delta.sequenceable_hits += 1;
                        sync_in_banned.insert(k);
                        if opts.strict_sequenceable_marking {
                            sync_out_banned.insert(k);
                        }
                    }
                } else {
                    let row = seq.wave_exclusive_row(h);
                    delta.sequenceable_hits += row.count() as u64;
                    sync_in_banned.union_with(row);
                    if opts.strict_sequenceable_marking {
                        sync_out_banned.union_with(row);
                    }
                }
            }
            if opts.use_coaccept && tail.is_none() {
                for k in sg.coaccept(h) {
                    delta.coaccept_hits += 1;
                    sync_in_banned.insert(k);
                    sync_out_banned.insert(k);
                }
            }
            if opts.use_not_coexec {
                let row = cx.not_coexec_row(h);
                delta.not_coexec_hits += row.count() as u64;
                do_not_enter.union_with(row);
            }
        }
        if let Some(t) = tail {
            if opts.use_not_coexec {
                let row = cx.not_coexec_row(t);
                delta.not_coexec_hits += row.count() as u64;
                do_not_enter.union_with(row);
            }
        }
        // The hypothesis nodes themselves must stay searchable.
        for &h in heads {
            sync_in_banned.remove(h);
            do_not_enter.remove(h);
        }
        if let Some(t) = tail {
            sync_out_banned.remove(t);
            do_not_enter.remove(t);
        }

        // The masked subgraph is the witnesses' shared component minus the
        // banned ports. A component is strongly connected through its own
        // members alone, so bans that all fall outside it leave it whole.
        let in_comp = |v: usize| full.component_of(v) == full_comp;
        let ports = do_not_enter
            .iter_ones()
            .flat_map(|k| {
                [
                    pg.out_node(k),
                    pg.in_node(k),
                    pg.sync_out_port(k),
                    pg.sync_in_port(k),
                ]
            })
            .chain(sync_in_banned.iter_ones().map(|k| pg.sync_in_port(k)))
            .chain(sync_out_banned.iter_ones().map(|k| pg.sync_out_port(k)));
        let mut banned = BitSet::new(pg.num_nodes());
        let mut touched = false;
        for port in ports {
            banned.insert(port);
            touched |= in_comp(port);
        }
        if !touched {
            let i = self
                .full_sync_nodes
                .binary_search_by_key(&full_comp, |&(c, _)| c)
                .expect("every non-trivial component is listed");
            return Ok(Some(self.full_sync_nodes[i].1.clone()));
        }
        let members =
            Scc::rooted_component(&pg.graph, first, |v| in_comp(v) && !banned.contains(v));
        if members.len() <= 1 {
            return Ok(None);
        }
        if !witnesses.iter().all(|&w| members.contains(&(w as u32))) {
            return Ok(None);
        }
        Ok(Some(sync_nodes_of(sg, pg, &members)))
    }

    /// Head-pair confirmation: some second head in `component` must survive
    /// a jointly marked search together with `h`.
    fn confirm_with_second_head(
        &self,
        h: usize,
        component: &[usize],
        runs: &mut usize,
        delta: &mut Counters,
    ) -> Result<Option<(usize, Vec<usize>)>, IwaError> {
        let sg = self.sg;
        for &h2 in component {
            self.ctx
                .budget()
                .checkpoint("head-pair confirmation candidates")?;
            if h2 == h || !self.second_heads.contains(h2) {
                continue;
            }
            // Constraint 2: heads must not rendezvous with each other.
            if sg.has_sync_edge(h, h2) {
                continue;
            }
            // Constraint 3a/3b on the pair itself.
            let (seq, cx) = self.tables();
            if seq.wave_exclusive(sg, h, h2) || cx.not_coexec(sg, h, h2) {
                continue;
            }
            if let Some(comp2) = self.marked_search(&[h, h2], None, runs, delta)? {
                return Ok(Some((h2, comp2)));
            }
        }
        Ok(None)
    }

    /// Head–tail confirmation: some control descendant of `h` must survive
    /// as the task's exit point.
    fn confirm_with_tail(
        &self,
        h: usize,
        component: &[usize],
        runs: &mut usize,
        delta: &mut Counters,
    ) -> Result<Option<(usize, Vec<usize>)>, IwaError> {
        let sg = self.sg;
        let coaccept = sg.coaccept(h);
        let mut in_component = BitSet::new(sg.num_nodes());
        for &n in component {
            in_component.insert(n);
        }
        // Strict control descendants of h (within its task).
        let mut descendants = BitSet::new(sg.num_nodes());
        for &v in sg.control.successors(h) {
            let v = v as usize;
            if sg.is_rendezvous(v) {
                descendants.union_with(&sg.control.reachable_from(v));
            }
        }
        for t in sg.rendezvous_nodes() {
            self.ctx
                .budget()
                .checkpoint("head-tail confirmation candidates")?;
            if !descendants.contains(t) || !in_component.contains(t) {
                continue;
            }
            if sg.sync_neighbors(t).is_empty() {
                continue; // a tail must leave via a sync edge
            }
            if coaccept.contains(&t) || self.tables().1.not_coexec(sg, h, t) {
                continue; // paper's eligibility conditions
            }
            if let Some(comp2) = self.marked_search(&[h], Some(t), runs, delta)? {
                return Ok(Some((t, comp2)));
            }
        }
        Ok(None)
    }
}

/// The rendezvous nodes among port-CLG nodes `members`, sorted and
/// deduplicated: the sync-graph form of a witness component.
pub(crate) fn sync_nodes_of(sg: &SyncGraph, pg: &PortClg, members: &[u32]) -> Vec<usize> {
    let mut sync_nodes: Vec<usize> = members
        .iter()
        .map(|&m| pg.sync_node_of(m as usize))
        .filter(|&n| sg.is_rendezvous(n))
        .collect();
    sync_nodes.sort_unstable();
    sync_nodes.dedup();
    sync_nodes
}

/// Constraint-4 rescue set (see [`RefinedOptions::apply_constraint4`]).
///
/// The rescuer `w` must be its task's **unique** starting node (the only
/// control successor of `b` in that task, with no rendezvous-free path to
/// `e`): with branching, an initial node is merely one of several
/// first-node options, and a task that *may* start elsewhere — or slip
/// straight to `e` — guarantees nothing. The safety fuzzer caught exactly
/// this on an unrolled loop whose body could be skipped.
fn constraint4_rescued(sg: &SyncGraph, finish: &FinishOrder) -> Vec<usize> {
    use iwa_syncgraph::B;
    // Per task: its starting options (control successors of b).
    let mut starts: Vec<Vec<usize>> = vec![Vec::new(); sg.num_tasks];
    for &v in sg.control.successors(B) {
        let v = v as usize;
        if sg.is_rendezvous(v) {
            starts[sg.node(v).task.index()].push(v);
        }
    }
    let unique_start = |w: usize| {
        let task = sg.node(w).task;
        starts[task.index()] == [w] && !sg.task_skippable(task)
    };
    let mut rescued = Vec::new();
    for t in sg.rendezvous_nodes() {
        let t_task = sg.node(t).task;
        let found = sg.rendezvous_nodes().any(|w| {
            w != t
                && sg.node(w).task != t_task
                && unique_start(w)
                && sg.has_sync_edge(w, t)
                && sg
                    .sync_neighbors(w)
                    .iter()
                    .all(|&q| q as usize == t || finish.finishes_before(t, q as usize))
        });
        if found {
            rescued.push(t);
        }
    }
    rescued
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    /// [`AnalysisCtx::refined`] on a default ctx.
    fn refined_analysis(sg: &SyncGraph, opts: &RefinedOptions) -> RefinedResult {
        AnalysisCtx::builder().build().refined(sg, opts).unwrap()
    }

    fn run(src: &str, tier: Tier) -> (SyncGraph, RefinedResult) {
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let r = refined_analysis(
            &sg,
            &RefinedOptions {
                tier,
                ..RefinedOptions::default()
            },
        );
        (sg, r)
    }

    /// Reconstruction of the paper's Figure 1 (the exact listing is not
    /// recoverable from the text): t1 sends sig1 then accepts sig2; t2
    /// accepts sig1 on either branch of a conditional, sends sig2 back,
    /// and accepts sig1 once more. The CLG contains the spurious cycle
    /// {r, s, v, w} the paper describes; r can rendezvous with t, u and w.
    const FIG1: &str = "task t1 { send t2.sig1 as r; accept sig2 as s; }
         task t2 {
            if { accept sig1 as t; } else { accept sig1 as u; }
            send t1.sig2 as v;
            accept sig1 as w;
         }";

    const CROSSED: &str =
        "task t1 { send t2.a as sa; accept b as rb; } task t2 { send t1.b as sb; accept a as ra; }";

    #[test]
    fn figure_1_is_certified_where_naive_fails() {
        let (_, naive_sg) = (0, crate::naive::naive_analysis(&SyncGraph::from_program(
            &parse(FIG1).unwrap(),
        )));
        assert!(!naive_sg.deadlock_free, "naive flags Figure 1");
        for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
            let (_, r) = run(FIG1, tier);
            assert!(r.deadlock_free, "refined({tier:?}) certifies Figure 1");
        }
    }

    #[test]
    fn real_deadlock_is_flagged_at_every_tier() {
        for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
            let (sg, r) = run(CROSSED, tier);
            assert!(!r.deadlock_free, "tier {tier:?} must not miss");
            let f = &r.flagged[0];
            assert!(f.component.contains(&sg.node_by_label("sa").unwrap()));
            assert!(f.component.contains(&sg.node_by_label("sb").unwrap()));
        }
    }

    #[test]
    fn strict_marking_is_demonstrably_unsound() {
        let sg = SyncGraph::from_program(&parse(CROSSED).unwrap());
        let r = refined_analysis(
            &sg,
            &RefinedOptions {
                strict_sequenceable_marking: true,
                ..RefinedOptions::default()
            },
        );
        // The tails of the crossed deadlock are ordered with the opposite
        // heads; banning their sync exits kills the *real* cycle.
        assert!(
            r.deadlock_free,
            "strict marking misses the crossed deadlock — which is why it is not the default"
        );
    }

    #[test]
    fn paper_sequence_relation_is_demonstrably_unsound() {
        // Even with the sound k_i-only marking, building SEQUENCEABLE from
        // the finish-before-start relation bans the crossed deadlock's
        // second head (sb is finish-ordered after sa) and misses the bug.
        let sg = SyncGraph::from_program(&parse(CROSSED).unwrap());
        let r = refined_analysis(
            &sg,
            &RefinedOptions {
                paper_sequence_relation: true,
                ..RefinedOptions::default()
            },
        );
        assert!(
            r.deadlock_free,
            "finish-before-start marking certifies a deadlocking program"
        );
    }

    #[test]
    fn branch_exclusive_heads_are_killed_by_not_coexec() {
        // Figure 4(c) flavour: the only CLG cycle threads *both* arms of
        // t's conditional (a1/s1 on one, a2/s2 on the other), which is
        // impossible in any single run. The paper (§3.1.2): such cycles are
        // "at least partially suppressed by the methods of Section 4.2" —
        // partially: hypotheses headed *inside* the conditional die from
        // NOT-COEXEC, but heads in other tasks still see the cycle, so the
        // program as a whole stays (conservatively) flagged at every tier.
        let src = "task t {
                if { accept p as a1; send u.q as s1; }
                else { accept r as a2; send w.s as s2; }
             }
             task u { accept q as uq; send t.r as us; }
             task w { accept s as ws; send t.p as wp; }";
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        assert!(!crate::naive::naive_analysis(&sg).deadlock_free);
        let r = refined_analysis(&sg, &RefinedOptions::default());
        assert!(!r.deadlock_free, "other heads keep the flag (conservative)");
        let a1 = sg.node_by_label("a1").unwrap();
        let a2 = sg.node_by_label("a2").unwrap();
        assert!(
            r.flagged.iter().all(|f| f.head != a1 && f.head != a2),
            "hypotheses headed on the exclusive arms are suppressed"
        );
        // The exact checker with constraint 3b proves no valid cycle exists.
        let ex = AnalysisCtx::builder()
            .build()
            .exact_cycles(
                &sg,
                &crate::exact::ConstraintSet::all(),
                &crate::exact::ExactBudget::default(),
            )
            .unwrap();
        assert!(ex.complete && !ex.any());
    }

    #[test]
    fn coaccept_marking_and_pairs_on_lemma2_cycles() {
        // Balanced 2×2 producer/consumer: the CLG cycle enters q at accept
        // a1 and exits at the same-type accept a2 — Lemma 2's spurious
        // shape (its heads a1 and s0 could rendezvous). Hypothesis h=a1
        // dies from the COACCEPT marking; hypothesis h=s0 has no co-accepts
        // to mark and survives, so the *base* tier stays flagged — and the
        // head-pair tier finishes the job by enforcing constraint 2 on the
        // pair (s0, a1) directly.
        let src = "task p { send q.m as s0; send q.m as s1; }
             task q { accept m as a1; accept m as a2; }";
        let (sg, base) = run(src, Tier::Heads);
        assert!(!base.deadlock_free, "base tier is conservative here");
        let a1 = sg.node_by_label("a1").unwrap();
        assert!(
            base.flagged.iter().all(|f| f.head != a1),
            "COACCEPT kills the accept-headed hypothesis"
        );
        let (_, pairs) = run(src, Tier::HeadPairs);
        assert!(pairs.deadlock_free, "pair tier certifies (Lemma 2 + constraint 2)");
    }

    #[test]
    fn self_send_is_flagged_even_by_pair_tiers() {
        for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
            let (_, r) = run("task t { send t.m; accept m; }", tier);
            assert!(!r.deadlock_free, "tier {tier:?}");
        }
    }

    #[test]
    fn three_task_ring_is_flagged_at_every_tier() {
        let src = "task a { send b.x; accept z; }
             task b { send c.y; accept x; }
             task c { send a.z; accept y; }";
        for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
            let (_, r) = run(src, tier);
            assert!(!r.deadlock_free, "tier {tier:?}");
        }
    }

    #[test]
    fn higher_tiers_cost_more_scc_runs() {
        let (_, base) = run(CROSSED, Tier::Heads);
        let (_, pairs) = run(CROSSED, Tier::HeadPairs);
        assert!(pairs.scc_runs >= base.scc_runs);
    }

    const FIG3: &str = "task p { accept a as r; send q.b as s; }
         task q { accept b as t; send p.a as u; accept b as v; }
         task w_task { send q.b as w; }";

    #[test]
    fn constraint4_certifies_figure3() {
        let sg = SyncGraph::from_program(&parse(FIG3).unwrap());
        let without = refined_analysis(&sg, &RefinedOptions::default());
        assert!(!without.deadlock_free, "local tiers flag Figure 3");
        let with = refined_analysis(
            &sg,
            &RefinedOptions {
                apply_constraint4: true,
                ..RefinedOptions::default()
            },
        );
        assert!(with.deadlock_free, "constraint 4 breaks the r,s,t,u cycle");
    }

    #[test]
    fn constraint4_does_not_break_safety_on_real_deadlocks() {
        for src in [
            CROSSED,
            "task a { send b.x; accept z; }
             task b { send c.y; accept x; }
             task c { send a.z; accept y; }",
            "task t { send t.m; accept m; }",
        ] {
            let sg = SyncGraph::from_program(&parse(src).unwrap());
            let r = refined_analysis(
                &sg,
                &RefinedOptions {
                    apply_constraint4: true,
                    ..RefinedOptions::default()
                },
            );
            assert!(!r.deadlock_free, "constraint 4 must not mask: {src}");
        }
    }

    #[test]
    fn constraint4_requires_the_rescuer_to_be_initial() {
        // Like Figure 3, but w's send is behind another rendezvous: w is
        // not always ready, so t is *not* rescued and the flag stays.
        let src = "task p { accept a as r; send q.b as s; }
             task q { accept b as t; send p.a as u; accept b as v; }
             task w_task { accept gate; send q.b as w; }
             task g { send w_task.gate; }";
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let r = refined_analysis(
            &sg,
            &RefinedOptions {
                apply_constraint4: true,
                ..RefinedOptions::default()
            },
        );
        // Figure 3 itself is certified under the same options; here w's
        // send sits behind `accept gate`, so it rescues nothing.
        assert!(!r.deadlock_free, "an unready rescuer must not certify");
        let t = sg.node_by_label("t").unwrap();
        assert!(
            r.flagged.iter().any(|f| f.head == t),
            "t keeps its head hypothesis: {:?}",
            r.flagged
        );
    }

    #[test]
    fn condition_coexec_kills_cross_task_contradictory_cycles() {
        // A cycle that needs t's v-true arm together with u's v-false arm,
        // where u's copy of v provably equals t's (carried over signal s).
        // No paper marking sees the contradiction; the §5.1-powered
        // cross-task NOT-COEXEC does.
        let src = "task t {
                send u.s carrying v;
                if (v) { accept p as a1; send u.q as s1; }
             }
             task u {
                accept s binding w;
                if (w) { } else { accept q as a2; send x.r as s2; }
             }
             task x {
                accept r as xr;
                send t.p as xp;
             }";
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let base = refined_analysis(
            &sg,
            &RefinedOptions {
                tier: Tier::HeadPairs,
                ..RefinedOptions::default()
            },
        );
        assert!(!base.deadlock_free, "blind to the contradiction");
        // Heads hypothesised *inside* the guarded arms die immediately…
        let with_heads = refined_analysis(
            &sg,
            &RefinedOptions {
                use_condition_coexec: true,
                ..RefinedOptions::default()
            },
        );
        let a1 = sg.node_by_label("a1").unwrap();
        let a2 = sg.node_by_label("a2").unwrap();
        assert!(with_heads
            .flagged
            .iter()
            .all(|f| f.head != a1 && f.head != a2));
        // …and the pair tier finishes the job for the unguarded head in x
        // (its confirming second head is one of the guarded nodes, whose
        // marking then applies).
        let with_pairs = refined_analysis(
            &sg,
            &RefinedOptions {
                tier: Tier::HeadPairs,
                use_condition_coexec: true,
                ..RefinedOptions::default()
            },
        );
        assert!(with_pairs.deadlock_free, "pair tier + condition coexec certifies");
    }

    #[test]
    fn condition_coexec_does_not_mask_real_deadlocks() {
        // The crossed deadlock with irrelevant condition plumbing.
        let src = "task t1 {
                send t2.s carrying v;
                if (v) { send t2.a as sa; accept b as rb; }
             }
             task t2 {
                accept s binding w;
                if (w) { send t1.b as sb; accept a as ra; }
             }";
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let e = iwa_wavesim::explore(&sg, &iwa_wavesim::ExploreConfig::default()).unwrap();
        assert!(e.has_deadlock(), "same-polarity arms can both run and cross");
        let with = refined_analysis(
            &sg,
            &RefinedOptions {
                use_condition_coexec: true,
                ..RefinedOptions::default()
            },
        );
        assert!(!with.deadlock_free);
    }

    #[test]
    fn ablations_disable_their_markings() {
        // Figure 1 is certified only through the SEQUENCEABLE marking (no
        // branching exclusivity, no accept-headed cycle): turning it off
        // re-flags the program, turning off the others does not.
        let sg = SyncGraph::from_program(&parse(FIG1).unwrap());
        let with = |f: fn(&mut RefinedOptions)| {
            let mut o = RefinedOptions::default();
            f(&mut o);
            refined_analysis(&sg, &o).deadlock_free
        };
        assert!(with(|_| {}));
        assert!(!with(|o| o.use_sequenceable = false));
        assert!(with(|o| o.use_coaccept = false));
        assert!(with(|o| o.use_not_coexec = false));

        // Ablations only lose precision, never safety: the crossed
        // deadlock stays flagged with everything off.
        let sg = SyncGraph::from_program(&parse(CROSSED).unwrap());
        let all_off = RefinedOptions {
            use_sequenceable: false,
            use_coaccept: false,
            use_not_coexec: false,
            ..RefinedOptions::default()
        };
        assert!(!refined_analysis(&sg, &all_off).deadlock_free);
    }

    #[test]
    fn certified_programs_report_no_flags() {
        let (_, r) = run(
            "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
            Tier::Heads,
        );
        assert!(r.deadlock_free);
        assert!(r.flagged.is_empty());
        assert!(r.scc_runs >= 1);
    }
}
