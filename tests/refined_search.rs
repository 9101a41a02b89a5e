//! The refined per-head search against a test-only copy of the search it
//! replaced.
//!
//! The copy below is the marked search as it was when every hypothesis
//! that survived free refutation built a port-node mask from its
//! witnesses' shared component minus the banned ports and ran a masked
//! `Scc::compute` over the whole port CLG. Its COACCEPT is a scan over
//! every rendezvous, the pair tier tests its candidates against a fresh
//! POSS-HEADS list and the tail tier against the component list, both by
//! linear search. Constraint 4's rescue set is copied too, since it is
//! private. The copy keeps every budget checkpoint of the original.
//!
//! The copy builds each hypothesis's ban sets before its free-refutation
//! test, and counts their hits into `sequenceable_hits`, `coaccept_hits`
//! and `not_coexec_hits` whether or not that test then dismisses the
//! hypothesis. The search under test refutes first and counts only the
//! bans of hypotheses that reach a masked search, so the copy also tallies
//! the hits of the hypotheses it dismisses, and the search must report
//! the copy's hits minus that tally.
//!
//! For every input, tier, option set, seeding and worker count, the
//! search must report the same verdict, the same flags (head, partner and
//! component), the same `scc_runs`, commit the same counter delta (the
//! three hit counters as above) and charge the same budget steps and
//! items. A step ceiling below the full charge must trip both at the same
//! step, with the same error.
//!
//! Inputs: generated structured programs, unrolled where they loop, and
//! generated balanced and conditioned programs; Theorem 2 and 3
//! instances; the paper's figures; and the lowered `.lok`/`.chan`
//! families `lock_chain`, `lock_mesh`, `chan_ring` and
//! `chan_select_storm` in both flavours.
//!
//! A last test pins when the search builds its relation tables: once, on
//! the first hypothesis that survives free refutation, and never when none
//! does.

use iwa::analysis::{
    AnalysisCtx, CertifyOptions, CoexecInfo, FinishOrder, RefinedOptions, RefinedResult,
    SequenceInfo, Tier,
};
use iwa::core::obs::Counters;
use iwa::core::{Budget, IwaError, Metrics, Sign, TraceSink};
use iwa::frontend::{registry, Lang};
use iwa::graphs::{BitSet, Scc};
use iwa::reductions::{theorem2_program, theorem3_graph};
use iwa::sat::Cnf;
use iwa::syncgraph::{PortClg, SyncGraph, B};
use iwa::tasklang::transforms::unroll_twice;
use iwa::tasklang::Program;
use iwa::workloads::adversarial::rendezvous_mesh;
use iwa::workloads::chan::{chan_ring, chan_select_storm};
use iwa::workloads::figures::{all_figures, fig1};
use iwa::workloads::locks::{lock_chain, lock_mesh};
use iwa::workloads::{
    random_balanced, random_conditioned, random_structured, BalancedConfig, ConditionedConfig,
    StructuredConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// A flag as `(head, partner, component)`.
type Flag = (usize, Option<usize>, Vec<usize>);

/// What one refined call answers: the verdict, the flags and `scc_runs`.
type Answer = (bool, Vec<Flag>, usize);

/// What one refined call answers and charges: its answer (or the budget
/// error as `(what, limit, steps, items)`), the counter delta it
/// committed, and the budget steps and items it consumed.
#[derive(Debug, PartialEq)]
struct Run {
    answer: Result<Answer, (String, usize, u64, usize)>,
    counters: Counters,
    steps: u64,
    items: u64,
}

fn answer_of(r: &RefinedResult) -> Answer {
    (
        r.deadlock_free,
        r.flagged
            .iter()
            .map(|f| (f.head, f.partner, f.component.clone()))
            .collect(),
        r.scc_runs,
    )
}

fn trip_of(e: IwaError) -> (String, usize, u64, usize) {
    match e {
        IwaError::BudgetExceeded {
            what,
            limit,
            steps,
            items,
            ..
        } => (what, limit, steps, items),
        other => panic!("refined failed with {other}"),
    }
}

/// The search under test, through the public entry points.
fn new_run(
    sg: &SyncGraph,
    seeds: Option<&[usize]>,
    opts: &RefinedOptions,
    workers: usize,
    budget: Budget,
) -> Run {
    let metrics = Metrics::new();
    let ctx = AnalysisCtx::builder()
        .budget(budget.clone())
        .workers(workers)
        .metrics(metrics.clone())
        .build();
    let result = match seeds {
        Some(seeds) => ctx.refined_seeded(sg, seeds, opts),
        None => ctx.refined(sg, opts),
    };
    Run {
        answer: result.map(|r| answer_of(&r)).map_err(trip_of),
        counters: metrics.snapshot(),
        steps: budget.steps(),
        items: budget.items(),
    }
}

/// The replaced search: the same tables, then one sequential pass over
/// the heads. Commits its counter delta only on completion, like the
/// original, less the hits of the hypotheses its free refutation
/// dismissed.
fn old_run(sg: &SyncGraph, seeds: Option<&[usize]>, opts: &RefinedOptions, budget: Budget) -> Run {
    let mut counters = Counters::default();
    let answer = old_refined(sg, seeds, opts, &budget).map(|(answer, delta, dismissed)| {
        counters = Counters {
            sequenceable_hits: delta.sequenceable_hits - dismissed.sequenceable_hits,
            coaccept_hits: delta.coaccept_hits - dismissed.coaccept_hits,
            not_coexec_hits: delta.not_coexec_hits - dismissed.not_coexec_hits,
            ..delta
        };
        answer
    });
    Run {
        answer: answer.map_err(trip_of),
        counters,
        steps: budget.steps(),
        items: budget.items(),
    }
}

/// The answer, the counter delta, and the hits counted for hypotheses
/// that free refutation then dismissed.
fn old_refined(
    sg: &SyncGraph,
    seeds: Option<&[usize]>,
    opts: &RefinedOptions,
    budget: &Budget,
) -> Result<(Answer, Counters, Counters), IwaError> {
    let pg = PortClg::build(sg);
    let seq = SequenceInfo::compute(sg);
    let cx = if opts.use_condition_coexec {
        CoexecInfo::compute_with_conditions(sg)
    } else {
        CoexecInfo::compute(sg)
    };
    let finish = (opts.apply_constraint4
        || (opts.use_sequenceable && opts.paper_sequence_relation))
        .then(|| FinishOrder::compute(sg, &seq));
    let rescued = match (&finish, opts.apply_constraint4) {
        (Some(finish), true) => old_constraint4_rescued(sg, finish),
        _ => Vec::new(),
    };
    let heads: Vec<usize> = match seeds {
        Some(s) => s.iter().copied().filter(|h| !rescued.contains(h)).collect(),
        None => sg
            .poss_heads()
            .into_iter()
            .filter(|h| !rescued.contains(h))
            .collect(),
    };
    let full = Scc::compute(&pg.graph, None);
    let search = OldSearch {
        sg,
        pg: &pg,
        full: &full,
        seq: &seq,
        finish: finish.as_ref(),
        cx: &cx,
        opts,
        rescued: &rescued,
        budget,
        dismissed: RefCell::new(Counters::default()),
    };
    let mut runs = 1usize;
    let mut flagged = Vec::new();
    let mut delta = Counters {
        clg_nodes: pg.clg_nodes() as u64,
        clg_edges: pg.clg_edges() as u64,
        constraint4_rescues: rescued.len() as u64,
        pool_tasks: heads.len() as u64,
        scc_runs: 1,
        ..Counters::default()
    };
    for &h in &heads {
        let (head_runs, flag, head_delta) = search.examine_head(h)?;
        runs += head_runs;
        flagged.extend(flag);
        delta.absorb(&head_delta);
    }
    Ok((
        (flagged.is_empty(), flagged, runs),
        delta,
        search.dismissed.into_inner(),
    ))
}

/// `COACCEPT[n]` by a scan over every rendezvous.
fn old_coaccept(sg: &SyncGraph, n: usize) -> Vec<usize> {
    let r = sg.node(n).rendezvous;
    if r.sign != Sign::Minus {
        return Vec::new();
    }
    sg.rendezvous_nodes()
        .filter(|&m| m != n && sg.node(m).rendezvous == r)
        .collect()
}

struct OldSearch<'a> {
    sg: &'a SyncGraph,
    pg: &'a PortClg,
    full: &'a Scc,
    seq: &'a SequenceInfo,
    finish: Option<&'a FinishOrder>,
    cx: &'a CoexecInfo,
    opts: &'a RefinedOptions,
    rescued: &'a [usize],
    budget: &'a Budget,
    /// The hits of the hypotheses free refutation dismissed.
    dismissed: RefCell<Counters>,
}

impl OldSearch<'_> {
    /// Move the hits counted since `before` into the dismissed tally.
    fn dismiss(&self, before: &Counters, delta: &Counters) {
        let mut dismissed = self.dismissed.borrow_mut();
        dismissed.sequenceable_hits += delta.sequenceable_hits - before.sequenceable_hits;
        dismissed.coaccept_hits += delta.coaccept_hits - before.coaccept_hits;
        dismissed.not_coexec_hits += delta.not_coexec_hits - before.not_coexec_hits;
    }

    fn examine_head(&self, h: usize) -> Result<(usize, Option<Flag>, Counters), IwaError> {
        let sg = self.sg;
        self.budget.probe("refined head hypotheses")?;
        let mut delta = Counters {
            heads_examined: 1,
            ..Counters::default()
        };
        let mut runs = 0usize;
        let Some(component) = self.marked_search(&[h], None, &mut runs, &mut delta)? else {
            delta.scc_runs = runs as u64;
            return Ok((runs, None, delta));
        };
        let single_task = component
            .iter()
            .all(|&n| sg.node(n).task == sg.node(h).task);
        let flag = match self.opts.tier {
            Tier::Heads => Some((h, None, component)),
            _ if single_task => Some((h, None, component)),
            Tier::HeadPairs => self
                .confirm_with_second_head(h, &component, &mut runs, &mut delta)?
                .map(|(h2, comp2)| (h, Some(h2), comp2)),
            Tier::HeadTails => self
                .confirm_with_tail(h, &component, &mut runs, &mut delta)?
                .map(|(t, comp2)| (h, Some(t), comp2)),
        };
        delta.scc_runs = runs as u64;
        Ok((runs, flag, delta))
    }

    fn marked_search(
        &self,
        heads: &[usize],
        tail: Option<usize>,
        runs: &mut usize,
        delta: &mut Counters,
    ) -> Result<Option<Vec<usize>>, IwaError> {
        let (sg, pg, full, opts) = (self.sg, self.pg, self.full, self.opts);
        self.budget.checkpoint("refined marked SCC search")?;
        self.budget.record_items(1);
        let before = delta.clone();
        let n = sg.num_nodes();
        let mut sync_in_banned = BitSet::new(n);
        let mut sync_out_banned = BitSet::new(n);
        let mut do_not_enter = BitSet::new(n);
        for &t in self.rescued {
            sync_in_banned.insert(t);
        }
        for &h in heads {
            if opts.use_sequenceable {
                if opts.paper_sequence_relation {
                    let finish = self.finish.expect("built for the literal relation");
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
                    let row = self.seq.wave_exclusive_row(h);
                    delta.sequenceable_hits += row.count() as u64;
                    sync_in_banned.union_with(row);
                    if opts.strict_sequenceable_marking {
                        sync_out_banned.union_with(row);
                    }
                }
            }
            if opts.use_coaccept && tail.is_none() {
                for k in old_coaccept(sg, h) {
                    delta.coaccept_hits += 1;
                    sync_in_banned.insert(k);
                    sync_out_banned.insert(k);
                }
            }
            if opts.use_not_coexec {
                let row = self.cx.not_coexec_row(h);
                delta.not_coexec_hits += row.count() as u64;
                do_not_enter.union_with(row);
            }
        }
        if let Some(t) = tail {
            if opts.use_not_coexec {
                let row = self.cx.not_coexec_row(t);
                delta.not_coexec_hits += row.count() as u64;
                do_not_enter.union_with(row);
            }
        }
        for &h in heads {
            sync_in_banned.remove(h);
            do_not_enter.remove(h);
        }
        if let Some(t) = tail {
            sync_out_banned.remove(t);
            do_not_enter.remove(t);
        }

        let mut witnesses: Vec<usize> = heads.iter().map(|&h| pg.in_node(h)).collect();
        if let Some(t) = tail {
            witnesses.push(pg.out_node(t));
        }
        let first = witnesses[0];
        let full_comp = full.component_of(first);
        if full.members(full_comp).len() <= 1
            || !witnesses.iter().all(|&w| full.same_component(first, w))
        {
            self.dismiss(&before, delta);
            return Ok(None);
        }

        let mut mask = BitSet::new(pg.num_nodes());
        for &m in full.members(full_comp) {
            mask.insert(m as usize);
        }
        for k in do_not_enter.iter_ones() {
            mask.remove(pg.out_node(k));
            mask.remove(pg.in_node(k));
            mask.remove(pg.sync_out_port(k));
            mask.remove(pg.sync_in_port(k));
        }
        for k in sync_in_banned.iter_ones() {
            mask.remove(pg.sync_in_port(k));
        }
        for k in sync_out_banned.iter_ones() {
            mask.remove(pg.sync_out_port(k));
        }
        *runs += 1;
        let scc = Scc::compute(&pg.graph, Some(&mask));
        if scc.members(scc.component_of(first)).len() <= 1 {
            return Ok(None);
        }
        if !witnesses.iter().all(|&w| scc.same_component(first, w)) {
            return Ok(None);
        }
        let mut sync_nodes: Vec<usize> = scc
            .members(scc.component_of(first))
            .iter()
            .map(|&m| pg.sync_node_of(m as usize))
            .filter(|&n| sg.is_rendezvous(n))
            .collect();
        sync_nodes.sort_unstable();
        sync_nodes.dedup();
        Ok(Some(sync_nodes))
    }

    fn confirm_with_second_head(
        &self,
        h: usize,
        component: &[usize],
        runs: &mut usize,
        delta: &mut Counters,
    ) -> Result<Option<(usize, Vec<usize>)>, IwaError> {
        let sg = self.sg;
        let poss: Vec<usize> = sg.poss_heads();
        for &h2 in component {
            self.budget
                .checkpoint("head-pair confirmation candidates")?;
            if h2 == h || !poss.contains(&h2) || self.rescued.contains(&h2) {
                continue;
            }
            if sg.has_sync_edge(h, h2) {
                continue;
            }
            if self.seq.wave_exclusive(sg, h, h2) || self.cx.not_coexec(sg, h, h2) {
                continue;
            }
            if let Some(comp2) = self.marked_search(&[h, h2], None, runs, delta)? {
                return Ok(Some((h2, comp2)));
            }
        }
        Ok(None)
    }

    fn confirm_with_tail(
        &self,
        h: usize,
        component: &[usize],
        runs: &mut usize,
        delta: &mut Counters,
    ) -> Result<Option<(usize, Vec<usize>)>, IwaError> {
        let sg = self.sg;
        let coaccept = old_coaccept(sg, h);
        let mut descendants = BitSet::new(sg.num_nodes());
        for &v in sg.control.successors(h) {
            let v = v as usize;
            if sg.is_rendezvous(v) {
                descendants.union_with(&sg.control.reachable_from(v));
            }
        }
        for t in sg.rendezvous_nodes() {
            self.budget
                .checkpoint("head-tail confirmation candidates")?;
            if !descendants.contains(t) || !component.contains(&t) {
                continue;
            }
            if sg.sync_neighbors(t).is_empty() {
                continue;
            }
            if coaccept.contains(&t) || self.cx.not_coexec(sg, h, t) {
                continue;
            }
            if let Some(comp2) = self.marked_search(&[h], Some(t), runs, delta)? {
                return Ok(Some((t, comp2)));
            }
        }
        Ok(None)
    }
}

fn old_constraint4_rescued(sg: &SyncGraph, finish: &FinishOrder) -> Vec<usize> {
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

/// The defaults, each marking switched off, and each non-default option
/// switched on.
fn option_sets() -> Vec<RefinedOptions> {
    let d = RefinedOptions::default();
    vec![
        d,
        RefinedOptions {
            use_sequenceable: false,
            ..d
        },
        RefinedOptions {
            use_coaccept: false,
            ..d
        },
        RefinedOptions {
            use_not_coexec: false,
            ..d
        },
        RefinedOptions {
            strict_sequenceable_marking: true,
            ..d
        },
        RefinedOptions {
            paper_sequence_relation: true,
            ..d
        },
        RefinedOptions {
            apply_constraint4: true,
            ..d
        },
        RefinedOptions {
            use_condition_coexec: true,
            ..d
        },
    ]
}

/// Compare the two searches on `sg` at every tier and option set,
/// unseeded and seeded with `seeds`, on one and on four workers, and
/// under a step ceiling half the full charge.
fn check(sg: &SyncGraph, seeds: &[usize]) -> Result<(), TestCaseError> {
    for tier in [Tier::Heads, Tier::HeadPairs, Tier::HeadTails] {
        for opts in option_sets() {
            let opts = RefinedOptions { tier, ..opts };
            for seeds in [None, Some(seeds)] {
                let want = old_run(sg, seeds, &opts, Budget::unlimited());
                prop_assert!(want.answer.is_ok());
                for workers in [1, 4] {
                    let got = new_run(sg, seeds, &opts, workers, Budget::unlimited());
                    prop_assert_eq!(
                        &got,
                        &want,
                        "{:?}, seeded {}, {} workers",
                        opts,
                        seeds.is_some(),
                        workers
                    );
                }
                if want.steps >= 2 {
                    let ceiling = want.steps / 2;
                    let want = old_run(sg, seeds, &opts, Budget::with_max_steps(ceiling));
                    let got = new_run(sg, seeds, &opts, 1, Budget::with_max_steps(ceiling));
                    prop_assert!(want.answer.is_err(), "ceiling {} trips", ceiling);
                    prop_assert_eq!(&got, &want, "{:?} ceiling {}", opts, ceiling);
                }
            }
        }
    }
    Ok(())
}

/// Check a tasklang program's sync graph, seeded with every rendezvous
/// (a superset of POSS-HEADS, so seeds without sync edges are searched
/// too).
fn check_program(p: &Program) -> Result<(), TestCaseError> {
    let sg = SyncGraph::from_program(p);
    let seeds: Vec<usize> = sg.rendezvous_nodes().collect();
    check(&sg, &seeds)
}

/// Check a `.lok`/`.chan` source's lowered sync graph, seeded with the
/// lowering's hold points.
fn check_lowered(lang: Lang, src: &str) -> Result<(), TestCaseError> {
    let model = registry::by_lang(lang)
        .load(src)
        .expect("generated source loads");
    let (sg, seeds) = model.as_wait().expect("a wait-graph model").lowered();
    check(sg, seeds)
}

fn structured(seed: u64, tasks: usize) -> Program {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structured programs with branches, Lemma 1 unrolled where they
    /// loop, as `certify` analyses them.
    #[test]
    fn the_search_matches_the_masked_one_on_structured_programs(
        seed in 0u64..1_000_000,
        tasks in 2usize..5,
    ) {
        let p = structured(seed, tasks);
        check_program(&unroll_twice(&p))?;
    }

    /// Balanced straight-line programs, where crossed waits are real.
    #[test]
    fn the_search_matches_the_masked_one_on_balanced_programs(
        seed in 0u64..1_000_000,
        swaps in 0usize..8,
    ) {
        let p = random_balanced(
            &mut StdRng::seed_from_u64(seed),
            &BalancedConfig { tasks: 3, events: 6, message_types: 2, swaps },
        );
        check_program(&p)?;
    }

    /// Programs around one encapsulated boolean, where condition coexec
    /// has facts to add.
    #[test]
    fn the_search_matches_the_masked_one_on_conditioned_programs(
        seed in 0u64..1_000_000,
        tasks in 2usize..5,
    ) {
        let p = random_conditioned(
            &mut StdRng::seed_from_u64(seed),
            &ConditionedConfig { tasks, events: 5, negative_prob: 0.5 },
        );
        check_program(&p)?;
    }

    /// Theorem 2 programs and Theorem 3 raw graphs over random 3-CNFs.
    #[test]
    fn the_search_matches_the_masked_one_on_reductions(
        seed in 0u64..1_000_000,
        clauses in 1usize..3,
    ) {
        let f = Cnf::random_3cnf(&mut StdRng::seed_from_u64(seed), 3, clauses);
        check_program(&theorem2_program(&f))?;
        let sg = theorem3_graph(&f);
        let seeds: Vec<usize> = sg.rendezvous_nodes().collect();
        check(&sg, &seeds)?;
    }
}

#[test]
fn the_search_matches_the_masked_one_on_the_figures() {
    for (name, p) in all_figures() {
        check_program(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_program(&unroll_twice(&p)).unwrap_or_else(|e| panic!("{name} unrolled: {e}"));
    }
}

#[test]
fn the_search_matches_the_masked_one_on_lowered_families() {
    for flavour in [false, true] {
        for n in 2..=5 {
            check_lowered(Lang::Lok, &lock_chain(n, flavour)).unwrap();
            check_lowered(Lang::Chan, &chan_ring(n, flavour)).unwrap();
        }
        for n in 2..=4 {
            check_lowered(Lang::Lok, &lock_mesh(n, flavour)).unwrap();
        }
        for n in 1..=4 {
            check_lowered(Lang::Chan, &chan_select_storm(n, flavour)).unwrap();
        }
    }
}

/// Do-not-enter bans with only some of their four nodes inside the
/// witnesses' shared component. In each program `a1` and `a2` sit on
/// exclusive arms, so NOT-COEXEC bans all of `a2` for the head `a1`.
///
/// * `a2` opens its task, so only `b` enters `a2_o`, while
///   `ur → a2 → s → uz → up → ur` is a cycle through `a2_si` and `a2_i`.
/// * `a2`'s only partner is a lone accept in `v`, so neither sync port
///   of `a2` is on a cycle, while `q → a2 → s → uy → uz → q` runs
///   through `a2_o` and `a2_i` by control alone.
#[test]
fn the_search_matches_the_masked_one_when_a_ban_falls_partly_inside() {
    for src in [
        "task t { if { accept p as a1; } else { accept r as a2; } send u.z as s; }
         task u { accept z as uz; send t.p as up; send t.r as ur; }",
        "task t { accept z as q; if { accept a as a1; } else { send v.c as a2; } send u.y as s; }
         task u { accept y as uy; send t.z as uz; send t.a as ua; }
         task v { accept c as vc; }",
    ] {
        let p = iwa::tasklang::parse(src).unwrap();
        check_program(&p).unwrap_or_else(|e| panic!("{src}: {e}"));
    }
}

/// How many `sequence` and `coexec` spans a sink recorded, and the
/// counters committed beside them.
fn table_builds(sink: &TraceSink, metrics: &Metrics) -> (usize, usize, Counters) {
    let events = sink.events();
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.cat == "analysis" && e.name == name)
            .count()
    };
    (count("sequence"), count("coexec"), metrics.snapshot())
}

/// `certify` and `refined_seeded` build SEQUENCEABLE and NOT-COEXEC once
/// when some hypothesis survives free refutation, on any worker count,
/// and not at all when the port CLG has no cycle through a head.
#[test]
fn the_relation_tables_are_built_only_when_a_hypothesis_survives() {
    for workers in [1, 8] {
        let certify = |p: &Program| {
            let (sink, metrics) = (TraceSink::new(), Metrics::new());
            AnalysisCtx::builder()
                .workers(workers)
                .trace(sink.clone())
                .metrics(metrics.clone())
                .build()
                .certify(p, &CertifyOptions::default())
                .unwrap();
            table_builds(&sink, &metrics)
        };
        let seeded = |src: &str| {
            let model = registry::by_lang(Lang::Chan).load(src).unwrap();
            let (sg, seeds) = model.as_wait().expect("a wait-graph model").lowered();
            let (sink, metrics) = (TraceSink::new(), Metrics::new());
            AnalysisCtx::builder()
                .workers(workers)
                .trace(sink.clone())
                .metrics(metrics.clone())
                .build()
                .refined_seeded(sg, seeds, &RefinedOptions::default())
                .unwrap();
            table_builds(&sink, &metrics)
        };
        // Acyclic port CLGs: every head is examined and refuted for free,
        // so the shared pass is the only SCC run.
        for (name, (sequence, coexec, c)) in [
            (
                "rendezvous_mesh(6, true)",
                certify(&rendezvous_mesh(6, true)),
            ),
            (
                "chan_select_storm(4, false)",
                seeded(&chan_select_storm(4, false)),
            ),
        ] {
            assert!(c.heads_examined > 0, "{name}: {c:?}");
            assert_eq!(c.scc_runs, 1, "{name}");
            assert_eq!((sequence, coexec), (0, 0), "{name}, {workers} workers");
        }
        // Surviving heads: one build of each table, however many heads
        // and workers read them.
        for (name, (sequence, coexec, c)) in [
            ("fig1", certify(&fig1())),
            ("chan_ring(4, false)", seeded(&chan_ring(4, false))),
        ] {
            assert!(c.scc_runs > 2, "{name}: {c:?}");
            assert_eq!((sequence, coexec), (1, 1), "{name}, {workers} workers");
        }
    }
}
