//! The wave explorer against a test-only copy of the plain BFS it
//! replaced: the Cartesian product of first moves, an all-pairs READY scan
//! by `has_sync_edge`, a `HashSet` of cloned waves with a `VecDeque`, a
//! `HashMap` of parents, and a full `classify` on every stuck wave.
//!
//! Every field of `Exploration` must agree, in the configurations the
//! engine and tests use, on generated branching, loopy and balanced
//! programs and on the lowered lock-chain and channel-ring families. The public
//! `initial_waves`, `Wave::ready_pairs` and `next_waves_with_steps` must
//! also agree with the reference copies, wave for wave and in order.

use iwa::core::{Budget, IwaError, TaskId};
use iwa::frontend::{registry, Lang};
use iwa::syncgraph::{SyncGraph, B, E};
use iwa::tasklang::transforms::unroll_twice;
use iwa::wavesim::explore::{explore_budgeted, initial_waves, next_waves_with_steps};
use iwa::wavesim::{classify, Exploration, ExploreConfig, Verdict, Wave, WitnessStep, DONE};
use iwa::workloads::chan::chan_ring;
use iwa::workloads::locks::lock_chain;
use iwa::workloads::{random_balanced, random_structured, BalancedConfig, StructuredConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet, VecDeque};

/// The initial waves as the full Cartesian product, built by cloning.
fn reference_initial(sg: &SyncGraph) -> Vec<Wave> {
    let mut waves = vec![Vec::new()];
    for t in 0..sg.num_tasks {
        let task = TaskId(t as u32);
        let mut opts: Vec<u32> = sg
            .control
            .successors(B)
            .iter()
            .map(|&v| v as usize)
            .filter(|&v| v != E && sg.is_rendezvous(v) && sg.node(v).task == task)
            .map(|v| v as u32)
            .collect();
        if sg.task_skippable(task) || sg.nodes_of_task(task).is_empty() {
            opts.push(DONE);
        }
        let mut next = Vec::new();
        for w in &waves {
            for &o in &opts {
                let mut w2: Vec<u32> = w.clone();
                w2.push(o);
                next.push(w2);
            }
        }
        waves = next;
    }
    waves.into_iter().map(Wave).collect()
}

/// The READY pairs by the all-pairs `has_sync_edge` scan.
fn reference_pairs(sg: &SyncGraph, w: &Wave) -> Vec<(usize, usize)> {
    let n = w.0.len();
    let mut pairs = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, b) = (w.0[i], w.0[j]);
            if a != DONE && b != DONE && sg.has_sync_edge(a as usize, b as usize) {
                pairs.push((i, j));
            }
        }
    }
    pairs
}

/// `NextWaves(W)` over the reference READY pairs.
fn reference_step(sg: &SyncGraph, w: &Wave) -> Vec<(Wave, WitnessStep)> {
    let slots = |node: usize| -> Vec<u32> {
        sg.control
            .successors(node)
            .iter()
            .map(|&v| if v as usize == E { DONE } else { v })
            .collect()
    };
    let mut out = Vec::new();
    for (i, j) in reference_pairs(sg, w) {
        let step = WitnessStep {
            a: w.0[i] as usize,
            b: w.0[j] as usize,
        };
        for &si in &slots(step.a) {
            for &sj in &slots(step.b) {
                let mut w2 = w.clone();
                w2.0[i] = si;
                w2.0[j] = sj;
                out.push((w2, step));
            }
        }
    }
    out
}

/// The explorer as it was: memoised BFS over cloned waves, with no budget
/// and no state limit (the inputs here are small).
fn reference_explore(sg: &SyncGraph, config: &ExploreConfig) -> Exploration {
    let mut visited: HashSet<Wave> = HashSet::new();
    let mut queue: VecDeque<Wave> = VecDeque::new();
    let mut parents: HashMap<Wave, (Wave, WitnessStep)> = HashMap::new();
    let mut initial: HashSet<Wave> = HashSet::new();
    for w in reference_initial(sg) {
        if visited.insert(w.clone()) {
            initial.insert(w.clone());
            queue.push_back(w);
        }
    }
    let mut transitions = 0;
    let mut can_terminate = false;
    let mut anomalies = Vec::new();
    let mut witnesses = Vec::new();
    let mut anomaly_count = 0;
    while let Some(w) = queue.pop_front() {
        if w.all_done() {
            can_terminate = true;
            continue;
        }
        let succs = reference_step(sg, &w);
        if succs.is_empty() {
            let report = classify(sg, &w);
            if config.ignore_stalls && report.deadlock_set.is_empty() {
                continue;
            }
            anomaly_count += 1;
            if anomalies.len() < config.max_anomalies {
                if config.track_witnesses {
                    let mut steps = Vec::new();
                    let mut cur = w.clone();
                    while !initial.contains(&cur) {
                        let (prev, step) = parents[&cur].clone();
                        steps.push(step);
                        cur = prev;
                    }
                    steps.reverse();
                    witnesses.push(steps);
                }
                anomalies.push((w, report));
            }
            continue;
        }
        for (s, step) in succs {
            transitions += 1;
            if visited.insert(s.clone()) {
                parents.insert(s.clone(), (w.clone(), step));
                queue.push_back(s);
            }
        }
    }
    Exploration {
        verdict: if anomaly_count == 0 {
            Verdict::AnomalyFree
        } else {
            Verdict::Anomalous
        },
        states: visited.len(),
        transitions,
        can_terminate,
        anomalies,
        witnesses,
        anomaly_count,
    }
}

/// Default; deadlock-only; no witnesses with few anomalies kept; and
/// deadlock-only keeping every anomaly, so the stuck-wave filter is
/// compared with `classify`'s deadlock set on every stuck wave.
fn configs() -> [ExploreConfig; 4] {
    let d = ExploreConfig::default();
    [
        d,
        ExploreConfig {
            ignore_stalls: true,
            ..d
        },
        ExploreConfig {
            track_witnesses: false,
            max_anomalies: 3,
            ..d
        },
        ExploreConfig {
            ignore_stalls: true,
            track_witnesses: false,
            max_anomalies: usize::MAX,
            ..d
        },
    ]
}

fn matches_reference(sg: &SyncGraph, what: &str) -> Result<(), TestCaseError> {
    // The public enumerators against the reference copies, on every
    // reachable wave.
    let init = initial_waves(sg).expect("valid");
    prop_assert_eq!(&init, &reference_initial(sg), "initial waves of {}", what);
    let mut seen: HashSet<Wave> = init.iter().cloned().collect();
    let mut todo = init;
    while let Some(w) = todo.pop() {
        let pairs = reference_pairs(sg, &w);
        prop_assert_eq!(w.ready_pairs(sg), pairs, "pairs of {}", what);
        let succs = next_waves_with_steps(sg, &w);
        prop_assert_eq!(&succs, &reference_step(sg, &w), "successors of {}", what);
        for (s, _) in succs {
            if seen.insert(s.clone()) {
                todo.push(s);
            }
        }
    }

    for config in configs() {
        let got = explore_budgeted(sg, &config, &Budget::unlimited()).expect("small");
        let want = reference_explore(sg, &config);
        let at = format!("{what} {config:?}");
        prop_assert_eq!(got.verdict, want.verdict, "{}", at);
        prop_assert_eq!(got.states, want.states, "{}", at);
        prop_assert_eq!(got.transitions, want.transitions, "{}", at);
        prop_assert_eq!(got.can_terminate, want.can_terminate, "{}", at);
        prop_assert_eq!(got.anomaly_count, want.anomaly_count, "{}", at);
        prop_assert_eq!(got.anomalies.len(), want.anomalies.len(), "{}", at);
        for ((gw, gr), (ww, wr)) in got.anomalies.iter().zip(&want.anomalies) {
            prop_assert_eq!(gw, ww, "{}", at);
            prop_assert_eq!(&gr.deadlock_set, &wr.deadlock_set, "{}", at);
            prop_assert_eq!(&gr.stall_nodes, &wr.stall_nodes, "{}", at);
            prop_assert_eq!(&gr.coupled, &wr.coupled, "{}", at);
            prop_assert_eq!(&gr.unaccounted, &wr.unaccounted, "{}", at);
        }
        prop_assert_eq!(&got.witnesses, &want.witnesses, "{}", at);
    }
    Ok(())
}

/// The sync graph a `.lok`/`.chan` source lowers to.
fn lowered(lang: Lang, src: &str) -> SyncGraph {
    let model = registry::by_lang(lang)
        .load(src)
        .expect("generated sources load");
    match lang {
        Lang::Lok => model.as_lok().expect("lok model").sg.clone(),
        _ => model.as_chan().expect("chan model").sg.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Branching and loopy programs of 2–5 tasks, explored as written
    /// (loops and all) and, when loopy, also unrolled.
    #[test]
    fn explorer_matches_reference_structured(seed in 0u64..1_000_000, tasks in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_structured(
            &mut rng,
            &StructuredConfig {
                tasks,
                rendezvous_per_task: 6,
                branch_prob: 0.35,
                loop_prob: 0.25,
                message_types: 1,
            },
        );
        let src = p.to_source();
        matches_reference(&SyncGraph::from_program(&p), &src)?;
        if !p.is_loop_free() && tasks <= 3 {
            matches_reference(&SyncGraph::from_program(&unroll_twice(&p)), &src)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Balanced straight-line programs: long schedules, fewer stuck waves.
    #[test]
    fn explorer_matches_reference_balanced(seed in 0u64..1_000_000, swaps in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_balanced(
            &mut rng,
            &BalancedConfig { tasks: 4, events: 14, message_types: 2, swaps },
        );
        matches_reference(&SyncGraph::from_program(&p), &p.to_source())?;
    }
}

/// The lowered lock chains and channel rings, both flavours of each.
#[test]
fn explorer_matches_reference_lowered() {
    for n in 2..=7 {
        for flag in [false, true] {
            for (lang, src) in [
                (Lang::Lok, lock_chain(n, flag)),
                (Lang::Chan, chan_ring(n, flag)),
            ] {
                matches_reference(&lowered(lang, &src), &src).unwrap();
            }
        }
    }
}

/// A 20-process channel ring has 2^20 initial waves; a 1000-state limit
/// stops the enumeration after 1001 of them.
#[test]
fn initial_waves_stop_at_the_state_limit() {
    let sg = lowered(Lang::Chan, &chan_ring(20, false));
    let config = ExploreConfig {
        max_states: 1000,
        ..ExploreConfig::default()
    };
    match explore_budgeted(&sg, &config, &Budget::unlimited()) {
        Err(IwaError::BudgetExceeded { items, limit, .. }) => {
            assert_eq!(limit, 1000);
            assert!(items <= 1001, "{items} waves stored");
        }
        other => panic!("expected a state-limit error, got {other:?}"),
    }
}
