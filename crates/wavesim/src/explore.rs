//! Exhaustive exploration of `NextWavesSet*(W_INIT)`.
//!
//! The wave space is finite (one slot per task ranging over the task's
//! nodes plus "done"), so the closure is a plain memoised BFS. Its size is
//! the product of per-task node counts in the worst case — exactly the
//! exponential blow-up the paper attributes to concurrency-state methods
//! (\[Tay83a\], §6) and the reason the polynomial algorithms exist. Budgets
//! make the blow-up observable instead of fatal.
//!
//! The BFS allocates nothing per state: each wave is stored once in a flat
//! `WaveStore` and named by its discovery id, so the queue is a cursor over
//! ids and a witness parent is an id. Initial waves come from a lazy
//! `Odometer` that probes the budget once per wave, and a `Stepper` writes
//! each successor into one scratch wave. A wave's hash is the XOR of one
//! key per slot, so a successor's hash follows from its wave's through the
//! two slots the rendezvous changed, whatever the number of tasks.

use crate::classify::{classify, AnomalyReport, DeadlockFilter};
use crate::wave::{Wave, DONE};
use iwa_core::{Budget, IwaError, TaskId};
use iwa_syncgraph::{SyncGraph, B, E};
use std::convert::Infallible;

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Maximum number of distinct waves to visit.
    pub max_states: usize,
    /// Maximum number of anomalous waves to retain in full (the count keeps
    /// increasing past this).
    pub max_anomalies: usize,
    /// Record predecessor links so each retained anomaly carries a
    /// [`witness schedule`](Exploration::witnesses) — the rendezvous
    /// sequence from an initial wave to the stuck one. Costs one parent
    /// entry per visited wave.
    pub track_witnesses: bool,
    /// Ignore stuck waves whose classification contains **no deadlocked
    /// set** (stall-only anomalies). Models whose tasks are all skippable
    /// by construction — the lock-order frontend's lowering, where every
    /// acquire-site branch may simply not be taken — produce stall-only
    /// waves on every acyclic schedule; in deadlock-only mode those are
    /// benign and must not count as anomalies. Costs one coupling-cycle
    /// test per stuck wave; only retained anomalies are fully
    /// [`classify`]-ed. Default `false` (the paper's full taxonomy).
    pub ignore_stalls: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 1 << 20,
            max_anomalies: 64,
            track_witnesses: true,
            ignore_stalls: false,
        }
    }
}

/// One rendezvous in a witness schedule: the two sync-graph nodes that
/// fired together.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WitnessStep {
    /// One side of the rendezvous (sync-graph node index).
    pub a: usize,
    /// The other side.
    pub b: usize,
}

impl WitnessStep {
    /// Human-readable rendering against the graph's symbols.
    #[must_use]
    pub fn render(&self, sg: &SyncGraph) -> String {
        let name = |n: usize| {
            let d = sg.node(n);
            let label = d
                .label
                .clone()
                .unwrap_or_else(|| {
                    format!("{}{}", sg.symbols.signal_name(d.rendezvous.signal), d.rendezvous.sign)
                });
            format!("{}:{}", sg.symbols.task_name(d.task), label)
        };
        format!("{} ⇄ {}", name(self.a), name(self.b))
    }
}

/// What the exhaustive oracle decided.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every reachable wave can advance or is fully terminated, i.e. the
    /// program has **no infinite wait anomaly**.
    AnomalyFree,
    /// At least one reachable wave is anomalous.
    Anomalous,
}

/// Result of an exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The overall verdict.
    pub verdict: Verdict,
    /// Number of distinct waves visited.
    pub states: usize,
    /// Number of wave transitions (rendezvous firings, counting branch
    /// choices separately).
    pub transitions: usize,
    /// Whether some execution terminates with every task done.
    pub can_terminate: bool,
    /// Retained anomalous waves with their classification (up to
    /// `max_anomalies`).
    pub anomalies: Vec<(Wave, AnomalyReport)>,
    /// For each retained anomaly (when witness tracking is on): the
    /// rendezvous schedule leading from an initial wave to it. Replaying
    /// the steps through [`next_waves`] reproduces the stuck wave.
    pub witnesses: Vec<Vec<WitnessStep>>,
    /// Total number of anomalous waves encountered.
    pub anomaly_count: usize,
}

impl Exploration {
    /// Did any anomalous wave contain a (cyclic) deadlocked set?
    #[must_use]
    pub fn has_deadlock(&self) -> bool {
        self.anomalies.iter().any(|(_, r)| !r.deadlock_set.is_empty())
    }

    /// Did any anomalous wave contain a stall node?
    #[must_use]
    pub fn has_stall(&self) -> bool {
        self.anomalies.iter().any(|(_, r)| !r.stall_nodes.is_empty())
    }
}

/// Each task's first moves: its rendezvous nodes directly after `b`, plus
/// [`DONE`] when it may finish without synchronising.
fn first_moves(sg: &SyncGraph) -> Result<Vec<Vec<u32>>, IwaError> {
    (0..sg.num_tasks)
        .map(|t| {
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
            if opts.is_empty() {
                return Err(IwaError::InvalidProgram(format!(
                    "task {} has rendezvous nodes but none reachable from b",
                    sg.symbols.task_name(task)
                )));
            }
            Ok(opts)
        })
        .collect()
}

/// The initial waves one at a time: an odometer over each task's first
/// moves, the last task's digit turning fastest.
struct Odometer {
    moves: Vec<Vec<u32>>,
    digits: Vec<usize>,
    wave: Vec<u32>,
    started: bool,
}

impl Odometer {
    fn new(sg: &SyncGraph) -> Result<Odometer, IwaError> {
        let moves = first_moves(sg)?;
        Ok(Odometer {
            digits: vec![0; moves.len()],
            wave: moves.iter().map(|m| m[0]).collect(),
            moves,
            started: false,
        })
    }

    /// The next initial wave, or `None` once every combination was shown.
    fn next_wave(&mut self) -> Option<&[u32]> {
        if self.started {
            let mut t = self.moves.len();
            loop {
                if t == 0 {
                    return None;
                }
                t -= 1;
                self.digits[t] += 1;
                if self.digits[t] < self.moves[t].len() {
                    self.wave[t] = self.moves[t][self.digits[t]];
                    break;
                }
                self.digits[t] = 0;
                self.wave[t] = self.moves[t][0];
            }
        }
        self.started = true;
        Some(&self.wave)
    }
}

/// The initial waves: every combination of per-task first rendezvous points
/// (the nondeterministic choice models conditional branches out of `b`),
/// with [`DONE`] as an extra option for tasks that may finish without
/// synchronising. The last task's choice varies fastest.
pub fn initial_waves(sg: &SyncGraph) -> Result<Vec<Wave>, IwaError> {
    let mut odometer = Odometer::new(sg)?;
    let mut waves = Vec::new();
    while let Some(w) = odometer.next_wave() {
        waves.push(Wave(w.to_vec()));
    }
    Ok(waves)
}

/// The rendezvous step, enumerated without allocating: READY pairs come
/// from each slot's sync neighbours through a node → task table, and every
/// successor is written into one scratch wave.
///
/// Slot `t` of a wave must hold a node of task `t` (or [`DONE`]), as every
/// wave built by this crate does.
pub(crate) struct Stepper<'g> {
    sg: &'g SyncGraph,
    /// The task of each node (`u32::MAX` for `b` and `e`).
    task_of: Vec<u32>,
    /// READY pairs of the wave last stepped, in `(i, j)` order.
    pairs: Vec<(u32, u32)>,
    /// The successor being handed out.
    next: Vec<u32>,
}

impl<'g> Stepper<'g> {
    pub(crate) fn new(sg: &'g SyncGraph) -> Stepper<'g> {
        let mut task_of = vec![u32::MAX; sg.num_nodes()];
        for n in sg.rendezvous_nodes() {
            task_of[n] = sg.node(n).task.0;
        }
        Stepper {
            sg,
            task_of,
            pairs: Vec::new(),
            next: Vec::new(),
        }
    }

    /// The READY pairs of `wave`: `(i, j)` with `i < j` whose slots are
    /// joined by a sync edge, ordered by `i`, then `j`.
    pub(crate) fn ready_pairs(&mut self, wave: &[u32]) -> &[(u32, u32)] {
        self.pairs.clear();
        for (i, &node) in wave.iter().enumerate() {
            if node == DONE {
                continue;
            }
            let from = self.pairs.len();
            for &z in self.sg.sync_neighbors(node as usize) {
                let j = self.task_of[z as usize] as usize;
                if j > i && wave.get(j) == Some(&z) {
                    self.pairs.push((i as u32, j as u32));
                }
            }
            // Neighbours ascend by node, which need not be task order.
            self.pairs[from..].sort_unstable();
        }
        &self.pairs
    }

    /// Call `f` on every wave one rendezvous away from `wave`, with the
    /// rendezvous that produced it and the two slots `(i, j)` it moved (the
    /// successor equals `wave` everywhere else): READY pairs in order, then
    /// the first node's successor slots, then the second's. Returns how
    /// many successors there were.
    pub(crate) fn for_each_successor<Err>(
        &mut self,
        wave: &[u32],
        mut f: impl FnMut(&[u32], WitnessStep, (usize, usize)) -> Result<(), Err>,
    ) -> Result<usize, Err> {
        let sg = self.sg;
        self.ready_pairs(wave);
        let task_of = &self.task_of;
        // `e` leaves the task done; every other successor stays in the task.
        let slot = |v: u32, from: usize| {
            if v as usize == E {
                return DONE;
            }
            debug_assert_eq!(
                task_of[v as usize], task_of[from],
                "control successors stay within the task"
            );
            v
        };
        self.next.clear();
        self.next.extend_from_slice(wave);
        let mut count = 0;
        for &(i, j) in &self.pairs {
            let (i, j) = (i as usize, j as usize);
            let step = WitnessStep {
                a: wave[i] as usize,
                b: wave[j] as usize,
            };
            for &si in sg.control.successors(step.a) {
                self.next[i] = slot(si, step.a);
                for &sj in sg.control.successors(step.b) {
                    self.next[j] = slot(sj, step.b);
                    count += 1;
                    f(&self.next, step, (i, j))?;
                }
            }
            self.next[i] = wave[i];
            self.next[j] = wave[j];
        }
        Ok(count)
    }

    /// Every successor of `wave`, each with its rendezvous.
    pub(crate) fn successors(&mut self, wave: &[u32]) -> Vec<(Wave, WitnessStep)> {
        let mut out = Vec::new();
        let Ok(_) = self.for_each_successor(wave, |s, step, _| {
            out.push((Wave(s.to_vec()), step));
            Ok::<(), Infallible>(())
        });
        out
    }
}

/// `NextWaves(W)`: all waves derivable by one rendezvous.
#[must_use]
pub fn next_waves(sg: &SyncGraph, w: &Wave) -> Vec<Wave> {
    next_waves_with_steps(sg, w).into_iter().map(|(w, _)| w).collect()
}

/// [`next_waves`] annotated with the rendezvous that produced each wave.
#[must_use]
pub fn next_waves_with_steps(sg: &SyncGraph, w: &Wave) -> Vec<(Wave, WitnessStep)> {
    Stepper::new(sg).successors(&w.0)
}

/// Marks a free cell of [`WaveStore`]'s table.
const NO_WAVE: u32 = u32::MAX;

/// Every wave an exploration has seen, each stored once: wave `id` holds
/// `slots[id * width..][..width]`, ids count up in discovery order, and an
/// open-addressing table of ids (linear probing, at most half full) finds
/// a wave by a fixed, seedless hash of its slots. The table only places
/// ids, so the hash decides no id, order or answer.
struct WaveStore {
    width: usize,
    len: usize,
    slots: Vec<u32>,
    table: Vec<u32>,
    /// `64 - log2(table.len())`: a hash's top bits pick its first cell.
    shift: u32,
}

impl WaveStore {
    fn new(width: usize) -> WaveStore {
        WaveStore {
            width,
            len: 0,
            slots: Vec::new(),
            table: vec![NO_WAVE; 16],
            shift: 64 - 4,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, id: usize) -> &[u32] {
        &self.slots[id * self.width..][..self.width]
    }

    /// The key of `value` in slot `slot`: splitmix64's finaliser over the
    /// pair.
    fn key(slot: usize, value: u32) -> u64 {
        let mut z = ((slot as u64) << 32 | u64::from(value)).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The hash of `wave`: the XOR of its slots' keys.
    fn hash(wave: &[u32]) -> u64 {
        wave.iter()
            .enumerate()
            .fold(0, |h, (slot, &value)| h ^ Self::key(slot, value))
    }

    /// The hash of `next`, given the hash `h` of `wave` and the two slots
    /// outside which `next` equals `wave`: two keys out, two keys in.
    fn step_hash(h: u64, wave: &[u32], next: &[u32], (i, j): (usize, usize)) -> u64 {
        h ^ Self::key(i, wave[i])
            ^ Self::key(i, next[i])
            ^ Self::key(j, wave[j])
            ^ Self::key(j, next[j])
    }

    /// The free cell for `wave`, whose hash is `hash`, or `None` when it is
    /// already stored.
    fn find(&self, wave: &[u32], hash: u64) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut cell = (hash >> self.shift) as usize;
        loop {
            match self.table[cell] {
                NO_WAVE => return Some(cell),
                id if self.get(id as usize) == wave => return None,
                _ => cell = (cell + 1) & mask,
            }
        }
    }

    /// Store `wave`, whose hash is `hash`, under the next id; `false` when
    /// it was already stored.
    fn insert(&mut self, wave: &[u32], hash: u64) -> bool {
        debug_assert_eq!(hash, Self::hash(wave), "a stepped hash went stale");
        if 2 * (self.len + 1) > self.table.len() {
            self.grow();
        }
        let Some(cell) = self.find(wave, hash) else {
            return false;
        };
        assert!(self.len < NO_WAVE as usize, "wave ids stay below u32::MAX");
        self.table[cell] = self.len as u32;
        self.slots.extend_from_slice(wave);
        self.len += 1;
        true
    }

    fn grow(&mut self) {
        self.table = vec![NO_WAVE; 2 * self.table.len()];
        self.shift -= 1;
        for id in 0..self.len {
            let wave = self.get(id);
            let cell = self
                .find(wave, Self::hash(wave))
                .expect("stored waves are distinct");
            self.table[cell] = id as u32;
        }
    }
}

/// Exhaustively explore the reachable wave space.
///
/// Errors with [`IwaError::BudgetExceeded`] when `max_states` is hit, so a
/// truncated exploration can never masquerade as a certification.
/// ```
/// use iwa_wavesim::{explore, ExploreConfig};
///
/// let p = iwa_tasklang::parse(
///     "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
/// ).unwrap();
/// let sg = iwa_syncgraph::SyncGraph::from_program(&p);
/// let e = explore(&sg, &ExploreConfig::default()).unwrap();
/// assert!(e.has_deadlock());
/// assert!(!e.can_terminate);
/// ```
pub fn explore(sg: &SyncGraph, config: &ExploreConfig) -> Result<Exploration, IwaError> {
    explore_budgeted(sg, config, &Budget::unlimited())
}

/// [`explore`] under a cooperative [`Budget`].
///
/// Probes the wall clock once per initial wave and once per wave visited,
/// and checkpoints once per transition examined, so a wall-clock deadline,
/// step ceiling, or cancellation stops the BFS mid-flight with
/// [`IwaError::BudgetExceeded`] carrying partial-progress counters
/// (`items` = distinct waves found so far).
pub fn explore_budgeted(
    sg: &SyncGraph,
    config: &ExploreConfig,
    budget: &Budget,
) -> Result<Exploration, IwaError> {
    const WHAT: &str = "exploring execution waves";
    let too_many = |transitions: usize, states: usize| IwaError::BudgetExceeded {
        what: WHAT.into(),
        limit: config.max_states,
        steps: transitions as u64,
        items: states,
        degraded: false,
    };
    let mut store = WaveStore::new(sg.num_tasks);
    let mut odometer = Odometer::new(sg)?;
    while let Some(w) = odometer.next_wave() {
        budget.probe(WHAT)?;
        store.insert(w, WaveStore::hash(w));
        if store.len() > config.max_states {
            return Err(too_many(0, store.len()));
        }
    }
    // Ids below `initial` are initial waves; wave `id` above them was
    // first reached from `parents[id - initial]`.
    let initial = store.len();
    let mut parents: Vec<(u32, WitnessStep)> = Vec::new();
    let mut stepper = Stepper::new(sg);
    let mut deadlocks = config.ignore_stalls.then(|| DeadlockFilter::new(sg));
    let mut wave = Vec::with_capacity(sg.num_tasks);
    let mut transitions = 0usize;
    let mut can_terminate = false;
    let mut anomalies = Vec::new();
    let mut witnesses = Vec::new();
    let mut anomaly_count = 0usize;

    // The BFS queue is the run of ids not yet visited.
    let mut id = 0;
    while id < store.len() {
        budget.probe(WHAT)?;
        if store.len() > config.max_states {
            return Err(too_many(transitions, store.len()));
        }
        wave.clear();
        wave.extend_from_slice(store.get(id));
        let from = id as u32;
        id += 1;
        if wave.iter().all(|&s| s == DONE) {
            can_terminate = true;
            continue;
        }
        let hash = WaveStore::hash(&wave);
        let successors = stepper.for_each_successor(&wave, |s, step, moved| {
            budget.checkpoint(WHAT)?;
            transitions += 1;
            if store.insert(s, WaveStore::step_hash(hash, &wave, s, moved)) {
                budget.record_items(1);
                if config.track_witnesses {
                    parents.push((from, step));
                }
            }
            Ok::<(), IwaError>(())
        })?;
        if successors > 0 {
            continue;
        }
        // No rendezvous can fire and not all tasks are done. In
        // deadlock-only mode a stall-only stuck wave is benign.
        if let Some(filter) = &mut deadlocks {
            if !filter.has_deadlock(&wave) {
                continue;
            }
        }
        anomaly_count += 1;
        if anomalies.len() < config.max_anomalies {
            let stuck = Wave(wave.clone());
            let report = classify(sg, &stuck);
            if config.track_witnesses {
                // Walk the parent chain back to an initial wave.
                let mut steps = Vec::new();
                let mut cur = from as usize;
                while cur >= initial {
                    let (prev, step) = parents[cur - initial];
                    steps.push(step);
                    cur = prev as usize;
                }
                steps.reverse();
                witnesses.push(steps);
            }
            anomalies.push((stuck, report));
        }
    }

    Ok(Exploration {
        verdict: if anomaly_count == 0 {
            Verdict::AnomalyFree
        } else {
            Verdict::Anomalous
        },
        states: store.len(),
        transitions,
        can_terminate,
        anomalies,
        witnesses,
        anomaly_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    fn explore_src(src: &str) -> Exploration {
        let p = parse(src).unwrap();
        let sg = SyncGraph::from_program(&p);
        explore(&sg, &ExploreConfig::default()).unwrap()
    }

    #[test]
    fn compatible_exchange_is_anomaly_free() {
        let e = explore_src(
            "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }",
        );
        assert_eq!(e.verdict, Verdict::AnomalyFree);
        assert!(e.can_terminate);
        assert_eq!(e.anomaly_count, 0);
    }

    #[test]
    fn crossed_sends_deadlock() {
        let e = explore_src(
            "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
        );
        assert_eq!(e.verdict, Verdict::Anomalous);
        assert!(e.has_deadlock());
        assert!(!e.can_terminate);
    }

    #[test]
    fn missing_partner_stalls() {
        // Paper Fig 2(a) flavour: an accept no one ever signals.
        let e = explore_src("task t1 { accept never; } task t2 { }");
        assert_eq!(e.verdict, Verdict::Anomalous);
        assert!(e.has_stall());
        assert!(!e.has_deadlock());
    }

    #[test]
    fn branch_choices_multiply_initial_waves() {
        let p = parse(
            "task t1 { if { send t2.a; } else { send t2.b; } }
             task t2 { if { accept a; } else { accept b; } }",
        )
        .unwrap();
        let sg = SyncGraph::from_program(&p);
        let init = initial_waves(&sg).unwrap();
        assert_eq!(init.len(), 4);
        // Two of the four initial waves are mismatched (a vs accept b …):
        // the program *can* stall.
        let e = explore(&sg, &ExploreConfig::default()).unwrap();
        assert_eq!(e.verdict, Verdict::Anomalous);
        assert!(e.can_terminate, "the matched branches do complete");
        assert!(e.has_stall());
    }

    #[test]
    fn loops_terminate_exploration() {
        // Unbounded loop on both sides: wave space is finite even though
        // executions are not.
        let e = explore_src(
            "task t1 { while { send t2.a; } } task t2 { while { accept a; } }",
        );
        // One side may exit its loop while the other keeps waiting: stall
        // is possible, but the state space stays tiny.
        assert!(e.states <= 16);
        assert!(e.can_terminate);
    }

    #[test]
    fn witnesses_replay_to_their_anomalies() {
        // Philosophers-style: a deadlock a few steps in; the witness must
        // replay through next_waves to the recorded stuck wave.
        let p = parse(
            "task f1 { accept take; accept put; }
             task f2 { accept take; accept put; }
             task p1 { send f1.take; send f2.take; send f1.put; send f2.put; }
             task p2 { send f2.take; send f1.take; send f2.put; send f1.put; }",
        )
        .unwrap();
        let sg = SyncGraph::from_program(&p);
        let e = explore(&sg, &ExploreConfig::default()).unwrap();
        assert!(!e.anomalies.is_empty());
        assert_eq!(e.anomalies.len(), e.witnesses.len());
        for ((stuck, _), steps) in e.anomalies.iter().zip(&e.witnesses) {
            // Replay: starting from some initial wave, each step must be
            // realisable and the final wave must equal the stuck one.
            let mut frontier: Vec<Wave> = initial_waves(&sg).unwrap();
            for step in steps {
                let mut next = Vec::new();
                for w in &frontier {
                    for (s, st) in next_waves_with_steps(&sg, w) {
                        if st == *step {
                            next.push(s);
                        }
                    }
                }
                assert!(!next.is_empty(), "witness step not realisable");
                frontier = next;
            }
            assert!(
                frontier.contains(stuck),
                "witness does not reach the stuck wave"
            );
            // Rendering names tasks.
            if let Some(first) = steps.first() {
                assert!(first.render(&sg).contains('⇄'));
            }
        }
    }

    #[test]
    fn witness_tracking_can_be_disabled() {
        let p = parse("task t1 { accept never; } task t2 { }").unwrap();
        let sg = SyncGraph::from_program(&p);
        let e = explore(
            &sg,
            &ExploreConfig {
                track_witnesses: false,
                ..ExploreConfig::default()
            },
        )
        .unwrap();
        assert!(e.witnesses.is_empty());
        assert_eq!(e.anomaly_count, 1);
    }

    #[test]
    fn immediate_deadlocks_have_empty_witnesses() {
        let p = parse(
            "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
        )
        .unwrap();
        let sg = SyncGraph::from_program(&p);
        let e = explore(&sg, &ExploreConfig::default()).unwrap();
        assert_eq!(e.witnesses.len(), 1);
        assert!(e.witnesses[0].is_empty(), "stuck from the very first wave");
    }

    #[test]
    fn budget_is_honoured() {
        let p = parse(
            "task t1 { send t2.a; send t2.a; send t2.a; }
             task t2 { accept a; accept a; accept a; }",
        )
        .unwrap();
        let sg = SyncGraph::from_program(&p);
        let e = explore(
            &sg,
            &ExploreConfig {
                max_states: 2,
                max_anomalies: 4,
                track_witnesses: false,
                ..ExploreConfig::default()
            },
        );
        assert!(matches!(e, Err(IwaError::BudgetExceeded { .. })));
    }

    #[test]
    fn ignore_stalls_keeps_deadlocks_but_drops_stall_only_waves() {
        let deadlock_only = ExploreConfig {
            ignore_stalls: true,
            ..ExploreConfig::default()
        };
        // Stall-only program: invisible in deadlock-only mode.
        let p = parse("task t1 { accept never; } task t2 { }").unwrap();
        let sg = SyncGraph::from_program(&p);
        let e = explore(&sg, &deadlock_only).unwrap();
        assert_eq!(e.verdict, Verdict::AnomalyFree);
        assert_eq!(e.anomaly_count, 0);
        assert!(e.anomalies.is_empty());
        // A genuine coupling cycle still surfaces, with its witness.
        let p = parse(
            "task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }",
        )
        .unwrap();
        let sg = SyncGraph::from_program(&p);
        let e = explore(&sg, &deadlock_only).unwrap();
        assert_eq!(e.verdict, Verdict::Anomalous);
        assert!(e.has_deadlock());
        assert_eq!(e.anomalies.len(), e.witnesses.len());
    }

    #[test]
    fn self_send_is_detected_as_anomalous() {
        let e = explore_src("task t { send t.m; accept m; }");
        assert_eq!(e.verdict, Verdict::Anomalous);
        // The send is coupled to itself: a one-node cycle, so deadlock-only
        // mode keeps it.
        let p = parse("task t { send t.m; accept m; }").unwrap();
        let sg = SyncGraph::from_program(&p);
        let config = ExploreConfig {
            ignore_stalls: true,
            ..ExploreConfig::default()
        };
        assert_eq!(explore(&sg, &config).unwrap().anomaly_count, 1);
    }

    #[test]
    fn stepped_hashes_equal_full_hashes_on_every_successor() {
        use iwa_tasklang::transforms::unroll_twice;
        use iwa_workloads::classics::{dining_philosophers, pipeline_looping, token_ring};
        use iwa_workloads::{random_balanced, random_structured, BalancedConfig, StructuredConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::collections::HashSet;

        let mut graphs = vec![
            SyncGraph::from_program(&dining_philosophers(4)),
            SyncGraph::from_program(&pipeline_looping(4)),
            SyncGraph::from_program(&token_ring(5)),
        ];
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let structured = random_structured(
                &mut rng,
                &StructuredConfig {
                    tasks: 2 + seed as usize % 3,
                    rendezvous_per_task: 3,
                    branch_prob: 0.3,
                    loop_prob: 0.2,
                    message_types: 2,
                },
            );
            graphs.push(SyncGraph::from_program(&structured));
            graphs.push(SyncGraph::from_program(&unroll_twice(&structured)));
            let balanced = random_balanced(
                &mut rng,
                &BalancedConfig {
                    tasks: 2 + seed as usize % 4,
                    events: 10,
                    swaps: 0,
                    ..BalancedConfig::default()
                },
            );
            graphs.push(SyncGraph::from_program(&balanced));
        }
        let mut checked = 0usize;
        for sg in &graphs {
            // Every reachable wave, up to a cap, and each of its successors.
            let mut stepper = Stepper::new(sg);
            let mut queue: Vec<Vec<u32>> = initial_waves(sg)
                .unwrap()
                .into_iter()
                .map(|w| w.0)
                .collect();
            let mut seen: HashSet<Vec<u32>> = queue.iter().cloned().collect();
            while let Some(wave) = queue.pop() {
                let hash = WaveStore::hash(&wave);
                let Ok(_) = stepper.for_each_successor(&wave, |s, _, (i, j)| {
                    assert!(i < j);
                    for (t, (&a, &b)) in wave.iter().zip(s).enumerate() {
                        assert!(a == b || t == i || t == j, "slot {t} moved");
                    }
                    assert_eq!(
                        WaveStore::step_hash(hash, &wave, s, (i, j)),
                        WaveStore::hash(s)
                    );
                    checked += 1;
                    if seen.len() < 2000 && seen.insert(s.to_vec()) {
                        queue.push(s.to_vec());
                    }
                    Ok::<(), Infallible>(())
                });
            }
        }
        assert!(checked > 1000, "only {checked} successors checked");
    }

    #[test]
    fn three_task_cycle_deadlocks() {
        // Classic circular wait across three tasks.
        let e = explore_src(
            "task a { send b.x; accept z; }
             task b { send c.y; accept x; }
             task c { send a.z; accept y; }",
        );
        assert!(e.has_deadlock());
        assert!(!e.can_terminate);
    }
}
