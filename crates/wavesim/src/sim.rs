//! Monte-Carlo execution (random scheduling and branch choices).
//!
//! One random run of the wave semantics, recording per-task traces. Traces
//! feed `iwa_tasklang::transforms::linearize`, giving concrete `P_E`
//! programs for the Lemma 1 experiments; the runner is also a cheap
//! anomaly-hunting fuzzer for large programs where exhaustive exploration
//! is out of reach.

use crate::explore::{initial_waves, Stepper};
use crate::wave::{Wave, DONE};
use iwa_core::{IwaError, Rendezvous, TaskId};
use iwa_syncgraph::SyncGraph;
use rand::seq::SliceRandom;
use rand::Rng;

/// How a simulated run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimOutcome {
    /// All tasks reached `e`.
    Completed,
    /// The run reached an anomalous wave.
    Anomalous,
    /// The step budget ran out first (possible with loops).
    OutOfSteps,
}

/// The record of one simulated execution.
#[derive(Clone, Debug)]
pub struct Trace {
    /// How the run ended.
    pub outcome: SimOutcome,
    /// Number of rendezvous fired.
    pub steps: usize,
    /// The final wave.
    pub final_wave: Wave,
    /// Per task: the rendezvous nodes executed, in order (sync-graph node
    /// indices).
    pub executed: Vec<Vec<usize>>,
}

impl Trace {
    /// Convert the per-task node traces into the `(Rendezvous, label)` form
    /// `iwa_tasklang::transforms::linearize` consumes.
    #[must_use]
    pub fn task_traces(&self, sg: &SyncGraph) -> Vec<Vec<(Rendezvous, Option<String>)>> {
        self.executed
            .iter()
            .map(|nodes| {
                nodes
                    .iter()
                    .map(|&n| {
                        let d = sg.node(n);
                        (d.rendezvous, d.label.clone())
                    })
                    .collect()
            })
            .collect()
    }
}

/// Run one random execution: random initial branch choices, then repeatedly
/// fire a uniformly random enabled rendezvous (with random successor branch
/// choices) until termination, anomaly, or `max_steps`.
#[allow(clippy::needless_range_loop)] // t indexes wave slots and traces in step
pub fn simulate(
    sg: &SyncGraph,
    rng: &mut impl Rng,
    max_steps: usize,
) -> Result<Trace, IwaError> {
    let init = initial_waves(sg)?;
    let mut wave = init
        .choose(rng)
        .expect("at least one initial wave")
        .clone();
    let mut executed: Vec<Vec<usize>> = vec![Vec::new(); sg.num_tasks];
    let mut steps = 0usize;
    let mut stepper = Stepper::new(sg);

    loop {
        if wave.all_done() {
            return Ok(Trace {
                outcome: SimOutcome::Completed,
                steps,
                final_wave: wave,
                executed,
            });
        }
        if steps >= max_steps {
            return Ok(Trace {
                outcome: SimOutcome::OutOfSteps,
                steps,
                final_wave: wave,
                executed,
            });
        }
        let succs = stepper.successors(&wave.0);
        if succs.is_empty() {
            return Ok(Trace {
                outcome: SimOutcome::Anomalous,
                steps,
                final_wave: wave,
                executed,
            });
        }
        let (next, _) = succs.choose(rng).expect("nonempty").clone();
        // Record which tasks moved (their previous slots executed).
        for t in 0..sg.num_tasks {
            let task = TaskId(t as u32);
            if wave.slot(task) != next.slot(task) {
                let prev = wave.slot(task);
                debug_assert_ne!(prev, DONE);
                executed[t].push(prev as usize);
            }
        }
        wave = next;
        steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use iwa_tasklang::parse;

    fn sg_of(src: &str) -> SyncGraph {
        SyncGraph::from_program(&parse(src).unwrap())
    }

    #[test]
    fn clean_exchange_completes_with_full_traces() {
        let sg = sg_of("task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }");
        let mut rng = StdRng::seed_from_u64(7);
        let t = simulate(&sg, &mut rng, 100).unwrap();
        assert_eq!(t.outcome, SimOutcome::Completed);
        assert_eq!(t.steps, 2);
        assert_eq!(t.executed[0].len(), 2);
        assert_eq!(t.executed[1].len(), 2);
        let traces = t.task_traces(&sg);
        assert!(traces[0][0].0.sign.is_send());
    }

    #[test]
    fn crossed_sends_always_anomalous() {
        let sg = sg_of("task t1 { send t2.a; accept b; } task t2 { send t1.b; accept a; }");
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = simulate(&sg, &mut rng, 100).unwrap();
            assert_eq!(t.outcome, SimOutcome::Anomalous);
            assert_eq!(t.steps, 0);
        }
    }

    #[test]
    fn loops_hit_the_step_budget() {
        let sg = sg_of("task t1 { repeat { send t2.a; } } task t2 { repeat { accept a; } }");
        let mut rng = StdRng::seed_from_u64(3);
        let t = simulate(&sg, &mut rng, 10).unwrap();
        // Either someone exited their loop early and the other stalls, or
        // we looped until the budget — both are possible under random
        // choices; what cannot happen is an uneventful completion with zero
        // steps.
        assert!(t.steps >= 1);
    }

    #[test]
    fn traces_linearize_back_into_programs() {
        let p = parse("task t1 { while { send t2.a; } } task t2 { while { accept a; } }")
            .unwrap();
        let sg = SyncGraph::from_program(&p);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let t = simulate(&sg, &mut rng, 50).unwrap();
            let pe = iwa_tasklang::transforms::linearize(&p, t.task_traces(&sg));
            assert!(pe.is_straight_line());
            assert_eq!(
                pe.tasks[0].body.len(),
                t.executed[0].len(),
                "trace lengths preserved"
            );
        }
    }

    #[test]
    fn deterministic_given_a_seed() {
        let sg = sg_of(
            "task t1 { if { send t2.a; } else { send t2.b; } } task t2 { accept a; accept b; }",
        );
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            simulate(&sg, &mut rng, 100).unwrap()
        };
        let (a, b) = (run(42), run(42));
        assert_eq!(a.final_wave, b.final_wave);
        assert_eq!(a.executed, b.executed);
    }
}
