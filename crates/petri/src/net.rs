//! Place/transition nets: markings, firing, exhaustive reachability.

use iwa_core::{Budget, IwaError};
use std::collections::{HashSet, VecDeque};

/// A marking: token count per place.
pub type Marking = Vec<u32>;

/// An ordinary place/transition net.
#[derive(Clone, Debug, Default)]
pub struct PetriNet {
    /// Place names (diagnostics).
    pub place_names: Vec<String>,
    /// Transition names (diagnostics).
    pub transition_names: Vec<String>,
    /// Input places per transition.
    pre: Vec<Vec<u32>>,
    /// Output places per transition.
    post: Vec<Vec<u32>>,
    /// The initial marking.
    pub initial: Marking,
    /// Places whose tokens denote normal termination ("done" places): a
    /// dead marking whose tokens all sit here is success, not deadlock.
    pub final_places: Vec<u32>,
}

impl PetriNet {
    /// Add a place; returns its index.
    pub fn add_place(&mut self, name: impl Into<String>, initial_tokens: u32) -> usize {
        self.place_names.push(name.into());
        self.initial.push(initial_tokens);
        self.place_names.len() - 1
    }

    /// Add a transition with the given input and output places.
    pub fn add_transition(
        &mut self,
        name: impl Into<String>,
        inputs: &[usize],
        outputs: &[usize],
    ) -> usize {
        let np = self.place_names.len();
        assert!(
            inputs.iter().chain(outputs).all(|&p| p < np),
            "place out of range"
        );
        self.transition_names.push(name.into());
        self.pre.push(inputs.iter().map(|&p| p as u32).collect());
        self.post.push(outputs.iter().map(|&p| p as u32).collect());
        self.transition_names.len() - 1
    }

    /// Number of places.
    #[must_use]
    pub fn num_places(&self) -> usize {
        self.place_names.len()
    }

    /// Number of transitions.
    #[must_use]
    pub fn num_transitions(&self) -> usize {
        self.transition_names.len()
    }

    /// Input places of transition `t`.
    #[must_use]
    pub fn inputs(&self, t: usize) -> &[u32] {
        &self.pre[t]
    }

    /// Output places of transition `t`.
    #[must_use]
    pub fn outputs(&self, t: usize) -> &[u32] {
        &self.post[t]
    }

    /// Is `t` enabled in `m`?
    #[must_use]
    pub fn enabled(&self, m: &Marking, t: usize) -> bool {
        // Multiset semantics: a place feeding the transition k times needs
        // k tokens.
        let mut need = std::collections::HashMap::new();
        for &p in &self.pre[t] {
            *need.entry(p).or_insert(0u32) += 1;
        }
        need.iter().all(|(&p, &k)| m[p as usize] >= k)
    }

    /// Fire `t` in `m` (must be enabled), producing the successor marking.
    #[must_use]
    pub fn fire(&self, m: &Marking, t: usize) -> Marking {
        debug_assert!(self.enabled(m, t));
        let mut next = m.clone();
        for &p in &self.pre[t] {
            next[p as usize] -= 1;
        }
        for &p in &self.post[t] {
            next[p as usize] += 1;
        }
        next
    }

    /// Is `m` a success marking — dead with every token on a final place?
    #[must_use]
    pub fn is_final(&self, m: &Marking) -> bool {
        m.iter().enumerate().all(|(p, &k)| {
            k == 0 || self.final_places.contains(&(p as u32))
        })
    }

    /// Exhaustive reachability with dead-marking classification.
    pub fn explore(&self, max_markings: usize) -> Result<ReachResult, IwaError> {
        self.explore_budgeted(max_markings, &Budget::unlimited())
    }

    /// [`explore`](PetriNet::explore) under a cooperative [`Budget`]:
    /// checkpoints once per transition firing examined, so deadlines and
    /// cancellation stop the reachability BFS mid-flight.
    pub fn explore_budgeted(
        &self,
        max_markings: usize,
        budget: &Budget,
    ) -> Result<ReachResult, IwaError> {
        let mut visited: HashSet<Marking> = HashSet::new();
        let mut queue: VecDeque<Marking> = VecDeque::new();
        visited.insert(self.initial.clone());
        queue.push_back(self.initial.clone());
        let mut deadlocks = Vec::new();
        let mut can_terminate = false;
        let mut transitions_fired = 0usize;

        while let Some(m) = queue.pop_front() {
            budget.probe("exploring petri-net markings")?;
            if visited.len() > max_markings {
                return Err(IwaError::BudgetExceeded {
                    what: "exploring petri-net markings".into(),
                    limit: max_markings,
                    steps: transitions_fired as u64,
                    items: visited.len(),
                    degraded: false,
                });
            }
            let enabled: Vec<usize> =
                (0..self.num_transitions()).filter(|&t| self.enabled(&m, t)).collect();
            if enabled.is_empty() {
                if self.is_final(&m) {
                    can_terminate = true;
                } else if deadlocks.len() < 64 {
                    deadlocks.push(m.clone());
                }
                continue;
            }
            for t in enabled {
                budget.checkpoint("exploring petri-net markings")?;
                transitions_fired += 1;
                let next = self.fire(&m, t);
                if visited.insert(next.clone()) {
                    budget.record_items(1);
                    queue.push_back(next);
                }
            }
        }
        let deadlock_count = deadlocks.len();
        Ok(ReachResult {
            markings: visited.len(),
            transitions_fired,
            can_terminate,
            deadlocks,
            deadlock_free: deadlock_count == 0,
        })
    }
}

/// Result of [`PetriNet::explore`].
#[derive(Clone, Debug)]
pub struct ReachResult {
    /// Distinct markings visited.
    pub markings: usize,
    /// Transition firings examined.
    pub transitions_fired: usize,
    /// Some firing sequence reaches the success marking.
    pub can_terminate: bool,
    /// Dead non-final markings found (up to 64 retained).
    pub deadlocks: Vec<Marking>,
    /// No dead non-final marking is reachable.
    pub deadlock_free: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// p0 --t0--> p1 --t1--> p2(final)
    fn chain() -> PetriNet {
        let mut n = PetriNet::default();
        let p0 = n.add_place("p0", 1);
        let p1 = n.add_place("p1", 0);
        let p2 = n.add_place("p2", 0);
        n.add_transition("t0", &[p0], &[p1]);
        n.add_transition("t1", &[p1], &[p2]);
        n.final_places = vec![p2 as u32];
        n
    }

    #[test]
    fn firing_moves_tokens() {
        let n = chain();
        assert!(n.enabled(&n.initial, 0));
        assert!(!n.enabled(&n.initial, 1));
        let m1 = n.fire(&n.initial, 0);
        assert_eq!(m1, vec![0, 1, 0]);
        let m2 = n.fire(&m1, 1);
        assert!(n.is_final(&m2));
    }

    #[test]
    fn chain_is_deadlock_free() {
        let n = chain();
        let r = n.explore(1000).unwrap();
        assert!(r.deadlock_free);
        assert!(r.can_terminate);
        assert_eq!(r.markings, 3);
    }

    #[test]
    fn starved_join_deadlocks() {
        // t needs tokens in both p0 and p1 but p1 is never marked.
        let mut n = PetriNet::default();
        let p0 = n.add_place("p0", 1);
        let p1 = n.add_place("p1", 0);
        let p2 = n.add_place("p2", 0);
        n.add_transition("t", &[p0, p1], &[p2]);
        n.final_places = vec![p2 as u32];
        let r = n.explore(100).unwrap();
        assert!(!r.deadlock_free);
        assert!(!r.can_terminate);
        assert_eq!(r.deadlocks.len(), 1);
    }

    #[test]
    fn multiset_inputs_require_multiple_tokens() {
        let mut n = PetriNet::default();
        let p0 = n.add_place("p0", 1);
        let p1 = n.add_place("p1", 0);
        let t = n.add_transition("t", &[p0, p0], &[p1]);
        assert!(!n.enabled(&n.initial, t), "needs two tokens, has one");
        let m2 = vec![2, 0];
        assert!(n.enabled(&m2, t));
        assert_eq!(n.fire(&m2, t), vec![0, 1]);
    }

    #[test]
    fn budget_is_enforced() {
        // Unbounded net: t produces two tokens from one.
        let mut n = PetriNet::default();
        let p0 = n.add_place("p0", 1);
        n.add_transition("t", &[p0], &[p0, p0]);
        assert!(n.explore(10).is_err());
    }

    #[test]
    fn choice_explores_both_branches() {
        let mut n = PetriNet::default();
        let p0 = n.add_place("p0", 1);
        let pa = n.add_place("pa", 0);
        let pb = n.add_place("pb", 0);
        n.add_transition("ta", &[p0], &[pa]);
        n.add_transition("tb", &[p0], &[pb]);
        n.final_places = vec![pa as u32, pb as u32];
        let r = n.explore(100).unwrap();
        assert!(r.deadlock_free);
        assert_eq!(r.markings, 3);
    }
}
