//! Dominator trees (Cooper–Harvey–Kennedy "engineered" algorithm).
//!
//! Rule 1 of the paper's ordering dataflow (§4.1) seeds the `precedes`
//! relation from control-flow dominance: *"if `r` dominates `s` in the
//! control flow graph of their task, then `r` must precede `s`"*. This
//! module computes immediate dominators per task CFG.

use crate::dfs::reverse_postorder;
use crate::view::GraphView;

/// Immediate-dominator table for the nodes reachable from an entry node.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// `idom[v]` = immediate dominator of `v`, or `usize::MAX` if `v` is the
    /// entry or unreachable.
    idom: Vec<usize>,
    entry: usize,
    /// Reverse postorder number of each node (`usize::MAX` if unreachable).
    rpo_number: Vec<usize>,
}

const NONE: usize = usize::MAX;

impl Dominators {
    /// Compute dominators of `g` from `entry` using the iterative
    /// Cooper–Harvey–Kennedy scheme.
    #[must_use]
    pub fn compute<G: GraphView + ?Sized>(g: &G, entry: usize) -> Dominators {
        let n = g.num_nodes();
        let rpo = reverse_postorder(g, entry);
        let mut rpo_number = vec![NONE; n];
        for (i, &v) in rpo.iter().enumerate() {
            rpo_number[v] = i;
        }
        let mut idom = vec![NONE; n];
        idom[entry] = entry;

        let intersect = |idom: &[usize], rpo_number: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_number[a] > rpo_number[b] {
                    a = idom[a];
                }
                while rpo_number[b] > rpo_number[a] {
                    b = idom[b];
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &v in rpo.iter().skip(1) {
                let mut new_idom = NONE;
                for &p in g.predecessors(v) {
                    let p = p as usize;
                    if idom[p] == NONE {
                        continue; // predecessor not yet processed / unreachable
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        intersect(&idom, &rpo_number, new_idom, p)
                    };
                }
                if new_idom != NONE && idom[v] != new_idom {
                    idom[v] = new_idom;
                    changed = true;
                }
            }
        }

        Dominators {
            idom,
            entry,
            rpo_number,
        }
    }

    /// The entry node.
    #[must_use]
    pub fn entry(&self) -> usize {
        self.entry
    }

    /// Immediate dominator of `v` (`None` for the entry or unreachable
    /// nodes).
    #[must_use]
    pub fn idom(&self, v: usize) -> Option<usize> {
        if v == self.entry || self.idom[v] == NONE {
            None
        } else {
            Some(self.idom[v])
        }
    }

    /// Is `v` reachable from the entry?
    #[must_use]
    pub fn is_reachable(&self, v: usize) -> bool {
        self.rpo_number[v] != NONE
    }

    /// Does `a` dominate `b`? (Reflexive: every node dominates itself.)
    ///
    /// Walks the dominator tree from `b` upward; tree height is at most the
    /// CFG depth, which is small for structured programs.
    #[must_use]
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut v = b;
        loop {
            if v == a {
                return true;
            }
            if v == self.entry {
                return false;
            }
            v = self.idom[v];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csr;

    /// Classic diamond: entry 0, branch 1/2, join 3, exit 4.
    fn diamond() -> Csr<()> {
        Csr::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    }

    #[test]
    fn diamond_dominators() {
        let d = Dominators::compute(&diamond(), 0);
        assert_eq!(d.idom(1), Some(0));
        assert_eq!(d.idom(2), Some(0));
        assert_eq!(d.idom(3), Some(0)); // join is dominated by the fork, not a branch
        assert_eq!(d.idom(4), Some(3));
        assert!(d.dominates(0, 4));
        assert!(d.dominates(3, 4));
        assert!(!d.dominates(1, 3));
        assert!(d.dominates(2, 2)); // reflexive
    }

    #[test]
    fn entry_has_no_idom() {
        let d = Dominators::compute(&diamond(), 0);
        assert_eq!(d.idom(0), None);
        assert_eq!(d.entry(), 0);
    }

    #[test]
    fn unreachable_nodes() {
        let g = Csr::from_edges(4, &[(0, 1), (2, 3)]);
        let d = Dominators::compute(&g, 0);
        assert!(!d.is_reachable(2));
        assert_eq!(d.idom(3), None);
        assert!(!d.dominates(0, 3));
        assert!(!d.dominates(2, 3)); // both outside the reachable region
    }

    #[test]
    fn loop_with_back_edge() {
        // 0 → 1 → 2 → 1 (back edge), 2 → 3
        let g = Csr::from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]);
        let d = Dominators::compute(&g, 0);
        assert_eq!(d.idom(1), Some(0));
        assert_eq!(d.idom(2), Some(1));
        assert_eq!(d.idom(3), Some(2));
        assert!(d.dominates(1, 3));
    }
}
