//! Topological sorting (Kahn's algorithm).

use crate::view::GraphView;

/// A topological order of all nodes, or `None` if the graph has a cycle.
#[must_use]
pub fn topological_sort<G: GraphView + ?Sized>(g: &G) -> Option<Vec<usize>> {
    let n = g.num_nodes();
    let mut in_deg: Vec<usize> = (0..n).map(|v| g.in_degree(v)).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&v| in_deg[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in g.successors(v) {
            let w = w as usize;
            in_deg[w] -= 1;
            if in_deg[w] == 0 {
                queue.push(w);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Csr, GraphBuilder};

    #[test]
    fn sorts_a_dag() {
        let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = topological_sort(&g).expect("dag");
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn rejects_cycles() {
        let g = Csr::from_edges(2, &[(0, 1), (1, 0)]);
        assert!(topological_sort(&g).is_none());
    }

    #[test]
    fn empty_and_isolated() {
        let g = Csr::from_edges(3, &[]);
        assert_eq!(topological_sort(&g).unwrap().len(), 3);
        let empty: Csr<()> = Csr::new();
        assert!(topological_sort(&empty).is_some());
    }

    #[test]
    fn self_loop_rejected() {
        let mut b: GraphBuilder<()> = GraphBuilder::with_nodes(1);
        b.add_arc(0, 0);
        assert!(topological_sort(&b.freeze()).is_none());
    }
}
