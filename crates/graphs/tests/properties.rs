//! Property-based tests: brute-force checks of the graph algorithms, plus
//! the CSR-vs-adjacency-list equivalence suite guarding the PR-7 graph-core
//! redesign.
//!
//! [`AdjGraph`] below reimplements the pre-redesign `DiGraph` storage
//! (per-node `Vec` push order on both adjacency sides) as a test-local
//! [`GraphView`]. Every algorithm result — SCC component numbering and
//! member order, condensation edges, dominators, topo order — must be
//! *byte-identical* between the two representations on random digraphs,
//! because downstream reports are pinned to these orders.

use iwa_graphs::dfs::has_cycle_from;
use iwa_graphs::topo::{is_acyclic, topological_sort};
use iwa_graphs::{BitSet, Csr, Dominators, GraphView, Scc};
use proptest::prelude::*;

/// The pre-redesign adjacency-list representation, kept as the reference
/// implementation for the equivalence proptests.
#[derive(Clone, Debug)]
struct AdjGraph {
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    num_edges: usize,
}

impl AdjGraph {
    fn with_nodes(n: usize) -> Self {
        AdjGraph {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    fn add_arc(&mut self, u: usize, v: usize) {
        self.succs[u].push(v as u32);
        self.preds[v].push(u as u32);
        self.num_edges += 1;
    }
}

impl GraphView for AdjGraph {
    fn num_nodes(&self) -> usize {
        self.succs.len()
    }
    fn num_edges(&self) -> usize {
        self.num_edges
    }
    fn successors(&self, u: usize) -> &[u32] {
        &self.succs[u]
    }
    fn predecessors(&self, u: usize) -> &[u32] {
        &self.preds[u]
    }
}

/// Strategy: a random edge list over `1..=max_n` nodes. Built as a btree set
/// so the graph is *simple* (parallel edges would make node-sequence cycle
/// identity ambiguous, and never arise in CLGs).
fn arb_edges(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::btree_set((0..n, 0..n), 0..(n * 3))
            .prop_map(move |edges| (n, edges.into_iter().collect()))
    })
}

/// Build both representations from one edge list.
fn both(n: usize, edges: &[(usize, usize)]) -> (Csr<()>, AdjGraph) {
    let csr = Csr::from_edges(n, edges);
    let mut adj = AdjGraph::with_nodes(n);
    for &(u, v) in edges {
        adj.add_arc(u, v);
    }
    (csr, adj)
}

/// A test-only copy of the iterative Tarjan that stored one `Vec` of
/// members per component: `(comp, members)` exactly as it returned them.
fn nested_tarjan<G: GraphView>(g: &G, mask: Option<&BitSet>) -> (Vec<u32>, Vec<Vec<u32>>) {
    const UNVISITED: u32 = u32::MAX;
    let n = g.num_nodes();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0; n];
    let mut on_stack = BitSet::new(n);
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0;
    let mut comp = vec![0; n];
    let mut members: Vec<Vec<u32>> = Vec::new();
    let enabled = |v: usize| mask.is_none_or(|m| m.contains(v));
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        if !enabled(root) {
            index[root] = next_index;
            next_index += 1;
            comp[root] = members.len() as u32;
            members.push(vec![root as u32]);
            continue;
        }
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack.insert(root);
        while let Some(&mut (u, ref mut next)) = call.last_mut() {
            if *next < g.out_degree(u) {
                let w = g.successors(u)[*next] as usize;
                *next += 1;
                if !enabled(w) {
                    continue;
                }
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack.insert(w);
                    call.push((w, 0));
                } else if on_stack.contains(w) {
                    lowlink[u] = lowlink[u].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[u]);
                }
                if lowlink[u] == index[u] {
                    let cid = members.len() as u32;
                    let mut group = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack.remove(w as usize);
                        comp[w as usize] = cid;
                        group.push(w);
                        if w as usize == u {
                            break;
                        }
                    }
                    members.push(group);
                }
            }
        }
    }
    (comp, members)
}

/// Brute-force reachability matrix by repeated DFS.
fn reach_matrix(g: &Csr<()>) -> Vec<BitSet> {
    (0..g.num_nodes()).map(|v| g.reachable_from(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tarjan components == mutual-reachability equivalence classes.
    #[test]
    fn scc_matches_mutual_reachability(input in arb_edges(12)) {
        let (n, edges) = input;
        let g = Csr::from_edges(n, &edges);
        let scc = Scc::compute(&g, None);
        let reach = reach_matrix(&g);
        for u in 0..n {
            for v in 0..n {
                let mutual = reach[u].contains(v) && reach[v].contains(u);
                prop_assert_eq!(
                    scc.same_component(u, v),
                    mutual,
                    "nodes {} and {}", u, v
                );
            }
        }
    }

    /// The flat member storage gives what the nested one did: the same
    /// `comp`, the same member lists in the same order, whole-graph and
    /// masked, and the components partition the nodes.
    #[test]
    fn flat_scc_matches_the_nested_tarjan(
        input in arb_edges(16),
        bits in 0u64..(1 << 16),
    ) {
        let (n, edges) = input;
        let g = Csr::from_edges(n, &edges);
        let mut mask = BitSet::new(n);
        for v in (0..n).filter(|v| bits >> v & 1 == 1) {
            mask.insert(v);
        }
        for mask in [None, Some(&mask)] {
            let scc = Scc::compute(&g, mask);
            let (comp, members) = nested_tarjan(&g, mask);
            prop_assert_eq!(&scc.comp, &comp);
            prop_assert_eq!(scc.num_components(), members.len());
            prop_assert_eq!(scc.components().len(), members.len());
            let flat: Vec<&[u32]> = scc.components().collect();
            let nested: Vec<&[u32]> = members.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(&flat, &nested);
            for (c, m) in members.iter().enumerate() {
                prop_assert_eq!(scc.members(c), m.as_slice());
            }
            let mut seen = vec![false; n];
            for (c, m) in scc.components().enumerate() {
                prop_assert!(!m.is_empty());
                for &v in m {
                    prop_assert!(!seen[v as usize], "node {} listed twice", v);
                    seen[v as usize] = true;
                    prop_assert_eq!(scc.component_of(v as usize), c);
                }
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    /// The rooted query returns exactly the root's component of the masked
    /// decomposition, root first, on random graphs, masks and roots.
    #[test]
    fn rooted_component_matches_masked_scc(
        input in arb_edges(14),
        bits in 0u64..(1 << 14),
        root in 0usize..14,
    ) {
        let (n, edges) = input;
        let g = Csr::from_edges(n, &edges);
        let root = root % n;
        let mut mask = BitSet::new(n);
        for v in (0..n).filter(|v| bits >> v & 1 == 1) {
            mask.insert(v);
        }
        let scc = Scc::compute(&g, Some(&mask));
        let mut want = scc.members(scc.component_of(root)).to_vec();
        want.sort_unstable();
        let mut got = Scc::rooted_component(&g, root, |v| mask.contains(v));
        prop_assert_eq!(got[0] as usize, root);
        got.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// A graph has a cycle reachable from node 0 iff some reachable node sits
    /// in a non-trivial SCC.
    #[test]
    fn cycle_from_matches_scc(input in arb_edges(12)) {
        let (n, edges) = input;
        let g = Csr::from_edges(n, &edges);
        let scc = Scc::compute(&g, None);
        let reachable = g.reachable_from(0);
        let via_scc = reachable
            .iter_ones()
            .any(|v| scc.in_nontrivial_component(&g, v));
        prop_assert_eq!(has_cycle_from(&g, 0), via_scc);
    }

    /// Kahn acyclicity agrees with "no non-trivial SCC and no self-loop".
    #[test]
    fn topo_agrees_with_scc(input in arb_edges(12)) {
        let (n, edges) = input;
        let g = Csr::from_edges(n, &edges);
        let scc = Scc::compute(&g, None);
        let any_cycle = (0..n).any(|v| scc.in_nontrivial_component(&g, v));
        prop_assert_eq!(is_acyclic(&g), !any_cycle);
    }

    /// Dominance: `a` dominates `b` iff removing `a` makes `b` unreachable
    /// from the entry (for a != b, both reachable).
    #[test]
    fn dominators_match_removal_definition(input in arb_edges(10)) {
        let (n, edges) = input;
        let g = Csr::from_edges(n, &edges);
        let entry = 0usize;
        let dom = Dominators::compute(&g, entry);
        let reachable = g.reachable_from(entry);
        for a in 0..n {
            if a == entry || !reachable.contains(a) {
                continue;
            }
            // Reachability with `a` deleted.
            let without_a =
                g.reachable_from_filtered(entry, |u, v, _| u != a && v != a);
            for b in 0..n {
                if !reachable.contains(b) || b == a {
                    continue;
                }
                let dominated = !without_a.contains(b);
                prop_assert_eq!(
                    dom.dominates(a, b),
                    dominated,
                    "a={} b={}", a, b
                );
            }
        }
    }

    // ---- CSR vs legacy-adjacency-list equivalence (PR-7 redesign gate) ----

    /// Adjacency slices agree edge-for-edge, in order, on both sides.
    #[test]
    fn csr_adjacency_identical(input in arb_edges(14)) {
        let (n, edges) = input;
        let (csr, adj) = both(n, &edges);
        prop_assert_eq!(csr.num_edges(), adj.num_edges());
        for v in 0..n {
            prop_assert_eq!(Csr::successors(&csr, v), adj.successors(v));
            prop_assert_eq!(Csr::predecessors(&csr, v), adj.predecessors(v));
        }
    }

    /// SCC output — component numbering AND member order — is byte-identical.
    #[test]
    fn csr_scc_identical(input in arb_edges(14)) {
        let (n, edges) = input;
        let (csr, adj) = both(n, &edges);
        let a = Scc::compute(&csr, None);
        let b = Scc::compute(&adj, None);
        prop_assert_eq!(&a.comp, &b.comp);
        prop_assert!(a.components().eq(b.components()));
        // Masked runs agree too (mask = even nodes).
        let mut mask = BitSet::new(n);
        for v in (0..n).step_by(2) {
            mask.insert(v);
        }
        let am = Scc::compute(&csr, Some(&mask));
        let bm = Scc::compute(&adj, Some(&mask));
        prop_assert_eq!(&am.comp, &bm.comp);
        prop_assert!(am.components().eq(bm.components()));
    }

    /// Condensation edge lists are identical (order included).
    #[test]
    fn csr_condensation_identical(input in arb_edges(14)) {
        let (n, edges) = input;
        let (csr, adj) = both(n, &edges);
        let a = Scc::compute(&csr, None).condensation(&csr);
        let b = Scc::compute(&adj, None).condensation(&adj);
        let ae: Vec<(usize, usize)> = a.edges().map(|(u, v, ())| (u, v)).collect();
        let be: Vec<(usize, usize)> = b.edges().map(|(u, v, ())| (u, v)).collect();
        prop_assert_eq!(ae, be);
        prop_assert_eq!(a.num_nodes(), b.num_nodes());
    }

    /// Dominator tables agree node-for-node.
    #[test]
    fn csr_dominators_identical(input in arb_edges(12)) {
        let (n, edges) = input;
        let (csr, adj) = both(n, &edges);
        let a = Dominators::compute(&csr, 0);
        let b = Dominators::compute(&adj, 0);
        for v in 0..n {
            prop_assert_eq!(a.idom(v), b.idom(v), "idom of {}", v);
            prop_assert_eq!(a.is_reachable(v), b.is_reachable(v));
        }
    }

    /// Topological order (including its exact node sequence) is identical.
    #[test]
    fn csr_topo_identical(input in arb_edges(14)) {
        let (n, edges) = input;
        let (csr, adj) = both(n, &edges);
        prop_assert_eq!(topological_sort(&csr), topological_sort(&adj));
    }
}
