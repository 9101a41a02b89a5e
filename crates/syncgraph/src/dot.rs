//! Graphviz (`.dot`) rendering of sync graphs and CLGs, used by the CLI's
//! `iwa graph` subcommand and handy when eyeballing fixtures against the
//! paper's figures.

use crate::graph::{SyncGraph, B, E};
use crate::ports::PortClg;
use std::fmt::Write as _;

/// Render a sync graph: solid arrows = control edges, dashed lines = sync
/// edges; nodes grouped per task (the paper draws each task as a column).
#[must_use]
pub fn sync_graph_dot(sg: &SyncGraph) -> String {
    let mut out = String::from("digraph sync_graph {\n  rankdir=TB;\n");
    let _ = writeln!(out, "  b [shape=point,label=\"b\"];");
    let _ = writeln!(out, "  e [shape=point,label=\"e\"];");
    for t in 0..sg.num_tasks {
        let task = iwa_core::TaskId(t as u32);
        let _ = writeln!(out, "  subgraph cluster_{t} {{");
        let _ = writeln!(out, "    label=\"{}\";", sg.symbols.task_name(task));
        for &n in sg.nodes_of_task(task) {
            let n = n as usize;
            let d = sg.node(n);
            let name = d
                .label
                .clone()
                .unwrap_or_else(|| format!("n{n}"));
            let _ = writeln!(
                out,
                "    n{n} [label=\"{name}: {}{}\"];",
                sg.symbols.signal_name(d.rendezvous.signal),
                d.rendezvous.sign
            );
        }
        let _ = writeln!(out, "  }}");
    }
    let node_name = |n: usize| match n {
        B => "b".to_owned(),
        E => "e".to_owned(),
        n => format!("n{n}"),
    };
    for (u, v, ()) in sg.control.edges() {
        let _ = writeln!(out, "  {} -> {};", node_name(u), node_name(v));
    }
    for r in sg.rendezvous_nodes() {
        for &s in sg.sync_neighbors(r) {
            let s = s as usize;
            if r < s {
                let _ = writeln!(
                    out,
                    "  n{r} -> n{s} [dir=none,style=dashed,constraint=false];"
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Render the paper's CLG, its ports looked through, with its three edge
/// kinds distinguished. Nodes are named by index (`n{r}_o`, `n{r}_i`, as
/// [`sync_graph_dot`] names `n{r}`) and labelled with the rendezvous
/// label, so rendezvous that share a label stay apart.
#[must_use]
pub fn clg_dot(sg: &SyncGraph, clg: &PortClg) -> String {
    let mut out = String::from("digraph clg {\n  rankdir=TB;\n");
    for r in sg.rendezvous_nodes() {
        let base = sg
            .node(r)
            .label
            .clone()
            .unwrap_or_else(|| format!("n{r}"));
        let _ = writeln!(out, "  n{r}_o [label=\"{base}_o\"];");
        let _ = writeln!(out, "  n{r}_i [label=\"{base}_i\"];");
    }
    let name = |c: usize| -> String {
        match c {
            B => "b".into(),
            E => "e".into(),
            c if clg.is_in_node(c) => format!("n{}_i", clg.sync_node_of(c)),
            c => format!("n{}_o", clg.sync_node_of(c)),
        }
    };
    for u in (0..clg.num_nodes()).filter(|&u| !clg.is_port(u)) {
        for v in clg.clg_successors(u) {
            let style = if clg.is_sync_edge(u, v) {
                " [style=dashed,color=blue]"
            } else if clg.is_in_node(v) {
                " [style=dotted]"
            } else {
                ""
            };
            let _ = writeln!(out, "  {} -> {}{};", name(u), name(v), style);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    #[test]
    fn dot_outputs_contain_expected_elements() {
        let p = parse("task a { send b.m as r; } task b { accept m as s; }").unwrap();
        let sg = SyncGraph::from_program(&p);
        let dot = sync_graph_dot(&sg);
        assert!(dot.contains("digraph sync_graph"));
        assert!(dot.contains("cluster_0"));
        assert!(dot.contains("r: b.m+"));
        assert!(dot.contains("style=dashed"));
        let clg = PortClg::build(&sg);
        let cdot = clg_dot(&sg, &clg);
        assert!(cdot.contains("digraph clg"));
        assert!(cdot.contains("[label=\"r_o\"]"));
        assert!(cdot.contains("[label=\"s_i\"]"));
        assert!(cdot.contains("color=blue"));
    }
}
