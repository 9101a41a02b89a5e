//! Co-executability (constraint 3b, after Callahan & Subhlok \[CS88\]).
//!
//! Two nodes are *co-executable* when some single run of the program can
//! execute both. The refined algorithm consumes the complement,
//! `NOT-COEXEC[h]`: nodes provably absent from every run that executes (or
//! blocks at) `h` can be cut out of the head's cycle search entirely.
//!
//! The derivable, sound core is **intra-task branch exclusivity**: two
//! nodes of one task with no control path between them in either direction
//! sit on mutually exclusive branches, and one task executes one path.
//! Cross-task exclusivity would require correlating branch outcomes across
//! tasks (the paper assumes such facts are "given … through other static
//! analysis"); leaving cross-task pairs co-executable only ever makes the
//! refined algorithm *more* conservative, never unsafe.

use iwa_core::TaskId;
use iwa_graphs::BitSet;
use iwa_syncgraph::SyncGraph;
use std::collections::HashMap;

/// The `NOT-COEXEC` table.
#[derive(Clone, Debug)]
pub struct CoexecInfo {
    /// Union–find roots for encapsulated condition variables, keyed by
    /// `(task, name)` — present only when condition reasoning is enabled.
    cond_roots: Option<HashMap<(TaskId, String), usize>>,
    /// Precomputed `NOT-COEXEC[h]` rows. The same-task part is built with
    /// 64-lane word operations (task mask minus forward and backward
    /// reachability); the cross-task condition part is added scalar when
    /// condition reasoning is enabled. The refined algorithm unions whole
    /// rows into its DO-NOT-ENTER set, and [`CoexecInfo::not_coexec`]
    /// reads same-task pairs from them.
    rows: Vec<BitSet>,
}

impl CoexecInfo {
    /// Compute intra-task branch exclusivity for every rendezvous node.
    #[must_use]
    pub fn compute(sg: &SyncGraph) -> CoexecInfo {
        CoexecInfo {
            cond_roots: None,
            rows: intra_task_rows(sg),
        }
    }

    /// Add the cross-task condition contradictions to the rows.
    fn add_condition_rows(&mut self, sg: &SyncGraph) {
        for h in sg.rendezvous_nodes() {
            let h_task = sg.node(h).task;
            for k in sg.rendezvous_nodes() {
                if sg.node(k).task != h_task && self.not_coexec(sg, h, k) {
                    self.rows[h].insert(k);
                }
            }
        }
    }

    /// Like [`compute`](CoexecInfo::compute), additionally deriving
    /// **cross-task** exclusivity from encapsulated condition variables
    /// (§5.1): two nodes guarded with *opposite polarities* of provably
    /// equal booleans can never execute in the same run.
    ///
    /// Value flow follows the same discipline as the stall-side
    /// co-dependence inference: a signal with a unique `send … carrying x`
    /// and unique `accept … binding y` equates `x ~ y`; variables are
    /// single-assignment (multiply-bound names are excluded).
    #[must_use]
    pub fn compute_with_conditions(sg: &SyncGraph) -> CoexecInfo {
        let mut info = CoexecInfo::compute(sg);

        // Collect carry/bind links per signal and bind counts.
        let mut bind_counts: HashMap<(TaskId, String), usize> = HashMap::new();
        for n in sg.rendezvous_nodes() {
            let d = sg.node(n);
            if let Some(b) = &d.binding {
                *bind_counts.entry((d.task, b.clone())).or_default() += 1;
            }
        }
        // Union–find over (task, var) keys, realised with indices.
        let mut ids: HashMap<(TaskId, String), usize> = HashMap::new();
        let mut parent: Vec<usize> = Vec::new();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut id_of = |key: (TaskId, String), parent: &mut Vec<usize>| -> usize {
            if let Some(&i) = ids.get(&key) {
                return i;
            }
            let i = parent.len();
            parent.push(i);
            ids.insert(key, i);
            i
        };
        // Unique-site signals link their carried/bound variables.
        for sig_idx in 0..sg.symbols.num_signals() {
            let sig = iwa_core::SignalId(sig_idx as u32);
            let sends = sg.sends_of(sig);
            let accepts = sg.accepts_of(sig);
            if sends.len() != 1 || accepts.len() != 1 {
                continue;
            }
            let (sd, ad) = (sg.node(sends[0] as usize), sg.node(accepts[0] as usize));
            if let (Some(x), Some(y)) = (&sd.carrying, &ad.binding) {
                if bind_counts.get(&(ad.task, y.clone())).copied().unwrap_or(0) <= 1 {
                    let a = id_of((sd.task, x.clone()), &mut parent);
                    let b = id_of((ad.task, y.clone()), &mut parent);
                    let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        // Resolve roots for every guard variable in use.
        let mut roots = HashMap::new();
        for n in sg.rendezvous_nodes() {
            let d = sg.node(n);
            for g in &d.guards {
                let key = (d.task, g.var.clone());
                if bind_counts.get(&key).copied().unwrap_or(0) > 1 {
                    continue; // multiply-bound: ambiguous, skip
                }
                let i = id_of(key.clone(), &mut parent);
                let r = find(&mut parent, i);
                roots.insert(key, r);
            }
        }
        info.cond_roots = Some(roots);
        info.add_condition_rows(sg);
        info
    }

    /// Are `a` and `b` provably **not** co-executable?
    ///
    /// Intra-task: mutually exclusive branches (no control path either
    /// way). Cross-task (only with
    /// [`compute_with_conditions`](CoexecInfo::compute_with_conditions)):
    /// opposite-polarity guards over provably equal encapsulated booleans.
    #[must_use]
    pub fn not_coexec(&self, sg: &SyncGraph, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        if sg.node(a).task == sg.node(b).task {
            return self.rows[a].contains(b);
        }
        // Cross-task condition contradiction.
        let Some(roots) = &self.cond_roots else {
            return false;
        };
        let (da, db) = (sg.node(a), sg.node(b));
        for ga in &da.guards {
            let Some(&ra) = roots.get(&(da.task, ga.var.clone())) else {
                continue;
            };
            for gb in &db.guards {
                let Some(&rb) = roots.get(&(db.task, gb.var.clone())) else {
                    continue;
                };
                if ra == rb && ga.polarity != gb.polarity {
                    return true;
                }
            }
        }
        false
    }

    /// `NOT-COEXEC[h]` as a precomputed bit row, ready for whole-row union
    /// into a ban set.
    #[must_use]
    pub fn not_coexec_row(&self, h: usize) -> &BitSet {
        &self.rows[h]
    }
}

/// The intra-task `NOT-COEXEC` rows: per rendezvous `h`, the other nodes
/// of its task with no control path to or from `h`. Control reachability
/// stays within a task, so a row is the task's nodes minus those `h`
/// reaches, minus those that reach `h`.
fn intra_task_rows(sg: &SyncGraph) -> Vec<BitSet> {
    let n = sg.num_nodes();
    let reach: Vec<BitSet> = (0..n)
        .map(|v| {
            if sg.is_rendezvous(v) {
                sg.control.reachable_from(v)
            } else {
                BitSet::new(n)
            }
        })
        .collect();
    let mut task_mask: Vec<BitSet> = Vec::with_capacity(sg.num_tasks);
    for t in 0..sg.num_tasks {
        let mut m = BitSet::new(n);
        for &v in sg.nodes_of_task(TaskId(t as u32)) {
            m.insert(v as usize);
        }
        task_mask.push(m);
    }
    // `reach[h]` contains `h` itself, keeping rows irreflexive.
    let mut rows: Vec<BitSet> = (0..n)
        .map(|h| {
            if !sg.is_rendezvous(h) {
                return BitSet::new(n);
            }
            let mut row = task_mask[sg.node(h).task.index()].clone();
            row.difference_with(&reach[h]);
            row
        })
        .collect();
    // The other direction: every node that reaches `h` leaves `h`'s row.
    // Clearing bits in place keeps a transposed `reach`, another N² bits,
    // off the peak.
    for a in sg.rendezvous_nodes() {
        for b in reach[a].iter_ones() {
            rows[b].remove(a);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::parse;

    fn info(src: &str) -> (SyncGraph, CoexecInfo) {
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let cx = CoexecInfo::compute(&sg);
        (sg, cx)
    }

    #[test]
    fn exclusive_branches_are_not_coexecutable() {
        let (sg, cx) = info(
            "task t {
                if { send u.a as x; } else { send u.b as y; }
                send u.c as z;
             }
             task u { accept a; accept b; accept c; }",
        );
        let x = sg.node_by_label("x").unwrap();
        let y = sg.node_by_label("y").unwrap();
        let z = sg.node_by_label("z").unwrap();
        assert!(cx.not_coexec(&sg, x, y));
        assert!(cx.not_coexec(&sg, y, x));
        assert!(!cx.not_coexec(&sg, x, z), "x then z is a real path");
        assert!(!cx.not_coexec(&sg, x, x), "irreflexive");
        assert_eq!(cx.not_coexec_row(x).to_vec(), vec![y]);
    }

    #[test]
    fn sequential_nodes_are_coexecutable() {
        let (sg, cx) = info(
            "task t { send u.a as x; send u.b as y; } task u { accept a; accept b; }",
        );
        let x = sg.node_by_label("x").unwrap();
        let y = sg.node_by_label("y").unwrap();
        assert!(!cx.not_coexec(&sg, x, y));
    }

    #[test]
    fn cross_task_pairs_are_conservatively_coexecutable() {
        let (sg, cx) = info(
            "task t1 { if { send u.a as x; } }
             task t2 { if { send u.b as y; } }
             task u { accept a; accept b; }",
        );
        let x = sg.node_by_label("x").unwrap();
        let y = sg.node_by_label("y").unwrap();
        assert!(!cx.not_coexec(&sg, x, y));
    }

    #[test]
    fn nested_exclusivity() {
        let (sg, cx) = info(
            "task t {
                if {
                    if { send u.a as p; } else { send u.b as q; }
                } else {
                    send u.c as r;
                }
             }
             task u { accept a; accept b; accept c; }",
        );
        let p = sg.node_by_label("p").unwrap();
        let q = sg.node_by_label("q").unwrap();
        let r = sg.node_by_label("r").unwrap();
        assert!(cx.not_coexec(&sg, p, q));
        assert!(cx.not_coexec(&sg, p, r));
        assert!(cx.not_coexec(&sg, q, r));
        let mut not_with_p = cx.not_coexec_row(p).to_vec();
        not_with_p.sort_unstable();
        assert_eq!(not_with_p, vec![q, r]);
    }

    #[test]
    fn condition_contradiction_is_cross_task_exclusive() {
        // v flows t → u; t's send is guarded by v, u's by ¬v.
        let (sg, _) = info("task t { send u.s; } task u { accept s; }");
        let _ = sg; // simple warm-up; the real case below
        let p = iwa_tasklang::parse(
            "task t {
                send u.s carrying v;
                if (v) { send u.x as pos; }
             }
             task u {
                accept s binding w;
                if (w) { } else { accept x as neg; }
             }",
        )
        .unwrap();
        let sg = SyncGraph::from_program(&p);
        let plain = CoexecInfo::compute(&sg);
        let cond = CoexecInfo::compute_with_conditions(&sg);
        let pos = sg.node_by_label("pos").unwrap();
        let neg = sg.node_by_label("neg").unwrap();
        assert!(!plain.not_coexec(&sg, pos, neg), "plain mode is blind");
        assert!(cond.not_coexec(&sg, pos, neg), "condition mode sees it");
        assert!(cond.not_coexec(&sg, neg, pos), "symmetric");
    }

    #[test]
    fn unrelated_or_same_polarity_guards_stay_coexecutable() {
        let p = iwa_tasklang::parse(
            "task t {
                send u.s carrying v;
                if (v) { send u.x as a; }
             }
             task u {
                accept s binding w;
                if (w) { accept x as b; }
             }
             task z {
                if (q) { send u.y as c; }
             }
             task u2 { }",
        )
        .unwrap();
        // u accepts y too:
        let p = iwa_tasklang::parse(&p.to_source().replace(
            "task u2 {
}",
            "task u2 {
    accept k;
}",
        ));
        let p = match p { Ok(p) => p, Err(_) => return };
        let sg = SyncGraph::from_program(&p);
        let cond = CoexecInfo::compute_with_conditions(&sg);
        let a = sg.node_by_label("a").unwrap();
        let b = sg.node_by_label("b").unwrap();
        let c = sg.node_by_label("c").unwrap();
        assert!(!cond.not_coexec(&sg, a, b), "same polarity, equal vars");
        assert!(!cond.not_coexec(&sg, a, c), "unrelated variables");
    }

    #[test]
    fn multiply_bound_variables_are_ignored() {
        let p = iwa_tasklang::parse(
            "task t {
                send u.s carrying v;
                send u.s2 carrying v;
                if (v) { send u.x as pos; }
             }
             task u {
                accept s binding w;
                accept s2 binding w;
                if (w) { } else { accept x as neg; }
             }",
        )
        .unwrap();
        let sg = SyncGraph::from_program(&p);
        let cond = CoexecInfo::compute_with_conditions(&sg);
        let pos = sg.node_by_label("pos").unwrap();
        let neg = sg.node_by_label("neg").unwrap();
        assert!(
            !cond.not_coexec(&sg, pos, neg),
            "w is bound twice: no conclusion"
        );
    }

    #[test]
    fn loop_bodies_are_coexecutable_with_surroundings() {
        let (sg, cx) = info(
            "task t { send u.a as pre; while { send u.b as body; } send u.c as post; }
             task u { while { accept a; accept b; accept c; } }",
        );
        let pre = sg.node_by_label("pre").unwrap();
        let body = sg.node_by_label("body").unwrap();
        let post = sg.node_by_label("post").unwrap();
        assert!(!cx.not_coexec(&sg, pre, body));
        assert!(!cx.not_coexec(&sg, body, post));
    }
}
