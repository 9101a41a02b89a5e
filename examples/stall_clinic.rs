//! The stall clinic: §5's counting lemmas and source transforms.
//!
//! Walks four patients through the stall analysis:
//! 1. a balanced straight-line program — Lemma 3 certifies instantly;
//! 2. an unbalanced one — the counts convict it;
//! 3. Figure 5(b): a rendezvous duplicated across both branch arms — the
//!    merge transform rescues the count;
//! 4. Figure 5(d): co-dependent guarded rendezvous — the encapsulated
//!    boolean's provenance rescues the count.
//!
//! ```sh
//! cargo run --example stall_clinic
//! ```

use iwa::analysis::{AnalysisCtx, StallOptions, StallVerdict};
use iwa::tasklang::parse;
use iwa::workloads::figures;

fn main() {
    let balanced = parse(
        "task a { send b.m; send b.m; } task b { accept m; accept m; }",
    )
    .unwrap();
    visit("balanced straight-line", &balanced);

    let unbalanced = parse(
        "task a { send b.m; send b.m; } task b { accept m; }",
    )
    .unwrap();
    visit("unbalanced straight-line", &unbalanced);

    visit("figure 5(b): duplicated across branches", &figures::fig5b());
    visit("figure 5(d): co-dependent guards", &figures::fig5d());
}

fn visit(name: &str, p: &iwa::tasklang::Program) {
    println!("=== {name} ===");
    let ctx = AnalysisCtx::builder().build();
    let raw = ctx.stall(
        p,
        &StallOptions {
            apply_transforms: false,
        },
    );
    let with = ctx.stall(p, &StallOptions::default());
    println!("  without transforms: {}", show(&raw.verdict));
    println!("  with transforms   : {}", show(&with.verdict));
    for (sig, sends, accepts) in &with.signal_counts {
        println!(
            "    {}: {} sends / {} accepts",
            p.symbols.signal_name(*sig),
            sends,
            accepts
        );
    }
    println!();
}

fn show(v: &StallVerdict) -> String {
    match v {
        StallVerdict::StallFree => "certified stall-free".into(),
        StallVerdict::PossibleStall { sends, accepts, .. } => {
            format!("possible stall ({sends} sends vs {accepts} accepts on a witness)")
        }
        StallVerdict::Unknown { reason } => format!("unknown: {reason}"),
    }
}
