//! The cross-check suite for the wait-graph frontends, parameterised by
//! corpus directory: `tests/locks.rs` runs it over `corpus/locks/`,
//! `tests/channels.rs` over `corpus/channels/`.
//!
//! Every fixture carries an `// expect: deadlock|livelock|clean` header
//! (`livelock` only occurs in `.chan`). For each one, independent
//! answers must agree with it:
//!
//! 1. the wait graph (cycles present iff deadlock) and the static
//!    livelock witnesses (present iff livelock);
//! 2. the naive CLG cycle check on the lowered sync graph, which flags
//!    exactly the wait-graph cycles;
//! 3. the refined per-head search seeded with the model's hold points;
//! 4. the wavesim oracle in deadlock-only mode (`ignore_stalls`: the
//!    lowering makes every task skippable, so acyclic models still
//!    stall);
//! 5. the engine ladder, which folds both halves into one verdict:
//!    `Anomalous` iff the fixture deadlocks or livelocks.
//!
//! On `.lok` checks 2–4 agree by the wait-graph theorem
//! (`iwa_frontend::wait`). On `.chan` the theorem only promises that the
//! CLG checks never under-report; they agree with the oracle on this
//! corpus because no fixture's cycle passes through both ports of one
//! channel.

use iwa::analysis::{naive_analysis, AnalysisCtx, RefinedOptions};
use iwa::engine::{analyze_model, EngineOptions, EngineVerdict};
use iwa::frontend::{registry, Lang, LoadedModel};
use iwa::syncgraph::dot::sync_graph_dot;
use iwa::wavesim::{explore, ExploreConfig};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// One corpus directory and the frontend its fixtures are written for.
pub struct Corpus {
    /// Directory under the repository root.
    pub dir: &'static str,
    /// The fixtures' language.
    pub lang: Lang,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Expect {
    Deadlock,
    Livelock,
    Clean,
}

fn expectation(name: &str, src: &str) -> Expect {
    let header = src.lines().next().unwrap_or_default();
    if header.contains("expect: deadlock") {
        Expect::Deadlock
    } else if header.contains("expect: livelock") {
        Expect::Livelock
    } else if header.contains("expect: clean") {
        Expect::Clean
    } else {
        panic!("{name}: first line must be `// expect: deadlock|livelock|clean`, got {header:?}");
    }
}

impl Corpus {
    /// Every fixture as `(file name, source, loaded model)`, sorted by
    /// file name.
    pub fn fixtures(&self) -> Vec<(String, String, LoadedModel)> {
        let frontend = registry::by_lang(self.lang);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(self.dir);
        let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", self.dir))
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| {
                p.extension()
                    .is_some_and(|e| frontend.extensions.contains(&e.to_str().unwrap_or("")))
            })
            .collect();
        paths.sort();
        assert!(
            paths.len() >= 9,
            "the {} corpus shrank: {paths:?}",
            self.dir
        );
        paths
            .into_iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                let src = fs::read_to_string(&p).expect("readable fixture");
                let model = frontend
                    .load(&src)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                (name, src, model)
            })
            .collect()
    }

    /// The fixture called `name`.
    pub fn fixture(&self, name: &str) -> LoadedModel {
        self.fixtures()
            .into_iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} present in {}", self.dir))
            .2
    }

    /// The five answers of the module docs agree with every fixture's
    /// `// expect:` header.
    pub fn every_fixture_agrees(&self) {
        let ctx = AnalysisCtx::builder().build();
        for (name, src, model) in self.fixtures() {
            let expect = expectation(&name, &src);
            let deadlock = expect == Expect::Deadlock;
            let m = model.as_wait().expect("a wait-graph model");
            let (sg, seeds) = m.lowered();

            // 1. Wait graph and livelock witnesses.
            assert_eq!(
                !m.cycles().is_empty(),
                deadlock,
                "{name}: wait graph cycles {:?}",
                m.cycles()
            );
            assert_eq!(
                !m.livelock_free(),
                expect == Expect::Livelock,
                "{name}: livelock witnesses"
            );

            // 2. Naive §3.1 CLG check.
            let naive = naive_analysis(sg);
            assert_eq!(naive.deadlock_free, !deadlock, "{name}: naive");

            // 3. Refined search seeded from the model's hold points.
            let refined = ctx
                .refined_seeded(sg, seeds, &RefinedOptions::default())
                .unwrap_or_else(|e| panic!("{name}: refined: {e}"));
            assert_eq!(refined.deadlock_free, !deadlock, "{name}: refined");
            assert_eq!(
                refined.flagged.is_empty(),
                !deadlock,
                "{name}: flagged heads"
            );

            // 4. Exhaustive wave oracle, deadlock-only mode.
            let e = explore(
                sg,
                &ExploreConfig {
                    ignore_stalls: true,
                    ..ExploreConfig::default()
                },
            )
            .unwrap_or_else(|err| panic!("{name}: oracle: {err}"));
            assert_eq!(e.has_deadlock(), deadlock, "{name}: oracle");

            // 5. The engine ladder folds both halves into one verdict.
            let report = analyze_model(&model, &EngineOptions::default())
                .unwrap_or_else(|err| panic!("{name}: engine: {err}"));
            let want = if expect == Expect::Clean {
                EngineVerdict::Clean
            } else {
                EngineVerdict::Anomalous
            };
            assert_eq!(report.verdict, want, "{name}: engine verdict");
            assert!(!report.degraded, "{name}: engine degraded");
            assert_eq!(
                report.flagged.is_empty(),
                expect == Expect::Clean,
                "{name}: engine flagged {:?}",
                report.flagged
            );
        }
    }

    /// The hold-point seeds are a subset of the generic head scan, and
    /// seeding them loses nothing: the refined verdict matches the
    /// unseeded one on every fixture.
    pub fn seeded_and_unseeded_refined_verdicts_match(&self) {
        let ctx = AnalysisCtx::builder().build();
        let opts = RefinedOptions::default();
        for (name, _, model) in self.fixtures() {
            let (sg, seeds) = model.as_wait().expect("a wait-graph model").lowered();
            let seeded = ctx.refined_seeded(sg, seeds, &opts).unwrap();
            let unseeded = ctx.refined(sg, &opts).unwrap();
            assert_eq!(
                seeded.deadlock_free, unseeded.deadlock_free,
                "{name}: seeding changed the verdict"
            );
        }
    }

    /// Every fixture's lowered sync graph, rendered as its DOT, its seed
    /// list and each rendezvous node's span, equals `golden` byte for
    /// byte — the structure, labels, seeds and spans of the lowering.
    pub fn lowering_matches_the_golden(&self, golden: &str) {
        let mut actual = String::new();
        for (name, _, model) in self.fixtures() {
            let (sg, seeds) = model.as_wait().expect("a wait-graph model").lowered();
            let _ = writeln!(actual, "== {name} ==");
            actual.push_str(&sync_graph_dot(sg));
            let _ = writeln!(actual, "seeds: {seeds:?}");
            for n in sg.rendezvous_nodes() {
                let s = sg.node(n).span;
                let _ = writeln!(actual, "span n{n}: {s}+{}", s.len);
            }
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(golden);
        let want = fs::read_to_string(&path).expect("golden file exists");
        assert!(
            want == actual,
            "{golden} differs from the current lowering; rendered:\n{actual}"
        );
    }
}
