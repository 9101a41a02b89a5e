//! Frontend IR: the parse → validate → lower contract between a source
//! language and the paper's model-agnostic analysis stack.
//!
//! Nothing in the CLG/SCC machinery cares that a [`SyncGraph`] came from
//! an Ada-subset rendezvous program — the refined search, the naive cycle
//! check, and the wavesim oracle all consume the graph alone. A
//! [`Frontend`] record packages everything that *is* language-specific:
//!
//! * **parse** — source text to a language AST, with spans and the shared
//!   [`IwaError::Parse`](iwa_core::IwaError) error shape;
//! * **validate** — model checks that reject un-analysable programs
//!   (suspicious-but-analysable patterns are the lints' business);
//! * **lower** — the AST to the paper's sync graph (and whatever
//!   language-level IR the lints and reports need alongside it).
//!
//! Three frontends ship today, one record each in the [`registry`]'s
//! table: the original `.iwa` rendezvous DSL, the `.lok` lock-order
//! language (see [`lok`]), and the `.chan` channel/select language, which
//! adds a static livelock classification (see [`chan`]). The last two
//! produce one IR, the [`wait`]-for graph, and share its one lowering
//! onto the CLG. The [`registry`] resolves a frontend by language or file
//! extension (a `--lang` name becomes a [`Lang`] through
//! [`Lang::from_name`]), and [`Lang`] doubles as the lint applicability
//! key: each lint's check reads one language.

use iwa_core::IwaError;
use iwa_syncgraph::SyncGraph;
use iwa_tasklang::Program;
use serde::{Serialize, Value};
use std::fmt;
use std::path::Path;

pub mod chan;
pub mod lok;
pub mod wait;

pub use chan::ChanModel;
pub use lok::LokModel;
pub use wait::{WaitCycle, WaitEdge, WaitGraph, WaitModel};

/// The source languages the analyzer understands. Doubles as the
/// language a lint's check reads (`iwa_lint::Check::lang`) and the wire
/// name in reports (serialized as [`Lang::name`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Lang {
    /// The `.iwa` rendezvous DSL (tasks, send/accept, the paper's model).
    Tasklang,
    /// The `.lok` lock-order language (threads acquiring named mutexes).
    Lok,
    /// The `.chan` channel/select language (processes over channels).
    Chan,
}

impl Lang {
    /// The stable lowercase name (`iwa`, `lok`, `chan`) used by
    /// `--lang`, the serve protocol, and JSON reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lang::Tasklang => "iwa",
            Lang::Lok => "lok",
            Lang::Chan => "chan",
        }
    }

    /// Parse a `--lang` value. Accepts the stable name plus the obvious
    /// aliases (`tasklang`, `lock`, `locks`, `channels`, `csp`).
    pub fn from_name(s: &str) -> Result<Lang, String> {
        match s {
            "iwa" | "tasklang" => Ok(Lang::Tasklang),
            "lok" | "lock" | "locks" => Ok(Lang::Lok),
            "chan" | "channels" | "csp" => Ok(Lang::Chan),
            other => Err(format!(
                "unknown language '{other}' (expected iwa, lok, or chan)"
            )),
        }
    }
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for Lang {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_owned())
    }
}

/// The language-level IR a frontend produced alongside the sync graph —
/// whatever the lints and human-facing reports need that the graph no
/// longer carries.
#[derive(Clone, Debug)]
pub enum ModelIr {
    /// A parsed `.iwa` program (the engine re-lowers it itself so the
    /// Lemma 1 transforms can run on the AST).
    Tasklang(Program),
    /// A loaded `.lok` model: AST, lock-order graph, and the lowered
    /// sync graph. Boxed — it is by far the larger variant.
    Lok(Box<LokModel>),
    /// A loaded `.chan` model: AST, communication dependency graph,
    /// livelock witnesses, and the lowered sync graph. Boxed like
    /// [`ModelIr::Lok`].
    Chan(Box<ChanModel>),
}

/// What a [`Frontend::load`] produces: the language IR of an analysable
/// program (hard model violations are `Err`s). Suspicious-but-analysable
/// patterns are reported by the lints, which read this IR.
#[derive(Clone, Debug)]
pub struct LoadedModel {
    /// Which frontend produced this model.
    pub lang: Lang,
    /// The language-level IR.
    pub ir: ModelIr,
}

impl LoadedModel {
    /// Validate a parsed `.iwa` program into a model: the tasklang
    /// frontend's [`load`](Frontend::load) after parsing, and the entry
    /// for programs built in memory (the CLI's `fixture:` programs).
    pub fn from_program(p: Program) -> Result<LoadedModel, IwaError> {
        iwa_tasklang::validate::check_model(&p)?;
        Ok(LoadedModel {
            lang: Lang::Tasklang,
            ir: ModelIr::Tasklang(p),
        })
    }

    /// The sync graph of the loaded model, lowered on demand for
    /// tasklang (the engine applies AST transforms first and lowers its
    /// own copies) and shared for frontends that lower eagerly.
    #[must_use]
    pub fn sync_graph(&self) -> SyncGraph {
        match &self.ir {
            ModelIr::Tasklang(p) => SyncGraph::from_program(p),
            ModelIr::Lok(m) => m.sg.clone(),
            ModelIr::Chan(m) => m.sg.clone(),
        }
    }

    /// The tasklang program, when this model came from the `.iwa`
    /// frontend.
    #[must_use]
    pub fn as_tasklang(&self) -> Option<&Program> {
        match &self.ir {
            ModelIr::Tasklang(p) => Some(p),
            _ => None,
        }
    }

    /// The lock-order model, when this model came from the `.lok`
    /// frontend.
    #[must_use]
    pub fn as_lok(&self) -> Option<&LokModel> {
        match &self.ir {
            ModelIr::Lok(m) => Some(m),
            _ => None,
        }
    }

    /// The channel model, when this model came from the `.chan`
    /// frontend.
    #[must_use]
    pub fn as_chan(&self) -> Option<&ChanModel> {
        match &self.ir {
            ModelIr::Chan(m) => Some(m),
            _ => None,
        }
    }

    /// The wait-graph model, when this model came from the `.lok` or
    /// `.chan` frontend.
    #[must_use]
    pub fn as_wait(&self) -> Option<&dyn WaitModel> {
        match &self.ir {
            ModelIr::Tasklang(_) => None,
            ModelIr::Lok(m) => Some(&**m),
            ModelIr::Chan(m) => Some(&**m),
        }
    }
}

/// A language frontend: parse → validate → lower, as one `load` call.
///
/// Frontends are plain records in the [`registry`]'s static table;
/// everything per-model lives in the returned [`LoadedModel`].
pub struct Frontend {
    /// The language this frontend implements.
    pub lang: Lang,
    /// File extensions (without the dot) this frontend claims.
    pub extensions: &'static [&'static str],
    /// One-line description for `iwa langs` and `--explain` output.
    pub description: &'static str,
    load: fn(&str) -> Result<LoadedModel, IwaError>,
}

impl Frontend {
    /// Parse, validate, and lower `src`. `Err` means the model cannot be
    /// analysed (syntax error or hard model violation).
    pub fn load(&self, src: &str) -> Result<LoadedModel, IwaError> {
        (self.load)(src)
    }
}

/// Frontend resolution: by language, by file extension, or both ([`registry::resolve`]).
pub mod registry {
    use super::{chan, lok, Frontend, Lang, LoadedModel, Path};

    /// Every frontend, one per [`Lang`] in declaration order.
    static FRONTENDS: [Frontend; 3] = [
        Frontend {
            lang: Lang::Tasklang,
            extensions: &["iwa"],
            description: "rendezvous tasks over send/accept signals (Masticola & Ryder's model)",
            load: |src| LoadedModel::from_program(iwa_tasklang::parse(src)?),
        },
        Frontend {
            lang: Lang::Lok,
            extensions: &["lok"],
            description: "threads acquiring/releasing named mutexes; deadlocks are lock-order cycles",
            load: lok::load,
        },
        Frontend {
            lang: Lang::Chan,
            extensions: &["chan"],
            description: "processes over channels with select/close; deadlocks are port-wait \
                          cycles, plus static livelock classification",
            load: chan::load,
        },
    ];

    /// Every registered frontend, tasklang first.
    #[must_use]
    pub fn all() -> &'static [Frontend] {
        &FRONTENDS
    }

    /// The frontend for `lang` (total — every [`Lang`] has one).
    #[must_use]
    pub fn by_lang(lang: Lang) -> &'static Frontend {
        &FRONTENDS[lang as usize]
    }

    /// Resolve by file extension; `None` for unknown languages (the
    /// caller reports the file as skipped).
    #[must_use]
    pub fn by_extension(path: &Path) -> Option<&'static Frontend> {
        let ext = path.extension()?.to_str()?;
        FRONTENDS.iter().find(|f| f.extensions.contains(&ext))
    }

    /// The one extension→frontend policy shared by the CLI, the batch
    /// checker, and the serve daemon: an explicit `--lang`/request
    /// language wins, then the file extension, then the tasklang
    /// default (analyzing an extensionless file as `.iwa` matches the
    /// original single-language behaviour).
    #[must_use]
    pub fn resolve(path: &Path, forced: Option<Lang>) -> &'static Frontend {
        match forced {
            Some(lang) => by_lang(lang),
            None => by_extension(path).unwrap_or(by_lang(Lang::Tasklang)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lang_names_round_trip() {
        for lang in [Lang::Tasklang, Lang::Lok, Lang::Chan] {
            assert_eq!(Lang::from_name(lang.name()), Ok(lang));
            assert_eq!(registry::by_lang(lang).lang, lang);
        }
        assert!(Lang::from_name("ada").is_err());
        assert_eq!(Lang::from_name("tasklang"), Ok(Lang::Tasklang));
        assert_eq!(Lang::from_name("csp"), Ok(Lang::Chan));
    }

    #[test]
    fn registry_resolves_by_extension() {
        let f = registry::by_extension(Path::new("a/b/model.iwa")).unwrap();
        assert_eq!(f.lang, Lang::Tasklang);
        let f = registry::by_extension(Path::new("threads.lok")).unwrap();
        assert_eq!(f.lang, Lang::Lok);
        let f = registry::by_extension(Path::new("pipes.chan")).unwrap();
        assert_eq!(f.lang, Lang::Chan);
        assert!(registry::by_extension(Path::new("README.md")).is_none());
        assert!(registry::by_extension(Path::new("no_extension")).is_none());
    }

    #[test]
    fn resolve_prefers_forced_lang_and_defaults_to_tasklang() {
        assert_eq!(
            registry::resolve(Path::new("pipes.chan"), None).lang,
            Lang::Chan
        );
        assert_eq!(
            registry::resolve(Path::new("pipes.chan"), Some(Lang::Lok)).lang,
            Lang::Lok
        );
        assert_eq!(
            registry::resolve(Path::new("no_extension"), None).lang,
            Lang::Tasklang
        );
        assert_eq!(
            registry::resolve(Path::new("README.md"), None).lang,
            Lang::Tasklang
        );
    }

    #[test]
    fn chan_frontend_loads_and_warns() {
        let f = registry::by_lang(Lang::Chan);
        let m = f
            .load("chan a; proc p1 { send a; } proc p2 { recv a; }")
            .unwrap();
        assert_eq!(m.lang, Lang::Chan);
        let chan_model = m.as_chan().unwrap();
        assert!(chan_model.effects.issues.is_empty());
        assert!(chan_model.cycles.is_empty());
        assert!(chan_model.livelocks.is_empty());
        assert!(m.as_tasklang().is_none());
        assert!(m.as_lok().is_none());

        // Suspicious-but-analysable patterns load, recorded for the lints.
        let m = f.load("chan c[*]; proc p { close c; send c; }").unwrap();
        assert!(!m.as_chan().unwrap().effects.issues.is_empty());

        // Parse errors are Errs.
        assert!(f.load("proc {").is_err());
    }

    #[test]
    fn tasklang_frontend_loads_and_warns() {
        let f = registry::by_lang(Lang::Tasklang);
        let m = f
            .load("task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }")
            .unwrap();
        assert_eq!(m.lang, Lang::Tasklang);
        assert_eq!(m.as_tasklang().unwrap().num_tasks(), 2);
        assert!(m.as_lok().is_none());
        assert_eq!(m.sync_graph().num_rendezvous(), 4);

        // Suspicious-but-analysable patterns load; the lints report them.
        assert!(f.load("task t { send t.m; accept m; }").is_ok());

        // Parse errors are Errs.
        assert!(f.load("task {").is_err());
    }

    #[test]
    fn lang_serializes_as_its_stable_name() {
        // Serialize through the serde_json shim used by all reports.
        #[derive(Serialize)]
        struct Probe {
            lang: Lang,
        }
        let s = serde_json::to_string(&Probe { lang: Lang::Lok }).unwrap();
        assert!(s.contains("\"lok\""), "got {s}");
    }
}
