//! Seeded workload inputs, each carrying a verdict known independently of
//! the analyses under test.
//!
//! Generator families take their expected verdict from how the generator
//! builds the program (see each family's doc comment in `iwa-workloads`
//! and `iwa_bench::families`); `corpus/` fixtures take it from their
//! `// expect:` header. Nothing else is admitted.
//!
//! Every workload is a fixed multiset of members: *anchors* (the heavy
//! tail, identical for every seed) plus *draws* (a seeded stratified
//! sample of small sizes per family). The seed picks the drawn sizes and
//! the order; the anchors keep the tail, the peak memory and the total
//! work the same from seed to seed.

use iwa_bench::families::{relay_chain, replicated_pairs};
use iwa_frontend::Lang;
use iwa_tasklang::Program;
use iwa_workloads::adversarial::{deep_loop_nest, rendezvous_mesh, wide_branch};
use iwa_workloads::chan::{chan_ring, chan_select_storm};
use iwa_workloads::classics::{
    client_server_racy, dining_philosophers, dining_philosophers_ordered, pipeline, token_ring,
    token_ring_broken,
};
use iwa_workloads::locks::{lock_chain, lock_mesh};
use std::path::Path;

/// The verdict an input must get, known without running the analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// No infinite-wait anomaly on any execution.
    Clean,
    /// Some execution deadlocks, stalls or livelocks.
    Anomalous,
}

/// One program handed to the system under test.
#[derive(Clone, Debug)]
pub struct Input {
    /// Human-readable member name, e.g. `relay_chain(12)`.
    pub label: String,
    /// Source language.
    pub lang: Lang,
    /// Source text.
    pub source: String,
    /// The known answer.
    pub expect: Expect,
}

/// A `corpus/` fixture admitted by its `// expect:` header.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// Path relative to the corpus root.
    pub name: String,
    /// Source language (by extension).
    pub lang: Lang,
    /// Source text.
    pub source: String,
    /// Expected verdict from the header.
    pub expect: Expect,
}

/// Read every fixture under `root` whose header says `clean`, `deadlock`,
/// `livelock` or `stall`, sorted by path. Fixtures with any other header,
/// or none, have no known verdict and are skipped.
pub fn load_corpus(root: &Path) -> Result<Vec<Fixture>, String> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let lang = match path.extension().and_then(|e| e.to_str()) {
            Some("iwa") => Lang::Tasklang,
            Some("lok") => Lang::Lok,
            Some("chan") => Lang::Chan,
            _ => continue,
        };
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let header = source
            .lines()
            .find_map(|l| l.split("// expect:").nth(1))
            .map(str::trim);
        let expect = match header {
            Some("clean") => Expect::Clean,
            Some("deadlock" | "livelock" | "stall") => Expect::Anomalous,
            _ => continue,
        };
        let name = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .display()
            .to_string();
        out.push(Fixture {
            name,
            lang,
            source,
            expect,
        });
    }
    if out.is_empty() {
        return Err(format!(
            "no fixtures with a known verdict under {}",
            root.display()
        ));
    }
    Ok(out)
}

/// SplitMix64: the benchmark's own generator, so the input stream depends
/// only on the seed and the generator families.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `count` sizes stratified over `lo..=hi`: member `i` is drawn from
    /// the `i`-th of `count` equal slices of the range, so every seed
    /// covers the range evenly and the total work barely moves.
    pub fn stratified(&mut self, count: usize, lo: usize, hi: usize) -> Vec<usize> {
        let span = (hi - lo + 1) as u64;
        (0..count as u64)
            .map(|i| {
                let u = self.next_u64() % 1024;
                let pos = (i * 1024 + u) * span / (count as u64 * 1024);
                lo + pos.min(span - 1) as usize
            })
            .collect()
    }
}

/// A generator family member builder: size to (language, source).
type Build = fn(usize) -> (Lang, String);

/// One family (and flavour) with its known verdict.
struct Family {
    name: &'static str,
    build: Build,
    expect: Expect,
}

fn iwa(p: &Program) -> (Lang, String) {
    (Lang::Tasklang, p.to_source())
}

const RELAY_CHAIN: Family = Family {
    // Request/response hops: deadlock-free, straight-line, balanced.
    name: "relay_chain",
    build: |n| iwa(&relay_chain(n)),
    expect: Expect::Clean,
};
const MESH_ORDERED: Family = Family {
    // One global session order breaks every circular wait.
    name: "rendezvous_mesh_ordered",
    build: |n| iwa(&rendezvous_mesh(n, true)),
    expect: Expect::Clean,
};
const MESH_UNORDERED: Family = Family {
    // All sends before any accept: stuck on the first wave.
    name: "rendezvous_mesh",
    build: |n| iwa(&rendezvous_mesh(n, false)),
    expect: Expect::Anomalous,
};
const PIPELINE: Family = Family {
    // Lockstep stages, two items each: anomaly-free.
    name: "pipeline",
    build: |n| iwa(&pipeline(n, 2)),
    expect: Expect::Clean,
};
const TOKEN_RING: Family = Family {
    // Node 0 injects the token and collects it after one lap.
    name: "token_ring",
    build: |n| iwa(&token_ring(n)),
    expect: Expect::Clean,
};
const TOKEN_RING_BROKEN: Family = Family {
    // Every node waits for a token nobody injects.
    name: "token_ring_broken",
    build: |n| iwa(&token_ring_broken(n)),
    expect: Expect::Anomalous,
};
const PHILOSOPHERS: Family = Family {
    // Everyone left-first: the classic circular wait.
    name: "dining_philosophers",
    build: |n| iwa(&dining_philosophers(n)),
    expect: Expect::Anomalous,
};
const PHILOSOPHERS_ORDERED: Family = Family {
    // The last philosopher goes right-first: no cycle.
    name: "dining_philosophers_ordered",
    build: |n| iwa(&dining_philosophers_ordered(n)),
    expect: Expect::Clean,
};
const WIDE_BRANCH: Family = Family {
    // Independent arm choices on both sides: a send can pick an arm the
    // receiver did not, and waits forever.
    name: "wide_branch",
    build: |n| iwa(&wide_branch(n)),
    expect: Expect::Anomalous,
};
const DEEP_LOOP_NEST: Family = Family {
    // Each side leaves its loops on its own choice, so a consumer can
    // wait for an item its producer will never send (a stall).
    name: "deep_loop_nest",
    build: |n| iwa(&deep_loop_nest(n, 2)),
    expect: Expect::Anomalous,
};
const DEEP_LOOP_NEST_FLAT: Family = Family {
    name: "deep_loop_nest",
    build: |n| iwa(&deep_loop_nest(n, 1)),
    expect: Expect::Anomalous,
};
const REPLICATED_PAIRS: Family = Family {
    // Independent lockstep producer/consumer pairs: anomaly-free.
    name: "replicated_pairs",
    build: |n| iwa(&replicated_pairs(n, 1)),
    expect: Expect::Clean,
};
const REPLICATED_PAIRS_DEEP: Family = Family {
    name: "replicated_pairs",
    build: |n| iwa(&replicated_pairs(n, 2)),
    expect: Expect::Clean,
};
const CLIENT_SERVER_RACY: Family = Family {
    // One-request server: whichever client it skips waits forever.
    name: "client_server_racy",
    build: |_| iwa(&client_server_racy()),
    expect: Expect::Anomalous,
};
const LOCK_CHAIN: Family = Family {
    // Thread i holds m_i while taking m_{i+1 mod n}: one lock-order cycle.
    name: "lock_chain",
    build: |n| (Lang::Lok, lock_chain(n, false)),
    expect: Expect::Anomalous,
};
const LOCK_CHAIN_ORDERED: Family = Family {
    name: "lock_chain_ordered",
    build: |n| (Lang::Lok, lock_chain(n, true)),
    expect: Expect::Clean,
};
const LOCK_MESH: Family = Family {
    // Every rotation of the lock order appears: a tangle of cycles.
    name: "lock_mesh",
    build: |n| (Lang::Lok, lock_mesh(n, false)),
    expect: Expect::Anomalous,
};
const LOCK_MESH_ORDERED: Family = Family {
    name: "lock_mesh_ordered",
    build: |n| (Lang::Lok, lock_mesh(n, true)),
    expect: Expect::Clean,
};
const CHAN_RING: Family = Family {
    // Every process sends before it receives: one port-wait cycle.
    name: "chan_ring",
    build: |n| (Lang::Chan, chan_ring(n, false)),
    expect: Expect::Anomalous,
};
const CHAN_RING_DRAINING: Family = Family {
    // Process 0 receives first, so the ring drains.
    name: "chan_ring_draining",
    build: |n| (Lang::Chan, chan_ring(n, true)),
    expect: Expect::Clean,
};
const SELECT_SPIN: Family = Family {
    // A default arm and no feeders: the select loop spins forever.
    name: "chan_select_spin",
    build: |n| (Lang::Chan, chan_select_storm(n, true)),
    expect: Expect::Anomalous,
};
const SELECT_STORM: Family = Family {
    // No default, one looping feeder per arm: always servable.
    name: "chan_select_storm",
    build: |n| (Lang::Chan, chan_select_storm(n, false)),
    expect: Expect::Clean,
};

fn member(f: &Family, size: usize) -> Input {
    let (lang, source) = (f.build)(size);
    Input {
        label: format!("{}({size})", f.name),
        lang,
        source,
        expect: f.expect,
    }
}

/// `(family, count, lo, hi)`: `count` stratified draws over `lo..=hi`.
type Draw = (Family, usize, usize, usize);

fn draw(rng: &mut Rng, draws: &[Draw], out: &mut Vec<Input>) {
    for (family, count, lo, hi) in draws {
        for size in rng.stratified(*count, *lo, *hi) {
            out.push(member(family, size));
        }
    }
}

fn fixtures(corpus: &[Fixture], out: &mut Vec<Input>) {
    out.extend(corpus.iter().map(|f| Input {
        label: format!("corpus/{}", f.name),
        lang: f.lang,
        source: f.source.clone(),
        expect: f.expect,
    }));
}

/// The families every small draw samples from, sized so each member takes
/// well under a millisecond through the Heads rung.
fn small_draws() -> Vec<Draw> {
    vec![
        (RELAY_CHAIN, 12, 2, 12),
        (MESH_ORDERED, 6, 3, 6),
        (MESH_UNORDERED, 4, 3, 5),
        (PIPELINE, 10, 2, 8),
        (TOKEN_RING, 6, 3, 16),
        (TOKEN_RING_BROKEN, 6, 3, 10),
        (PHILOSOPHERS, 5, 2, 5),
        (PHILOSOPHERS_ORDERED, 5, 2, 5),
        (WIDE_BRANCH, 6, 1, 6),
        (DEEP_LOOP_NEST, 5, 1, 3),
        (LOCK_CHAIN, 7, 3, 24),
        (LOCK_CHAIN_ORDERED, 7, 3, 24),
        (LOCK_MESH, 5, 3, 5),
        (LOCK_MESH_ORDERED, 5, 3, 8),
        (CHAN_RING, 7, 3, 24),
        (CHAN_RING_DRAINING, 7, 3, 24),
        (SELECT_SPIN, 5, 1, 16),
        (SELECT_STORM, 5, 1, 8),
    ]
}

/// certify_mix: a fixed tail of seven members taking 10-100 ms each
/// through the Heads rung, 113 small draws and the corpus fixtures: 150
/// inputs, which puts the p99 among the second-heaviest member's samples.
#[must_use]
pub fn certify_mix(seed: u64, corpus: &[Fixture]) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut out = vec![
        member(&MESH_ORDERED, 24),
        member(&RELAY_CHAIN, 64),
        member(&LOCK_CHAIN, 256),
        member(&CHAN_RING, 128),
        member(&SELECT_STORM, 32),
        member(&WIDE_BRANCH, 10),
        member(&PHILOSOPHERS, 24),
    ];
    draw(&mut rng, &small_draws(), &mut out);
    fixtures(corpus, &mut out);
    rng.shuffle(&mut out);
    out
}

/// oracle_waves: wave spaces of a few to 59 049 states. The largest
/// members are fixed; the rest are stratified draws of small sizes.
#[must_use]
pub fn oracle_waves(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut out = vec![
        member(&REPLICATED_PAIRS_DEEP, 10),
        member(&DEEP_LOOP_NEST_FLAT, 7),
        member(&REPLICATED_PAIRS_DEEP, 8),
        member(&LOCK_CHAIN, 12),
        member(&LOCK_CHAIN_ORDERED, 12),
        member(&CHAN_RING, 12),
        member(&CHAN_RING_DRAINING, 12),
        member(&PHILOSOPHERS, 6),
        member(&PHILOSOPHERS_ORDERED, 6),
        member(&DEEP_LOOP_NEST_FLAT, 6),
        member(&REPLICATED_PAIRS, 10),
        member(&CLIENT_SERVER_RACY, 0),
        member(&CLIENT_SERVER_RACY, 0),
    ];
    let draws: Vec<Draw> = vec![
        (REPLICATED_PAIRS, 20, 2, 8),
        (REPLICATED_PAIRS_DEEP, 15, 2, 6),
        (DEEP_LOOP_NEST_FLAT, 15, 1, 5),
        (PHILOSOPHERS, 12, 2, 5),
        (PHILOSOPHERS_ORDERED, 12, 2, 5),
        (LOCK_CHAIN, 16, 3, 9),
        (LOCK_CHAIN_ORDERED, 16, 3, 9),
        (CHAN_RING, 16, 3, 9),
        (CHAN_RING_DRAINING, 15, 3, 9),
    ];
    draw(&mut rng, &draws, &mut out);
    rng.shuffle(&mut out);
    out
}

/// serve_replay's working set: twice the small draws plus the corpus, in
/// all three languages.
#[must_use]
pub fn serve_working_set(seed: u64, corpus: &[Fixture]) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let draws = small_draws();
    draw(&mut rng, &draws, &mut out);
    draw(&mut rng, &draws, &mut out);
    fixtures(corpus, &mut out);
    rng.shuffle(&mut out);
    out
}
