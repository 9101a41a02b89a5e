//! `iwa serve-bench`: a replay driver that hammers an in-process daemon
//! with mutated corpus variants — optionally under an active fault plan —
//! and reports throughput, the round trips its clients observed, cache
//! hit-rate, and verdict fidelity.
//!
//! The replay models the daemon's real workload: a corpus of programs
//! resubmitted round after round, a small fraction mutating between
//! rounds (whitespace-only mutations, so the *verdict* never changes but
//! the *content hash* always does). Round one is all cache misses;
//! later rounds hit on every unmutated variant, so with `rounds ≥ 3`
//! and a ~1% mutation rate the hit-rate clears 50% by construction —
//! the acceptance bar for the content-addressed cache.
//!
//! Fidelity check (faults off only): every `ok`, non-degraded response
//! is compared against a direct in-process [`iwa_engine::analyze`] of
//! the same source with the same options — the daemon must be a
//! transparent wrapper, byte-for-byte on the semantic fields (verdict,
//! producing rung, flagged findings). Every receive has a hard client
//! timeout, so a hung daemon shows up as a counted `hang`, not a hung
//! bench.

use crate::client::Client;
use crate::server::{percentile, Server, ServeOptions};
use iwa_core::fault::FaultPlan;
use iwa_engine::{EngineOptions, Rung};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version of the `BENCH_serve.json` shape; bump on any field change.
/// v2 replaced the daemon-side `p50_ms`/`p99_ms` with the client-observed
/// round trips `rtt_p50_us`/`rtt_p99_us`.
pub const BENCH_SERVE_SCHEMA_VERSION: u32 = 2;

/// Configuration for [`run_bench`].
#[derive(Clone, Debug)]
pub struct ServeBenchOptions {
    /// Directory (or single file) of `.iwa` programs to replay.
    pub corpus: PathBuf,
    /// Replay rounds over the corpus.
    pub rounds: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Per-round, per-variant mutation probability in permille
    /// (`10` = 1%).
    pub mutate_permille: u64,
    /// CI-sized run: clamps rounds and clients down, same schema.
    pub smoke: bool,
    /// Fault plan injected into the daemon under test.
    pub faults: Option<FaultPlan>,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon admission-queue capacity.
    pub queue_cap: usize,
    /// Per-request deadline sent with every analyze.
    pub deadline_ms: u64,
    /// Seed for the deterministic mutation schedule.
    pub seed: u64,
}

impl Default for ServeBenchOptions {
    fn default() -> Self {
        ServeBenchOptions {
            corpus: PathBuf::from("corpus"),
            rounds: 5,
            clients: 4,
            mutate_permille: 10,
            smoke: false,
            faults: None,
            workers: 2,
            queue_cap: 64,
            deadline_ms: 2_000,
            seed: 0x5eed_u64,
        }
    }
}

/// Deterministic 64-bit LCG (MMIX constants): the whole mutation
/// schedule derives from the seed, so two runs replay identically.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 16
    }
}

#[derive(Default)]
struct ClientCounts {
    ok: u64,
    errors: u64,
    shed: u64,
    draining: u64,
    timeouts: u64,
    cancelled: u64,
    hangs: u64,
    cached: u64,
    mismatches: u64,
    /// Round trip of every answered request, microseconds.
    rtts_us: Vec<u64>,
}

/// The semantic fields of a report, rendered stably — what "byte-identical
/// verdicts" means once timing fields are set aside.
fn verdict_sig(report: &Value) -> String {
    let flagged = serde_json::to_string(&report["flagged"]).unwrap_or_default();
    format!(
        "{}|{}|{flagged}",
        report["verdict"].as_str().unwrap_or("?"),
        report["rung"].as_str().unwrap_or("?"),
    )
}

/// Run the replay and return the `BENCH_serve.json` report tree.
pub fn run_bench(opts: &ServeBenchOptions) -> Result<Value, String> {
    let rounds = if opts.smoke { opts.rounds.min(2) } else { opts.rounds };
    let clients = if opts.smoke {
        opts.clients.clamp(1, 2)
    } else {
        opts.clients.max(1)
    };

    let files = iwa_engine::collect_files(&opts.corpus).map_err(|e| e.to_string())?;
    if files.is_empty() {
        return Err(format!("no .iwa files under {}", opts.corpus.display()));
    }
    let mut variants: Vec<String> = Vec::with_capacity(files.len());
    for f in &files {
        variants
            .push(std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?);
    }

    // Drop corpus entries the daemon's start rung cannot parse cleanly —
    // the replay measures the cache and the robustness layer, and error
    // responses are exercised separately by the fault plan.
    variants.retain(|src| iwa_tasklang::parse(src).is_ok());
    if variants.is_empty() {
        return Err("corpus has no parseable programs".to_owned());
    }

    // Build the full request schedule up front: (source snapshot) per
    // round per variant, with persistent whitespace mutations between
    // rounds. Deterministic given the seed.
    let mut lcg = Lcg(opts.seed);
    let mut schedule: Vec<String> = Vec::with_capacity(rounds * variants.len());
    for round in 0..rounds {
        if round > 0 {
            for v in &mut variants {
                if lcg.next() % 1000 < opts.mutate_permille {
                    v.push('\n');
                }
            }
        }
        schedule.extend(variants.iter().cloned());
    }

    // Baseline verdicts (faults off only): one direct analyze per
    // distinct source, same rung, no deadline — full precision.
    let start = Rung::Heads;
    let mut baseline: HashMap<u64, String> = HashMap::new();
    if opts.faults.is_none() {
        for src in &schedule {
            let key = crate::cache::fnv1a(src.as_bytes());
            if baseline.contains_key(&key) {
                continue;
            }
            let program = iwa_tasklang::parse(src).map_err(|e| e.to_string())?;
            let report = iwa_engine::analyze(
                &program,
                &EngineOptions {
                    start,
                    ..EngineOptions::default()
                },
            )
            .map_err(|e| e.to_string())?;
            baseline.insert(key, verdict_sig(&report.to_value()));
        }
    }
    let baseline = Arc::new(baseline);

    let server = Server::start(ServeOptions {
        workers: opts.workers,
        queue_cap: opts.queue_cap,
        start,
        faults: opts.faults.clone(),
        ..ServeOptions::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr();

    let schedule = Arc::new(schedule);
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let schedule = Arc::clone(&schedule);
        let baseline = Arc::clone(&baseline);
        let deadline_ms = opts.deadline_ms;
        let faults_active = opts.faults.is_some();
        handles.push(std::thread::spawn(move || -> ClientCounts {
            let mut counts = ClientCounts::default();
            let Ok(mut client) = Client::connect(addr) else {
                // Requests this client owned but could never send count
                // as hangs — the accounting identity must still close.
                counts.hangs += schedule.iter().skip(c).step_by(clients).count() as u64;
                return counts;
            };
            for (i, src) in schedule.iter().enumerate() {
                if i % clients != c {
                    continue;
                }
                let req = Client::analyze_request(i as u64, src, Some(deadline_ms));
                let sent = Instant::now();
                let resp = match client.request(&req, Duration::from_secs(10)) {
                    Ok(v) => v,
                    Err(_) => {
                        counts.hangs += 1;
                        continue;
                    }
                };
                counts
                    .rtts_us
                    .push(u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX));
                match resp["status"].as_str().unwrap_or("") {
                    "ok" => {
                        counts.ok += 1;
                        if resp["cached"] == true {
                            counts.cached += 1;
                        }
                        let report = &resp["report"];
                        if !faults_active && report["degraded"] == false {
                            let key = crate::cache::fnv1a(src.as_bytes());
                            if let Some(expect) = baseline.get(&key) {
                                if verdict_sig(report) != *expect {
                                    counts.mismatches += 1;
                                }
                            }
                        }
                    }
                    "error" => counts.errors += 1,
                    "shed" => counts.shed += 1,
                    "draining" => counts.draining += 1,
                    "timeout" => counts.timeouts += 1,
                    "cancelled" => counts.cancelled += 1,
                    _ => counts.errors += 1,
                }
            }
            counts
        }));
    }

    let mut totals = ClientCounts::default();
    for h in handles {
        match h.join() {
            Ok(c) => {
                totals.ok += c.ok;
                totals.errors += c.errors;
                totals.shed += c.shed;
                totals.draining += c.draining;
                totals.timeouts += c.timeouts;
                totals.cancelled += c.cancelled;
                totals.hangs += c.hangs;
                totals.cached += c.cached;
                totals.mismatches += c.mismatches;
                totals.rtts_us.extend(c.rtts_us);
            }
            Err(_) => totals.hangs += 1,
        }
    }
    let wall = started.elapsed();

    server.shutdown();
    let stats = server.join();

    let requests = schedule.len() as u64;
    let denom = stats.cache_hits + stats.cache_misses;
    let hit_rate_pct = if denom == 0 {
        0.0
    } else {
        stats.cache_hits as f64 * 100.0 / denom as f64
    };
    let wall_ms = u64::try_from(wall.as_millis()).unwrap_or(u64::MAX);
    let secs = wall.as_secs_f64();
    let rps = if secs > 0.0 { requests as f64 / secs } else { 0.0 };
    totals.rtts_us.sort_unstable();

    Ok(Value::Object(vec![
        ("schema_version".into(), BENCH_SERVE_SCHEMA_VERSION.to_value()),
        (
            "mode".into(),
            Value::String(if opts.smoke { "smoke" } else { "full" }.into()),
        ),
        ("requests".into(), requests.to_value()),
        ("ok".into(), totals.ok.to_value()),
        ("errors".into(), totals.errors.to_value()),
        ("shed".into(), totals.shed.to_value()),
        ("draining".into(), totals.draining.to_value()),
        ("timeouts".into(), totals.timeouts.to_value()),
        ("cancelled".into(), totals.cancelled.to_value()),
        ("hangs".into(), totals.hangs.to_value()),
        ("cached_responses".into(), totals.cached.to_value()),
        ("cache_hits".into(), stats.cache_hits.to_value()),
        ("cache_misses".into(), stats.cache_misses.to_value()),
        ("hit_rate_pct".into(), hit_rate_pct.to_value()),
        ("verdict_mismatches".into(), totals.mismatches.to_value()),
        ("panics_isolated".into(), stats.panics_isolated.to_value()),
        ("workers_replaced".into(), stats.workers_replaced.to_value()),
        ("faults_active".into(), Value::Bool(opts.faults.is_some())),
        (
            "fault_plan".into(),
            match &opts.faults {
                Some(p) => Value::String(p.spec().to_owned()),
                None => Value::Null,
            },
        ),
        ("wall_ms".into(), wall_ms.to_value()),
        ("rps".into(), rps.to_value()),
        ("rtt_p50_us".into(), percentile(&totals.rtts_us, 0.50).to_value()),
        ("rtt_p99_us".into(), percentile(&totals.rtts_us, 0.99).to_value()),
    ]))
}

/// Validate a `BENCH_serve.json` tree against the schema (what
/// `iwa serve-bench --validate` runs).
pub fn validate_report(v: &Value) -> Result<(), String> {
    let version = v
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if version != u64::from(BENCH_SERVE_SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {version} != expected {BENCH_SERVE_SCHEMA_VERSION}"
        ));
    }
    match v.get("mode").and_then(Value::as_str) {
        Some("smoke" | "full") => {}
        other => return Err(format!("bad mode {other:?}")),
    }
    for key in [
        "requests",
        "ok",
        "errors",
        "shed",
        "draining",
        "timeouts",
        "cancelled",
        "hangs",
        "cached_responses",
        "cache_hits",
        "cache_misses",
        "verdict_mismatches",
        "panics_isolated",
        "workers_replaced",
        "wall_ms",
        "rtt_p50_us",
        "rtt_p99_us",
    ] {
        if v.get(key).and_then(Value::as_u64).is_none() {
            return Err(format!("missing or non-integer field '{key}'"));
        }
    }
    for key in ["hit_rate_pct", "rps"] {
        match v.get(key) {
            Some(Value::Float(_) | Value::Int(_) | Value::UInt(_)) => {}
            other => return Err(format!("missing or non-numeric field '{key}': {other:?}")),
        }
    }
    if v.get("faults_active").and_then(Value::as_bool).is_none() {
        return Err("missing boolean field 'faults_active'".to_owned());
    }
    let get = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let answered = get("ok")
        + get("errors")
        + get("shed")
        + get("draining")
        + get("timeouts")
        + get("cancelled");
    if answered + get("hangs") != get("requests") {
        return Err(format!(
            "response accounting does not add up: {answered} answered + {} hangs != {} requests",
            get("hangs"),
            get("requests")
        ));
    }
    Ok(())
}
