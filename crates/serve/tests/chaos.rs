//! Chaos suite: faults at every site, concurrent clients, and the two
//! acceptance bars — nothing ever hangs, and with faults off the daemon
//! is a transparent wrapper around single-shot analysis.

use iwa_core::fault::FaultPlan;
use iwa_engine::{EngineOptions, Rung};
use iwa_serve::{Client, ServeOptions, Server};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Duration;

const CLEAN: &str = "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }";
const BROKEN_SYNTAX: &str = "task { this does not parse";
const RECV: Duration = Duration::from_secs(10);

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// Faults at every site, three concurrent clients, a mixed request
/// stream — every single request must come back with *some* explicit
/// status, and the daemon must still drain cleanly afterwards.
#[test]
fn multi_site_fault_plan_never_hangs_the_daemon() {
    let plan = FaultPlan::parse(
        "parse=panic:skip=2:times=2;\
         certify=io-error:skip=1:times=3;\
         certify=panic:skip=4:times=2;\
         refined-search=budget-trip:times=2;\
         cache-lookup=io-error:times=2;\
         parse=sleep:50:skip=6:times=3",
    )
    .expect("chaos plan parses");

    let server = Server::start(ServeOptions {
        workers: 3,
        faults: Some(plan),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr();

    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 15;
    let mut handles = Vec::new();
    for c in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut answered = 0usize;
            for i in 0..PER_CLIENT {
                // Mix well-formed, ill-formed, and varying sources so the
                // fault windows land on different request shapes.
                let source = match i % 3 {
                    0 => CLEAN.to_owned(),
                    1 => BROKEN_SYNTAX.to_owned(),
                    _ => format!("task a{c} {{ send b{c}.m; }} task b{c} {{ accept m; }}"),
                };
                let req = Client::analyze_request((c * 100 + i) as u64, &source, Some(2_000));
                let resp = client
                    .request(&req, RECV)
                    .unwrap_or_else(|e| panic!("client {c} request {i} hung: {e}"));
                let status = resp["status"].as_str().expect("status present");
                assert!(
                    ["ok", "error", "shed", "timeout", "cancelled"].contains(&status),
                    "unknown status {status}"
                );
                answered += 1;
            }
            answered
        }));
    }
    let answered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(answered, CLIENTS * PER_CLIENT, "every request was answered");

    server.shutdown();
    let stats = server.join();
    // Until some answer is cached, every parseable request reaches the
    // certify site, and its first six hits cache nothing (a refined-search
    // trip, three io-errors, two panics): both panic windows fire in full.
    assert_eq!(
        stats.panics_isolated, 4,
        "two parse panics and two certify panics, each contained: {stats:?}"
    );
    // The injected io-errors at certify surface as explicit error
    // responses, never as dropped connections.
    assert!(stats.errors >= 1, "fault-induced errors are explicit: {stats:?}");
}

/// Faults off, the daemon must be a transparent wrapper: same verdict,
/// same producing rung, same flagged findings as a direct in-process
/// analysis of every corpus program, whether the answer is computed or
/// served from the cache.
#[test]
fn verdicts_match_direct_analysis_with_faults_off() {
    let files = iwa_engine::collect_sources(&corpus_dir())
        .expect("corpus readable")
        .files;
    assert!(!files.is_empty(), "repo corpus must exist");

    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut compared = 0;
    for (i, file) in files.iter().enumerate() {
        let source = std::fs::read_to_string(file).unwrap();
        let Ok(program) = iwa_tasklang::parse(&source) else {
            continue;
        };
        let direct = iwa_engine::analyze(
            &program,
            &EngineOptions {
                start: Rung::Heads,
                ..EngineOptions::default()
            },
        )
        .unwrap()
        .to_value();

        // The first answer is cached (it is not degraded), so the second
        // submission must come from the cache.
        for round in 0..2 {
            let id = (2 * i + round) as u64;
            let resp = client
                .request(&Client::analyze_request(id, &source, Some(30_000)), RECV)
                .unwrap();
            assert_eq!(resp["status"], "ok", "{}: {resp:?}", file.display());
            if round == 1 {
                assert_eq!(resp["cached"], true, "{}: {resp:?}", file.display());
            }
            let served = &resp["report"];
            assert_eq!(served["degraded"], false, "{}", file.display());
            for field in ["verdict", "rung", "flagged"] {
                assert_eq!(
                    served[field], direct[field],
                    "{}: field '{field}' must be byte-identical to single-shot analysis",
                    file.display()
                );
            }
        }
        compared += 1;
    }
    assert!(compared >= 5, "expected a real corpus, compared only {compared}");

    server.shutdown();
    server.join();
}
