//! End-to-end tests for the daemon: protocol round-trips, the verdict
//! cache, load shedding, watchdog replacement, panic isolation, and the
//! graceful-drain guarantee.
//!
//! Every `recv` in this file carries a hard timeout — a test of an
//! infinite-wait detector must itself be unable to wait infinitely.

use iwa_core::fault::FaultPlan;
use iwa_serve::{Client, Server, ServeOptions};
use serde::Value;
use std::time::Duration;

const CLEAN: &str = "task t1 { send t2.a; accept b; } task t2 { accept a; send t1.b; }";
const RECV: Duration = Duration::from_secs(10);

fn plan(spec: &str) -> Option<FaultPlan> {
    Some(FaultPlan::parse(spec).expect("fault spec parses"))
}

#[test]
fn ping_analyze_roundtrip_and_cache_hit() {
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let pong = client
        .request(&Client::simple_request(1, "ping"), RECV)
        .unwrap();
    assert_eq!(pong["status"], "ok");
    assert_eq!(pong["report"]["pong"], true);

    let first = client
        .request(&Client::analyze_request(2, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(first["status"], "ok", "unexpected response: {first:?}");
    assert_eq!(first["cached"], false);
    assert_eq!(first["report"]["verdict"], "Clean");
    assert_eq!(first["report"]["degraded"], false);

    let second = client
        .request(&Client::analyze_request(3, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(second["status"], "ok");
    assert_eq!(second["cached"], true, "byte-identical resubmit must hit");
    assert_eq!(
        second["report"]["verdict"], first["report"]["verdict"],
        "a cache hit must reproduce the original verdict"
    );

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.received, 2, "two analyzes admitted");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn bad_requests_get_explicit_errors_not_hangs() {
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Unknown op.
    let resp = client
        .request(&Client::simple_request(1, "frobnicate"), RECV)
        .unwrap();
    assert_eq!(resp["status"], "error");

    // Analyze without a source.
    let resp = client
        .request(&Client::simple_request(2, "analyze"), RECV)
        .unwrap();
    assert_eq!(resp["status"], "error");

    // Source that does not parse.
    let resp = client
        .request(&Client::analyze_request(3, "task {", Some(1_000)), RECV)
        .unwrap();
    assert_eq!(resp["status"], "error");
    assert!(resp["error"].as_str().is_some());

    server.shutdown();
    server.join();
}

/// `lint` validates the program like `analyze` does: a program the
/// model rejects is an explicit error, not an `ok` with no findings.
#[test]
fn lint_rejects_an_invalid_program_like_analyze() {
    const RECURSIVE: &str = "proc p { call q; } proc q { call p; } task t { call p; }";
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let analyzed = client
        .request(&Client::analyze_request(1, RECURSIVE, Some(5_000)), RECV)
        .unwrap();
    let mut lint = Client::analyze_request(2, RECURSIVE, Some(5_000));
    if let Value::Object(fields) = &mut lint {
        for (k, v) in fields.iter_mut() {
            if k == "op" {
                *v = Value::String("lint".to_owned());
            }
        }
    }
    let linted = client.request(&lint, RECV).unwrap();
    for resp in [&analyzed, &linted] {
        assert_eq!(resp["status"], "error", "unexpected response: {resp:?}");
        let msg = resp["error"].as_str().expect("error text");
        assert!(msg.contains("recursive procedure 'p'"), "{msg}");
    }
    assert_eq!(linted["error"], analyzed["error"]);

    server.shutdown();
    server.join();
}

#[test]
fn full_queue_sheds_with_retry_hint() {
    // One worker stalled 300 ms per request, queue of one: pipelining six
    // requests must shed most of them, explicitly, immediately.
    let server = Server::start(ServeOptions {
        workers: 1,
        queue_cap: 1,
        faults: plan("parse=sleep:300"),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    const N: usize = 6;
    for i in 0..N {
        client
            .send(&Client::analyze_request(i as u64, CLEAN, Some(5_000)))
            .unwrap();
    }
    let (mut ok, mut shed) = (0, 0);
    for _ in 0..N {
        let resp = client.recv(RECV).expect("every request is answered");
        match resp["status"].as_str().unwrap() {
            "ok" => ok += 1,
            "shed" => {
                shed += 1;
                let hint = resp["retry_after_ms"].as_u64().expect("shed carries a hint");
                assert!(hint > 0);
                assert_eq!(resp["error"], "admission queue full");
            }
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(ok + shed, N);
    assert!(shed >= 1, "a one-deep queue behind a stalled worker must shed");
    assert!(ok >= 1, "admitted work still completes");

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.shed, shed as u64);
}

#[test]
fn watchdog_abandons_stuck_worker_and_capacity_survives() {
    // First request stalls 1.5 s at the parse site — far past its 100 ms
    // deadline and the 100 ms grace. The watchdog must answer `timeout`
    // and spawn a replacement so the second request still runs.
    let server = Server::start(ServeOptions {
        workers: 1,
        watchdog_grace: Duration::from_millis(100),
        faults: plan("parse=sleep:1500:times=1"),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let stuck = client
        .request(&Client::analyze_request(1, CLEAN, Some(100)), RECV)
        .unwrap();
    assert_eq!(stuck["status"], "timeout", "unexpected: {stuck:?}");
    assert!(stuck["error"].as_str().unwrap().contains("hard deadline"));

    let after = client
        .request(&Client::analyze_request(2, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(
        after["status"], "ok",
        "replacement worker must pick up new work: {after:?}"
    );

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.workers_replaced, 1);
}

#[test]
fn panics_are_isolated_to_the_request() {
    let server = Server::start(ServeOptions {
        faults: plan("parse=panic:times=1"),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let poisoned = client
        .request(&Client::analyze_request(1, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(poisoned["status"], "error");
    assert!(
        poisoned["error"].as_str().unwrap().contains("isolated"),
        "the error should say the panic was contained: {poisoned:?}"
    );

    let after = client
        .request(&Client::analyze_request(2, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(after["status"], "ok", "the daemon survived the panic");

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.panics_isolated, 1);
}

#[test]
fn response_write_faults_are_contained() {
    // An injected write failure models a dead peer: the daemon counts it
    // and moves on; it never takes a worker down.
    let server = Server::start(ServeOptions {
        faults: plan("response-write=io-error:times=1"),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The first response is eaten by the fault — the *client* times out,
    // the daemon does not.
    client
        .send(&Client::analyze_request(1, CLEAN, Some(5_000)))
        .unwrap();
    let eaten = client.recv(Duration::from_secs(3));
    assert!(eaten.is_err(), "the injected write failure ate the frame");

    let after = client
        .request(&Client::analyze_request(2, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(after["status"], "ok");

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.failed_writes, 1);
}

#[test]
fn budget_trip_fault_degrades_instead_of_erroring() {
    // A budget-trip at the serve parse site cancels the request token, so
    // the ladder falls to its naive floor: still an `ok`, labelled
    // degraded — never a cold failure.
    let server = Server::start(ServeOptions {
        faults: plan("parse=budget-trip:times=1"),
        ..ServeOptions::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let resp = client
        .request(&Client::analyze_request(1, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(resp["status"], "ok", "unexpected: {resp:?}");
    assert_eq!(resp["report"]["degraded"], true);
    assert_eq!(resp["report"]["rung"], "Naive");

    // Degraded verdicts must not poison the cache.
    let again = client
        .request(&Client::analyze_request(2, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(again["status"], "ok");
    assert_eq!(again["cached"], false, "degraded report was not cached");
    assert_eq!(again["report"]["degraded"], false);

    server.shutdown();
    server.join();
}

/// The drain satellite: N requests in flight, shutdown mid-stream —
/// every admitted request still gets exactly one explicit terminal
/// response (`ok`, `timeout`, or `cancelled`), never a dropped
/// connection, and a daemon mid-drain refuses new work out loud.
#[test]
fn graceful_drain_answers_every_inflight_request() {
    const N: usize = 6;
    let server = Server::start(ServeOptions {
        workers: 2,
        faults: plan("parse=sleep:400"),
        drain_timeout: Duration::from_secs(4),
        ..ServeOptions::default()
    })
    .unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();

    for i in 0..N {
        client
            .send(&Client::analyze_request(i as u64, CLEAN, Some(5_000)))
            .unwrap();
    }
    // Shut down only once all N are genuinely admitted — the point is to
    // drain *in-flight* work, not to race the reader thread.
    let admitted_deadline = std::time::Instant::now() + RECV;
    while server.stats().received < N as u64 {
        assert!(
            std::time::Instant::now() < admitted_deadline,
            "requests never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
    let drain = std::thread::spawn(move || server.join());

    // A newcomer mid-drain is told so explicitly.
    std::thread::sleep(Duration::from_millis(100));
    let mut late = Client::connect(addr).unwrap();
    let refused = late
        .request(&Client::analyze_request(99, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(refused["status"], "draining", "unexpected: {refused:?}");

    let mut terminal = 0;
    for _ in 0..N {
        let resp = client
            .recv(RECV)
            .expect("drain must answer, not drop, in-flight requests");
        match resp["status"].as_str().unwrap() {
            "ok" | "timeout" | "cancelled" => terminal += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert_eq!(terminal, N);

    let stats = drain.join().unwrap();
    assert_eq!(
        stats.ok + stats.timeouts + stats.cancelled,
        N as u64,
        "accounting must close over the admitted requests: {stats:?}"
    );
}

#[test]
fn stats_op_reports_live_counters() {
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .request(&Client::analyze_request(1, CLEAN, Some(5_000)), RECV)
        .unwrap();
    let stats = client
        .request(&Client::simple_request(2, "stats"), RECV)
        .unwrap();
    assert_eq!(stats["status"], "ok");
    assert_eq!(stats["report"]["received"], 1);
    assert_eq!(stats["report"]["ok"], 1);
    assert!(matches!(stats["report"]["cache_misses"], Value::Int(1)));
    let p50_us = stats["report"]["p50_us"].as_u64().expect("p50_us present");
    assert!(p50_us > 0, "one analyze takes more than 0 µs: {stats:?}");

    server.shutdown();
    server.join();
}

/// A client that waits for each reply before sending the next request
/// must not pay a delayed-ACK wait per reply. When a response leaves as
/// two writes on a socket with Nagle on, the second write waits for the
/// client's delayed ACK (≥ 40 ms) of the first, and 100 round trips take
/// seconds.
#[test]
fn sequential_round_trips_do_not_wait_for_a_delayed_ack() {
    const ROUNDS: u64 = 100;
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let warm = client
        .request(&Client::analyze_request(0, CLEAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(warm["status"], "ok", "unexpected response: {warm:?}");

    let started = std::time::Instant::now();
    for id in 1..=ROUNDS {
        let pong = client
            .request(&Client::simple_request(id, "ping"), RECV)
            .unwrap();
        assert_eq!(pong["status"], "ok");
    }
    let pings = started.elapsed();

    let started = std::time::Instant::now();
    for id in 1..=ROUNDS {
        let hit = client
            .request(&Client::analyze_request(id, CLEAN, Some(5_000)), RECV)
            .unwrap();
        assert_eq!(hit["cached"], true, "unexpected response: {hit:?}");
    }
    let hits = started.elapsed();

    server.shutdown();
    server.join();
    assert!(pings < Duration::from_secs(1), "{ROUNDS} pings took {pings:?}");
    assert!(hits < Duration::from_secs(1), "{ROUNDS} cache hits took {hits:?}");
}

/// A client that opens a fresh connection per request is served at once:
/// the listener blocks in `accept`. When it polled a non-blocking
/// `accept` and slept 10 ms whenever none was pending, each new
/// connection waited for the next poll, and 100 of them took about 1 s.
#[test]
fn fresh_connections_do_not_wait_for_a_listener_poll() {
    const ROUNDS: u64 = 100;
    let server = Server::start(ServeOptions::default()).unwrap();
    let started = std::time::Instant::now();
    for id in 1..=ROUNDS {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let pong = client
            .request(&Client::simple_request(id, "ping"), RECV)
            .unwrap();
        assert_eq!(pong["status"], "ok");
    }
    let elapsed = started.elapsed();
    server.shutdown();
    server.join();
    assert!(
        elapsed < Duration::from_millis(500),
        "{ROUNDS} connect-ping-close round trips took {elapsed:?}"
    );
}

#[test]
fn shutdown_op_drains_the_daemon() {
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .request(&Client::simple_request(1, "shutdown"), RECV)
        .unwrap();
    assert_eq!(resp["status"], "ok");
    // join() returns promptly because the op set the flag.
    server.join();
}

/// `check` answers with the diagnostics `iwa check` prints: each file's
/// quick-lint findings equal its entry in the batch golden. The quick
/// lints read only the AST, so the rung and deadline do not move them.
#[test]
fn check_op_carries_the_quick_lint_diagnostics() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden = std::fs::read_to_string(root.join("tests/golden/check_corpus.json")).unwrap();
    let golden = serde_json::from_str(&golden).expect("golden is JSON");
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .request(
            &Value::Object(vec![
                ("id".to_owned(), Value::UInt(1)),
                ("op".to_owned(), Value::String("check".to_owned())),
                (
                    "path".to_owned(),
                    Value::String(root.join("corpus/lints").display().to_string()),
                ),
            ]),
            RECV,
        )
        .unwrap();
    assert_eq!(resp["status"], "ok", "unexpected response: {resp:?}");
    let files = resp["report"]["files"]
        .as_array()
        .expect("per-file outcomes");
    assert_eq!(files.len(), 10, "{files:?}");
    let want = golden["files"].as_array().unwrap();
    let mut findings = 0;
    for f in files {
        let path = f["path"].as_str().unwrap();
        let name = path.rsplit('/').next().unwrap();
        let entry = want
            .iter()
            .find(|w| w["path"].as_str() == Some(&format!("corpus/lints/{name}")))
            .unwrap_or_else(|| panic!("{path} is not in the golden"));
        assert_eq!(f["diagnostics"], entry["diagnostics"], "{path}");
        findings += f["diagnostics"].as_array().unwrap().len();
    }
    assert!(findings > 0, "the lint corpus has quick-lint findings");

    server.shutdown();
    server.join();
}

// --------------------------------------------------------- lok frontend

const ABBA_LOK: &str = "thread t1 { lock a; lock b; unlock b; unlock a; }
thread t2 { lock b; lock a; unlock a; unlock b; }";
const ORDERED_LOK: &str = "thread t1 { lock a; lock b; unlock b; unlock a; }
thread t2 { lock a; lock b; unlock b; unlock a; }";

/// The daemon routes `.lok` requests through the lock-order frontend:
/// an explicit `lang` field (or a `.lok` name extension) selects it, the
/// verdict comes from the same ladder, and the cache keys the language —
/// identical bytes under a different frontend never collide.
#[test]
fn lok_requests_route_through_the_lock_frontend() {
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let abba = client
        .request(
            &Client::analyze_request_lang(1, ABBA_LOK, "lok", Some(5_000)),
            RECV,
        )
        .unwrap();
    assert_eq!(abba["status"], "ok", "unexpected response: {abba:?}");
    assert_eq!(abba["report"]["verdict"], "Anomalous");
    let flagged = format!("{:?}", abba["report"]["flagged"]);
    assert!(
        flagged.contains("lock-order cycle"),
        "witness names the cycle: {flagged}"
    );

    let ordered = client
        .request(
            &Client::analyze_request_lang(2, ORDERED_LOK, "lok", Some(5_000)),
            RECV,
        )
        .unwrap();
    assert_eq!(ordered["status"], "ok");
    assert_eq!(ordered["report"]["verdict"], "Clean");
    assert_eq!(ordered["report"]["degraded"], false);

    // Same source, other frontend: a `.lok` program is not tasklang, so
    // the parse fails — but crucially it did NOT hit the lok cache entry.
    let as_iwa = client
        .request(&Client::analyze_request(3, ABBA_LOK, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(as_iwa["status"], "error");
    assert_eq!(as_iwa["cached"], false);

    // Byte-identical lok resubmission hits the cache.
    let again = client
        .request(
            &Client::analyze_request_lang(4, ABBA_LOK, "lok", Some(5_000)),
            RECV,
        )
        .unwrap();
    assert_eq!(again["cached"], true, "lok verdicts are cacheable");
    assert_eq!(again["report"]["verdict"], "Anomalous");

    // A `.lok` name extension resolves the frontend without `lang`.
    let mut named = Client::analyze_request(5, ORDERED_LOK, Some(5_000));
    if let Value::Object(fields) = &mut named {
        fields.push(("name".to_owned(), Value::String("guard.lok".to_owned())));
    }
    let by_name = client.request(&named, RECV).unwrap();
    assert_eq!(by_name["status"], "ok", "unexpected response: {by_name:?}");
    assert_eq!(by_name["report"]["verdict"], "Clean");

    // Lint routes too: the lock-order lint family fires over the wire.
    let mut lint = Client::analyze_request(6, ABBA_LOK, Some(5_000));
    if let Value::Object(fields) = &mut lint {
        for (k, v) in fields.iter_mut() {
            if k == "op" {
                *v = Value::String("lint".to_owned());
            }
        }
        fields.push(("lang".to_owned(), Value::String("lok".to_owned())));
    }
    let linted = client.request(&lint, RECV).unwrap();
    assert_eq!(linted["status"], "ok", "unexpected response: {linted:?}");
    let diags = format!("{:?}", linted["report"]["diagnostics"]);
    assert!(
        diags.contains("lock-order-cycle"),
        "lock-order lints fire over the wire: {diags}"
    );

    server.shutdown();
    server.join();
}

// -------------------------------------------------------- chan frontend

const RING_CHAN: &str = "chan c0; chan c1; chan c2;
proc p0 { send c0; recv c2; }
proc p1 { send c1; recv c0; }
proc p2 { send c2; recv c1; }";
const PIPELINE_CHAN: &str = "chan a; chan b;
proc p1 { send a; send b; }
proc p2 { recv a; recv b; }";
const SPIN_CHAN: &str = "chan c;
proc poller { loop { select { recv c { } default { } } } }";

/// The daemon routes `.chan` requests through the channel frontend: an
/// explicit `lang` field (or a `.chan` name extension) selects it, the
/// verdict comes from the same ladder (livelocks included), and the
/// cache keys the language.
#[test]
fn chan_requests_route_through_the_channel_frontend() {
    let server = Server::start(ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let ring = client
        .request(
            &Client::analyze_request_lang(1, RING_CHAN, "chan", Some(5_000)),
            RECV,
        )
        .unwrap();
    assert_eq!(ring["status"], "ok", "unexpected response: {ring:?}");
    assert_eq!(ring["report"]["verdict"], "Anomalous");
    let flagged = format!("{:?}", ring["report"]["flagged"]);
    assert!(
        flagged.contains("channel-wait cycle"),
        "witness names the cycle: {flagged}"
    );

    // A livelock flags the verdict even though the lowered graph is
    // deadlock-free.
    let spin = client
        .request(
            &Client::analyze_request_lang(2, SPIN_CHAN, "chan", Some(5_000)),
            RECV,
        )
        .unwrap();
    assert_eq!(spin["status"], "ok", "unexpected response: {spin:?}");
    assert_eq!(spin["report"]["verdict"], "Anomalous");
    let flagged = format!("{:?}", spin["report"]["flagged"]);
    assert!(
        flagged.contains("spins on select default"),
        "witness names the spin: {flagged}"
    );

    // Same bytes, other frontend: no tasklang parse, and no cache
    // collision with the chan entry.
    let as_iwa = client
        .request(&Client::analyze_request(3, RING_CHAN, Some(5_000)), RECV)
        .unwrap();
    assert_eq!(as_iwa["status"], "error");
    assert_eq!(as_iwa["cached"], false);

    // Byte-identical chan resubmission hits the cache.
    let again = client
        .request(
            &Client::analyze_request_lang(4, RING_CHAN, "chan", Some(5_000)),
            RECV,
        )
        .unwrap();
    assert_eq!(again["cached"], true, "chan verdicts are cacheable");
    assert_eq!(again["report"]["verdict"], "Anomalous");

    // A `.chan` name extension resolves the frontend without `lang`.
    let mut named = Client::analyze_request(5, PIPELINE_CHAN, Some(5_000));
    if let Value::Object(fields) = &mut named {
        fields.push(("name".to_owned(), Value::String("pipes.chan".to_owned())));
    }
    let by_name = client.request(&named, RECV).unwrap();
    assert_eq!(by_name["status"], "ok", "unexpected response: {by_name:?}");
    assert_eq!(by_name["report"]["verdict"], "Clean");

    // Lint routes too: the channel lint family fires over the wire.
    let mut lint = Client::analyze_request(6, SPIN_CHAN, Some(5_000));
    if let Value::Object(fields) = &mut lint {
        for (k, v) in fields.iter_mut() {
            if k == "op" {
                *v = Value::String("lint".to_owned());
            }
        }
        fields.push(("lang".to_owned(), Value::String("chan".to_owned())));
    }
    let linted = client.request(&lint, RECV).unwrap();
    assert_eq!(linted["status"], "ok", "unexpected response: {linted:?}");
    let diags = format!("{:?}", linted["report"]["diagnostics"]);
    assert!(
        diags.contains("livelock") && diags.contains("select-arm-starved"),
        "channel lints fire over the wire: {diags}"
    );

    server.shutdown();
    server.join();
}
