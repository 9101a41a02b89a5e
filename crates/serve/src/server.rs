//! The daemon: listener, admission queue, worker pool, watchdog, drain.
//!
//! Robustness invariant — **every accepted connection's every request
//! gets exactly one explicit response**, whatever happens in between:
//!
//! * a full queue answers `shed` with a retry-after hint instead of
//!   accepting work it cannot schedule;
//! * a draining daemon answers `draining` instead of silently closing;
//! * a request past its soft deadline has its [`CancelToken`] tripped,
//!   so the engine *degrades down the ladder* and still answers `ok`;
//! * a worker stalled past the hard deadline is answered for by the
//!   watchdog (`timeout`) and replaced, so capacity never leaks;
//! * a panicking analysis is caught at the request boundary and answered
//!   `error`; the daemon never dies with a request in hand;
//! * shutdown drains: in-flight requests get a grace window at full
//!   precision, then their tokens are cancelled (fast degraded answers),
//!   and whatever still remains is answered `cancelled` explicitly.
//!
//! Concurrency model: a listener blocked in `accept` (woken at shutdown
//! by one connection of the daemon's own), one reader thread per
//! connection (50 ms poll so shutdown is noticed promptly, joined by the
//! listener at the first accept after its connection closes), a bounded
//! [`VecDeque`] admission queue under a [`Condvar`], a fixed worker pool
//! executing requests, and one watchdog ticking every 20 ms over the
//! in-flight table. All hand-rolled on `std` — the point of the exercise
//! is that the robustness lives in the protocol, not in a runtime.

use crate::cache::{cache_key, VerdictCache};
use crate::proto::{encode_frame, parse_request, Frame, FrameReader, Op, Request, Response};
use iwa_core::fault::{FaultPlan, FaultSite};
use iwa_core::{panic_message, Budget, CancelToken, IwaError};
use iwa_engine::{CheckOptions, EngineOptions, Rung};
use iwa_frontend::{registry as frontends, Lang};
use iwa_lint::{lint_model, registry_for, LintConfig};
use serde::{Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission-queue capacity; a full queue sheds.
    pub queue_cap: usize,
    /// Deadline applied when a request carries none.
    pub default_deadline: Duration,
    /// Grace between the soft deadline (cancel → degrade) and the hard
    /// deadline (watchdog answers `timeout` and replaces the worker).
    pub watchdog_grace: Duration,
    /// Total wall-clock budget for a graceful drain.
    pub drain_timeout: Duration,
    /// Verdict-cache capacity (reports).
    pub cache_cap: usize,
    /// Default starting rung for analyze requests.
    pub start: Rung,
    /// Fault plan threaded through serve sites *and* the engine.
    pub faults: Option<FaultPlan>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_cap: 64,
            default_deadline: Duration::from_millis(2_000),
            watchdog_grace: Duration::from_millis(250),
            drain_timeout: Duration::from_millis(2_000),
            cache_cap: 4096,
            start: Rung::Heads,
            faults: None,
        }
    }
}

/// Ceiling clamped onto any requested deadline.
const MAX_DEADLINE: Duration = Duration::from_secs(30);

/// Final counters reported when the daemon exits (also served live by
/// the `stats` op).
#[derive(Clone, Debug, Default, Serialize)]
pub struct ServeStats {
    /// Requests admitted to the queue.
    pub received: u64,
    /// `ok` responses sent.
    pub ok: u64,
    /// `error` responses sent.
    pub errors: u64,
    /// `shed` responses sent (queue full).
    pub shed: u64,
    /// `draining` responses sent (admission during shutdown).
    pub draining_rejects: u64,
    /// `timeout` responses sent by the watchdog.
    pub timeouts: u64,
    /// `cancelled` responses sent during drain.
    pub cancelled: u64,
    /// Panics caught at the request boundary.
    pub panics_isolated: u64,
    /// Response frames that failed to write (dead peer or injected
    /// response-write fault).
    pub failed_writes: u64,
    /// Stalled workers replaced by the watchdog.
    pub workers_replaced: u64,
    /// Verdict-cache hits.
    pub cache_hits: u64,
    /// Verdict-cache misses.
    pub cache_misses: u64,
    /// p50 request latency (admission → response), microseconds, over
    /// the most recent 4096 answered requests.
    pub p50_us: u64,
    /// p99 request latency, microseconds, over the same window.
    pub p99_us: u64,
}

/// The daemon's counters and the latency samples its percentiles are
/// read from. The cache and percentile fields of `counts` stay zero;
/// [`Shared::snapshot`] fills them in.
#[derive(Debug, Default)]
struct StatsInner {
    counts: ServeStats,
    latencies_us: VecDeque<u64>,
}

/// Latency samples kept for the percentiles; the oldest is dropped first.
const LATENCY_RING: usize = 4096;

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Lock `m`, recovering the data of a poisoned mutex: every update made
/// under the daemon's locks (a counter bump, a queue or table push or
/// pop, one frame write) leaves the data valid at every step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Claim the right to answer a request. The worker, the watchdog and the
/// drain each call this on the request's one flag before they answer;
/// exactly one of them wins.
fn claim(responded: &AtomicBool) -> bool {
    responded
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

/// A shared handle on one connection's write half. Responses from the
/// worker, the watchdog, and the drain path all serialize through one
/// mutex so frames never interleave.
#[derive(Clone, Debug)]
struct ConnWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            stream: Arc::new(Mutex::new(stream)),
        }
    }

    /// Send one response frame. The `response-write` fault site fires
    /// here; both its panic and io-error actions are contained — a send
    /// can fail, but it cannot take the caller down. Returns `false` on
    /// failure (counted by the caller as a failed write). The frame is
    /// encoded before the lock, so the lock covers one write.
    fn send(&self, resp: &Response, faults: Option<&FaultPlan>) -> bool {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = faults {
                plan.fire(FaultSite::ResponseWrite, &resp.status)
                    .map_err(|e| io::Error::other(e.to_string()))?;
            }
            let frame = encode_frame(&resp.to_bytes())?;
            lock(&self.stream).write_all(&frame)
        }));
        matches!(outcome, Ok(Ok(())))
    }
}

struct Job {
    ticket: u64,
    conn: ConnWriter,
    req: Request,
    admitted: Instant,
}

#[derive(Clone)]
struct Inflight {
    cancel: CancelToken,
    soft: Instant,
    hard: Instant,
    conn: ConnWriter,
    id: Value,
    admitted: Instant,
    responded: Arc<AtomicBool>,
}

struct Shared {
    opts: ServeOptions,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    accepting: AtomicBool,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
    next_ticket: AtomicU64,
    inflight: Mutex<HashMap<u64, Inflight>>,
    stats: Mutex<StatsInner>,
    cache: VerdictCache,
    extra_workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn snapshot(&self) -> ServeStats {
        let (cache_hits, cache_misses) = self.cache.stats();
        let g = lock(&self.stats);
        let mut lat: Vec<u64> = g.latencies_us.iter().copied().collect();
        lat.sort_unstable();
        ServeStats {
            cache_hits,
            cache_misses,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
            ..g.counts.clone()
        }
    }

    /// The one path every response leaves by. The status, and for an
    /// admitted request its admission → response latency, are counted
    /// *before* the frame is written, so a client that receives the
    /// response and immediately asks for stats always sees its own
    /// request reflected (no counter race); a failed write is counted
    /// after.
    fn respond(&self, conn: &ConnWriter, resp: &Response, admitted: Option<Instant>) {
        {
            let mut g = lock(&self.stats);
            match resp.status.as_str() {
                "ok" => g.counts.ok += 1,
                "error" => g.counts.errors += 1,
                "shed" => g.counts.shed += 1,
                "draining" => g.counts.draining_rejects += 1,
                "timeout" => g.counts.timeouts += 1,
                "cancelled" => g.counts.cancelled += 1,
                _ => {}
            }
            if let Some(admitted) = admitted {
                let us = u64::try_from(admitted.elapsed().as_micros()).unwrap_or(u64::MAX);
                if g.latencies_us.len() >= LATENCY_RING {
                    g.latencies_us.pop_front();
                }
                g.latencies_us.push_back(us);
            }
        }
        if !conn.send(resp, self.opts.faults.as_ref()) {
            lock(&self.stats).counts.failed_writes += 1;
        }
    }

    /// Wait until the queue and the in-flight table are both empty, or
    /// until `until`.
    fn wait_idle(&self, until: Instant) {
        while Instant::now() < until {
            if lock(&self.queue).is_empty() && lock(&self.inflight).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared))
}

/// A running daemon. Dropping the handle does **not** stop it — call
/// [`shutdown`](Server::shutdown) and [`join`](Server::join).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the listener / worker pool / watchdog, and return.
    pub fn start(opts: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            cache: VerdictCache::new(opts.cache_cap),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            accepting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            next_ticket: AtomicU64::new(1),
            inflight: Mutex::new(HashMap::new()),
            stats: Mutex::new(StatsInner::default()),
            extra_workers: Mutex::new(Vec::new()),
            opts,
        });

        let workers = (0..shared.opts.workers.max(1))
            .map(|_| spawn_worker(&shared))
            .collect();
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(&shared))
        };
        let listener_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || listener_loop(&listener, &shared))
        };

        Ok(Server {
            shared,
            local_addr,
            listener: Some(listener_handle),
            watchdog: Some(watchdog),
            workers,
        })
    }

    /// The bound address (useful with `:0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Request a graceful drain (idempotent; also triggered by the
    /// `shutdown` op). [`join`](Server::join) performs it.
    pub fn shutdown(&self) {
        self.shared.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// Live stats snapshot.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Block until shutdown is requested, drain gracefully, join every
    /// thread, and return the final stats.
    pub fn join(mut self) -> ServeStats {
        while !self.shared.shutdown_requested.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
        }
        let shared = &self.shared;
        let drain_started = Instant::now();
        shared.accepting.store(false, Ordering::SeqCst);

        // Phase 1: let in-flight and queued work finish at full precision
        // for half the drain budget.
        shared.wait_idle(drain_started + shared.opts.drain_timeout / 2);

        // Phase 2: cancel every in-flight token — analyses degrade to
        // their naive floor and answer fast — and keep waiting.
        for entry in lock(&shared.inflight).values() {
            entry.cancel.cancel();
        }
        shared.wait_idle(drain_started + shared.opts.drain_timeout);

        // Phase 3: whatever survived the budget gets an explicit
        // `cancelled` response — never a silently dropped connection.
        let leftovers: Vec<Job> = lock(&shared.queue).drain(..).collect();
        for job in leftovers {
            let mut resp = Response::new(job.req.id, "cancelled");
            resp.error = Some("server shut down before the request was scheduled".to_owned());
            shared.respond(&job.conn, &resp, None);
        }
        let stuck: Vec<Inflight> = lock(&shared.inflight).drain().map(|(_, v)| v).collect();
        for entry in stuck {
            if claim(&entry.responded) {
                let mut resp = Response::new(entry.id, "cancelled");
                resp.error = Some("server shut down while the request was running".to_owned());
                shared.respond(&entry.conn, &resp, None);
            }
        }

        // Stop the machinery and join everything (a stalled worker exits
        // when it wakes and loses the claim; replacements were already
        // spawned, and all of them observe `stop`).
        shared.stop.store(true, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        if let Some(h) = self.listener.take() {
            // The listener blocks in `accept`: one connection wakes it to
            // see `stop`. Should that fail, leave it detached rather than
            // hang.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        // The watchdog, the only thread that adds replacements, has exited.
        let extra = std::mem::take(&mut *lock(&shared.extra_workers));
        for h in self.workers.drain(..).chain(extra) {
            let _ = h.join();
        }
        shared.snapshot()
    }
}

fn listener_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                // An exited reader keeps its stack mapped until it is
                // joined, so join each one whose connection has closed.
                let mut i = 0;
                while i < readers.len() {
                    if readers[i].is_finished() {
                        let _ = readers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                let shared = Arc::clone(shared);
                readers.push(std::thread::spawn(move || reader_loop(stream, &shared)));
            }
            // Out of descriptors (EMFILE) and the like: the pending
            // connection stays queued, so pause rather than spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    for h in readers {
        let _ = h.join();
    }
}

fn reader_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    // Without this, a response sent while an earlier one is still
    // unacknowledged waits for the peer's delayed ACK (up to 40 ms).
    let _ = stream.set_nodelay(true);
    let conn = ConnWriter::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut read_half = stream;
    let mut frames = FrameReader::new();

    while !shared.stop.load(Ordering::SeqCst) {
        match frames.poll(&mut read_half) {
            Ok(Frame::Pending) => continue,
            Ok(Frame::Eof) | Err(_) => return,
            Ok(Frame::Msg(payload)) => {
                let req = match parse_request(&payload) {
                    Ok(req) => req,
                    Err(msg) => {
                        shared.respond(&conn, &Response::error(Value::Null, msg), None);
                        continue;
                    }
                };
                match req.op {
                    Op::Ping => {
                        let mut resp = Response::new(req.id, "ok");
                        resp.report = Some(Value::Object(vec![(
                            "pong".to_owned(),
                            Value::Bool(true),
                        )]));
                        shared.respond(&conn, &resp, None);
                    }
                    Op::Stats => {
                        let mut resp = Response::new(req.id, "ok");
                        resp.report = Some(shared.snapshot().to_value());
                        shared.respond(&conn, &resp, None);
                    }
                    Op::Shutdown => {
                        let resp = Response::new(req.id, "ok");
                        shared.respond(&conn, &resp, None);
                        shared.shutdown_requested.store(true, Ordering::SeqCst);
                    }
                    Op::Analyze | Op::Lint | Op::Check => {
                        admit(shared, &conn, req);
                    }
                }
            }
        }
    }
}

/// Admission control: explicit `draining` during shutdown, explicit
/// `shed` with a retry-after hint when the queue is full, else enqueue.
fn admit(shared: &Arc<Shared>, conn: &ConnWriter, req: Request) {
    if !shared.accepting.load(Ordering::SeqCst) {
        let mut resp = Response::new(req.id, "draining");
        resp.error = Some("server is draining; no new work accepted".to_owned());
        shared.respond(conn, &resp, None);
        return;
    }
    let mut queue = lock(&shared.queue);
    if queue.len() >= shared.opts.queue_cap {
        // Hint scales with backlog depth: deterministic, monotone, and
        // honest about how far behind the daemon is.
        let backlog = queue.len() as u64;
        drop(queue);
        let mut resp = Response::new(req.id, "shed");
        resp.error = Some("admission queue full".to_owned());
        resp.retry_after_ms = Some((backlog + 1).saturating_mul(50));
        shared.respond(conn, &resp, None);
        return;
    }
    let ticket = shared.next_ticket.fetch_add(1, Ordering::Relaxed);
    queue.push_back(Job {
        ticket,
        conn: conn.clone(),
        req,
        admitted: Instant::now(),
    });
    drop(queue);
    lock(&shared.stats).counts.received += 1;
    shared.queue_cv.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner);
                queue = q;
            }
        };
        let Some(job) = job else { return };
        if !execute(shared, job) {
            // The watchdog answered for this job and spawned a
            // replacement, or the drain did and the pool is stopping:
            // either way this thread is surplus the moment it wakes.
            return;
        }
    }
}

/// Run one job behind the panic boundary and answer it if this worker
/// wins the [`claim`]. Exactly one of {this worker, the watchdog, the
/// drain} wins and sends the response; returns whether this worker did.
fn execute(shared: &Arc<Shared>, job: Job) -> bool {
    let deadline = Duration::from_millis(
        job.req
            .deadline_ms
            .unwrap_or_else(|| shared.opts.default_deadline.as_millis() as u64),
    )
    .min(MAX_DEADLINE);
    let cancel = CancelToken::new();
    let responded = Arc::new(AtomicBool::new(false));
    let now = Instant::now();
    lock(&shared.inflight).insert(
        job.ticket,
        Inflight {
            cancel: cancel.clone(),
            soft: now + deadline,
            hard: now + deadline + shared.opts.watchdog_grace,
            conn: job.conn.clone(),
            id: job.req.id.clone(),
            admitted: job.admitted,
            responded: Arc::clone(&responded),
        },
    );

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_request(shared, &job.req, deadline, &cancel)
    }));
    let mut resp = match outcome {
        Ok(Ok(resp)) => resp,
        Ok(Err(msg)) => Response::error(Value::Null, msg),
        Err(payload) => {
            lock(&shared.stats).counts.panics_isolated += 1;
            Response::error(
                Value::Null,
                format!(
                    "analysis panicked (isolated): {}",
                    panic_message(payload.as_ref())
                ),
            )
        }
    };
    resp.id = job.req.id;

    lock(&shared.inflight).remove(&job.ticket);
    let won = claim(&responded);
    if won {
        shared.respond(&job.conn, &resp, Some(job.admitted));
    }
    won
}

/// The options signature for cache keying: everything verdict-affecting
/// except the deadline (degraded reports are never cached, so deadlines
/// cannot change what a cached report says). The language is part of the
/// signature — the same bytes mean different models to different
/// frontends.
fn options_sig(op: Op, start: Rung, lang: Lang) -> String {
    format!("proto1|{:?}|{}|{}", op, start.name(), lang.name())
}

/// Run one admitted request; `Err` carries the message of an `error`
/// response. The caller sets the response id.
fn run_request(
    shared: &Shared,
    req: &Request,
    deadline: Duration,
    cancel: &CancelToken,
) -> Result<Response, String> {
    let label = req.name.as_deref().unwrap_or("<inline>");
    let faults = shared.opts.faults.as_ref();
    let fire = |site| faults.map_or(Ok(()), |plan| plan.fire(site, label));

    // Serve-level parse site. A budget-trip here cancels the token so the
    // engine degrades down the ladder — the "degrade instead of dying"
    // path, exercised without waiting out a real deadline.
    match fire(FaultSite::Parse) {
        Ok(()) => {}
        Err(IwaError::Io(msg)) => return Err(msg),
        Err(_) => cancel.cancel(),
    }

    let start = match &req.start {
        Some(s) => s.parse::<Rung>()?,
        None => shared.opts.start,
    };
    // An explicit `lang` wins, then the `name` extension, then the
    // tasklang default (the registry's shared resolver).
    let forced = req.lang.as_deref().map(Lang::from_name).transpose()?;
    let name = req.name.as_deref().unwrap_or_default();
    let lang = frontends::resolve(Path::new(name), forced).lang;
    let engine = EngineOptions {
        start,
        deadline: Some(deadline),
        cancel: Some(cancel.clone()),
        faults: faults.cloned(),
        ..EngineOptions::default()
    };

    let source = req.source.as_deref().unwrap_or_default();
    let mut resp = Response::new(Value::Null, "ok");
    match req.op {
        Op::Analyze => {
            let key = cache_key(source, &options_sig(Op::Analyze, start, lang));

            // Cache faults degrade to a miss (never an error): the cache
            // is an optimisation, and an unreliable one must cost only
            // recomputation. Panic is the exception — it exercises the
            // request boundary like any other panic.
            let hit = match fire(FaultSite::CacheLookup) {
                Ok(()) => shared.cache.lookup(key),
                Err(_) => {
                    shared.cache.count_forced_miss();
                    None
                }
            };
            if let Some(report) = hit {
                resp.cached = true;
                resp.report = Some(report);
                return Ok(resp);
            }

            let model = frontends::by_lang(lang)
                .load(source)
                .map_err(|e| e.to_string())?;
            let report = iwa_engine::analyze_model(&model, &engine).map_err(|e| e.to_string())?;
            let value = report.to_value();
            if !report.degraded {
                shared.cache.insert(key, value.clone());
            }
            resp.report = Some(value);
        }
        Op::Lint => {
            let model = frontends::by_lang(lang)
                .load(source)
                .map_err(|e| e.to_string())?;
            let budget = Budget::with_deadline(deadline).and_cancel_token(cancel.clone());
            let ctx = iwa_analysis::AnalysisCtx::builder().budget(budget).build();
            // A budget-tripped graph lint degrades to silence.
            let diagnostics = lint_model(&ctx, &model, &LintConfig::default(), &registry_for(lang))
                .map_err(|e| e.to_string())?;
            resp.report = Some(Value::Object(vec![(
                "diagnostics".to_owned(),
                diagnostics.to_value(),
            )]));
        }
        Op::Check => {
            let path = req.path.as_deref().unwrap_or_default();
            let sources =
                iwa_engine::collect_sources(Path::new(path)).map_err(|e| e.to_string())?;
            if sources.files.is_empty() {
                return Err(format!("no analyzable files under {path}"));
            }
            let summary = iwa_engine::check_batch(
                &sources.files,
                &CheckOptions {
                    engine,
                    jobs: 1,
                    batch_deadline: Some(deadline),
                    lang: forced,
                    skipped: sources
                        .skipped
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect(),
                    ..CheckOptions::default()
                },
            );
            resp.report = Some(summary.to_value());
        }
        // Handled inline by the reader; unreachable here.
        Op::Ping | Op::Stats | Op::Shutdown => {}
    }
    Ok(resp)
}

fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let now = Instant::now();
        // Take the expired entries under the lock, answer outside it.
        let mut expired: Vec<Inflight> = Vec::new();
        lock(&shared.inflight).retain(|_, entry| {
            if now >= entry.soft {
                // Cooperative phase: trip the token so the analysis
                // degrades and answers on its own.
                entry.cancel.cancel();
            }
            if now >= entry.hard {
                expired.push(entry.clone());
            }
            now < entry.hard
        });
        for entry in expired {
            if claim(&entry.responded) {
                let mut resp = Response::new(entry.id, "timeout");
                resp.error =
                    Some("request overran its hard deadline; the worker was abandoned".to_owned());
                shared.respond(&entry.conn, &resp, Some(entry.admitted));
                // The stalled worker exits when (if) it wakes and loses
                // the claim; keep capacity constant with a replacement.
                lock(&shared.stats).counts.workers_replaced += 1;
                let replacement = spawn_worker(shared);
                lock(&shared.extra_workers).push(replacement);
            }
        }
    }
}
