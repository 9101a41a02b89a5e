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
//! Concurrency model: one reader thread per connection (50 ms poll so
//! shutdown is noticed promptly), a bounded [`VecDeque`] admission queue
//! under a [`Condvar`], a fixed worker pool executing requests, and one
//! watchdog ticking every 20 ms over the in-flight table. All hand-rolled
//! on `std` — the point of the exercise is that the robustness lives in
//! the protocol, not in a runtime.

use crate::cache::{cache_key, VerdictCache};
use crate::proto::{encode_frame, parse_request, Frame, FrameReader, Op, Request, Response};
use iwa_core::fault::{FaultAction, FaultPlan, FaultSite};
use iwa_core::{panic_message, Budget, CancelToken};
use iwa_engine::{CheckOptions, EngineOptions, LintStage, RetryPolicy, Rung};
use iwa_frontend::{registry as frontends, Lang};
use iwa_lint::{lint_model, registry_for, LintConfig};
use serde::{Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Ceiling clamped onto any requested deadline.
    pub max_deadline: Duration,
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
            max_deadline: Duration::from_secs(30),
            watchdog_grace: Duration::from_millis(250),
            drain_timeout: Duration::from_millis(2_000),
            cache_cap: 4096,
            start: Rung::Heads,
            faults: None,
        }
    }
}

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

#[derive(Debug, Default)]
struct StatsInner {
    received: u64,
    ok: u64,
    errors: u64,
    shed: u64,
    draining_rejects: u64,
    timeouts: u64,
    cancelled: u64,
    panics_isolated: u64,
    failed_writes: u64,
    workers_replaced: u64,
    latencies_us: VecDeque<u64>,
}

/// Latency samples kept for the percentiles; the oldest is dropped first.
const LATENCY_RING: usize = 4096;

pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
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
            let mut stream = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
            stream.write_all(&frame)
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

struct Inflight {
    cancel: CancelToken,
    soft: Instant,
    hard: Instant,
    conn: ConnWriter,
    id: Value,
    admitted: Instant,
    responded: Arc<AtomicBool>,
    abandoned: Arc<AtomicBool>,
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
    fn stats(&self) -> std::sync::MutexGuard<'_, StatsInner> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn snapshot(&self) -> ServeStats {
        let (cache_hits, cache_misses) = self.cache.stats();
        let g = self.stats();
        let mut lat: Vec<u64> = g.latencies_us.iter().copied().collect();
        lat.sort_unstable();
        ServeStats {
            received: g.received,
            ok: g.ok,
            errors: g.errors,
            shed: g.shed,
            draining_rejects: g.draining_rejects,
            timeouts: g.timeouts,
            cancelled: g.cancelled,
            panics_isolated: g.panics_isolated,
            failed_writes: g.failed_writes,
            workers_replaced: g.workers_replaced,
            cache_hits,
            cache_misses,
            p50_us: percentile(&lat, 0.50),
            p99_us: percentile(&lat, 0.99),
        }
    }

    /// Count a response's status, and for an admitted request its
    /// latency, *before* the frame is written, so a client that receives
    /// the response and immediately asks for stats always sees its own
    /// request reflected (no counter race).
    fn count_status(&self, status: &str, admitted: Option<Instant>) {
        let mut g = self.stats();
        if let Some(admitted) = admitted {
            let us = u64::try_from(admitted.elapsed().as_micros()).unwrap_or(u64::MAX);
            if g.latencies_us.len() >= LATENCY_RING {
                g.latencies_us.pop_front();
            }
            g.latencies_us.push_back(us);
        }
        match status {
            "ok" => g.ok += 1,
            "error" => g.errors += 1,
            "shed" => g.shed += 1,
            "draining" => g.draining_rejects += 1,
            "timeout" => g.timeouts += 1,
            "cancelled" => g.cancelled += 1,
            _ => {}
        }
    }

    fn count_write(&self, sent: bool) {
        if !sent {
            self.stats().failed_writes += 1;
        }
    }

    /// Counted send: status first, then the write, then the write
    /// outcome — the one path every response goes through.
    fn respond(&self, conn: &ConnWriter, resp: &Response) {
        self.respond_timed(conn, resp, None);
    }

    /// [`respond`](Shared::respond) for an admitted request, which also
    /// records its admission → response latency.
    fn respond_timed(&self, conn: &ConnWriter, resp: &Response, admitted: Option<Instant>) {
        self.count_status(&resp.status, admitted);
        let sent = conn.send(resp, self.opts.faults.as_ref());
        self.count_write(sent);
    }
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
        listener.set_nonblocking(true)?;

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
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
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
        let half = shared.opts.drain_timeout / 2;
        while drain_started.elapsed() < half {
            let idle = shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
                && shared
                    .inflight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_empty();
            if idle {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        // Phase 2: cancel every in-flight token — analyses degrade to
        // their naive floor and answer fast — and keep waiting.
        {
            let inflight = shared
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for entry in inflight.values() {
                entry.cancel.cancel();
            }
        }
        while drain_started.elapsed() < shared.opts.drain_timeout {
            let idle = shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
                && shared
                    .inflight
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_empty();
            if idle {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        // Phase 3: whatever survived the budget gets an explicit
        // `cancelled` response — never a silently dropped connection.
        let leftovers: Vec<Job> = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.drain(..).collect()
        };
        for job in leftovers {
            let mut resp = Response::new(job.req.id.clone(), "cancelled");
            resp.error = Some("server shut down before the request was scheduled".to_owned());
            shared.respond(&job.conn, &resp);
        }
        let stuck: Vec<Inflight> = {
            let mut inflight = shared
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            inflight.drain().map(|(_, v)| v).collect()
        };
        for entry in stuck {
            if entry
                .responded
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                entry.abandoned.store(true, Ordering::SeqCst);
                let mut resp = Response::new(entry.id.clone(), "cancelled");
                resp.error = Some("server shut down while the request was running".to_owned());
                shared.respond(&entry.conn, &resp);
            }
        }

        // Stop the machinery and join everything (stalled workers exited
        // or will exit via their abandoned flag; replacements were already
        // spawned, and all of them observe `stop`).
        shared.stop.store(true, Ordering::SeqCst);
        shared.queue_cv.notify_all();
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        loop {
            let extra = {
                let mut g = shared
                    .extra_workers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                g.pop()
            };
            match extra {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        shared.snapshot()
    }
}

fn listener_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                readers.push(std::thread::spawn(move || reader_loop(stream, &shared)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
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
                        shared.respond(&conn, &Response::error(Value::Null, msg));
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
                        shared.respond(&conn, &resp);
                    }
                    Op::Stats => {
                        let mut resp = Response::new(req.id, "ok");
                        resp.report = Some(shared.snapshot().to_value());
                        shared.respond(&conn, &resp);
                    }
                    Op::Shutdown => {
                        let resp = Response::new(req.id, "ok");
                        shared.respond(&conn, &resp);
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
        shared.respond(conn, &resp);
        return;
    }
    let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
    if queue.len() >= shared.opts.queue_cap {
        // Hint scales with backlog depth: deterministic, monotone, and
        // honest about how far behind the daemon is.
        let backlog = queue.len() as u64;
        drop(queue);
        let mut resp = Response::new(req.id, "shed");
        resp.error = Some("admission queue full".to_owned());
        resp.retry_after_ms = Some((backlog + 1).saturating_mul(50));
        shared.respond(conn, &resp);
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
    shared.stats().received += 1;
    shared.queue_cv.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
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
        if execute(shared, job) == WorkerFate::Abandoned {
            // The watchdog answered for this job and spawned a
            // replacement; this thread is surplus the moment it wakes.
            return;
        }
    }
}

#[derive(PartialEq)]
enum WorkerFate {
    Alive,
    Abandoned,
}

/// Run one job behind the panic boundary and the responded-CAS. Exactly
/// one of {this worker, the watchdog, the drain} wins the CAS and sends
/// the response.
fn execute(shared: &Arc<Shared>, job: Job) -> WorkerFate {
    let deadline = Duration::from_millis(
        job.req
            .deadline_ms
            .unwrap_or_else(|| shared.opts.default_deadline.as_millis() as u64),
    )
    .min(shared.opts.max_deadline);
    let cancel = CancelToken::new();
    let responded = Arc::new(AtomicBool::new(false));
    let abandoned = Arc::new(AtomicBool::new(false));
    let now = Instant::now();
    {
        let mut inflight = shared
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inflight.insert(
            job.ticket,
            Inflight {
                cancel: cancel.clone(),
                soft: now + deadline,
                hard: now + deadline + shared.opts.watchdog_grace,
                conn: job.conn.clone(),
                id: job.req.id.clone(),
                admitted: job.admitted,
                responded: Arc::clone(&responded),
                abandoned: Arc::clone(&abandoned),
            },
        );
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_request(shared, &job.req, deadline, &cancel)
    }));
    let resp = match outcome {
        Ok(mut resp) => {
            resp.id = job.req.id.clone();
            resp
        }
        Err(payload) => {
            shared.stats().panics_isolated += 1;
            Response::error(
                job.req.id.clone(),
                format!("analysis panicked (isolated): {}", panic_message(payload.as_ref())),
            )
        }
    };

    shared
        .inflight
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&job.ticket);

    if responded
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
    {
        shared.respond_timed(&job.conn, &resp, Some(job.admitted));
        WorkerFate::Alive
    } else if abandoned.load(Ordering::SeqCst) {
        WorkerFate::Abandoned
    } else {
        // Drain answered for us but the pool is still wanted until stop.
        WorkerFate::Alive
    }
}

/// The options signature for cache keying: everything verdict-affecting
/// except the deadline (degraded reports are never cached, so deadlines
/// cannot change what a cached report says). The language is part of the
/// signature — the same bytes mean different models to different
/// frontends.
fn options_sig(op: Op, start: Rung, lang: Lang) -> String {
    format!("proto1|{:?}|{}|{}", op, start.name(), lang.name())
}

/// Resolve a request's frontend language: explicit `lang` wins, then the
/// `name` extension, then the tasklang default (the registry's shared
/// resolver). The protocol layer already validated the name, so this
/// cannot fail for parsed requests.
fn request_lang(req: &Request) -> Result<Lang, String> {
    if let Some(lang) = &req.lang {
        return Lang::from_name(lang);
    }
    let name = req.name.as_deref().unwrap_or_default();
    Ok(frontends::resolve(std::path::Path::new(name), None).lang())
}

fn run_request(shared: &Arc<Shared>, req: &Request, deadline: Duration, cancel: &CancelToken) -> Response {
    let label = req.name.clone().unwrap_or_else(|| "<inline>".to_owned());
    let faults = shared.opts.faults.clone();

    // Serve-level parse site. A budget-trip here cancels the token so the
    // engine degrades down the ladder — the "degrade instead of dying"
    // path, exercised without waiting out a real deadline.
    if let Some(plan) = &faults {
        match plan.decide(FaultSite::Parse, &label) {
            None => {}
            Some(FaultAction::Panic) => panic!("injected fault: panic at site parse ({label})"),
            Some(FaultAction::Sleep(d)) => std::thread::sleep(d),
            Some(FaultAction::IoError) => {
                return Response::error(Value::Null, format!("injected io-error at site parse ({label})"));
            }
            Some(FaultAction::BudgetTrip) => cancel.cancel(),
        }
    }

    let start = match &req.start {
        Some(s) => match s.parse::<Rung>() {
            Ok(r) => r,
            Err(e) => return Response::error(Value::Null, e),
        },
        None => shared.opts.start,
    };

    let lang = match request_lang(req) {
        Ok(lang) => lang,
        Err(e) => return Response::error(Value::Null, e),
    };

    match req.op {
        Op::Analyze => {
            let source = req.source.as_deref().unwrap_or_default();
            let key = cache_key(source, &options_sig(Op::Analyze, start, lang));

            // Cache faults degrade to a miss (never an error): the cache
            // is an optimisation, and an unreliable one must cost only
            // recomputation. Panic is the exception — it exercises the
            // request boundary like any other panic.
            let mut lookup_allowed = true;
            if let Some(plan) = &faults {
                match plan.decide(FaultSite::CacheLookup, &label) {
                    None => {}
                    Some(FaultAction::Panic) => {
                        panic!("injected fault: panic at site cache-lookup ({label})")
                    }
                    Some(FaultAction::Sleep(d)) => std::thread::sleep(d),
                    Some(FaultAction::IoError | FaultAction::BudgetTrip) => {
                        shared.cache.count_forced_miss();
                        lookup_allowed = false;
                    }
                }
            }
            if lookup_allowed {
                if let Some(report) = shared.cache.lookup(key) {
                    let mut resp = Response::new(Value::Null, "ok");
                    resp.cached = true;
                    resp.report = Some(report);
                    return resp;
                }
            }

            let model = match frontends::by_lang(lang).load(source) {
                Ok(m) => m,
                Err(e) => return Response::error(Value::Null, e.to_string()),
            };
            let eopts = EngineOptions {
                start,
                deadline: Some(deadline),
                cancel: Some(cancel.clone()),
                faults: faults.clone(),
                ..EngineOptions::default()
            };
            match iwa_engine::analyze_model(&model, &eopts) {
                Ok(report) => {
                    let value = report.to_value();
                    if !report.degraded {
                        shared.cache.insert(key, value.clone());
                    }
                    let mut resp = Response::new(Value::Null, "ok");
                    resp.report = Some(value);
                    resp
                }
                Err(e) => Response::error(Value::Null, e.to_string()),
            }
        }
        Op::Lint => {
            let source = req.source.as_deref().unwrap_or_default();
            let model = match frontends::by_lang(lang).load(source) {
                Ok(m) => m,
                Err(e) => return Response::error(Value::Null, e.to_string()),
            };
            let budget = Budget::with_deadline(deadline).and_cancel_token(cancel.clone());
            let ctx = iwa_analysis::AnalysisCtx::builder().budget(budget).build();
            // A budget-tripped graph lint degrades to silence, matching
            // the batch checker's behaviour.
            let diagnostics =
                match lint_model(&ctx, &model, &LintConfig::default(), &registry_for(lang)) {
                    Ok(d) => d,
                    Err(e) => return Response::error(Value::Null, e.to_string()),
                };
            let mut resp = Response::new(Value::Null, "ok");
            resp.report = Some(Value::Object(vec![(
                "diagnostics".to_owned(),
                diagnostics.to_value(),
            )]));
            resp
        }
        Op::Check => {
            let path = req.path.as_deref().unwrap_or_default();
            let sources = match iwa_engine::collect_sources(std::path::Path::new(path)) {
                Ok(s) if !s.files.is_empty() => s,
                Ok(_) => {
                    return Response::error(Value::Null, format!("no analyzable files under {path}"))
                }
                Err(e) => return Response::error(Value::Null, e.to_string()),
            };
            let summary = iwa_engine::check_batch(
                &sources.files,
                &CheckOptions {
                    engine: EngineOptions {
                        start,
                        deadline: Some(deadline),
                        cancel: Some(cancel.clone()),
                        faults: faults.clone(),
                        ..EngineOptions::default()
                    },
                    jobs: 1,
                    batch_deadline: Some(deadline),
                    lint: LintStage::Off,
                    lint_config: LintConfig::default(),
                    retry: RetryPolicy::default(),
                    lang: req.lang.as_deref().map(|l| {
                        Lang::from_name(l).expect("validated at the protocol boundary")
                    }),
                    skipped: sources
                        .skipped
                        .iter()
                        .map(|p| p.display().to_string())
                        .collect(),
                },
            );
            let mut resp = Response::new(Value::Null, "ok");
            resp.report = Some(summary.to_value());
            resp
        }
        // Handled inline by the reader; unreachable here.
        Op::Ping | Op::Stats | Op::Shutdown => Response::new(Value::Null, "ok"),
    }
}

fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let now = Instant::now();
        // Collect actions under the lock, perform sends outside it.
        let mut expired: Vec<(u64, Inflight)> = Vec::new();
        {
            let mut inflight = shared
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut to_remove = Vec::new();
            for (&ticket, entry) in inflight.iter() {
                if now >= entry.soft {
                    // Cooperative phase: trip the token so the analysis
                    // degrades and answers on its own.
                    entry.cancel.cancel();
                }
                if now >= entry.hard {
                    to_remove.push(ticket);
                }
            }
            for ticket in to_remove {
                if let Some(entry) = inflight.remove(&ticket) {
                    expired.push((ticket, entry));
                }
            }
        }
        for (_, entry) in expired {
            if entry
                .responded
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                entry.abandoned.store(true, Ordering::SeqCst);
                let mut resp = Response::new(entry.id.clone(), "timeout");
                resp.error = Some(
                    "request overran its hard deadline; the worker was abandoned".to_owned(),
                );
                shared.respond_timed(&entry.conn, &resp, Some(entry.admitted));
                // The stalled worker will exit when (if) it wakes; keep
                // capacity constant with a replacement.
                shared.stats().workers_replaced += 1;
                let replacement = {
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || worker_loop(&shared))
                };
                shared
                    .extra_workers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(replacement);
            }
        }
    }
}
