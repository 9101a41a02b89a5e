//! serve_replay: an open loop against an in-process `iwa serve` daemon.
//!
//! The daemon runs at its defaults (2 workers, Heads rung, 4096-entry
//! cache) behind one TCP connection. One sender thread writes each
//! request at its due time, one receiver thread reads the responses.
//! Traffic is rounds over a seeded working set; before each round a
//! seeded 10% of the programs get a whitespace-only edit, which changes
//! the content hash (a cache miss) but not the verdict.

use crate::closed::{trace_op, SERVE_MISS};
use crate::inputs::{serve_working_set, Fixture, Input, Rng};
use crate::replay::Tally;
use crate::stats::{median, pct, percentile, ref_ms, speed_scale, status_kb, Checks};
use crate::trace::{Recorder, Span};
use crate::{Layered, Outcome};
use iwa_engine::{analyze_model, EngineOptions, EngineVerdict, Rung};
use iwa_frontend::{registry, Lang};
use iwa_serve::proto::{parse_request, write_frame, Frame, FrameReader, Op};
use iwa_serve::{cache_key, Client, Response, ServeOptions, ServeStats, Server, VerdictCache};
use serde::{Serialize, Value};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Offered load, requests per second: the daemon at this commit keeps up
/// without shedding.
pub const RATE_PER_S: f64 = 400.0;
/// Share of the working set edited before each round, per mille.
const EDIT_PERMILLE: usize = 100;
/// Requests in flight while priming the cache (well under the daemon's
/// 64-deep admission queue).
const PRIME_WINDOW: usize = 16;
/// How long the receiver waits past the last due time.
const DRAIN: Duration = Duration::from_secs(10);
/// Requests per window of the tail estimate (0.16 s at the offered rate).
const TAIL_WINDOW: usize = 64;

/// A daemon with one client connection, split into halves.
pub struct Session {
    server: Server,
    writer: TcpStream,
    reader: TcpStream,
    frames: FrameReader,
    /// The working set, as first submitted.
    programs: Vec<Input>,
}

impl Session {
    fn start(programs: Vec<Input>) -> io::Result<Session> {
        let server = Server::start(ServeOptions::default())?;
        let writer = TcpStream::connect(server.local_addr())?;
        writer.set_nodelay(true)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok(Session {
            server,
            writer,
            reader,
            frames: FrameReader::new(),
            programs,
        })
    }

    /// Close the connection, drain the daemon and join its threads.
    pub fn stop(self) -> ServeStats {
        let Session {
            server,
            writer,
            reader,
            ..
        } = self;
        drop(writer);
        drop(reader);
        server.shutdown();
        server.join()
    }

    fn recv(&mut self, until: Instant) -> io::Result<Option<Value>> {
        loop {
            match self.frames.poll(&mut self.reader)? {
                Frame::Msg(payload) => return decode(&payload).map(Some),
                Frame::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed",
                    ))
                }
                Frame::Pending if Instant::now() >= until => return Ok(None),
                Frame::Pending => {}
            }
        }
    }
}

fn decode(payload: &[u8]) -> io::Result<Value> {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable response"))
}

fn payload(id: u64, input: &Input, source: &str) -> Vec<u8> {
    let req = Client::analyze_request_lang(id, source, input.lang.name(), None);
    serde_json::to_string(&req)
        .expect("requests serialize")
        .into_bytes()
}

/// The semantic fields a response must share with a direct analysis.
fn verdict_sig(report: &Value) -> String {
    format!(
        "{}|{}|{}",
        report["verdict"].as_str().unwrap_or("?"),
        report["rung"].as_str().unwrap_or("?"),
        serde_json::to_string(&report["flagged"]).unwrap_or_default()
    )
}

fn verdict_of(report: &Value) -> Option<EngineVerdict> {
    match report["verdict"].as_str()? {
        "Clean" => Some(EngineVerdict::Clean),
        "Anomalous" => Some(EngineVerdict::Anomalous),
        "Unknown" => Some(EngineVerdict::Unknown),
        _ => None,
    }
}

/// Set up `reps` times: generate the working set, start the daemon,
/// connect, and prime the cache with one round. Every session but the
/// last is stopped; returns it with the median set-up seconds.
pub fn setup(
    reps: usize,
    seed: u64,
    corpus: &[Fixture],
    checks: &mut Checks,
) -> Result<(Session, f64), String> {
    let mut secs = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        if let Some(previous) = kept.take() {
            Session::stop(previous);
        }
        let t0 = Instant::now();
        let mut s = Session::start(serve_working_set(seed, corpus)).map_err(|e| e.to_string())?;
        prime(&mut s, checks).map_err(|e| e.to_string())?;
        secs.push(t0.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let s = kept.ok_or("no set-up ran")?;
    Ok((s, median(&secs)))
}

fn prime(s: &mut Session, checks: &mut Checks) -> io::Result<()> {
    let programs = s.programs.clone();
    let mut sent = 0;
    let mut received = 0;
    let until = Instant::now() + DRAIN * 3;
    while received < programs.len() {
        while sent < programs.len() && sent - received < PRIME_WINDOW {
            let p = &programs[sent];
            write_frame(&mut s.writer, &payload(sent as u64, p, &p.source))?;
            sent += 1;
        }
        let Some(resp) = s.recv(until)? else {
            checks.fail(format!(
                "priming: {} responses missing",
                programs.len() - received
            ));
            return Ok(());
        };
        let id = resp["id"].as_u64().unwrap_or(u64::MAX) as usize;
        match (programs.get(id), resp["status"].as_str()) {
            (Some(p), Some("ok")) => checks.record(
                p,
                verdict_of(&resp["report"]).ok_or_else(|| "no verdict".to_owned()),
            ),
            (Some(p), status) => checks.record(p, Err(format!("status {status:?}"))),
            (None, _) => checks.fail(format!("priming: unknown response id {id}")),
        }
        received += 1;
    }
    Ok(())
}

/// One scheduled request.
struct Request {
    /// Index into the working set.
    program: usize,
    /// Index into the distinct submitted sources.
    variant: usize,
    payload: Vec<u8>,
}

/// The timed schedule: `rounds` passes over the working set in seeded
/// orders, a seeded 10% of the programs edited before each round.
fn schedule(programs: &[Input], seed: u64, rounds: usize) -> (Vec<Request>, Vec<(usize, String)>) {
    let mut rng = Rng::new(seed ^ 0x5e7e_5e7e);
    let mut current: Vec<String> = programs.iter().map(|p| p.source.clone()).collect();
    let mut variant_of: Vec<usize> = (0..programs.len()).collect();
    let mut variants: Vec<(usize, String)> = current.iter().cloned().enumerate().collect();
    let edits = (programs.len() * EDIT_PERMILLE).div_ceil(1000);
    let mut requests = Vec::with_capacity(rounds * programs.len());
    for _ in 0..rounds {
        let mut order: Vec<usize> = (0..programs.len()).collect();
        rng.shuffle(&mut order);
        for &i in &order[..edits] {
            current[i].push('\n');
            variant_of[i] = variants.len();
            variants.push((i, current[i].clone()));
        }
        rng.shuffle(&mut order);
        for &i in &order {
            let id = requests.len() as u64;
            requests.push(Request {
                program: i,
                variant: variant_of[i],
                payload: payload(id, &programs[i], &current[i]),
            });
        }
    }
    (requests, variants)
}

/// What came back for one request.
#[derive(Clone, Debug, Default)]
struct Reply {
    recv: Option<Instant>,
    status: String,
    cached: bool,
    /// Verdict, rung and flagged list (see [`verdict_sig`]).
    sig: String,
    verdict: Option<EngineVerdict>,
    /// The whole report, kept by the traced run only (for the hit-path
    /// replay), so the untraced run's memory stays the daemon's.
    report: Option<Value>,
}

/// The measured phase's raw record.
struct Replay {
    requests: Vec<Request>,
    variants: Vec<(usize, String)>,
    rounds: usize,
    t0: Instant,
    due: Vec<Instant>,
    /// When each request's write began and ended.
    sent: Vec<Option<(Instant, Instant)>>,
    replies: Vec<Reply>,
    before: ServeStats,
    after: ServeStats,
    spans: Vec<Span>,
    peak_rss_mb: f64,
}

/// Drive the open loop for `budget` and collect every reply.
fn drive(s: &mut Session, seed: u64, budget: Duration, rec: &Recorder, tracing: bool) -> Replay {
    let per_round = s.programs.len();
    let rounds = ((budget.as_secs_f64() * RATE_PER_S) / per_round as f64)
        .round()
        .max(1.0) as usize;
    let (requests, variants) = schedule(&s.programs, seed, rounds);
    let before = s.server.stats();
    let n = requests.len();
    let t0 = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = (0..n)
        .map(|k| t0 + Duration::from_secs_f64(k as f64 / RATE_PER_S))
        .collect();
    let until = due[n - 1] + DRAIN;

    let mut writer = s.writer.try_clone().expect("clone the client socket");
    let (sent, mut send_spans, replies, mut recv_spans) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = vec![None; n];
            let mut spans = Vec::new();
            for (k, req) in requests.iter().enumerate() {
                let now = Instant::now();
                if due[k] > now {
                    std::thread::sleep(due[k] - now);
                }
                let start = Instant::now();
                if write_frame(&mut writer, &req.payload).is_err() {
                    break;
                }
                let end = Instant::now();
                sent[k] = Some((start, end));
                if tracing {
                    spans.push(span(rec, "client send", start, end, k, 1));
                }
            }
            (sent, spans)
        });
        let receiver = scope.spawn(|| {
            let mut replies = vec![Reply::default(); n];
            let mut spans = Vec::new();
            let mut got = 0;
            while got < n {
                let frame = match s.frames.poll(&mut s.reader) {
                    Ok(Frame::Msg(p)) => p,
                    Ok(Frame::Pending) if Instant::now() < until => continue,
                    _ => break,
                };
                let recv = Instant::now();
                let Ok(resp) = decode(&frame) else { continue };
                let decoded = Instant::now();
                let Some(k) = resp["id"].as_u64().map(|k| k as usize).filter(|&k| k < n) else {
                    continue;
                };
                if tracing {
                    spans.push(span(rec, "client decode", recv, decoded, k, 2));
                }
                let report = &resp["report"];
                replies[k] = Reply {
                    recv: Some(recv),
                    status: resp["status"].as_str().unwrap_or("?").to_owned(),
                    cached: resp["cached"] == true,
                    sig: verdict_sig(report),
                    verdict: verdict_of(report),
                    report: tracing.then(|| report.clone()),
                };
                got += 1;
            }
            (replies, spans)
        });
        let (sent, send_spans) = sender.join().expect("sender thread");
        let (replies, recv_spans) = receiver.join().expect("receiver thread");
        (sent, send_spans, replies, recv_spans)
    });
    let after = s.server.stats();
    let peak_rss_mb = status_kb("VmHWM") / 1024.0;
    let mut spans = Vec::new();
    spans.append(&mut send_spans);
    spans.append(&mut recv_spans);
    if tracing {
        for (k, r) in replies.iter().enumerate() {
            if let (Some((_, a)), Some(b)) = (sent[k], r.recv) {
                spans.push(span(rec, "client wait", a, b, k, 2));
            }
        }
    }
    Replay {
        requests,
        variants,
        rounds,
        t0,
        due,
        sent,
        replies,
        before,
        after,
        spans,
        peak_rss_mb,
    }
}

fn span(rec: &Recorder, name: &'static str, a: Instant, b: Instant, k: usize, tid: u32) -> Span {
    Span {
        name,
        layer: "serve",
        start_ns: rec.at(a),
        end_ns: rec.at(b),
        parent: None,
        op: k as u64,
        tid,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Check every reply: status, the known answer, and fidelity against a
/// direct in-process `analyze_model` of the same source.
fn verify(s: &Session, r: &Replay, checks: &mut Checks) {
    let opts = EngineOptions {
        start: Rung::Heads,
        ..EngineOptions::default()
    };
    let direct: Vec<Option<String>> = r
        .variants
        .iter()
        .map(|(i, src)| {
            let model = registry::by_lang(s.programs[*i].lang).load(src).ok()?;
            let report = analyze_model(&model, &opts).ok()?;
            Some(verdict_sig(&report.to_value()))
        })
        .collect();
    for (k, req) in r.requests.iter().enumerate() {
        let input = &s.programs[req.program];
        let reply = &r.replies[k];
        if reply.recv.is_none() {
            checks.record(input, Err("no response (timeout)".to_owned()));
            continue;
        }
        if reply.status != "ok" {
            checks.record(input, Err(format!("status {}", reply.status)));
            continue;
        }
        if direct[req.variant].as_deref() != Some(reply.sig.as_str()) {
            checks.record(
                input,
                Err("verdict differs from a direct analyze_model".to_owned()),
            );
            continue;
        }
        checks.record(input, reply.verdict.ok_or_else(|| "no verdict".to_owned()));
    }
}

/// The untraced run.
pub fn run(s: &mut Session, seed: u64, budget: Duration, checks: &mut Checks) -> Outcome {
    let rec = Recorder::new(false);
    let r = drive(s, seed, budget, &rec, false);
    verify(s, &r, checks);
    outcome(&r)
}

/// Latency is wall-clock from each request's due time, as the client
/// sees it, and is not scaled. The median is pooled over the run. The
/// tail is the 99th percentile of each window of [`TAIL_WINDOW`]
/// consecutive requests, the lowest over the run: on a shared host the
/// hypervisor takes the VM's CPUs away for 5-20 ms at a time, delaying
/// hits and misses alike, and the pooled p99 (reported raw) mostly counts
/// those stalls. A slowdown the daemon causes shows in every window.
fn outcome(r: &Replay) -> Outcome {
    let latency = |k: usize| Some(ms(r.replies[k].recv?.saturating_duration_since(r.due[k])));
    let mut latencies: Vec<f64> = (0..r.replies.len()).filter_map(latency).collect();
    latencies.sort_by(f64::total_cmp);
    let windows = (r.requests.len() / TAIL_WINDOW).max(1);
    let window_p99 = (0..windows).map(|w| {
        let mut v: Vec<f64> = (w * TAIL_WINDOW..((w + 1) * TAIL_WINDOW).min(r.requests.len()))
            .filter_map(latency)
            .collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 0.99)
    });
    let ok = r.replies.iter().filter(|x| x.status == "ok").count();
    let last = r
        .replies
        .iter()
        .filter_map(|x| x.recv)
        .max()
        .unwrap_or(r.t0);
    let throughput_per_s = ok as f64 / last.saturating_duration_since(r.t0).as_secs_f64().max(1e-9);
    let latency_p50_ms = percentile(&latencies, 0.50);
    Outcome {
        throughput_per_s,
        latency_p50_ms,
        latency_p99_ms: window_p99.fold(f64::INFINITY, f64::min),
        raw_throughput_per_s: throughput_per_s,
        raw_latency_p50_ms: latency_p50_ms,
        raw_latency_p99_ms: percentile(&latencies, 0.99),
        ref_ms: 0.0,
        peak_rss_mb: r.peak_rss_mb,
        samples: latencies.len(),
        passes: r.rounds,
    }
}

/// The traced run: the same traffic with client-side spans, then the hit
/// path's public pieces and every missed source's layers, replayed.
pub fn traced(
    s: &mut Session,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Layered {
    let r = drive(s, seed, budget, rec, true);
    verify(s, &r, checks);
    for sp in &r.spans {
        rec.push(sp.clone());
    }
    let spans_per_request = r.spans.len() as f64 / r.requests.len() as f64;

    let mut hit_rtt = Vec::new();
    let mut miss_rtt = Vec::new();
    for (k, reply) in r.replies.iter().enumerate() {
        if let (Some((a, _)), Some(b)) = (r.sent[k], reply.recv) {
            let rtt = ms(b.saturating_duration_since(a));
            if reply.cached {
                hit_rtt.push(rtt);
            } else {
                miss_rtt.push(rtt);
            }
        }
    }
    let lags: Vec<f64> = r
        .sent
        .iter()
        .zip(&r.due)
        .filter_map(|(s, d)| Some(ms(s.as_ref()?.0.saturating_duration_since(*d))))
        .collect();
    let before_ref = ref_ms();
    let (hit_path_us, hit_path_total_ms) = hit_path(&r, rec);

    let mut tally = Tally::default();
    let hits = r.after.cache_hits - r.before.cache_hits;
    let misses = r.after.cache_misses - r.before.cache_misses;
    let hit_rtt_ms = median(&hit_rtt);
    tally.add("serve.hit_rtt_ms", hit_rtt_ms);
    tally.add("serve.miss_rtt_ms", median(&miss_rtt));
    tally.add("serve.hit_path_us", hit_path_us);
    tally.add("serve.transport_ms", hit_rtt_ms - hit_path_us / 1e3);
    tally.add("serve.cache_hit_pct", pct(hits, hits + misses));
    tally.add("serve.generator_lag_ms", median(&lags));
    tally.add("serve.shed", (r.after.shed - r.before.shed) as f64);
    tally.add(
        "serve.timeouts",
        (r.after.timeouts - r.before.timeouts) as f64,
    );

    // Every source the daemon analysed in the measured phase, once, layer
    // by layer; sums are per round.
    let mut missed: Vec<usize> = r
        .requests
        .iter()
        .zip(&r.replies)
        .filter(|(_, reply)| reply.status == "ok" && !reply.cached)
        .map(|(req, _)| req.variant)
        .collect();
    missed.sort_unstable();
    missed.dedup();
    let mut layers = Tally::default();
    for &v in &missed {
        let (i, src) = &r.variants[v];
        let input = Input {
            source: src.clone(),
            ..s.programs[*i].clone()
        };
        let op = (r.requests.len() + v) as u64;
        if let Err(e) = trace_op(op, &input, &SERVE_MISS, rec, &mut layers) {
            checks.fail(format!("{}: {e}", input.label));
        }
    }
    // The replays are CPU-only: report them at nominal host speed.
    let scale = speed_scale(before_ref, ref_ms());
    layers.add("serve.hit_path_ms", hit_path_total_ms);
    layers.scale_times(scale);
    for (k, v) in &layers.0 {
        tally.add(k, v / r.rounds as f64);
    }
    Layered {
        tallies: vec![tally],
        overhead_ms_per_op: spans_per_request * span_cost_ms(),
        labels: r
            .requests
            .iter()
            .map(|req| req.program)
            .chain(r.variants.iter().map(|(i, _)| *i))
            .map(|i| s.programs[i].label.clone())
            .collect(),
        ..Layered::default()
    }
}

/// The daemon's cache-hit path, replayed from its public pieces on every
/// hit's request bytes: decode the request, key it, look it up, encode
/// the response and frame it into a buffer. Returns the median
/// microseconds per hit and the total milliseconds.
fn hit_path(r: &Replay, rec: &mut Recorder) -> (f64, f64) {
    let cache = VerdictCache::new(ServeOptions::default().cache_cap);
    let sig = |lang: Lang| {
        format!(
            "proto1|{:?}|{}|{}",
            Op::Analyze,
            Rung::Heads.name(),
            lang.name()
        )
    };
    let mut times = Vec::new();
    for (k, (req, reply)) in r.requests.iter().zip(&r.replies).enumerate() {
        if !reply.cached {
            continue;
        }
        let Some(report) = &reply.report else {
            continue;
        };
        let Ok(parsed) = parse_request(&req.payload) else {
            continue;
        };
        let lang = parsed
            .lang
            .as_deref()
            .and_then(|l| Lang::from_name(l).ok())
            .unwrap_or(Lang::Tasklang);
        let source = parsed.source.clone().unwrap_or_default();
        cache.insert(cache_key(&source, &sig(lang)), report.clone());
        let (bytes, t) = rec.time("serve", "hit path", None, k as u64, || {
            let parsed = parse_request(&req.payload).expect("parsed above");
            let key = cache_key(parsed.source.as_deref().unwrap_or_default(), &sig(lang));
            let mut resp = Response::new(parsed.id, "ok");
            resp.cached = true;
            resp.report = cache.lookup(key);
            let mut buf = Vec::new();
            write_frame(&mut buf, &resp.to_bytes()).expect("frames into memory");
            buf
        });
        std::hint::black_box(bytes);
        times.push(t * 1e3);
    }
    (median(&times), times.iter().sum::<f64>() / 1e3)
}

/// Milliseconds one client-side span costs to record, measured in place.
fn span_cost_ms() -> f64 {
    let rec = Recorder::new(true);
    let mut spans = Vec::with_capacity(10_000);
    let t = Instant::now();
    for k in 0..10_000 {
        let a = Instant::now();
        spans.push(span(&rec, "calibrate", a, Instant::now(), k, 1));
    }
    let per = ms(t.elapsed()) / 10_000.0;
    std::hint::black_box(spans);
    per
}
