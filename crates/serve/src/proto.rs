//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every message — request or response — is a 4-byte big-endian length
//! prefix followed by that many bytes of UTF-8 JSON. The frame layer is
//! deliberately dumb: no pipelining rules, no compression, no partial
//! writes observable to the peer. A frame leaves in one write: prefix
//! and payload share one buffer, so Nagle's algorithm never holds a
//! payload back behind its own unacknowledged prefix.
//! What keeps the frame layer robust is the [`FrameReader`]: an
//! incremental decoder that survives read timeouts mid-frame without
//! ever losing sync, which is what lets connection readers poll with a
//! short timeout (so they notice shutdown promptly) while clients
//! stream arbitrarily chunked bytes.
//!
//! Requests are JSON objects with an `op` field (`ping`, `analyze`,
//! `lint`, `check`, `stats`, `shutdown`) parsed leniently by
//! [`parse_request`]; responses are [`Response`] objects whose `status`
//! is one of `ok`, `error`, `shed`, `draining`, `timeout`, `cancelled`.

use serde::{Serialize, Value};
use std::io::{self, Read, Write};

/// Protocol version, echoed in every response.
pub const PROTO_VERSION: u32 = 1;

/// Upper bound on a frame payload (8 MiB). A peer announcing more is
/// malformed and the connection is dropped — the one place a dropped
/// connection is the correct answer, since framing itself is broken.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Encode one frame: the length prefix and the payload in one buffer.
pub(crate) fn encode_frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Write one frame with a single `write_all`, then flush. Two writes
/// (prefix, then payload) would let Nagle's algorithm hold the payload
/// until the peer acknowledges the prefix, and the peer may delay that
/// acknowledgement for tens of milliseconds.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload)?)?;
    w.flush()
}

/// One poll of a [`FrameReader`].
#[derive(Debug)]
pub enum Frame {
    /// A complete message payload.
    Msg(Vec<u8>),
    /// The peer closed cleanly on a frame boundary.
    Eof,
    /// No complete frame yet (timeout or short read); poll again.
    Pending,
}

/// Incremental frame decoder. Feed it a stream repeatedly via
/// [`poll`](FrameReader::poll); it buffers partial headers and payloads
/// across timeouts, so a read timeout never desynchronises the stream.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A fresh decoder with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Read once from `stream` and return the resulting frame state.
    /// Timeouts (`WouldBlock`/`TimedOut`) and interrupts surface as
    /// [`Frame::Pending`]; a close mid-frame is an `UnexpectedEof` error.
    pub fn poll(&mut self, stream: &mut impl Read) -> io::Result<Frame> {
        if let Some(msg) = self.take_buffered()? {
            return Ok(Frame::Msg(msg));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() {
                    Ok(Frame::Eof)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    ))
                }
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                match self.take_buffered()? {
                    Some(msg) => Ok(Frame::Msg(msg)),
                    None => Ok(Frame::Pending),
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                Ok(Frame::Pending)
            }
            Err(e) => Err(e),
        }
    }

    fn take_buffered(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(msg))
    }
}

/// A request operation the daemon understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Liveness probe; answered inline by the connection reader.
    Ping,
    /// Analyze inline `source` through the engine ladder.
    Analyze,
    /// Run the full lint catalog over inline `source`.
    Lint,
    /// Batch-check a `path` (file or directory) on the daemon's host.
    Check,
    /// Snapshot the daemon's counters; answered inline.
    Stats,
    /// Begin a graceful drain; answered inline, then the daemon stops
    /// accepting, finishes or cancels in-flight work, and exits.
    Shutdown,
}

impl Op {
    fn parse(s: &str) -> Result<Op, String> {
        match s {
            "ping" => Ok(Op::Ping),
            "analyze" => Ok(Op::Analyze),
            "lint" => Ok(Op::Lint),
            "check" => Ok(Op::Check),
            "stats" => Ok(Op::Stats),
            "shutdown" => Ok(Op::Shutdown),
            other => Err(format!(
                "unknown op '{other}' (expected ping, analyze, lint, check, stats, or shutdown)"
            )),
        }
    }
}

/// A parsed request. The vendored `serde` stub has no typed
/// deserialization, so fields are extracted by hand from the
/// [`Value`] tree; unknown fields are ignored (forward compatibility).
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// The operation.
    pub op: Op,
    /// Inline program text (`analyze` / `lint`).
    pub source: Option<String>,
    /// Filesystem path (`check`).
    pub path: Option<String>,
    /// Display name for the source (labels fault sites and log lines).
    pub name: Option<String>,
    /// Per-request deadline in milliseconds (clamped by the server).
    pub deadline_ms: Option<u64>,
    /// Most precise ladder rung to attempt (`oracle` … `naive`).
    pub start: Option<String>,
    /// Source language (`iwa`, `lok`). When absent the server resolves
    /// by the `name` extension, falling back to `iwa`.
    pub lang: Option<String>,
}

/// Parse a request frame. Errors are strings ready to echo back in an
/// `error` response.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_owned())?;
    let v = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "request is missing the 'op' field".to_owned())?;
    let op = Op::parse(op)?;
    let string_field = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
    let req = Request {
        id: v.get("id").cloned().unwrap_or(Value::Null),
        op,
        source: string_field("source"),
        path: string_field("path"),
        name: string_field("name"),
        deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
        start: string_field("start"),
        lang: string_field("lang"),
    };
    // Validate the language name at the protocol boundary so a typo is a
    // request error, not a silent tasklang fallback.
    if let Some(lang) = &req.lang {
        iwa_frontend::Lang::from_name(lang)?;
    }
    match req.op {
        Op::Analyze | Op::Lint if req.source.is_none() => {
            Err(format!("op '{}' requires a 'source' field", op_name(req.op)))
        }
        Op::Check if req.path.is_none() => Err("op 'check' requires a 'path' field".to_owned()),
        _ => Ok(req),
    }
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Ping => "ping",
        Op::Analyze => "analyze",
        Op::Lint => "lint",
        Op::Check => "check",
        Op::Stats => "stats",
        Op::Shutdown => "shutdown",
    }
}

/// A response frame. `status` is the robustness contract in one word:
///
/// * `ok` — the request completed (the report may still be `degraded`);
/// * `error` — the request failed (parse error, invalid program,
///   isolated panic, injected io-error) — but it *was answered*;
/// * `shed` — the admission queue was full; retry after
///   [`retry_after_ms`](Response::retry_after_ms);
/// * `draining` — the daemon is shutting down and accepted nothing;
/// * `timeout` — the worker overran its hard deadline and the watchdog
///   answered for it;
/// * `cancelled` — shutdown cancelled the request before a worker
///   finished it.
#[derive(Clone, Debug, Serialize)]
pub struct Response {
    /// Protocol version ([`PROTO_VERSION`]).
    pub proto: u32,
    /// The request's correlation id, echoed verbatim.
    pub id: Value,
    /// Outcome word (see the type docs).
    pub status: String,
    /// `true` when the report came from the verdict cache.
    pub cached: bool,
    /// Backoff hint accompanying a `shed` response.
    pub retry_after_ms: Option<u64>,
    /// Human-readable failure description (`error` / `timeout` /
    /// `cancelled`).
    pub error: Option<String>,
    /// The operation's report (`ok` responses): an engine report, lint
    /// report, check summary, or stats snapshot.
    pub report: Option<Value>,
}

impl Response {
    /// A skeleton response with the given status echoing `id`.
    #[must_use]
    pub fn new(id: Value, status: &str) -> Response {
        Response {
            proto: PROTO_VERSION,
            id,
            status: status.to_owned(),
            cached: false,
            retry_after_ms: None,
            error: None,
            report: None,
        }
    }

    /// An `error` response with a message.
    #[must_use]
    pub fn error(id: Value, message: impl Into<String>) -> Response {
        let mut r = Response::new(id, "error");
        r.error = Some(message.into());
        r
    }

    /// Serialize to the frame payload bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("response serialization is infallible")
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_chunked_reader() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"op\":\"ping\"}").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        // Feed the bytes one at a time to exercise partial-frame buffering.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut src = OneByte(&wire, 0);
        let mut reader = FrameReader::new();
        let mut msgs = Vec::new();
        loop {
            match reader.poll(&mut src).unwrap() {
                Frame::Msg(m) => msgs.push(m),
                Frame::Pending => continue,
                Frame::Eof => break,
            }
        }
        assert_eq!(msgs, vec![b"{\"op\":\"ping\"}".to_vec(), b"second".to_vec()]);
    }

    #[test]
    fn a_frame_is_one_write() {
        #[derive(Default)]
        struct CountingSink {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CountingSink::default();
        write_frame(&mut sink, b"{\"op\":\"ping\"}").unwrap();
        assert_eq!(sink.writes, 1, "prefix and payload must leave in one write");
        assert_eq!(&sink.bytes[..4], &13u32.to_be_bytes());
        assert_eq!(&sink.bytes[4..], b"{\"op\":\"ping\"}");
    }

    #[test]
    fn a_mid_frame_close_is_an_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"truncated payload").unwrap();
        wire.truncate(wire.len() - 3);
        let mut reader = FrameReader::new();
        let mut src = io::Cursor::new(wire);
        loop {
            match reader.poll(&mut src) {
                Ok(Frame::Pending) => continue,
                Ok(Frame::Msg(_)) | Ok(Frame::Eof) => panic!("should not complete"),
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    break;
                }
            }
        }
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut reader = FrameReader::new();
        let huge = u32::try_from(MAX_FRAME + 1).unwrap().to_be_bytes();
        let mut src = io::Cursor::new(huge.to_vec());
        let err = loop {
            match reader.poll(&mut src) {
                Ok(Frame::Pending) => continue,
                Ok(other) => panic!("unexpected {other:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_parse_with_defaults_and_validate_required_fields() {
        let req = parse_request(
            br#"{"id": 7, "op": "analyze", "source": "task t {}", "deadline_ms": 500}"#,
        )
        .unwrap();
        assert_eq!(req.op, Op::Analyze);
        assert_eq!(req.id, Value::Int(7));
        assert_eq!(req.source.as_deref(), Some("task t {}"));
        assert_eq!(req.deadline_ms, Some(500));
        assert!(req.start.is_none());

        let req = parse_request(
            br#"{"id": 8, "op": "analyze", "source": "thread t { lock a; }", "lang": "lok"}"#,
        )
        .unwrap();
        assert_eq!(req.lang.as_deref(), Some("lok"));
        assert!(parse_request(br#"{"op": "analyze", "source": "x", "lang": "ada"}"#)
            .unwrap_err()
            .contains("unknown language"));

        assert!(parse_request(br#"{"op": "analyze"}"#).unwrap_err().contains("source"));
        assert!(parse_request(br#"{"op": "check"}"#).unwrap_err().contains("path"));
        assert!(parse_request(br#"{"op": "launch"}"#).unwrap_err().contains("unknown op"));
        assert!(parse_request(br#"{"source": "x"}"#).unwrap_err().contains("op"));
        assert!(parse_request(b"not json").is_err());
    }

    #[test]
    fn responses_serialize_with_the_stable_envelope() {
        let mut r = Response::new(Value::String("req-1".into()), "shed");
        r.retry_after_ms = Some(120);
        let text = String::from_utf8(r.to_bytes()).unwrap();
        let v = serde_json::from_str(&text).unwrap();
        assert_eq!(v["proto"], PROTO_VERSION);
        assert_eq!(v["id"], "req-1");
        assert_eq!(v["status"], "shed");
        assert_eq!(v["retry_after_ms"], 120);
        assert_eq!(v["cached"], false);
        assert_eq!(v["error"], Value::Null);
    }
}
