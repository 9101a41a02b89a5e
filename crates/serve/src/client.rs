//! A small blocking client for the daemon protocol.
//!
//! Used by the test suites, the repo's benchmark, and anyone scripting
//! the daemon from Rust. Every receive carries an explicit timeout — a
//! client of an infinite-wait detector does not get to wait infinitely.

use crate::proto::{write_frame, Frame, FrameReader};
use serde::Value;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One connection to the daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    frames: FrameReader,
}

impl Client {
    /// Connect; the socket polls reads at 50 ms so [`recv`](Client::recv)
    /// can enforce its own deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            frames: FrameReader::new(),
        })
    }

    /// Send one request object (fire-and-forget; pair with `recv`).
    pub fn send(&mut self, request: &Value) -> io::Result<()> {
        let payload = serde_json::to_string(request)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        write_frame(&mut self.stream, payload.as_bytes())
    }

    /// Receive the next response, waiting at most `timeout`. A timeout
    /// is an error (`TimedOut`) — this is the hang detector the chaos
    /// suite relies on.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<Value> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.frames.poll(&mut self.stream)? {
                Frame::Msg(payload) => {
                    let text = String::from_utf8(payload).map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8")
                    })?;
                    return serde_json::from_str(&text)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
                Frame::Eof => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a response arrived",
                    ))
                }
                Frame::Pending => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no response within {timeout:?}"),
                        ));
                    }
                }
            }
        }
    }

    /// Send a request and wait for its response.
    pub fn request(&mut self, request: &Value, timeout: Duration) -> io::Result<Value> {
        self.send(request)?;
        self.recv(timeout)
    }

    /// Build an `analyze` request object.
    #[must_use]
    pub fn analyze_request(id: u64, source: &str, deadline_ms: Option<u64>) -> Value {
        let mut fields = vec![
            ("id".to_owned(), Value::UInt(id)),
            ("op".to_owned(), Value::String("analyze".to_owned())),
            ("source".to_owned(), Value::String(source.to_owned())),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms".to_owned(), Value::UInt(ms)));
        }
        Value::Object(fields)
    }

    /// Build an `analyze` request for an explicit source language
    /// (`iwa`, `lok`).
    #[must_use]
    pub fn analyze_request_lang(
        id: u64,
        source: &str,
        lang: &str,
        deadline_ms: Option<u64>,
    ) -> Value {
        let mut req = Self::analyze_request(id, source, deadline_ms);
        if let Value::Object(fields) = &mut req {
            fields.push(("lang".to_owned(), Value::String(lang.to_owned())));
        }
        req
    }

    /// Build a fieldless request (`ping`, `stats`, `shutdown`).
    #[must_use]
    pub fn simple_request(id: u64, op: &str) -> Value {
        Value::Object(vec![
            ("id".to_owned(), Value::UInt(id)),
            ("op".to_owned(), Value::String(op.to_owned())),
        ])
    }
}
