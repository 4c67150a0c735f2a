//! Blocking daemon client with load-shedding-aware retry.
//!
//! The daemon answers `busy` (with a `retry_after_ms` hint) instead of
//! queueing unboundedly; a well-behaved client therefore retries with
//! jittered exponential backoff. [`Client::request_with_retry`]
//! implements that contract and is what `lssc client` and the service
//! bench use; [`Client::request`] is the raw single-shot round trip for
//! callers that want to observe shedding directly.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use lss_netlist::jsonval::{parse_json, JsonValue};
use lss_types::SplitMix64;

use crate::proto::{read_frame, write_frame, FrameError, Request};
use crate::server::Endpoint;
use crate::session::Status;

/// Maximum `busy` retries before giving up.
const MAX_RETRIES: u32 = 8;
/// Backoff floor when the daemon gives no `retry_after_ms` hint.
const BASE_BACKOFF_MS: u64 = 25;

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// One connection to a running `lssd`, usable for any number of
/// sequential requests.
pub struct Client {
    conn: Conn,
    /// How long to wait for a complete response frame.
    pub response_timeout: Duration,
    rng: SplitMix64,
}

impl Client {
    /// Connects to the daemon at `endpoint`.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Client> {
        let conn = match endpoint {
            Endpoint::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                stream.set_nodelay(true)?;
                Conn::Tcp(stream)
            }
        };
        match &conn {
            Conn::Unix(s) => s.set_read_timeout(Some(Duration::from_millis(50)))?,
            Conn::Tcp(s) => s.set_read_timeout(Some(Duration::from_millis(50)))?,
        }
        Ok(Client {
            conn,
            response_timeout: Duration::from_secs(60),
            rng: SplitMix64::new(0x6c73_7364_636c_6e74),
        })
    }

    /// One request/response round trip, no retry. The returned value is
    /// the parsed response object (its `status` field distinguishes
    /// `ok` / `busy` / `budget` / `bad-request` / `error` / `ice`).
    pub fn request(&mut self, request: &Request) -> Result<JsonValue, String> {
        write_frame(&mut self.conn, request.render().as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let frame =
            read_frame(&mut self.conn, self.response_timeout, &|| false).map_err(|e| match e {
                FrameError::Closed | FrameError::Truncated => {
                    "daemon closed the connection".to_string()
                }
                other => format!("receive failed: {other}"),
            })?;
        let text = String::from_utf8(frame).map_err(|_| "response is not UTF-8".to_string())?;
        parse_json(&text).map_err(|e| format!("unparseable response: {e}"))
    }

    /// A round trip that honors the shedding contract: on `busy` it
    /// sleeps for the daemon's `retry_after_ms` hint (or an exponential
    /// default) plus up to 50% deterministic jitter, reconnecting is not
    /// needed — the connection stays synced. Gives up after
    /// [`MAX_RETRIES`] consecutive sheds and returns the final `busy`
    /// response so callers can report it.
    pub fn request_with_retry(&mut self, request: &Request) -> Result<JsonValue, String> {
        let mut attempt = 0u32;
        loop {
            let value = self.request(request)?;
            let status = value.get("status").and_then(JsonValue::as_str);
            let busy = status.and_then(Status::parse) == Some(Status::Busy);
            if !busy || attempt >= MAX_RETRIES {
                return Ok(value);
            }
            let hinted = value
                .get("retry_after_ms")
                .and_then(JsonValue::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .unwrap_or(BASE_BACKOFF_MS);
            let backoff = hinted.saturating_mul(1u64 << attempt.min(6)).min(2_000);
            let jitter = self.rng.next_u64() % (backoff / 2 + 1);
            std::thread::sleep(Duration::from_millis(backoff + jitter));
            attempt += 1;
        }
    }
}
