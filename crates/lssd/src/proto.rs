//! The `lssd` wire protocol: length-framed JSON over a Unix or TCP
//! stream.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian length prefix followed by exactly that many bytes of UTF-8
//! JSON. Framing is what lets the daemon tell a hostile or broken client
//! from a slow one: a frame longer than [`MAX_FRAME`] is shed before a
//! byte of its body is buffered, a frame that dribbles in slower than
//! the per-frame deadline is a slow-loris and the connection is closed,
//! and EOF mid-frame is a disconnect, never a short parse.
//!
//! The JSON schema is documented in docs/SERVICE.md. Requests carry a
//! `verb` plus verb-specific fields; responses carry a `status`
//! (`ok`, `busy`, `budget`, `error`, `ice`, `bad-request`) plus
//! status-specific fields. Parsing uses the repo's own hand-rolled JSON
//! reader ([`lss_netlist::jsonval`]) — no serialization dependency.

use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

use lss_netlist::json::escape;
use lss_netlist::jsonval::{parse_json, JsonValue};
use lss_types::BudgetCaps;

use crate::session::Status;

/// Hard cap on one frame's body, request or response. Large enough for
/// any Table 3 model netlist, small enough that a hostile 4 GiB length
/// prefix cannot make the daemon allocate.
pub const MAX_FRAME: u32 = 8 * 1024 * 1024;

/// Why reading a frame stopped.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary: the peer is done.
    Closed,
    /// EOF inside a frame: the peer disconnected mid-message.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized(u32),
    /// The frame started but did not complete within the deadline
    /// (slow-loris shed).
    TimedOut,
    /// The cancel flag was raised while waiting between frames (drain).
    Cancelled,
    /// Any other I/O failure.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "peer disconnected mid-frame"),
            FrameError::Oversized(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            FrameError::TimedOut => write!(f, "frame did not complete within the deadline"),
            FrameError::Cancelled => write!(f, "read cancelled"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Writes one frame: 4-byte big-endian length, then the body. Header
/// and body go out in a single write so a TCP transport never stalls a
/// tiny header segment on Nagle/delayed-ACK.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    let len = body.len() as u32;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame cooperatively.
///
/// The stream must have a short read timeout set (the poll interval);
/// this function loops over partial reads so a timeout mid-frame does
/// not lose bytes. Waiting *between* frames is unbounded — an idle
/// client costs nothing — but once the first byte of a frame arrives
/// the rest must land within `frame_deadline`, which is what sheds
/// slow-loris writers. `cancelled` is polled while idle so a draining
/// daemon can close idle connections promptly.
pub fn read_frame(
    r: &mut impl Read,
    frame_deadline: Duration,
    cancelled: &dyn Fn() -> bool,
) -> Result<Vec<u8>, FrameError> {
    let mut head = [0u8; 4];
    let mut got = 0usize;
    let mut started_at: Option<Instant> = None;
    // Length prefix: 0 bytes so far means "idle between frames".
    while got < 4 {
        match r.read(&mut head[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => {
                got += n;
                started_at.get_or_insert_with(Instant::now);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                match started_at {
                    None if cancelled() => return Err(FrameError::Cancelled),
                    None => {}
                    Some(t0) if t0.elapsed() > frame_deadline => return Err(FrameError::TimedOut),
                    Some(_) => {}
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    let len = u32::from_be_bytes(head);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let t0 = started_at.unwrap_or_else(Instant::now);
    let mut body = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < body.len() {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if t0.elapsed() > frame_deadline {
                    return Err(FrameError::TimedOut);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e.to_string())),
        }
    }
    Ok(body)
}

/// Per-request resource quota. Every field maps to one `LSS4xx`
/// diagnostic (see docs/ROBUSTNESS.md); the daemon merges a request's
/// quota with its own server-wide caps by taking the *tighter* limit, so
/// a client can never ask for more than the operator allows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quota {
    /// Wall-clock budget in milliseconds (LSS401).
    pub deadline_ms: Option<u64>,
    /// Elaboration statement fuel (LSS402).
    pub max_steps: Option<u64>,
    /// Instance cap (LSS403).
    pub max_instances: Option<u64>,
    /// Module-instantiation depth cap (LSS404).
    pub max_depth: Option<u32>,
    /// Type-inference unification-step cap (LSS405).
    pub solver_steps: Option<u64>,
    /// Disjunct-combination cap per scheme (LSS406).
    pub expansion_cap: Option<u64>,
    /// Elaborated netlist size cap (LSS407).
    pub max_netlist: Option<u64>,
    /// Simulation cycle cap (LSS408).
    pub max_cycles: Option<u64>,
}

fn min_opt<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, None) => a,
        (None, b) => b,
    }
}

impl Quota {
    /// The tighter of two quotas, field by field. Used to clamp a
    /// request's asks under the server-wide caps.
    pub fn clamp(self, server: Quota) -> Quota {
        Quota {
            deadline_ms: min_opt(self.deadline_ms, server.deadline_ms),
            max_steps: min_opt(self.max_steps, server.max_steps),
            max_instances: min_opt(self.max_instances, server.max_instances),
            max_depth: min_opt(self.max_depth, server.max_depth),
            solver_steps: min_opt(self.solver_steps, server.solver_steps),
            expansion_cap: min_opt(self.expansion_cap, server.expansion_cap),
            max_netlist: min_opt(self.max_netlist, server.max_netlist),
            max_cycles: min_opt(self.max_cycles, server.max_cycles),
        }
    }

    /// The key-stable caps that arm the shared [`lss_types::Budget`]
    /// handle (deadline, depth, netlist size, sim cycles). Fuel caps
    /// (steps, solver, expansion) go into the stage options instead.
    pub fn budget_caps(&self) -> BudgetCaps {
        BudgetCaps {
            deadline: self.deadline_ms.map(Duration::from_millis),
            max_depth: self.max_depth,
            max_netlist_items: self.max_netlist,
            max_sim_cycles: self.max_cycles,
        }
    }

    fn parse(value: &JsonValue) -> Result<Quota, String> {
        let mut quota = Quota::default();
        let Some(members) = value.as_object() else {
            return Err("quota must be an object".into());
        };
        for (key, v) in members {
            let n = v
                .as_i64()
                .filter(|&n| n >= 0)
                .ok_or_else(|| format!("quota field `{key}` must be a non-negative integer"))?;
            match key.as_str() {
                "deadline_ms" => quota.deadline_ms = Some(n as u64),
                "max_steps" => quota.max_steps = Some(n as u64),
                "max_instances" => quota.max_instances = Some(n as u64),
                "max_depth" => quota.max_depth = Some(n.min(u32::MAX as i64) as u32),
                "solver_steps" => quota.solver_steps = Some(n as u64),
                "expansion_cap" => quota.expansion_cap = Some(n as u64),
                "max_netlist" => quota.max_netlist = Some(n as u64),
                "max_cycles" => quota.max_cycles = Some(n as u64),
                other => return Err(format!("unknown quota field `{other}`")),
            }
        }
        Ok(quota)
    }

    fn render_into(&self, obj: &mut ObjBuilder) {
        let mut quota = ObjBuilder::new();
        if let Some(n) = self.deadline_ms {
            quota.num("deadline_ms", n);
        }
        if let Some(n) = self.max_steps {
            quota.num("max_steps", n);
        }
        if let Some(n) = self.max_instances {
            quota.num("max_instances", n);
        }
        if let Some(n) = self.max_depth {
            quota.num("max_depth", u64::from(n));
        }
        if let Some(n) = self.solver_steps {
            quota.num("solver_steps", n);
        }
        if let Some(n) = self.expansion_cap {
            quota.num("expansion_cap", n);
        }
        if let Some(n) = self.max_netlist {
            quota.num("max_netlist", n);
        }
        if let Some(n) = self.max_cycles {
            quota.num("max_cycles", n);
        }
        if !quota.is_empty() {
            obj.raw("quota", &quota.finish());
        }
    }
}

/// What the client wants done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// Liveness probe; never queued.
    Ping,
    /// Daemon counters; never queued.
    Stats,
    /// Begin a graceful drain; never queued.
    Shutdown,
    /// Elaborate + infer; responds with the netlist JSON.
    Compile,
    /// Compile then run the static-analysis pass suite.
    Check,
    /// Compile then simulate N cycles.
    Simulate,
    /// Compile then replay through the differential harness.
    Difftest,
    /// Inject a daemon fault (only honored when the server was started
    /// with `--chaos`).
    Chaos,
}

impl Verb {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Ping => "ping",
            Verb::Stats => "stats",
            Verb::Shutdown => "shutdown",
            Verb::Compile => "compile",
            Verb::Check => "check",
            Verb::Simulate => "simulate",
            Verb::Difftest => "difftest",
            Verb::Chaos => "chaos",
        }
    }

    /// The verb for a wire name (`None` for an unknown name).
    pub fn parse(name: &str) -> Option<Verb> {
        Some(match name {
            "ping" => Verb::Ping,
            "stats" => Verb::Stats,
            "shutdown" => Verb::Shutdown,
            "compile" => Verb::Compile,
            "check" => Verb::Check,
            "simulate" => Verb::Simulate,
            "difftest" => Verb::Difftest,
            "chaos" => Verb::Chaos,
            _ => return None,
        })
    }
}

/// One parsed request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation.
    pub verb: Verb,
    /// `(name, text)` source units (compiling verbs).
    pub sources: Vec<(String, String)>,
    /// `(name, text)` library units added before the sources.
    pub libs: Vec<(String, String)>,
    /// A built-in Table 3 model (`'A'..='F'`) instead of sources.
    pub model: Option<char>,
    /// Cycles for `simulate` / `difftest`.
    pub cycles: u64,
    /// Per-request resource quota (clamped under the server's caps).
    pub quota: Quota,
    /// The fault to inject for `chaos`.
    pub fault: Option<String>,
}

impl Request {
    /// A bare request with defaults for everything but the verb.
    pub fn new(verb: Verb) -> Request {
        Request {
            verb,
            sources: Vec::new(),
            libs: Vec::new(),
            model: None,
            cycles: 16,
            quota: Quota::default(),
            fault: None,
        }
    }

    /// Renders the request as its JSON wire form.
    pub fn render(&self) -> String {
        let mut obj = ObjBuilder::new();
        obj.str("verb", self.verb.name());
        if let Some(model) = self.model {
            obj.str("model", &model.to_string());
        }
        if !self.sources.is_empty() {
            obj.raw("sources", &render_units(&self.sources));
        }
        if !self.libs.is_empty() {
            obj.raw("libs", &render_units(&self.libs));
        }
        if matches!(self.verb, Verb::Simulate | Verb::Difftest) {
            obj.num("cycles", self.cycles);
        }
        self.quota.render_into(&mut obj);
        if let Some(fault) = &self.fault {
            obj.str("fault", fault);
        }
        obj.finish()
    }

    /// Parses a request frame. Errors name the offending field; the
    /// server maps them to a `bad-request` response without dropping the
    /// connection.
    pub fn parse(bytes: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| format!("frame is not UTF-8: {e}"))?;
        let value = parse_json(text)?;
        let verb_name = value
            .get("verb")
            .and_then(JsonValue::as_str)
            .ok_or("request needs a string `verb`")?;
        let verb = Verb::parse(verb_name).ok_or_else(|| format!("unknown verb `{verb_name}`"))?;
        let mut req = Request::new(verb);
        if let Some(v) = value.get("model") {
            let s = v.as_str().ok_or("`model` must be a string")?;
            let mut chars = s.chars();
            match (chars.next(), chars.next()) {
                (Some(c), None) => req.model = Some(c),
                _ => return Err(format!("`model` must be one letter, got `{s}`")),
            }
        }
        if let Some(v) = value.get("sources") {
            req.sources = parse_units("sources", v)?;
        }
        if let Some(v) = value.get("libs") {
            req.libs = parse_units("libs", v)?;
        }
        if let Some(v) = value.get("cycles") {
            req.cycles = v
                .as_i64()
                .filter(|&n| n >= 0)
                .ok_or("`cycles` must be a non-negative integer")? as u64;
        }
        if let Some(v) = value.get("quota") {
            req.quota = Quota::parse(v)?;
        }
        if let Some(v) = value.get("fault") {
            req.fault = Some(v.as_str().ok_or("`fault` must be a string")?.to_string());
        }
        Ok(req)
    }
}

fn render_units(units: &[(String, String)]) -> String {
    let entries: Vec<String> = units
        .iter()
        .map(|(name, text)| {
            format!(
                "{{\"name\": \"{}\", \"text\": \"{}\"}}",
                escape(name),
                escape(text)
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

fn parse_units(field: &str, value: &JsonValue) -> Result<Vec<(String, String)>, String> {
    let items = value
        .as_array()
        .ok_or_else(|| format!("`{field}` must be an array"))?;
    let mut units = Vec::with_capacity(items.len());
    for item in items {
        let name = item
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("`{field}` entries need a string `name`"))?;
        let text = item
            .get("text")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("`{field}` entries need a string `text`"))?;
        units.push((name.to_string(), text.to_string()));
    }
    Ok(units)
}

/// Incremental JSON object writer for responses and requests. Key order
/// is emission order, matching the repo's other hand-rolled writers.
#[derive(Debug, Default)]
pub struct ObjBuilder {
    parts: Vec<String>,
}

impl ObjBuilder {
    /// An empty object.
    pub fn new() -> ObjBuilder {
        ObjBuilder::default()
    }

    /// True when nothing was emitted yet.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Emits a string member (escaped).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.parts.push(format!("\"{key}\": \"{}\"", escape(value)));
        self
    }

    /// Emits an integer member.
    pub fn num(&mut self, key: &str, value: u64) -> &mut Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// Emits a boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// Emits a member whose value is already-rendered JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.parts.push(format!("\"{key}\": {json}"));
        self
    }

    /// Emits a string-array member (each element escaped).
    pub fn str_array(&mut self, key: &str, values: &[String]) -> &mut Self {
        let items: Vec<String> = values
            .iter()
            .map(|v| format!("\"{}\"", escape(v)))
            .collect();
        self.parts
            .push(format!("\"{key}\": [{}]", items.join(", ")));
        self
    }

    /// Closes the object.
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.parts.join(", "))
    }
}

/// Renders the standard response heads.
pub fn response(status: Status) -> ObjBuilder {
    let mut obj = ObjBuilder::new();
    obj.str("status", status.name());
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"{\"verb\": \"ping\"}").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = std::io::Cursor::new(wire);
        let never = || false;
        let one = read_frame(&mut r, Duration::from_secs(1), &never).unwrap();
        assert_eq!(one, b"{\"verb\": \"ping\"}");
        let two = read_frame(&mut r, Duration::from_secs(1), &never).unwrap();
        assert_eq!(two, b"");
        assert!(matches!(
            read_frame(&mut r, Duration::from_secs(1), &never),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn truncated_and_oversized_frames_are_typed_errors() {
        let never = || false;
        // Truncated: a 100-byte promise with 3 bytes delivered.
        let mut wire = 100u32.to_be_bytes().to_vec();
        wire.extend_from_slice(b"abc");
        let mut r = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, Duration::from_secs(1), &never),
            Err(FrameError::Truncated)
        ));
        // Truncated length prefix.
        let mut r = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut r, Duration::from_secs(1), &never),
            Err(FrameError::Truncated)
        ));
        // Oversized: the length alone is rejected, nothing is allocated.
        let wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
        let mut r = std::io::Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut r, Duration::from_secs(1), &never),
            Err(FrameError::Oversized(_))
        ));
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let mut req = Request::new(Verb::Simulate);
        req.sources = vec![("m.lss".into(), "instance a:counter; // \"q\"".into())];
        req.libs = vec![("lib.lss".into(), "module counter {}".into())];
        req.cycles = 1000;
        req.quota.deadline_ms = Some(2500);
        req.quota.max_cycles = Some(5000);
        let back = Request::parse(req.render().as_bytes()).expect("parse");
        assert_eq!(back.verb, Verb::Simulate);
        assert_eq!(back.sources, req.sources);
        assert_eq!(back.libs, req.libs);
        assert_eq!(back.cycles, 1000);
        assert_eq!(back.quota, req.quota);
    }

    #[test]
    fn bad_requests_are_named_errors() {
        assert!(Request::parse(b"not json").is_err());
        assert!(Request::parse(b"{}").unwrap_err().contains("verb"));
        assert!(Request::parse(b"{\"verb\": \"explode\"}")
            .unwrap_err()
            .contains("explode"));
        assert!(Request::parse(b"{\"verb\": \"simulate\", \"cycles\": -3}")
            .unwrap_err()
            .contains("cycles"));
        assert!(
            Request::parse(b"{\"verb\": \"compile\", \"quota\": {\"warp\": 9}}")
                .unwrap_err()
                .contains("warp")
        );
    }

    #[test]
    fn quota_clamp_takes_the_tighter_limit() {
        let client = Quota {
            deadline_ms: Some(60_000),
            max_cycles: Some(10),
            ..Quota::default()
        };
        let server = Quota {
            deadline_ms: Some(5_000),
            max_netlist: Some(100_000),
            ..Quota::default()
        };
        let merged = client.clamp(server);
        assert_eq!(merged.deadline_ms, Some(5_000), "server cap wins");
        assert_eq!(merged.max_cycles, Some(10), "client ask survives");
        assert_eq!(merged.max_netlist, Some(100_000), "server default applies");
        let caps = merged.budget_caps();
        assert_eq!(caps.max_sim_cycles, Some(10));
        assert_eq!(caps.max_netlist_items, Some(100_000));
    }
}
