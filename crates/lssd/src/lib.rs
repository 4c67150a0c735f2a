//! `lssd` — a fault-tolerant compile-and-simulate daemon for LSS.
//!
//! One-shot `lssc` pays full process startup, corelib loading, and a
//! disk round trip per build. `lssd` keeps those hot: a long-lived
//! process serves `compile` / `check` / `simulate` / `difftest`
//! requests over a length-framed JSON protocol (Unix socket or TCP),
//! sharing the content-addressed netlist cache across every session
//! plus an in-process hot map for warm repeats.
//!
//! Because a daemon outlives any single request, the design centers on
//! robustness rather than throughput:
//!
//! * [`proto`] — wire framing with hard limits (oversized frames
//!   rejected, slow-loris writes shed on a per-frame deadline) and the
//!   request/response schema;
//! * [`server`] — admission control with a bounded queue and typed
//!   `busy` shedding, per-request quotas enforced *inside* elaboration,
//!   solving, and the simulation loop (`LSS4xx` budget stops), a panic
//!   boundary that converts worker crashes into `ice` responses, and
//!   graceful drain on SIGTERM;
//! * [`client`] — a thin blocking client with jittered exponential
//!   backoff on `busy`, used by `lssc client` and the service bench;
//! * [`session`] — the session core `lssc` shares: one [`Spec`] →
//!   driver setup, the [`Quota`] flags, the cache-dir resolver, and the
//!   [`Status`] → exit-code mapping.
//!
//! Protocol and semantics are documented in `docs/SERVICE.md`; the
//! chaos suite in `tests/chaos.rs` pins every robustness claim above.

pub mod client;
pub mod proto;
pub mod server;
pub mod session;

pub use client::Client;
pub use proto::{read_frame, write_frame, FrameError, Quota, Request, Verb, MAX_FRAME};
pub use server::{DrainHandle, Endpoint, Server, ServerConfig};
pub use session::{Spec, Status};

/// Renders a panic payload for an `ice` response (panics carry `&str`
/// or `String` in practice).
pub fn payload_str(payload: &dyn std::any::Any) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
