//! Elaborated netlist IR for LSS models.
//!
//! Executing an LSS specification (see `lss-interp`) produces a
//! [`Netlist`]: instances, ports with use-inferred widths, point-to-point
//! connections, resolved parameters, userpoints, events, and collectors.
//! This crate also provides:
//!
//! * [`Netlist::flatten`] — resolution of hierarchical pass-through ports
//!   into direct leaf-to-leaf [`Wire`]s for the simulator;
//! * [`stats`] — the reuse metrics behind the paper's Table 2;
//! * [`lint`] — the advisory static model checks (unconnected inputs,
//!   dangling hierarchical ports, suspicious width mismatches), each run
//!   as its own pass by `lss-analyze`;
//! * [`binary`] — the compact binary serialization ([`to_binary`] /
//!   [`from_binary`]), the one load format, behind the driver's netlist
//!   cache;
//! * [`json`] — the complete JSON rendering ([`to_json`]), an output for
//!   `lssc`, `lssd` and external tooling;
//! * [`jsonval`] — a small JSON value parser for the `lssd` wire protocol;
//! * [`dump`] — ASCII-tree and GraphViz renderings.
//!
//! # Example
//!
//! ```
//! use lss_netlist::Netlist;
//!
//! let netlist = Netlist::new();
//! let stats = lss_netlist::reuse_stats(&netlist);
//! assert_eq!(stats.instances, 0);
//! ```

#![warn(missing_docs)]

pub mod binary;
pub mod dump;
pub mod intern;
pub mod json;
pub mod jsonval;
pub mod link;
pub mod lint;
pub mod netlist;
pub mod protocol;
pub mod stats;

pub use binary::{from_binary, to_binary, BIN_FORMAT};
pub use intern::{CollectorId, EventId, Interner, PortId, RtvId, SlotId, Symbol, UserpointId};
pub use json::{to_json, JSON_FORMAT};
pub use jsonval::{parse_json, JsonValue};
pub use link::{link, DeferredConnection, DeferredEndpoint, LinkError, LinkUnit};
pub use lint::{
    check_dangling_hierarchical, check_isolated, check_unbound_collectors, check_unconnected,
    check_width_mismatch, Lint, LintKind,
};
pub use netlist::{
    Collector, Connection, Dir, ElabStats, Endpoint, EventDecl, InstRef, Instance, InstanceId,
    InstanceKind, ModuleMeta, Netlist, Port, RuntimeVar, Userpoint, Wire,
};
pub use protocol::{ActionDir, Automaton, ProtocolBinding, Role, SrcSpan, Template, Transition};
pub use stats::{format_row, header, reuse_stats, total, ReuseStats};
