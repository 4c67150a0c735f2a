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
//! * [`json`] — complete JSON serialization ([`to_json`] / [`from_json`]
//!   round-trip) for the driver's netlist cache and external tooling;
//! * [`dump`] — ASCII-tree and GraphViz renderings;
//! * [`instr`] — the instruction codec the CPU behaviors share.
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
pub mod instr;
pub mod intern;
pub mod json;
pub mod jsonval;
pub mod link;
pub mod lint;
pub mod netlist;
pub mod protocol;
pub mod stats;

pub use binary::{from_binary, to_binary, BIN_FORMAT};
pub use instr::{instr_layout, Instr, OpClass, INSTR_FIELDS};
pub use intern::{CollectorId, EventId, Interner, PortId, RtvId, SlotId, Symbol, UserpointId};
pub use json::{from_json, from_value, to_json, JSON_FORMAT};
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
