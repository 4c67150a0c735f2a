//! Kernel-lowerable behavior metadata.
//!
//! The compiled simulation engine (`lss-sim`'s `exec` module) devirtualizes
//! hot corelib behaviors into direct port-slot reads and writes. A behavior
//! opts in by describing itself as a [`KernelClass`]: which of its ports
//! play which structural role, plus the resolved parameters the kernel
//! needs. The description is pure metadata — port numbers are the
//! behavior's own port indices, exactly as handed to its factory — and the
//! engine resolves them against the flat slot arena at build time. A
//! behavior without a `KernelClass` (or one the engine declines to lower,
//! e.g. because it sits inside a combinational cycle or carries userpoints)
//! simply stays on the dyn `Component` path.
//!
//! This lives in `lss-netlist` rather than `lss-sim` so the metadata sits
//! next to the rest of the structural IR and stays usable by tooling that
//! never links the engine.

use lss_types::Datum;

use crate::protocol::SrcSpan;

/// The arithmetic operation of an ALU kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelAluOp {
    /// Wrapping addition (int) / IEEE addition (float).
    Add,
    /// Wrapping subtraction / IEEE subtraction.
    Sub,
    /// Wrapping multiplication / IEEE multiplication.
    Mul,
}

/// A behavior's self-description for kernel lowering.
///
/// Every variant mirrors one corelib behavior's `eval`/`end_of_timestep`
/// contract exactly; the kernel-equivalence suite in the workspace root
/// pins the two implementations against each other (and against the naive
/// reference simulator) cycle by cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelClass {
    /// `corelib/source.tar`: every `out` lane carries `start + seed +
    /// cycle` for `int` ports, or the fixed default value `konst` for any
    /// other inferred type.
    Source {
        /// `out` port index.
        out: usize,
        /// Counter base for the `int` overload.
        start: i64,
        /// `Some(default)` for non-`int` types; `None` selects the counter.
        konst: Option<Datum>,
    },
    /// `corelib/sink.tar`: counts arrivals on `in` into the `count`
    /// runtime variable at end of timestep.
    Sink {
        /// `in` port index.
        inp: usize,
    },
    /// `corelib/delay.tar`: `out` carries the state, which takes `in[0]`'s
    /// value at end of timestep.
    Delay {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
        /// Initial state.
        init: Datum,
    },
    /// `corelib/latch.tar`: each `out` lane carries what the matching `in`
    /// lane held at the end of the previous cycle.
    Latch {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
    },
    /// `corelib/tee.tar`: combinational fan-out of `in[0]` to every `out`
    /// lane.
    Tee {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
    },
    /// `corelib/queue.tar`: the elastic FIFO with the credit discipline.
    Queue {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
        /// `credit` port index.
        credit: usize,
        /// `credit_in` port index.
        credit_in: usize,
        /// Buffer capacity.
        depth: usize,
        /// Protocol group name for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/issue.tar`: the out-of-order (or `in_order`) issue window
    /// with RAW/WAW scoreboarding and per-lane FU class constraints.
    Issue {
        /// `in` port index.
        inp: usize,
        /// `credit` port index.
        credit: usize,
        /// `out` port index.
        out: usize,
        /// `fu_credit` port index.
        fu_credit: usize,
        /// `complete` port index.
        complete: usize,
        /// Window capacity.
        window_size: usize,
        /// Maximum issues per cycle.
        issue_width: usize,
        /// Strict program-order issue when set.
        in_order: bool,
        /// Per-out-lane accepted op-class codes (0 = any).
        classes: Vec<i64>,
        /// Protocol group name for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/fu.tar`: the pipelined functional unit with an
    /// address-generation stage, optional cache-port and CDB-grant
    /// interfaces. Instructions travel as `Datum::Struct` values, which
    /// the kernel reads and builds with the shared [`crate::instr`] codec.
    Fu {
        /// `in` port index.
        inp: usize,
        /// `credit` port index.
        credit: usize,
        /// `done` port index.
        done: usize,
        /// `grant_in` port index.
        grant_in: usize,
        /// `mem_req` port index.
        mem_req: usize,
        /// `mem_resp` port index.
        mem_resp: usize,
        /// Accept a new instruction every cycle when set.
        pipelined: bool,
        /// In-flight instruction capacity.
        max_inflight: usize,
        /// Protocol group name for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/alu.tar`: per-lane arithmetic on `a`/`b` into `res`.
    Alu {
        /// `a` port index.
        a: usize,
        /// `b` port index.
        b: usize,
        /// `res` port index.
        res: usize,
        /// Operation.
        op: KernelAluOp,
        /// True when the overload resolved to the float family member.
        float: bool,
    },
}
