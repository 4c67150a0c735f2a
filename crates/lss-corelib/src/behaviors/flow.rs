//! Data-flow plumbing: queues, arbiters, muxes, demuxes.
//!
//! These implement the library's credit protocol (see `corelib.lss` docs):
//! a consumer's `credit` output is computed from its state at the start of
//! the cycle (register-like, never from this cycle's inputs), a producer
//! sends at most `credit_in` items the same cycle, and the consumer is
//! obliged to accept them at `end_of_timestep`.

use std::collections::VecDeque;

use lss_netlist::{SrcSpan, UserpointId};
use lss_sim::{BuildError, CompCtx, CompSpec, Component, Deps, SimError};
use lss_types::Datum;

/// Reads an integer from an optional single-lane port, with a default for
/// unconnected ports (unconnected-port semantics, §4.2).
pub(crate) fn read_int_or<C: CompCtx + ?Sized>(ctx: &C, port: usize, default: i64) -> i64 {
    if ctx.width(port) == 0 {
        return default;
    }
    match ctx.input(port, 0) {
        Some(Datum::Int(v)) => v,
        _ => default,
    }
}

/// `corelib/queue.tar` — an elastic FIFO.
///
/// Ports: `in` (data, W lanes), `out` (data, up to W lanes), `credit`
/// (int out: free slots), `credit_in` (int in, optional: how many items the
/// downstream consumer accepts this cycle; unconnected means "as many as
/// `out` has lanes").
pub struct Queue {
    inp: usize,
    out: usize,
    credit: usize,
    credit_in: usize,
    depth: usize,
    buf: VecDeque<Datum>,
    /// Items emitted by this cycle's last `eval`, popped at end of cycle.
    emitted: usize,
    /// Declared contract on `in` (group name, annotation span).
    contract: (String, Option<SrcSpan>),
}

impl Queue {
    /// Only `credit_in` feeds eval; `in` is consumed at end_of_timestep.
    /// `credit` is free space at the start of the cycle — pure state.
    pub const DEPS: Deps = Deps {
        outputs: &[("out", &["credit_in"]), ("credit", &[])],
        ..Deps::reading(&["credit_in"])
    };

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let depth = spec.int_param_or("depth", 8)?;
        if depth <= 0 {
            return Err(BuildError::new(format!(
                "{}: queue depth must be positive",
                spec.path
            )));
        }
        let inp = spec.port_index("in")?;
        Ok(Box::new(Queue {
            inp,
            out: spec.port_index("out")?,
            credit: spec.port_index("credit")?,
            credit_in: spec.port_index("credit_in")?,
            depth: depth as usize,
            buf: VecDeque::new(),
            emitted: 0,
            contract: spec.protocol_context(inp),
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        // A cycle's last eval sees settled inputs, so its count is what
        // end_of_timestep pops.
        let lanes = ctx.width(self.out) as usize;
        let allowed = read_int_or(ctx, self.credit_in, lanes as i64).max(0) as usize;
        self.emitted = self.buf.len().min(lanes).min(allowed);
        for (lane, item) in self.buf.iter().take(self.emitted).enumerate() {
            ctx.set_output(self.out, lane as u32, item.clone());
        }
        // Credit reflects space at the start of the cycle; items leaving
        // this cycle free space only for the next.
        let free = (self.depth - self.buf.len()) as i64;
        for lane in 0..ctx.width(self.credit) {
            ctx.set_output(self.credit, lane, Datum::Int(free));
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        // Pop what was consumed this cycle.
        self.buf.drain(..std::mem::take(&mut self.emitted));
        // Accept arrivals; overflow means the producer violated credits.
        for lane in 0..ctx.width(self.inp) {
            if let Some(v) = ctx.input(self.inp, lane) {
                if self.buf.len() >= self.depth {
                    return Err(SimError::protocol_violation(
                        &self.contract.0,
                        "queue overflow: producer sent beyond the advertised credit",
                        self.contract.1,
                    ));
                }
                self.buf.push_back(v);
            }
        }
        Ok(())
    }
}

impl Component for Queue {
    eval_body!();
    end_of_timestep_body!();
}

/// `corelib/arbiter.tar` — picks up to `out.width` of the valid `in` lanes
/// each cycle and reports per-lane grants.
///
/// Ports: `in` (data, W), `out` (data, M), `grant` (int out, W lanes:
/// 1 = accepted this cycle). The optional `policy` userpoint
/// `(count:int, cycle:int => int)` returns the index to start the circular
/// scan from; the default is priority order (start at 0).
pub struct Arbiter {
    inp: usize,
    out: usize,
    grant: usize,
    policy: Option<UserpointId>,
}

impl Arbiter {
    /// Combinational selection, no state.
    pub const DEPS: Deps = Deps::STATELESS;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Arbiter {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
            grant: spec.port_index("grant")?,
            policy: None,
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let w = ctx.width(self.inp);
        let m = ctx.width(self.out);
        let start = if let Some(policy) = self.policy {
            let r = ctx.call_userpoint_by_id(
                policy,
                &[Datum::Int(w as i64), Datum::Int(ctx.cycle() as i64)],
            )?;
            r.as_int().unwrap_or(0).rem_euclid(w.max(1) as i64) as u32
        } else {
            0
        };
        let mut granted = 0u32;
        for step in 0..w {
            let lane = (start + step) % w.max(1);
            let Some(v) = ctx.input(self.inp, lane) else {
                ctx.set_output(self.grant, lane, Datum::Int(0));
                continue;
            };
            if granted < m {
                ctx.set_output(self.out, granted, v);
                ctx.set_output(self.grant, lane, Datum::Int(1));
                granted += 1;
            } else {
                ctx.set_output(self.grant, lane, Datum::Int(0));
            }
        }
        Ok(())
    }
}

impl Component for Arbiter {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.policy = ctx.userpoint_id("policy");
        Ok(())
    }

    eval_body!();
}

/// `corelib/mux.tar` — combinational selector: `out[0] = in[sel]`.
pub struct Mux {
    inp: usize,
    sel: usize,
    out: usize,
}

impl Mux {
    /// Combinational selector, no state.
    pub const DEPS: Deps = Deps::STATELESS;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Mux {
            inp: spec.port_index("in")?,
            sel: spec.port_index("sel")?,
            out: spec.port_index("out")?,
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let sel = read_int_or(ctx, self.sel, 0);
        if sel >= 0 && (sel as u32) < ctx.width(self.inp) {
            if let Some(v) = ctx.input(self.inp, sel as u32) {
                ctx.set_output(self.out, 0, v);
            }
        }
        Ok(())
    }
}

impl Component for Mux {
    eval_body!();
}

/// `corelib/demux.tar` — combinational router: `out[dest] = in[0]`.
pub struct Demux {
    inp: usize,
    dest: usize,
    out: usize,
}

impl Demux {
    /// Combinational router, no state.
    pub const DEPS: Deps = Deps::STATELESS;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Demux {
            inp: spec.port_index("in")?,
            dest: spec.port_index("dest")?,
            out: spec.port_index("out")?,
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let Some(v) = ctx.input(self.inp, 0) else {
            return Ok(());
        };
        let dest = read_int_or(ctx, self.dest, 0);
        if dest >= 0 && (dest as u32) < ctx.width(self.out) {
            ctx.set_output(self.out, dest as u32, v);
        }
        Ok(())
    }
}

impl Component for Demux {
    eval_body!();
}
