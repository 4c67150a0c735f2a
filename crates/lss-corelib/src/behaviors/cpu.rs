//! Processor-pipeline components: fetch, decode, dispatch, issue window,
//! functional units, commit, and branch prediction.
//!
//! Timing model conventions (shared with `flow.rs`):
//!
//! * `credit` outputs are computed from state at the start of the cycle;
//! * producers send at most `credit_in` items per cycle;
//! * a component's `eval` must be a pure function of (state, inputs). A
//!   selection it makes (fetch bundle, dispatch routing, issue picks) is
//!   kept for `end_of_timestep`, where the state change is committed: a
//!   cycle's last `eval` sees settled inputs on every scheduler, so its
//!   selection is the one that stands.
//!
//! The instruction stream is synthetic (see [`crate::instr`]): each
//! instruction carries its branch outcome and memory address, so the
//! pipeline models *timing* (hazards, stalls, mispredict penalties, cache
//! misses) rather than architectural semantics — the standard trace-driven
//! simulation style the paper's models also use for exploration.

use std::collections::HashMap;
use std::collections::VecDeque;

use lss_netlist::{EventId, RtvId, SrcSpan};
use lss_sim::{BuildError, CompCtx, CompSpec, Component, Deps, SimError};
use lss_types::Datum;

use super::flow::read_int_or;
use crate::instr::{Instr, Mix, OpClass, Workload};

fn instr_at<C: CompCtx + ?Sized>(
    ctx: &C,
    port: usize,
    lane: u32,
) -> Result<Option<Instr>, SimError> {
    match ctx.input(port, lane) {
        None => Ok(None),
        Some(d) => Instr::from_datum(&d)
            .map(Some)
            .ok_or_else(|| SimError::new(format!("malformed instruction datum: {d}"))),
    }
}

/// Parses the `classes` parameter: a comma-separated list of op-class
/// codes, one per output lane (0 accepts any class). An empty string means
/// "every lane accepts everything".
fn classes_param(spec: &CompSpec, port_width: u32) -> Result<Vec<i64>, BuildError> {
    let text = spec.str_param_or("classes", "")?;
    if text.trim().is_empty() {
        return Ok(vec![0; port_width as usize]);
    }
    let classes: Result<Vec<i64>, _> = text.split(',').map(|t| t.trim().parse::<i64>()).collect();
    let classes = classes
        .map_err(|e| BuildError::new(format!("{}: bad classes list `{text}`: {e}", spec.path)))?;
    if classes.len() != port_width as usize {
        return Err(BuildError::new(format!(
            "{}: classes has {} entries but the output port has width {}",
            spec.path,
            classes.len(),
            port_width
        )));
    }
    Ok(classes)
}

// ---------------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------------

/// `corelib/fetch.tar` — generates the synthetic instruction stream and
/// models fetch bandwidth, taken-branch bundle truncation, and mispredict
/// stalls.
///
/// Ports: `out` (instr, W lanes), `credit_in` (int in, optional),
/// `bp_lookup` (int out, W lanes, optional), `bp_pred` (int in, W lanes,
/// optional — consumed at end of cycle), `bp_update` (int out, W lanes,
/// optional, encoded `pc*2+taken`).
///
/// Parameters: `n_instrs`, `seed`, `penalty` (mispredict stall cycles),
/// `default_pred` (0 = predict not-taken when no predictor is connected,
/// 1 = predict taken, 2 = oracle), `taken_pct`, mix weights `mix_ialu`,
/// `mix_imul`, `mix_fp`, `mix_load`, `mix_store`, `mix_branch`,
/// `num_regs`.
pub struct Fetch {
    out: usize,
    credit_in: usize,
    bp_lookup: usize,
    bp_pred: usize,
    bp_update: usize,
    workload: Workload,
    n_instrs: u64,
    penalty: i64,
    default_pred: i64,
    /// Prefetch buffer refilled at end of cycle (keeps eval pure).
    buffer: VecDeque<Instr>,
    /// Length of the bundle this cycle's last `eval` emitted.
    bundled: usize,
    stall: i64,
    fetched: u64,
    fetched_rtv: Option<RtvId>,
    mispredicts_rtv: Option<RtvId>,
}

impl Fetch {
    /// Only the downstream credit feeds eval; predictions are consumed at
    /// the end of the cycle.
    pub const DEPS: Deps = Deps::reading(&["credit_in"]);

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let mix = Mix {
            ialu: spec.int_param_or("mix_ialu", 40)? as u32,
            imul: spec.int_param_or("mix_imul", 4)? as u32,
            fp: spec.int_param_or("mix_fp", 8)? as u32,
            load: spec.int_param_or("mix_load", 24)? as u32,
            store: spec.int_param_or("mix_store", 12)? as u32,
            branch: spec.int_param_or("mix_branch", 12)? as u32,
        };
        let workload = Workload::new(
            spec.int_param_or("seed", 1)? as u64,
            mix,
            spec.int_param_or("num_regs", 32)?,
        )
        .with_taken_pct(spec.int_param_or("taken_pct", 60)? as u32)
        .with_mem_footprint(spec.int_param_or("mem_footprint", 1 << 14)?);
        Ok(Box::new(Fetch {
            out: spec.port_index("out")?,
            credit_in: spec.port_index("credit_in")?,
            bp_lookup: spec.port_index("bp_lookup")?,
            bp_pred: spec.port_index("bp_pred")?,
            bp_update: spec.port_index("bp_update")?,
            workload,
            n_instrs: spec.int_param_or("n_instrs", 10_000)? as u64,
            penalty: spec.int_param_or("penalty", 3)?,
            default_pred: spec.int_param_or("default_pred", 0)?,
            buffer: VecDeque::new(),
            bundled: 0,
            stall: 0,
            fetched: 0,
            fetched_rtv: None,
            mispredicts_rtv: None,
        }))
    }

    /// The bundle emitted this cycle: indices into `buffer`, truncated
    /// after the first branch (fetch cannot follow a redirect mid-cycle).
    fn bundle<C: CompCtx + ?Sized>(&self, ctx: &C) -> usize {
        if self.stall > 0 {
            return 0;
        }
        let lanes = ctx.width(self.out) as usize;
        let credit = read_int_or(ctx, self.credit_in, lanes as i64).max(0) as usize;
        let n = self.buffer.len().min(lanes).min(credit);
        for (i, instr) in self.buffer.iter().take(n).enumerate() {
            if instr.op_class() == OpClass::Branch {
                return i + 1;
            }
        }
        n
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let n = self.bundle(ctx);
        self.bundled = n;
        for i in 0..n {
            let instr = self.buffer[i];
            ctx.set_output(self.out, i as u32, instr.to_datum());
            if instr.op_class() == OpClass::Branch {
                ctx.set_output(self.bp_lookup, i as u32, Datum::Int(instr.pc));
                ctx.set_output(
                    self.bp_update,
                    i as u32,
                    Datum::Int(instr.pc * 2 + instr.taken),
                );
            }
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let n = std::mem::take(&mut self.bundled);
        // Mispredict check for branches in the emitted bundle.
        for i in 0..n {
            let instr = self.buffer[i];
            if instr.op_class() != OpClass::Branch {
                continue;
            }
            let predicted = if ctx.width(self.bp_pred) > 0 {
                match ctx.input(self.bp_pred, i as u32) {
                    Some(Datum::Int(p)) => p,
                    _ => self.default_pred,
                }
            } else if self.default_pred == 2 {
                instr.taken // oracle
            } else {
                self.default_pred
            };
            if predicted != instr.taken {
                self.stall = self.penalty;
                let id = self.mispredicts_rtv.expect("resolved in init");
                let m = ctx.rtv_by_id(id).as_int().unwrap_or(0);
                ctx.set_rtv_by_id(id, Datum::Int(m + 1));
            }
        }
        self.buffer.drain(..n);
        if self.stall > 0 && n == 0 {
            self.stall -= 1;
        }
        // Refill the prefetch buffer.
        let lanes = ctx.width(self.out) as usize;
        while self.buffer.len() < lanes.max(1) * 2 && self.fetched < self.n_instrs {
            self.buffer.push_back(self.workload.next_instr());
            self.fetched += 1;
        }
        let id = self.fetched_rtv.expect("resolved in init");
        ctx.set_rtv_by_id(id, Datum::Int(self.fetched as i64));
        Ok(())
    }
}

impl Component for Fetch {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let fetched_rtv = ctx.ensure_rtv("fetched", Datum::Int(0));
        self.fetched_rtv = Some(fetched_rtv);
        self.mispredicts_rtv = Some(ctx.ensure_rtv("mispredicts", Datum::Int(0)));
        // Prefill the prefetch buffer so the first cycle can issue.
        let lanes = ctx.width(self.out) as usize;
        while self.buffer.len() < lanes.max(1) * 2 && self.fetched < self.n_instrs {
            self.buffer.push_back(self.workload.next_instr());
            self.fetched += 1;
        }
        ctx.set_rtv_by_id(fetched_rtv, Datum::Int(self.fetched as i64));
        Ok(())
    }

    eval_body!();
    end_of_timestep_body!();
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// `corelib/decode.tar` — combinational decode: normalizes each
/// instruction's latency field from its op class and forwards it; the
/// downstream credit is forwarded upstream unchanged.
///
/// Ports: `in`/`out` (instr, W lanes), `credit_in` (int in, optional),
/// `credit` (int out, optional).
pub struct Decode {
    inp: usize,
    out: usize,
    credit_in: usize,
    credit: usize,
}

impl Decode {
    /// Data and credit run on independent paths: `out` forwards `in`,
    /// `credit` forwards `credit_in`. No state.
    pub const DEPS: Deps = Deps {
        outputs: &[("out", &["in"]), ("credit", &["credit_in"])],
        ..Deps::STATELESS
    };

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Decode {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
            credit_in: spec.port_index("credit_in")?,
            credit: spec.port_index("credit")?,
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.out) {
            if let Some(mut instr) = instr_at(ctx, self.inp, lane)? {
                instr.lat = instr.op_class().latency();
                ctx.set_output(self.out, lane, instr.to_datum());
            }
        }
        if ctx.width(self.credit) > 0 {
            let credit = read_int_or(ctx, self.credit_in, ctx.width(self.out) as i64);
            ctx.set_output(self.credit, 0, Datum::Int(credit));
        }
        Ok(())
    }
}

impl Component for Decode {
    eval_body!();
}

// ---------------------------------------------------------------------------
// Dispatch (Tomasulo-style router to reservation stations)
// ---------------------------------------------------------------------------

/// `corelib/dispatch.tar` — in-order dispatch of buffered instructions to
/// per-class output lanes (reservation-station queues in the Tomasulo
/// models).
///
/// Ports: `in` (instr, W), `credit` (int out), `out` (instr, F lanes),
/// `rs_credit` (int in, F lanes: free space in each downstream station).
///
/// Parameters: `depth` (internal buffer), `classes` (int array, one class
/// code per output lane; 0 = accepts any).
pub struct Dispatch {
    inp: usize,
    credit: usize,
    out: usize,
    rs_credit: usize,
    depth: usize,
    classes: Vec<i64>,
    buf: VecDeque<Instr>,
    /// Entries this cycle's last `eval` routed (always a prefix of `buf`).
    routed: usize,
    /// Declared contract on `in` (group name, annotation span).
    contract: (String, Option<SrcSpan>),
}

impl Dispatch {
    /// Routing reads the stations' credits; `credit` is free buffer space —
    /// pure state — and `in` is buffered at the end of the cycle.
    pub const DEPS: Deps = Deps {
        outputs: &[("out", &["rs_credit"]), ("credit", &[])],
        ..Deps::reading(&["rs_credit"])
    };

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let out = spec.port_index("out")?;
        let classes = classes_param(spec, spec.ports[out].width)?;
        let inp = spec.port_index("in")?;
        Ok(Box::new(Dispatch {
            inp,
            credit: spec.port_index("credit")?,
            out,
            rs_credit: spec.port_index("rs_credit")?,
            depth: spec.int_param_or("depth", 8)?.max(1) as usize,
            classes,
            buf: VecDeque::new(),
            routed: 0,
            contract: spec.protocol_context(inp),
        }))
    }

    /// In-order routing decision: (buffer index, out lane) pairs.
    fn route<C: CompCtx + ?Sized>(&self, ctx: &C) -> Vec<(usize, u32)> {
        let lanes = ctx.width(self.out) as usize;
        let mut lane_used = vec![false; lanes];
        let mut lane_credit: Vec<i64> = (0..lanes)
            .map(|lane| match ctx.input(self.rs_credit, lane as u32) {
                Some(Datum::Int(v)) => v,
                _ => 0,
            })
            .collect();
        let mut routed = Vec::new();
        for (i, instr) in self.buf.iter().enumerate() {
            let op = instr.op_class();
            let mut placed = false;
            for lane in 0..lanes {
                if !lane_used[lane]
                    && lane_credit[lane] > 0
                    && op.accepted_by(*self.classes.get(lane).unwrap_or(&0))
                {
                    lane_used[lane] = true;
                    lane_credit[lane] -= 1;
                    routed.push((i, lane as u32));
                    placed = true;
                    break;
                }
            }
            if !placed {
                break; // in-order dispatch stalls behind the head
            }
        }
        routed
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let routed = self.route(ctx);
        self.routed = routed.len();
        for (i, lane) in routed {
            ctx.set_output(self.out, lane, self.buf[i].to_datum());
        }
        let free = (self.depth - self.buf.len()) as i64;
        if ctx.width(self.credit) > 0 {
            ctx.set_output(self.credit, 0, Datum::Int(free));
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        // Routed entries are a prefix (in-order), so drain from the front.
        self.buf.drain(..std::mem::take(&mut self.routed));
        for lane in 0..ctx.width(self.inp) {
            if let Some(instr) = instr_at(ctx, self.inp, lane)? {
                if self.buf.len() >= self.depth {
                    return Err(SimError::protocol_violation(
                        &self.contract.0,
                        "dispatch buffer overflow: producer sent beyond the advertised credit",
                        self.contract.1,
                    ));
                }
                self.buf.push_back(instr);
            }
        }
        Ok(())
    }
}

impl Component for Dispatch {
    eval_body!();
    end_of_timestep_body!();
}

// ---------------------------------------------------------------------------
// Issue window
// ---------------------------------------------------------------------------

/// `corelib/issue.tar` — a unified issue window with register scoreboarding.
///
/// Ports: `in` (instr, W), `credit` (int out), `out` (instr, F lanes, one
/// per functional unit), `fu_credit` (int in, F lanes), `complete` (instr
/// in, F lanes — completed instructions whose destinations become ready).
///
/// Parameters: `window` (entries), `width` (max issues/cycle), `in_order`
/// (1 = issue strictly in program order — the static-scheduling
/// configuration the paper's model D/E exploration toggles), `classes`
/// (int array per FU lane).
pub struct Issue {
    inp: usize,
    credit: usize,
    out: usize,
    fu_credit: usize,
    complete: usize,
    window_size: usize,
    issue_width: usize,
    in_order: bool,
    classes: Vec<i64>,
    window: VecDeque<Instr>,
    /// In-flight destination registers (register → writers outstanding).
    pending: HashMap<i64, u32>,
    /// This cycle's last `eval` selection, committed at end of cycle.
    picks: Vec<(usize, u32)>,
    /// Declared contract on `in` (group name, annotation span).
    contract: (String, Option<SrcSpan>),
}

impl Issue {
    /// Picks read the units' credits; `credit` is free window space — pure
    /// state — and `in` and `complete` land at the end of the cycle.
    pub const DEPS: Deps = Deps {
        outputs: &[("out", &["fu_credit"]), ("credit", &[])],
        ..Deps::reading(&["fu_credit"])
    };

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let out = spec.port_index("out")?;
        let classes = classes_param(spec, spec.ports[out].width)?;
        let inp = spec.port_index("in")?;
        Ok(Box::new(Issue {
            inp,
            credit: spec.port_index("credit")?,
            out,
            fu_credit: spec.port_index("fu_credit")?,
            complete: spec.port_index("complete")?,
            window_size: spec.int_param_or("window", 16)?.max(1) as usize,
            issue_width: spec.int_param_or("width", 4)?.max(1) as usize,
            in_order: spec.flag_param("in_order", false)?,
            classes,
            window: VecDeque::new(),
            pending: HashMap::new(),
            picks: Vec::new(),
            contract: spec.protocol_context(inp),
        }))
    }

    fn reg_ready(&self, reg: i64) -> bool {
        reg < 0 || !self.pending.contains_key(&reg)
    }

    /// The issue selection: (window index, out lane) pairs.
    fn select<C: CompCtx + ?Sized>(&self, ctx: &C) -> Vec<(usize, u32)> {
        let lanes = ctx.width(self.out) as usize;
        let mut lane_used = vec![false; lanes];
        let mut lane_credit: Vec<i64> = (0..lanes)
            .map(|lane| match ctx.input(self.fu_credit, lane as u32) {
                Some(Datum::Int(v)) => v,
                _ => 0,
            })
            .collect();
        let mut picks = Vec::new();
        for (i, instr) in self.window.iter().enumerate() {
            if picks.len() >= self.issue_width {
                break;
            }
            let op = instr.op_class();
            // RAW on sources; conservative WAW on destination.
            let ready = self.reg_ready(instr.src1)
                && self.reg_ready(instr.src2)
                && self.reg_ready(instr.dst);
            let mut placed = false;
            if ready {
                for lane in 0..lanes {
                    if !lane_used[lane]
                        && lane_credit[lane] > 0
                        && op.accepted_by(*self.classes.get(lane).unwrap_or(&0))
                    {
                        lane_used[lane] = true;
                        lane_credit[lane] -= 1;
                        picks.push((i, lane as u32));
                        placed = true;
                        break;
                    }
                }
            }
            if self.in_order && !placed {
                break; // younger instructions cannot bypass the stalled head
            }
        }
        picks
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        self.picks = self.select(ctx);
        for &(i, lane) in &self.picks {
            ctx.set_output(self.out, lane, self.window[i].to_datum());
        }
        if ctx.width(self.credit) > 0 {
            let free = (self.window_size - self.window.len()) as i64;
            ctx.set_output(self.credit, 0, Datum::Int(free));
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let picks = std::mem::take(&mut self.picks);
        // Mark issued destinations pending, then remove from the window
        // back-to-front so indices stay valid.
        let mut indices: Vec<usize> = Vec::with_capacity(picks.len());
        for (i, _) in &picks {
            let instr = self.window[*i];
            if instr.dst >= 0 {
                *self.pending.entry(instr.dst).or_insert(0) += 1;
            }
            indices.push(*i);
        }
        indices.sort_unstable_by(|a, b| b.cmp(a));
        for i in indices {
            self.window.remove(i);
        }
        // Completions release destinations.
        for lane in 0..ctx.width(self.complete) {
            if let Some(instr) = instr_at(ctx, self.complete, lane)? {
                if instr.dst >= 0 {
                    if let Some(count) = self.pending.get_mut(&instr.dst) {
                        *count -= 1;
                        if *count == 0 {
                            self.pending.remove(&instr.dst);
                        }
                    }
                }
            }
        }
        // Accept arrivals.
        for lane in 0..ctx.width(self.inp) {
            if let Some(instr) = instr_at(ctx, self.inp, lane)? {
                if self.window.len() >= self.window_size {
                    return Err(SimError::protocol_violation(
                        &self.contract.0,
                        "issue window overflow: producer sent beyond the advertised credit",
                        self.contract.1,
                    ));
                }
                self.window.push_back(instr);
            }
        }
        Ok(())
    }
}

impl Component for Issue {
    eval_body!();
    end_of_timestep_body!();
}

// ---------------------------------------------------------------------------
// Functional unit
// ---------------------------------------------------------------------------

/// `corelib/fu.tar` — a functional unit with an address-generation stage
/// for memory operations and optional cache-port and CDB-grant interfaces.
///
/// Ports: `in` (instr, 1 lane, consumed at end of cycle), `credit` (int
/// out: 1 when a new instruction can be accepted next cycle), `done`
/// (instr out, one value on every connected lane — fan out to commit and
/// the issue window), `grant_in` (int in, optional: hold results until a
/// CDB arbiter grants), `mem_req` (int out, optional), `mem_resp` (int in,
/// optional: access latency from the attached cache/memory).
///
/// Parameters: `pipelined` (1 = accept a new instruction every cycle),
/// `max_inflight`.
pub struct Fu {
    inp: usize,
    credit: usize,
    done: usize,
    grant_in: usize,
    mem_req: usize,
    mem_resp: usize,
    pipelined: bool,
    max_inflight: usize,
    /// Instruction in the address-generation stage (just accepted).
    agen: Option<Instr>,
    /// Executing instructions with remaining cycle counts.
    in_flight: Vec<(Instr, i64)>,
    /// Finished instructions awaiting the (optional) CDB grant.
    done_buf: VecDeque<Instr>,
    /// Declared contract on `in` (group name, annotation span).
    contract: (String, Option<SrcSpan>),
}

impl Fu {
    /// Its outputs are pipeline state; every input lands at the end of the
    /// cycle.
    pub const DEPS: Deps = Deps::REGISTERED;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let inp = spec.port_index("in")?;
        Ok(Box::new(Fu {
            inp,
            credit: spec.port_index("credit")?,
            done: spec.port_index("done")?,
            grant_in: spec.port_index("grant_in")?,
            mem_req: spec.port_index("mem_req")?,
            mem_resp: spec.port_index("mem_resp")?,
            pipelined: spec.flag_param("pipelined", false)?,
            max_inflight: spec.int_param_or("max_inflight", 8)?.max(1) as usize,
            agen: None,
            in_flight: Vec::new(),
            done_buf: VecDeque::new(),
            contract: spec.protocol_context(inp),
        }))
    }

    fn can_accept(&self) -> bool {
        if self.agen.is_some() || self.done_buf.len() >= self.max_inflight {
            return false;
        }
        if self.pipelined {
            self.in_flight.len() < self.max_inflight
        } else {
            self.in_flight.is_empty()
        }
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        // Address generation: memory ops probe the cache one cycle after
        // acceptance.
        if let Some(instr) = &self.agen {
            let op = instr.op_class();
            if op.is_mem() && ctx.width(self.mem_req) > 0 {
                ctx.set_output(self.mem_req, 0, Datum::Int(instr.tgt));
            }
        }
        if let Some(front) = self.done_buf.front() {
            // One datum shared by every fanned-out lane.
            let done = front.to_datum();
            for lane in 0..ctx.width(self.done) {
                ctx.set_output(self.done, lane, done.clone());
            }
        }
        if ctx.width(self.credit) > 0 {
            ctx.set_output(self.credit, 0, Datum::Int(self.can_accept() as i64));
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        // Retire the granted result (or unconditionally without an arbiter).
        if !self.done_buf.is_empty() {
            let granted = if ctx.width(self.grant_in) > 0 {
                matches!(ctx.input(self.grant_in, 0), Some(Datum::Int(v)) if v != 0)
            } else {
                true
            };
            if granted {
                self.done_buf.pop_front();
            }
        }
        // Move the agen-stage instruction into execution, with its latency
        // possibly provided by the attached memory hierarchy; then advance,
        // so a 1-cycle operation completes in the same step it enters.
        if let Some(instr) = self.agen.take() {
            let op = instr.op_class();
            let lat = if op.is_mem() && ctx.width(self.mem_resp) > 0 {
                match ctx.input(self.mem_resp, 0) {
                    Some(Datum::Int(l)) => l.max(1),
                    _ => instr.lat.max(1),
                }
            } else {
                instr.lat.max(1)
            };
            self.in_flight.push((instr, lat));
        }
        let mut finished = Vec::new();
        for (i, (_, remaining)) in self.in_flight.iter_mut().enumerate() {
            *remaining -= 1;
            if *remaining <= 0 {
                finished.push(i);
            }
        }
        for &i in finished.iter().rev() {
            let (instr, _) = self.in_flight.remove(i);
            self.done_buf.push_back(instr);
        }
        // Accept a new instruction.
        if let Some(instr) = instr_at(ctx, self.inp, 0)? {
            if self.agen.is_some() {
                return Err(SimError::protocol_violation(
                    &self.contract.0,
                    "functional unit overflow: producer sent beyond the advertised credit",
                    self.contract.1,
                ));
            }
            self.agen = Some(instr);
        }
        Ok(())
    }
}

impl Component for Fu {
    eval_body!();
    end_of_timestep_body!();
}

// ---------------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------------

/// `corelib/commit.tar` — counts completed instructions and cycles; the
/// CPI statistics source.
///
/// Ports: `in` (instr, F lanes). Runtime variables (declared by the
/// corelib module): `committed`, `cycles`, `branches`, `memops`. Emits a
/// `commit(pc)` event per instruction.
pub struct Commit {
    inp: usize,
    committed: Option<RtvId>,
    branches: Option<RtvId>,
    memops: Option<RtvId>,
    cycles: Option<RtvId>,
    commit_ev: Option<EventId>,
}

impl Commit {
    /// Retirement is counted at the end of the cycle.
    pub const DEPS: Deps = Deps::REGISTERED;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Commit {
            inp: spec.port_index("in")?,
            committed: None,
            branches: None,
            memops: None,
            cycles: None,
            commit_ev: None,
        }))
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let committed_id = self.committed.expect("resolved in init");
        let branches_id = self.branches.expect("resolved in init");
        let memops_id = self.memops.expect("resolved in init");
        let cycles_id = self.cycles.expect("resolved in init");
        let mut committed = ctx.rtv_by_id(committed_id).as_int().unwrap_or(0);
        let mut branches = ctx.rtv_by_id(branches_id).as_int().unwrap_or(0);
        let mut memops = ctx.rtv_by_id(memops_id).as_int().unwrap_or(0);
        for lane in 0..ctx.width(self.inp) {
            if let Some(instr) = instr_at(ctx, self.inp, lane)? {
                committed += 1;
                match instr.op_class() {
                    OpClass::Branch => branches += 1,
                    OpClass::Load | OpClass::Store => memops += 1,
                    _ => {}
                }
                if let Some(ev) = self.commit_ev {
                    ctx.emit_by_id(ev, vec![Datum::Int(instr.pc)]);
                }
            }
        }
        ctx.set_rtv_by_id(committed_id, Datum::Int(committed));
        ctx.set_rtv_by_id(branches_id, Datum::Int(branches));
        ctx.set_rtv_by_id(memops_id, Datum::Int(memops));
        let cycles = ctx.rtv_by_id(cycles_id).as_int().unwrap_or(0) + 1;
        ctx.set_rtv_by_id(cycles_id, Datum::Int(cycles));
        Ok(())
    }
}

impl Component for Commit {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.committed = Some(ctx.ensure_rtv("committed", Datum::Int(0)));
        self.branches = Some(ctx.ensure_rtv("branches", Datum::Int(0)));
        self.memops = Some(ctx.ensure_rtv("memops", Datum::Int(0)));
        self.cycles = Some(ctx.ensure_rtv("cycles", Datum::Int(0)));
        self.commit_ev = ctx.event_id("commit");
        Ok(())
    }

    fn eval(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        Ok(())
    }

    end_of_timestep_body!();
}

// ---------------------------------------------------------------------------
// Branch predictor
// ---------------------------------------------------------------------------

/// `corelib/bp.tar` — a table of 2-bit saturating counters with an optional
/// branch target buffer.
///
/// Ports: `lookup` (int in, W lanes — PCs), `pred` (int out, W lanes,
/// combinational: 1 = predict taken), `update` (int in, W lanes, encoded
/// `pc*2+taken`, learned at end of cycle), `branch_target` (int out, W
/// lanes, optional — present only when the model connects it; the corelib
/// module sets `has_btb` from `branch_target.width`, the paper's §6.1 BTB
/// example).
///
/// Parameters: `entries`, `has_btb`. Emits `lookup_miss(int)` events when
/// the BTB has no entry.
pub struct BranchPred {
    lookup: usize,
    pred: usize,
    update: usize,
    branch_target: usize,
    entries: usize,
    has_btb: bool,
    lookup_miss_ev: Option<EventId>,
    counters: Vec<u8>,
    btb: HashMap<i64, i64>,
}

impl BranchPred {
    /// Lookups are combinational; updates are learned at the end of the
    /// cycle.
    pub const DEPS: Deps = Deps::reading(&["lookup"]);

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let entries = spec.int_param_or("entries", 1024)?.max(1) as usize;
        Ok(Box::new(BranchPred {
            lookup: spec.port_index("lookup")?,
            pred: spec.port_index("pred")?,
            update: spec.port_index("update")?,
            branch_target: spec.port_index("branch_target")?,
            entries,
            has_btb: spec.flag_param("has_btb", false)?,
            lookup_miss_ev: None,
            counters: vec![1; entries], // weakly not-taken
            btb: HashMap::new(),
        }))
    }

    fn index(&self, pc: i64) -> usize {
        ((pc / 4).rem_euclid(self.entries as i64)) as usize
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.lookup) {
            let Some(Datum::Int(pc)) = ctx.input(self.lookup, lane) else {
                continue;
            };
            let taken = self.counters[self.index(pc)] >= 2;
            ctx.set_output(self.pred, lane, Datum::Int(taken as i64));
            if self.has_btb {
                match self.btb.get(&pc) {
                    Some(&tgt) => ctx.set_output(self.branch_target, lane, Datum::Int(tgt)),
                    None => {
                        if let Some(ev) = self.lookup_miss_ev {
                            ctx.emit_by_id(ev, vec![Datum::Int(pc)]);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.update) {
            let Some(Datum::Int(enc)) = ctx.input(self.update, lane) else {
                continue;
            };
            let (pc, taken) = (enc.div_euclid(2), enc.rem_euclid(2) == 1);
            let idx = self.index(pc);
            let c = &mut self.counters[idx];
            if taken {
                *c = (*c + 1).min(3);
            } else {
                *c = c.saturating_sub(1);
            }
            if self.has_btb && taken {
                // Learn targets of taken branches (bounded table).
                if self.btb.len() >= self.entries {
                    self.btb.clear();
                }
                self.btb.insert(pc, pc + 4);
            }
        }
        Ok(())
    }
}

impl Component for BranchPred {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.lookup_miss_ev = ctx.event_id("lookup_miss");
        Ok(())
    }

    eval_body!();
    end_of_timestep_body!();
}
