//! Compiled per-component kernels: devirtualized corelib behaviors.
//!
//! The dyn path calls `Component::eval` through a vtable, snapshotting
//! outputs for change detection and retracting unwritten lanes — machinery
//! only fixpoint blocks need. For the hot corelib behaviors the netlist
//! already tells us everything at build time, so the static plan lowers
//! each such component into a [`Kernel`]: a monomorphized closure over
//! resolved port *slots* in the flat value arena. Kernel `eval` reads the
//! arena and the kernel's own state and writes its outputs straight into
//! the arena: kernels of one stage never read each other's outputs, so the
//! order they run in within a stage cannot change what they see.
//!
//! Every kernel mirrors its dyn counterpart's observable behavior exactly
//! — same values, same `state_lines()`, same error messages. The
//! equivalence suite (workspace `tests/kernel_equivalence.rs`) and the
//! differential fuzzer check the static engine against the reference
//! simulator, which runs every leaf through its dyn `Component`.

use std::collections::{HashMap, VecDeque};

use lss_netlist::{Instr, KernelAluOp, KernelClass, RtvId, SrcSpan};
use lss_types::Datum;

use crate::component::SimError;
use crate::engine::Core;
use crate::slots::SlotTable;

/// A devirtualized behavior instance: resolved slots plus private state.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// `corelib/source.tar`.
    Source {
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Counter base (`int` overload).
        start: i64,
        /// Fixed value for non-`int` types; `None` selects the counter.
        konst: Option<Datum>,
    },
    /// `corelib/sink.tar`.
    Sink {
        /// Driving slot per `in` lane (`None` = unconnected).
        inp: Vec<Option<usize>>,
        /// The `count` runtime variable.
        count: RtvId,
    },
    /// `corelib/delay.tar`.
    Delay {
        /// Driving slot of `in[0]`.
        inp0: Option<usize>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Register state.
        state: Datum,
    },
    /// `corelib/latch.tar`.
    Latch {
        /// Driving slot per `in` lane.
        inp: Vec<Option<usize>>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
        /// Per-lane register state.
        state: Vec<Option<Datum>>,
    },
    /// `corelib/tee.tar`.
    Tee {
        /// Driving slot of `in[0]`.
        inp0: Option<usize>,
        /// Output slots, one per `out` lane.
        out: Vec<usize>,
    },
    /// `corelib/queue.tar`.
    Queue(Box<QueueKernel>),
    /// `corelib/alu.tar`.
    Alu {
        /// Driving slot per `a` lane.
        a: Vec<Option<usize>>,
        /// Driving slot per `b` lane.
        b: Vec<Option<usize>>,
        /// Output slots, one per `res` lane.
        res: Vec<usize>,
        /// Operation.
        op: KernelAluOp,
        /// Float overload family member.
        float: bool,
    },
    /// `corelib/issue.tar`.
    Issue(Box<IssueKernel>),
    /// `corelib/fu.tar`.
    Fu(Box<FuKernel>),
}

/// [`Kernel::Queue`] state, boxed to keep the enum small.
#[derive(Debug, Clone)]
pub struct QueueKernel {
    /// Driving slot per `in` lane.
    inp: Vec<Option<usize>>,
    /// Output slots, one per `out` lane.
    out: Vec<usize>,
    /// Output slots of `credit`.
    credit: Vec<usize>,
    /// Driving slot of `credit_in[0]` (`None` = unconnected).
    credit_in: Option<usize>,
    /// Buffer capacity.
    depth: usize,
    /// FIFO state.
    buf: VecDeque<Datum>,
    /// Protocol group for overflow diagnostics.
    group: String,
    /// Annotation span for overflow diagnostics.
    span: Option<SrcSpan>,
}

/// [`Kernel::Issue`] state, boxed to keep the enum small.
#[derive(Debug, Clone)]
pub struct IssueKernel {
    /// Driving slot per `in` lane.
    inp: Vec<Option<usize>>,
    /// Output slots of `credit`.
    credit: Vec<usize>,
    /// Output slots, one per `out` lane.
    out: Vec<usize>,
    /// Driving slot per `fu_credit` lane.
    fu_credit: Vec<Option<usize>>,
    /// Driving slot per `complete` lane.
    complete: Vec<Option<usize>>,
    /// Window capacity.
    window_size: usize,
    /// Maximum issues per cycle.
    issue_width: usize,
    /// Strict program-order issue when set.
    in_order: bool,
    /// Per-out-lane accepted op-class codes (0 = any).
    classes: Vec<i64>,
    /// The issue window.
    window: VecDeque<Instr>,
    /// In-flight destination registers (register → writers outstanding).
    pending: HashMap<i64, u32>,
    /// Selection computed in `eval`, reused by `end_of_timestep` (the
    /// arena cannot change in between on a lowered component).
    picks: Vec<(usize, u32)>,
    /// Protocol group for overflow diagnostics.
    group: String,
    /// Annotation span for overflow diagnostics.
    span: Option<SrcSpan>,
}

/// [`Kernel::Fu`] state, boxed to keep the enum small.
#[derive(Debug, Clone)]
pub struct FuKernel {
    /// Driving slot per `in` lane.
    inp: Vec<Option<usize>>,
    /// Output slots of `credit`.
    credit: Vec<usize>,
    /// Output slots, one per `done` lane.
    done: Vec<usize>,
    /// Driving slot per `grant_in` lane.
    grant_in: Vec<Option<usize>>,
    /// Output slots of `mem_req`.
    mem_req: Vec<usize>,
    /// Driving slot per `mem_resp` lane.
    mem_resp: Vec<Option<usize>>,
    /// Accept a new instruction every cycle when set.
    pipelined: bool,
    /// In-flight capacity.
    max_inflight: usize,
    /// Instruction in the address-generation stage.
    agen: Option<Instr>,
    /// Executing instructions with remaining cycle counts.
    in_flight: Vec<(Instr, i64)>,
    /// Finished instructions awaiting the (optional) CDB grant.
    done_buf: VecDeque<Instr>,
    /// Protocol group for overflow diagnostics.
    group: String,
    /// Annotation span for overflow diagnostics.
    span: Option<SrcSpan>,
}

fn reg_ready(pending: &HashMap<i64, u32>, reg: i64) -> bool {
    reg < 0 || !pending.contains_key(&reg)
}

/// The issue selection: (window index, out lane) pairs. Pure function of
/// the settled arena and the window/scoreboard state.
#[allow(clippy::too_many_arguments)]
fn issue_select(
    values: &[Option<Datum>],
    window: &VecDeque<Instr>,
    pending: &HashMap<i64, u32>,
    fu_credit: &[Option<usize>],
    out_lanes: usize,
    classes: &[i64],
    issue_width: usize,
    in_order: bool,
) -> Vec<(usize, u32)> {
    let mut lane_used = vec![false; out_lanes];
    let mut lane_credit: Vec<i64> = (0..out_lanes)
        .map(|lane| {
            match fu_credit
                .get(lane)
                .copied()
                .flatten()
                .and_then(|s| values[s].as_ref())
            {
                Some(Datum::Int(v)) => *v,
                _ => 0,
            }
        })
        .collect();
    let mut picks = Vec::new();
    for (i, instr) in window.iter().enumerate() {
        if picks.len() >= issue_width {
            break;
        }
        let op = instr.op_class();
        // RAW on sources; conservative WAW on destination.
        let ready = reg_ready(pending, instr.src1)
            && reg_ready(pending, instr.src2)
            && reg_ready(pending, instr.dst);
        let mut placed = false;
        if ready {
            for (lane, used) in lane_used.iter_mut().enumerate() {
                if !*used
                    && lane_credit[lane] > 0
                    && op.accepted_by(*classes.get(lane).unwrap_or(&0))
                {
                    *used = true;
                    lane_credit[lane] -= 1;
                    picks.push((i, lane as u32));
                    placed = true;
                    break;
                }
            }
        }
        if in_order && !placed {
            break; // younger instructions cannot bypass the stalled head
        }
    }
    picks
}

fn fu_can_accept(
    agen: &Option<Instr>,
    in_flight: &[(Instr, i64)],
    done_buf: &VecDeque<Instr>,
    pipelined: bool,
    max_inflight: usize,
) -> bool {
    if agen.is_some() || done_buf.len() >= max_inflight {
        return false;
    }
    if pipelined {
        in_flight.len() < max_inflight
    } else {
        in_flight.is_empty()
    }
}

/// A kernel bound to its component index (for error location and
/// `end_of_timestep` state access).
#[derive(Debug, Clone)]
pub struct KernelUnit {
    /// The component this kernel executes.
    pub comp: usize,
    /// The devirtualized behavior.
    pub kernel: Kernel,
}

fn read(values: &[Option<Datum>], slot: Option<usize>) -> Option<Datum> {
    values[slot?].clone()
}

fn read_lane(values: &[Option<Datum>], row: &[Option<usize>], lane: usize) -> Option<Datum> {
    values[row.get(lane).copied().flatten()?].clone()
}

/// Unconnected-port semantics for optional integer inputs, mirroring the
/// corelib's `read_int_or`.
fn read_int_or(values: &[Option<Datum>], slot: Option<usize>, default: i64) -> i64 {
    match slot.map(|s| &values[s]) {
        Some(Some(Datum::Int(v))) => *v,
        _ => default,
    }
}

fn queue_emit_count(
    values: &[Option<Datum>],
    buf_len: usize,
    out_lanes: usize,
    credit_in: Option<usize>,
) -> usize {
    let allowed = read_int_or(values, credit_in, out_lanes as i64).max(0) as usize;
    buf_len.min(out_lanes).min(allowed)
}

impl Kernel {
    /// Combinational evaluation: reads the arena's settled inputs and
    /// writes this kernel's outputs into it through [`Core::write`]. Stage
    /// peers never read each other's outputs, so the writes need no
    /// buffering. `&mut self` exists only so a kernel may cache work for
    /// its own `end_of_timestep` (the issue window's selection, for
    /// example) — a kernel runs exactly once per cycle, after its
    /// combinational inputs are final, so such caching is sound on the
    /// non-cyclic components the engine lowers.
    pub(crate) fn eval(&mut self, core: &mut Core) -> Result<(), SimError> {
        match self {
            Kernel::Source {
                out: lanes,
                start,
                konst,
            } => {
                let value = match konst {
                    Some(d) => d.clone(),
                    None => Datum::Int(*start + core.seed + core.cycle as i64),
                };
                for &s in lanes.iter() {
                    core.write(s, value.clone());
                }
            }
            Kernel::Sink { .. } => {}
            Kernel::Delay {
                out: lanes, state, ..
            } => {
                for &s in lanes.iter() {
                    core.write(s, state.clone());
                }
            }
            Kernel::Latch {
                out: lanes, state, ..
            } => {
                for (lane, &s) in lanes.iter().enumerate() {
                    if let Some(v) = state.get(lane).cloned().flatten() {
                        core.write(s, v);
                    }
                }
            }
            Kernel::Tee { inp0, out: lanes } => {
                if let Some(v) = read(&core.values, *inp0) {
                    for &s in lanes.iter() {
                        core.write(s, v.clone());
                    }
                }
            }
            Kernel::Queue(q) => {
                let QueueKernel {
                    out: lanes,
                    credit,
                    credit_in,
                    depth,
                    buf,
                    ..
                } = &mut **q;
                let emit = queue_emit_count(&core.values, buf.len(), lanes.len(), *credit_in);
                for (lane, item) in buf.iter().take(emit).enumerate() {
                    core.write(lanes[lane], item.clone());
                }
                // Credit reflects space at the start of the cycle.
                let free = (*depth - buf.len()) as i64;
                for &s in credit.iter() {
                    core.write(s, Datum::Int(free));
                }
            }
            Kernel::Alu {
                a,
                b,
                res,
                op,
                float,
            } => {
                for (lane, &rs) in res.iter().enumerate() {
                    let (Some(x), Some(y)) = (
                        read_lane(&core.values, a, lane),
                        read_lane(&core.values, b, lane),
                    ) else {
                        continue;
                    };
                    let result = if *float {
                        let (Some(x), Some(y)) = (x.as_float(), y.as_float()) else {
                            return Err(SimError::new("float ALU received non-float data"));
                        };
                        Datum::Float(match op {
                            KernelAluOp::Add => x + y,
                            KernelAluOp::Sub => x - y,
                            KernelAluOp::Mul => x * y,
                        })
                    } else {
                        let (Some(x), Some(y)) = (x.as_int(), y.as_int()) else {
                            return Err(SimError::new("int ALU received non-int data"));
                        };
                        Datum::Int(match op {
                            KernelAluOp::Add => x.wrapping_add(y),
                            KernelAluOp::Sub => x.wrapping_sub(y),
                            KernelAluOp::Mul => x.wrapping_mul(y),
                        })
                    };
                    core.write(rs, result);
                }
            }
            Kernel::Issue(k) => {
                let IssueKernel {
                    credit,
                    out: out_row,
                    fu_credit,
                    window_size,
                    issue_width,
                    in_order,
                    classes,
                    window,
                    pending,
                    picks,
                    ..
                } = &mut **k;
                *picks = issue_select(
                    &core.values,
                    window,
                    pending,
                    fu_credit,
                    out_row.len(),
                    classes,
                    *issue_width,
                    *in_order,
                );
                for &(i, lane) in picks.iter() {
                    core.write(out_row[lane as usize], window[i].to_datum());
                }
                if let Some(&s) = credit.first() {
                    let free = (*window_size - window.len()) as i64;
                    core.write(s, Datum::Int(free));
                }
            }
            Kernel::Fu(k) => {
                let FuKernel {
                    credit,
                    done,
                    mem_req,
                    pipelined,
                    max_inflight,
                    agen,
                    in_flight,
                    done_buf,
                    ..
                } = &mut **k;
                // Address generation: memory ops probe the cache one cycle
                // after acceptance.
                if let Some(instr) = agen {
                    if instr.op_class().is_mem() {
                        if let Some(&s) = mem_req.first() {
                            core.write(s, Datum::Int(instr.tgt));
                        }
                    }
                }
                if let Some(front) = done_buf.front() {
                    for &s in done.iter() {
                        core.write(s, front.to_datum());
                    }
                }
                if let Some(&s) = credit.first() {
                    let ok = fu_can_accept(agen, in_flight, done_buf, *pipelined, *max_inflight);
                    core.write(s, Datum::Int(ok as i64));
                }
            }
        }
        Ok(())
    }

    /// False for kernels whose [`Kernel::end_of_timestep`] does nothing;
    /// the engine leaves them out of its per-cycle state-update walk.
    pub fn has_end_of_timestep(&self) -> bool {
        !matches!(
            self,
            Kernel::Source { .. } | Kernel::Tee { .. } | Kernel::Alu { .. }
        )
    }

    /// Synchronous state update after settle, reading committed arena
    /// values. `rtvs` is the owning component's runtime-variable table
    /// (kernels with observable counters, like the sink, keep them visible
    /// to `state_lines()` through it).
    pub fn end_of_timestep(
        &mut self,
        values: &[Option<Datum>],
        rtvs: &mut SlotTable,
    ) -> Result<(), SimError> {
        match self {
            Kernel::Sink { inp, count } => {
                let mut c = rtvs.value(count.index()).as_int().unwrap_or(0);
                for s in inp.iter() {
                    if s.is_some_and(|s| values[s].is_some()) {
                        c += 1;
                    }
                }
                rtvs.set(count.index(), Datum::Int(c));
            }
            Kernel::Delay { inp0, state, .. } => {
                if let Some(v) = read(values, *inp0) {
                    *state = v;
                }
            }
            Kernel::Latch { inp, out, state } => {
                let lanes = inp.len().max(out.len());
                state.resize(lanes, None);
                for (lane, slot) in state.iter_mut().enumerate() {
                    *slot = read_lane(values, inp, lane);
                }
            }
            Kernel::Queue(q) => {
                let QueueKernel {
                    inp,
                    out,
                    credit_in,
                    depth,
                    buf,
                    group,
                    span,
                    ..
                } = &mut **q;
                // Pop what was consumed this cycle, then accept arrivals;
                // overflow means the producer violated credits.
                let emitted = queue_emit_count(values, buf.len(), out.len(), *credit_in);
                buf.drain(..emitted);
                for s in inp.iter() {
                    if let Some(v) = s.and_then(|s| values[s].clone()) {
                        if buf.len() >= *depth {
                            return Err(SimError::protocol_violation(
                                &*group,
                                "queue overflow: producer sent beyond the advertised credit",
                                *span,
                            ));
                        }
                        buf.push_back(v);
                    }
                }
            }
            Kernel::Issue(k) => {
                let IssueKernel {
                    inp,
                    complete,
                    window_size,
                    window,
                    pending,
                    picks,
                    group,
                    span,
                    ..
                } = &mut **k;
                // The selection was computed in this cycle's eval against
                // the same (final) arena; reuse it instead of re-selecting.
                let picks = std::mem::take(picks);
                // Mark issued destinations pending, then remove from the
                // window back-to-front so indices stay valid.
                let mut indices: Vec<usize> = Vec::with_capacity(picks.len());
                for (i, _) in &picks {
                    let instr = window[*i];
                    if instr.dst >= 0 {
                        *pending.entry(instr.dst).or_insert(0) += 1;
                    }
                    indices.push(*i);
                }
                indices.sort_unstable_by(|a, b| b.cmp(a));
                for i in indices {
                    window.remove(i);
                }
                // Completions release destinations.
                for s in complete.iter() {
                    let Some(d) = s.and_then(|s| values[s].as_ref()) else {
                        continue;
                    };
                    let instr = Instr::from_datum(d).ok_or_else(|| {
                        SimError::new(format!("malformed instruction datum: {d}"))
                    })?;
                    if instr.dst >= 0 {
                        if let Some(count) = pending.get_mut(&instr.dst) {
                            *count -= 1;
                            if *count == 0 {
                                pending.remove(&instr.dst);
                            }
                        }
                    }
                }
                // Accept arrivals.
                for s in inp.iter() {
                    let Some(d) = s.and_then(|s| values[s].as_ref()) else {
                        continue;
                    };
                    let instr = Instr::from_datum(d).ok_or_else(|| {
                        SimError::new(format!("malformed instruction datum: {d}"))
                    })?;
                    if window.len() >= *window_size {
                        return Err(SimError::protocol_violation(
                            &*group,
                            "issue window overflow: producer sent beyond the advertised credit",
                            *span,
                        ));
                    }
                    window.push_back(instr);
                }
            }
            Kernel::Fu(k) => {
                let FuKernel {
                    inp,
                    grant_in,
                    mem_resp,
                    agen,
                    in_flight,
                    done_buf,
                    group,
                    span,
                    ..
                } = &mut **k;
                // Retire the granted result (or unconditionally without an
                // arbiter).
                if !done_buf.is_empty() {
                    let granted = if grant_in.is_empty() {
                        true
                    } else {
                        matches!(
                            read_lane(values, grant_in, 0),
                            Some(Datum::Int(v)) if v != 0
                        )
                    };
                    if granted {
                        done_buf.pop_front();
                    }
                }
                // Move the agen-stage instruction into execution, with its
                // latency possibly provided by the attached memory
                // hierarchy; then advance, so a 1-cycle operation completes
                // in the same step it enters.
                if let Some(instr) = agen.take() {
                    let lat = if instr.op_class().is_mem() && !mem_resp.is_empty() {
                        match read_lane(values, mem_resp, 0) {
                            Some(Datum::Int(l)) => l.max(1),
                            _ => instr.lat.max(1),
                        }
                    } else {
                        instr.lat.max(1)
                    };
                    in_flight.push((instr, lat));
                }
                let mut finished = Vec::new();
                for (i, (_, remaining)) in in_flight.iter_mut().enumerate() {
                    *remaining -= 1;
                    if *remaining <= 0 {
                        finished.push(i);
                    }
                }
                for &i in finished.iter().rev() {
                    let (instr, _) = in_flight.remove(i);
                    done_buf.push_back(instr);
                }
                // Accept a new instruction.
                if let Some(d) = read_lane(values, inp, 0) {
                    let instr = Instr::from_datum(&d).ok_or_else(|| {
                        SimError::new(format!("malformed instruction datum: {d}"))
                    })?;
                    if agen.is_some() {
                        return Err(SimError::protocol_violation(
                            &*group,
                            "functional unit overflow: producer sent beyond the advertised credit",
                            *span,
                        ));
                    }
                    *agen = Some(instr);
                }
            }
            Kernel::Source { .. } | Kernel::Tee { .. } | Kernel::Alu { .. } => {}
        }
        Ok(())
    }
}

/// Resolves a behavior's [`KernelClass`] self-description against the
/// component's slot mapping. Returns `None` (leaving the component on the
/// dyn path) when a port index is out of range — a misdescribed class must
/// never crash the build.
pub fn lower(
    comp: usize,
    class: &KernelClass,
    out_slots: &[Vec<usize>],
    in_slots: &[Vec<Option<usize>>],
    rtvs: &mut SlotTable,
) -> Option<KernelUnit> {
    let out_row = |p: usize| out_slots.get(p).cloned();
    let in_row = |p: usize| in_slots.get(p).cloned();
    let kernel = match class {
        KernelClass::Source { out, start, konst } => Kernel::Source {
            out: out_row(*out)?,
            start: *start,
            konst: konst.clone(),
        },
        KernelClass::Sink { inp } => Kernel::Sink {
            inp: in_row(*inp)?,
            count: RtvId::from_index(rtvs.ensure("count", Datum::Int(0))),
        },
        KernelClass::Delay { inp, out, init } => Kernel::Delay {
            inp0: in_row(*inp)?.first().copied().flatten(),
            out: out_row(*out)?,
            state: init.clone(),
        },
        KernelClass::Latch { inp, out } => Kernel::Latch {
            inp: in_row(*inp)?,
            out: out_row(*out)?,
            state: Vec::new(),
        },
        KernelClass::Tee { inp, out } => Kernel::Tee {
            inp0: in_row(*inp)?.first().copied().flatten(),
            out: out_row(*out)?,
        },
        KernelClass::Queue {
            inp,
            out,
            credit,
            credit_in,
            depth,
            group,
            span,
        } => Kernel::Queue(Box::new(QueueKernel {
            inp: in_row(*inp)?,
            out: out_row(*out)?,
            credit: out_row(*credit)?,
            credit_in: in_row(*credit_in)?.first().copied().flatten(),
            depth: *depth,
            buf: VecDeque::new(),
            group: group.clone(),
            span: *span,
        })),
        KernelClass::Alu {
            a,
            b,
            res,
            op,
            float,
        } => Kernel::Alu {
            a: in_row(*a)?,
            b: in_row(*b)?,
            res: out_row(*res)?,
            op: *op,
            float: *float,
        },
        KernelClass::Issue {
            inp,
            credit,
            out,
            fu_credit,
            complete,
            window_size,
            issue_width,
            in_order,
            classes,
            group,
            span,
        } => Kernel::Issue(Box::new(IssueKernel {
            inp: in_row(*inp)?,
            credit: out_row(*credit)?,
            out: out_row(*out)?,
            fu_credit: in_row(*fu_credit)?,
            complete: in_row(*complete)?,
            window_size: *window_size,
            issue_width: *issue_width,
            in_order: *in_order,
            classes: classes.clone(),
            window: VecDeque::new(),
            pending: HashMap::new(),
            picks: Vec::new(),
            group: group.clone(),
            span: *span,
        })),
        KernelClass::Fu {
            inp,
            credit,
            done,
            grant_in,
            mem_req,
            mem_resp,
            pipelined,
            max_inflight,
            group,
            span,
        } => Kernel::Fu(Box::new(FuKernel {
            inp: in_row(*inp)?,
            credit: out_row(*credit)?,
            done: out_row(*done)?,
            grant_in: in_row(*grant_in)?,
            mem_req: out_row(*mem_req)?,
            mem_resp: in_row(*mem_resp)?,
            pipelined: *pipelined,
            max_inflight: *max_inflight,
            agen: None,
            in_flight: Vec::new(),
            done_buf: VecDeque::new(),
            group: group.clone(),
            span: *span,
        })),
    };
    Some(KernelUnit { comp, kernel })
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_enum_stays_small() {
        // ~2k kernels on a wide chain: large variants live behind a box.
        assert!(std::mem::size_of::<super::Kernel>() <= 96);
    }
}
