//! The static scheduler's execution plan and staged kernel evaluation.
//!
//! `lss-analyze`'s `Condensation::stages` groups the SCCs of the analyzer's
//! Tarjan condensation into *stages* — sets of mutually independent
//! schedule units, in dependency order. The plan records, per stage, which
//! units run as devirtualized [`Kernel`](crate::kernel::Kernel)s and which
//! stay on the serial dyn `Component` path (behaviors without a lowering,
//! and fixpoint blocks, which need the dyn path's change detection).
//!
//! Execution is deterministic by construction: kernels buffer their writes
//! and the engine commits each stage's buffer at a stage barrier, so the
//! arena a stage reads never depends on evaluation order *within* the
//! stage. That makes the multi-threaded path (`std::thread::scope` over
//! chunks of a stage's kernel range) byte-identical to single-threaded
//! execution — pinned by the `--threads 1/2/8` determinism test.

use std::collections::VecDeque;

use lss_types::Datum;

use crate::component::SimError;
use crate::kernel::KernelUnit;

/// Deliberately injected kernel-stage bugs, in the spirit of
/// `lss-verify`'s `Mutation` knob on the reference simulator: each breaks
/// an invariant the staged executor relies on, and the differential
/// harness must catch (and minimize) the resulting trace divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMutation {
    /// Correct execution.
    #[default]
    None,
    /// A stale stage commit: the last buffered write of every stage is
    /// dropped, as if one kernel's output buffer never made it into the
    /// arena.
    StaleCommit,
    /// A skipped stage barrier: all kernel writes are held back and
    /// committed only after the whole settle pass, so downstream stages
    /// read cycle-start (absent) values instead of their inputs.
    SkipBarrier,
}

impl KernelMutation {
    /// Parses a CLI name (`stale-commit`, `skip-barrier`).
    pub fn parse(name: &str) -> Option<KernelMutation> {
        match name {
            "stale-commit" => Some(KernelMutation::StaleCommit),
            "skip-barrier" => Some(KernelMutation::SkipBarrier),
            _ => None,
        }
    }
}

/// One serial (non-kernel) unit of a stage.
#[derive(Debug, Clone, Copy)]
pub struct SerialStep {
    /// Window start into [`CompiledPlan::serial_order`].
    pub start: usize,
    /// Window length.
    pub len: usize,
    /// True for a combinational-cycle fixpoint block.
    pub fixpoint: bool,
}

/// One stage of the static plan: a window of kernels (mutually
/// independent, barrier-committed) plus a window of serial steps.
#[derive(Debug, Clone, Copy)]
pub struct StageInfo {
    /// Kernel window start into the engine's kernel vector.
    pub kstart: usize,
    /// Kernel window length.
    pub klen: usize,
    /// Serial-step window start into [`CompiledPlan::serial_steps`].
    pub sstart: usize,
    /// Serial-step window length.
    pub slen: usize,
}

/// The staged schedule the static scheduler executes.
#[derive(Debug, Clone, Default)]
pub struct CompiledPlan {
    /// Stages in dependency order.
    pub stages: Vec<StageInfo>,
    /// Serial steps, windowed by [`StageInfo`].
    pub serial_steps: Vec<SerialStep>,
    /// Component indices backing the serial steps.
    pub serial_order: Vec<usize>,
}

/// Below this many kernels in a stage, spawning threads costs more than it
/// saves and the engine evaluates the stage inline.
pub const PAR_MIN_KERNELS: usize = 16;

/// Evaluates one stage's kernel window into `out`, sequentially or across
/// a scoped thread pool. Buffered writes are appended in kernel order
/// (chunks re-joined in spawn order), and kernel output slots are disjoint
/// within a stage, so the commit is identical for every thread count.
///
/// On error returns the failing component index with the error, for the
/// engine to locate with its path table.
pub fn eval_stage(
    kernels: &mut [KernelUnit],
    values: &[Option<Datum>],
    cycle: u64,
    seed: i64,
    threads: usize,
    out: &mut Vec<(usize, Datum)>,
) -> Result<(), (usize, SimError)> {
    if threads <= 1 || kernels.len() < PAR_MIN_KERNELS {
        for unit in kernels {
            unit.kernel
                .eval(values, cycle, seed, out)
                .map_err(|e| (unit.comp, e))?;
        }
        return Ok(());
    }
    let chunk = kernels.len().div_ceil(threads);
    type ChunkResult = Result<Vec<(usize, Datum)>, (usize, SimError)>;
    let results: Vec<ChunkResult> = std::thread::scope(|s| {
        let handles: Vec<_> = kernels
            .chunks_mut(chunk)
            .map(|ch| {
                s.spawn(move || {
                    let mut buf = Vec::new();
                    for unit in ch {
                        unit.kernel
                            .eval(values, cycle, seed, &mut buf)
                            .map_err(|e| (unit.comp, e))?;
                    }
                    Ok(buf)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel worker panicked"))
            .collect()
    });
    for r in results {
        out.extend(r?);
    }
    Ok(())
}

/// A batch of lockstep simulations: one netlist compiled once per lane
/// with a per-lane seed, stepped together cycle by cycle. Lane `k`'s trace
/// is byte-identical to a solo [`Simulator`](crate::Simulator) built with
/// `SimOptions::seed = seeds[k]` — the golden batch snapshots pin this.
///
/// This is the substrate for parameter sweeps: the netlist and the staged
/// plan are structurally identical across lanes (only the seed
/// differs), while each lane keeps its own value arena and kernel state.
pub struct BatchSim {
    lanes: Vec<crate::Simulator>,
    seeds: Vec<i64>,
}

impl BatchSim {
    /// Wraps pre-built lanes (use [`crate::build_batch`]).
    pub(crate) fn new(lanes: Vec<crate::Simulator>, seeds: Vec<i64>) -> Self {
        BatchSim { lanes, seeds }
    }

    /// Number of lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The per-lane seeds, in lane order.
    pub fn seeds(&self) -> &[i64] {
        &self.seeds
    }

    /// Read access to one lane's simulator.
    pub fn lane(&self, k: usize) -> &crate::Simulator {
        &self.lanes[k]
    }

    /// Mutable access to one lane's simulator.
    pub fn lane_mut(&mut self, k: usize) -> &mut crate::Simulator {
        &mut self.lanes[k]
    }

    /// Steps every lane one cycle, in lane order. A failing lane aborts the
    /// batch step with its lane index attached.
    pub fn step(&mut self) -> Result<(), SimError> {
        for (k, lane) in self.lanes.iter_mut().enumerate() {
            lane.step().map_err(|e| SimError {
                message: format!("lane {k}: {}", e.message),
                span: e.span,
                budget: e.budget,
            })?;
        }
        Ok(())
    }

    /// Runs `n` lockstep cycles.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }
}

/// Commits one stage's buffered writes into the arena through `write`,
/// applying the injected mutation. Returns writes held back by
/// [`KernelMutation::SkipBarrier`] via `held`.
pub fn commit_stage(
    buf: &mut Vec<(usize, Datum)>,
    mutation: KernelMutation,
    held: &mut VecDeque<(usize, Datum)>,
    mut write: impl FnMut(usize, Datum),
) {
    match mutation {
        KernelMutation::StaleCommit => {
            buf.pop();
        }
        KernelMutation::SkipBarrier => {
            held.extend(buf.drain(..));
            return;
        }
        KernelMutation::None => {}
    }
    for (slot, v) in buf.drain(..) {
        write(slot, v);
    }
}
