//! Behavior contracts: an oracle for the promises the static plan takes on
//! trust from every leaf behavior.
//!
//! * **Dependency contract.** A behavior's registered [`Deps`] say which
//!   inputs an output's `eval` value reads. The port-level graph, and so
//!   every `LSS101` verdict and every fixed evaluation sequence, is built
//!   from them. Perturbing an input that an output does not read must
//!   leave that output unchanged.
//! * **Declared no update.** The engine skips `end_of_timestep` for a
//!   behavior declared without one. Running it must leave the next
//!   cycle's outputs and eval events, the runtime variables and the
//!   `end_of_timestep` events as skipping it does.
//! * **Repeatable eval.** A fixed sequence may evaluate a leaf more than
//!   once per cycle, the earlier runs with stale inputs. `eval` with stale
//!   inputs, then `eval` with the final inputs, then `end_of_timestep`
//!   must leave the same outputs, eval events and next-cycle outputs as a
//!   single `eval` with the final inputs. Behaviors that carry state from
//!   `eval` to `end_of_timestep` (Issue, Queue, Fetch, Dispatch) rely on
//!   it most.
//!
//! [`check_contracts`] drives every leaf of a netlist on its own, as the
//! only component of a reference simulator, over random input sequences.
//! Each port's values are drawn from those it carried in a run of the same
//! netlist (so instructions are well formed), from a few small integers on
//! `int` ports, and from "absent". A behavior has internal state that
//! cannot be copied, so each comparison builds fresh instances and replays
//! the same input history into each before the inputs differ.

use std::collections::BTreeSet;
use std::fmt;

use lss_netlist::{Dir, InstanceKind, Netlist};
use lss_sim::{build, BuildError, ComponentRegistry, Deps, SimError, SimOptions};
use lss_types::rng::SplitMix64;
use lss_types::{Datum, Ty};

use crate::refsim::{leaf_parts, LeafParts, RefSim};

/// Distinct values kept per input port.
const POOL_CAP: usize = 32;
/// Seed of the input sequences.
const SEED: u64 = 1;
/// Random trials per leaf.
const TRIALS: usize = 8;
/// Cycles of the run whose port values seed the input pools.
const RECORD_CYCLES: u64 = 40;

/// One broken promise of a behavior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractViolation {
    /// Perturbing `input` changed `output`, though the declaration says
    /// the output does not read it.
    Dependency {
        /// Instance path.
        path: String,
        /// The output that changed.
        output: String,
        /// The perturbed input.
        input: String,
        /// The two outcomes.
        detail: String,
    },
    /// A stale `eval` followed by the final one left a different outcome
    /// than one `eval` with the final inputs.
    Repeat {
        /// Instance path.
        path: String,
        /// What differed.
        detail: String,
    },
    /// The behavior is declared without an update, but skipping its
    /// `end_of_timestep` left a different outcome than running it.
    Update {
        /// Instance path.
        path: String,
        /// What differed.
        detail: String,
    },
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractViolation::Dependency {
                path,
                output,
                input,
                detail,
            } => write!(
                f,
                "{path}: `{output}` changed with `{input}`, which its declaration says it does not read ({detail})"
            ),
            ContractViolation::Repeat { path, detail } => {
                write!(f, "{path}: a repeated eval is not a single eval ({detail})")
            }
            ContractViolation::Update { path, detail } => write!(
                f,
                "{path}: declared without an update, but end_of_timestep matters ({detail})"
            ),
        }
    }
}

/// What one [`check_contracts`] call covered and found.
#[derive(Debug, Clone, Default)]
pub struct ContractReport {
    /// The `tar_file` of every behavior checked.
    pub behaviors: BTreeSet<String>,
    /// Trials whose base run completed, summed over leaves.
    pub trials: usize,
    /// Every violation found.
    pub violations: Vec<ContractViolation>,
}

/// Port values: per port, per lane, the value or absent (an empty list
/// for ports of the other direction).
type Lanes = Vec<Vec<Option<Datum>>>;
/// One evaluation's observable outcome: the outputs and the eval events
/// (rendered), or the error.
type Outcome = Result<(Lanes, String), String>;

/// Checks the declared dependencies, the declared absence of an update and
/// repeatable eval of every leaf of `netlist` (see the module docs).
///
/// # Errors
///
/// The netlist does not build (with `registry`).
pub fn check_contracts(
    netlist: &Netlist,
    registry: &ComponentRegistry,
) -> Result<ContractReport, BuildError> {
    let pools = record_pools(netlist, registry)?;
    let mut rng = SplitMix64::new(SEED);
    let mut report = ContractReport::default();
    for (leaf, inst) in netlist.leaves().enumerate() {
        let InstanceKind::Leaf { tar_file } = &inst.kind else {
            continue;
        };
        let parts = leaf_parts(netlist, inst)?;
        let leaf = Leaf {
            tar_file,
            parts: &parts,
            registry,
            pools: &pools[leaf],
            deps: registry.deps(tar_file),
        };
        report.behaviors.insert(tar_file.clone());
        for _ in 0..TRIALS {
            if leaf.trial(&mut rng, &mut report.violations)? {
                report.trials += 1;
            }
        }
    }
    Ok(report)
}

/// Runs `netlist` for up to [`RECORD_CYCLES`] cycles and collects, per
/// leaf and input port, the distinct values its lanes carried.
fn record_pools(
    netlist: &Netlist,
    registry: &ComponentRegistry,
) -> Result<Vec<Vec<Vec<Datum>>>, BuildError> {
    let leaves: Vec<_> = netlist.leaves().collect();
    let mut pools: Vec<Vec<Vec<Datum>>> = leaves
        .iter()
        .map(|inst| vec![Vec::new(); inst.ports.len()])
        .collect();
    // Small integers on every `int` input: credits and flags a short run
    // may not reach.
    for (pool, inst) in pools.iter_mut().zip(&leaves) {
        for (values, port) in pool.iter_mut().zip(&inst.ports) {
            if port.dir == Dir::In && port.ty == Some(Ty::Int) {
                values.extend((0..4).map(Datum::Int));
            }
        }
    }
    let wires = netlist.flatten();
    let leaf_of = |id| leaves.iter().position(|inst| inst.id == id);
    let mut sim = build(netlist, registry, SimOptions::default())?;
    for _ in 0..RECORD_CYCLES {
        if sim.step().is_err() {
            break;
        }
        for wire in &wires {
            let (Some(src), Some(dst)) = (leaf_of(wire.src.inst), leaf_of(wire.dst.inst)) else {
                continue;
            };
            let port = netlist.name(leaves[src].ports[wire.src.port.index()].name);
            let Some(value) = sim.peek(&leaves[src].path, port, wire.src.index) else {
                continue;
            };
            let pool = &mut pools[dst][wire.dst.port.index()];
            if pool.len() < POOL_CAP && !pool.contains(&value) {
                pool.push(value);
            }
        }
    }
    Ok(pools)
}

/// One leaf under check.
struct Leaf<'a> {
    tar_file: &'a str,
    parts: &'a LeafParts,
    registry: &'a ComponentRegistry,
    /// Per port, the values its lanes may carry.
    pools: &'a [Vec<Datum>],
    /// The behavior's declared scheduling facts.
    deps: Deps,
}

impl Leaf<'_> {
    fn path(&self) -> String {
        self.parts.spec.path.clone()
    }

    /// Random inputs for one cycle; about a third of the lanes absent.
    fn draw(&self, rng: &mut SplitMix64) -> Lanes {
        self.parts
            .spec
            .ports
            .iter()
            .enumerate()
            .map(|(port, p)| match p.dir {
                Dir::In => (0..p.width).map(|_| self.draw_lane(rng, port)).collect(),
                Dir::Out => Vec::new(),
            })
            .collect()
    }

    fn draw_lane(&self, rng: &mut SplitMix64, port: usize) -> Option<Datum> {
        let pool = &self.pools[port];
        if pool.is_empty() || rng.below(3) == 0 {
            return None;
        }
        Some(pool[rng.below(pool.len() as u64) as usize].clone())
    }

    /// A fresh instance that has run `history`, or `None` when the
    /// behavior fails on it.
    fn replay(&self, history: &[Lanes]) -> Result<Option<Probe>, BuildError> {
        let mut probe = Probe::new(self.tar_file, self.parts, self.registry)?;
        for inputs in history {
            probe.begin_cycle(inputs);
            if probe.eval().is_err() || probe.end_of_timestep(true).is_err() {
                return Ok(None);
            }
        }
        Ok(Some(probe))
    }

    /// One trial: a random history, then the final inputs `x` and the
    /// next cycle's `y`. Returns false when the base run fails, which both
    /// checks then skip.
    fn trial(
        &self,
        rng: &mut SplitMix64,
        found: &mut Vec<ContractViolation>,
    ) -> Result<bool, BuildError> {
        let history: Vec<Lanes> = (0..rng.below(5)).map(|_| self.draw(rng)).collect();
        let (x, y, stale) = (self.draw(rng), self.draw(rng), self.draw(rng));
        let Some(mut base) = self.replay(&history)? else {
            return Ok(false);
        };
        base.begin_cycle(&x);
        let Ok(out_x) = base.eval() else {
            return Ok(false);
        };
        if base.end_of_timestep(true).is_err() {
            return Ok(false);
        }
        base.begin_cycle(&y);
        let out_y = base.eval();
        let state_y = base.state();

        // Dependency contract: perturb each input that some output does
        // not read.
        let ports = &self.parts.spec.ports;
        for (input, p) in ports.iter().enumerate() {
            if p.dir != Dir::In || p.width == 0 {
                continue;
            }
            let independent: Vec<usize> = (0..ports.len())
                .filter(|&o| ports[o].dir == Dir::Out && ports[o].width > 0)
                .filter(|&o| !self.deps.output_reads(&ports[o].name, &p.name))
                .collect();
            if independent.is_empty() {
                continue;
            }
            let mut perturbed = x.clone();
            for _ in 0..8 {
                perturbed[input] = (0..p.width).map(|_| self.draw_lane(rng, input)).collect();
                if perturbed[input] != x[input] {
                    break;
                }
            }
            if perturbed[input] == x[input] {
                continue;
            }
            let Some(mut probe) = self.replay(&history)? else {
                continue;
            };
            probe.begin_cycle(&perturbed);
            let outcome = probe.eval();
            for &o in &independent {
                let (got, want) = match (&outcome, &out_x) {
                    (Ok((got, _)), (want, _)) if got[o] == want[o] => continue,
                    (Ok((got, _)), (want, _)) => {
                        (format!("{:?}", got[o]), format!("{:?}", want[o]))
                    }
                    (Err(e), (want, _)) => (e.clone(), format!("{:?}", want[o])),
                };
                found.push(ContractViolation::Dependency {
                    path: self.path(),
                    output: ports[o].name.clone(),
                    input: p.name.clone(),
                    detail: format!("{want} became {got}"),
                });
                break;
            }
        }

        // Declared no update: skip `end_of_timestep` as the engine does.
        if !self.deps.end_of_timestep {
            if let Some(mut probe) = self.replay(&history)? {
                probe.begin_cycle(&x);
                let ended = probe
                    .eval()
                    .and_then(|_| probe.end_of_timestep(false).map_err(|e| e.message));
                probe.begin_cycle(&y);
                let skipped = (ended.and_then(|()| probe.eval()), probe.state());
                if skipped.0 != out_y || skipped.1 != state_y {
                    found.push(ContractViolation::Update {
                        path: self.path(),
                        detail: format!("{skipped:?} instead of {:?}", (&out_y, &state_y)),
                    });
                }
            }
        }

        // Repeatable eval: stale inputs first, then the final ones.
        let Some(mut probe) = self.replay(&history)? else {
            return Ok(true);
        };
        probe.begin_cycle(&stale);
        let mut detail = None;
        if let Err(e) = probe.eval() {
            detail = Some(format!("eval with stale inputs failed: {e}"));
        } else {
            probe.set_inputs(&x);
            match probe.eval() {
                Ok(out) if out == out_x => {
                    if let Err(e) = probe.end_of_timestep(true) {
                        detail = Some(format!("end_of_timestep failed: {e}"));
                    } else {
                        probe.begin_cycle(&y);
                        let next = probe.eval();
                        if next != out_y {
                            detail = Some(format!("next cycle: {next:?} instead of {out_y:?}"));
                        }
                    }
                }
                out => detail = Some(format!("{out:?} instead of {out_x:?}")),
            }
        }
        if let Some(detail) = detail {
            found.push(ContractViolation::Repeat {
                path: self.path(),
                detail,
            });
        }
        Ok(true)
    }
}

/// One behavior instance driven on its own: a one-leaf reference
/// simulator whose inputs are set directly.
struct Probe(RefSim);

impl Probe {
    fn new(
        tar_file: &str,
        parts: &LeafParts,
        registry: &ComponentRegistry,
    ) -> Result<Probe, BuildError> {
        let comp = registry.build(tar_file, &parts.spec)?;
        let mut sim = RefSim::single_leaf(comp, parts.clone());
        // A leaf whose `init` fails never runs; its trials fail at once.
        let _ = sim.init();
        Ok(Probe(sim))
    }

    /// Starts a cycle: every value absent, then `inputs`.
    fn begin_cycle(&mut self, inputs: &Lanes) {
        self.0.core.values.clear();
        self.set_inputs(inputs);
    }

    /// Replaces the input values, keeping the outputs.
    fn set_inputs(&mut self, inputs: &Lanes) {
        let values = &mut self.0.core.values;
        values.retain(|key, _| key.0 == 0);
        for (port, lanes) in inputs.iter().enumerate() {
            for (lane, value) in lanes.iter().enumerate() {
                if let Some(v) = value {
                    values.insert((1, port, lane as u32), v.clone());
                }
            }
        }
    }

    /// Evaluates as the engine re-evaluates a leaf within a cycle (see
    /// `RefSim::eval_comp`) and reports the outcome.
    fn eval(&mut self) -> Outcome {
        self.0.eval_comp(0).map_err(|e| e.message)?;
        let core = &self.0.core;
        let outputs = (0..core.dirs[0].len())
            .map(|port| match core.dirs[0][port] {
                Dir::In => Vec::new(),
                Dir::Out => (0..core.widths[0][port])
                    .map(|lane| core.values.get(&(0, port, lane)).cloned())
                    .collect(),
            })
            .collect();
        Ok((outputs, format!("{:?}", core.states[0].eval_events)))
    }

    /// Ends the cycle; with `method` false, without the behavior's
    /// `end_of_timestep` (see `RefSim::end_of_timestep`).
    fn end_of_timestep(&mut self, method: bool) -> Result<(), SimError> {
        self.0.end_of_timestep(0, method)?;
        self.0.core.cycle += 1;
        Ok(())
    }

    /// The runtime variables and `end_of_timestep` events so far, rendered.
    fn state(&self) -> String {
        let state = &self.0.core.states[0];
        let rtvs: Vec<_> = state.rtvs.iter().collect();
        format!("rtvs {rtvs:?}, events {:?}", state.eot_events)
    }
}
