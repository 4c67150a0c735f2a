//! The simulator: builds an executable model from a typed netlist and runs
//! it cycle by cycle.
//!
//! Each cycle has two phases, matching synchronous hardware (§2):
//!
//! 1. **Combinational settle** — every leaf component's `eval` computes its
//!    outputs from this cycle's inputs and current state. The *static*
//!    scheduler executes a precomputed plan ([`crate::exec`]): the leaf
//!    dependency graph's condensation in topological order, each acyclic
//!    component run once per cycle, each leaf-level cycle that is acyclic
//!    at port granularity run as a fixed evaluation sequence, and only
//!    port-level combinational cycles iterated to a fixpoint. The *dynamic*
//!    scheduler is the SystemC-style baseline that re-evaluates components
//!    from a worklist until no output changes. Both call each behavior
//!    through [`Component::eval_in`] with the engine's concrete [`Ctx`].
//! 2. **`end_of_timestep`** — synchronous state update, plus the
//!    system-defined `end_of_timestep` userpoint on every instance (§4.3).
//!
//! Instrumentation (§4.5): after the settle phase, every output port
//! instance that carries a value emits the implicit `<port>_fire` event;
//! declared events are emitted by behaviors via [`CompCtx::emit_by_id`].
//! Events are routed to the model's collectors, whose BSL bodies accumulate
//! statistics in per-collector state tables.
//!
//! # Data layout
//!
//! Everything touched per cycle is a dense vector indexed by integers:
//! signal values live in one flat slot array, and [`Ctx`] reaches them
//! through one flat per-port table built once; runtime variables and
//! collector accumulators are [`SlotTable`]s addressed by [`RtvId`]-style
//! indices; event routing is precomputed at build time into
//! per-component listener tables (`fire_listeners` by output port,
//! `event_listeners` by declared [`EventId`]). Strings appear only at the
//! build boundary (resolving netlist [`lss_netlist::Symbol`]s) and in
//! error/report paths — the per-cycle path performs no string hashing,
//! comparison, or allocation for name lookup.
//!
//! The per-cycle loops after settle walk lists built once in [`build`],
//! not every component: the firing loop visits only output ports with
//! `<port>_fire` listeners or a watched instance (the firing count and the
//! value reset use the list of slots written that cycle), the state update
//! skips behaviors whose `end_of_timestep` is a no-op, and declared-event
//! dispatch visits only components that declare events.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::Range;

use lss_netlist::{
    ActionDir, Dir, EventId, InstanceId, InstanceKind, Netlist, Role, RtvId, SrcSpan, Template,
    UserpointId,
};
use lss_types::{Budget, Datum, Ty};

use lss_analyze::{leaf_dep_graph, CombInfo};
use lss_netlist::PortId;

use crate::bsl::{compile_bsl, exec, BslEnv, BslProgram};
use crate::component::{
    BuildError, CompCtx, CompSpec, Component, ComponentRegistry, PortSpec, SimError,
};
use crate::exec::{KernelMutation, Plan, Window};
use crate::slots::SlotTable;

/// Which combinational scheduler to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Precomputed plan (LSE's approach \[12\]): the condensation's SCCs
    /// in topological order, each acyclic leaf run once per cycle, each
    /// leaf-level cycle without a port-level one run as a fixed evaluation
    /// sequence, and each port-level combinational cycle iterated to a
    /// fixpoint.
    #[default]
    Static,
    /// Worklist fixpoint (structural-OOP / SystemC-style baseline): every
    /// leaf re-evaluates until no output changes.
    Dynamic,
}

/// Iteration cap for combinational-cycle fixpoints.
const MAX_FIXPOINT_ITERS: usize = 64;
/// Step budget per BSL invocation (userpoints and collectors).
pub const BSL_MAX_STEPS: u64 = 1_000_000;

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Scheduler choice.
    pub scheduler: Scheduler,
    /// Simulation seed, visible to behaviors via [`CompCtx::seed`] (the
    /// corelib source folds it into its counter). Seed 0 reproduces
    /// unseeded runs exactly.
    pub seed: i64,
    /// Injected static-plan bug for differential testing
    /// ([`KernelMutation::None`] for correct execution).
    pub kernel_mutation: KernelMutation,
    /// Validate every value sent on a port against the port's inferred
    /// type, failing the cycle on a violation. Catches behaviors that
    /// disagree with the static types; costs a structural check per send.
    pub check_types: bool,
    /// Enforce declared port protocols (interface automata) at runtime,
    /// failing the cycle on a violated transition. The dynamic counterpart
    /// of the static `LSS105`/`LSS107` pass: role-flipped groups fail on
    /// their first send, concrete-credit producers fail when they exceed
    /// their granted budget, and custom automata fail on any move their
    /// declared transitions do not enable. Adaptive credit and handshake
    /// templates are left to the behaviors and the static checker (strict
    /// runtime stepping would reject legal pipelined traffic).
    pub check_protocols: bool,
    /// Cooperative resource budget. [`Simulator::step`] polls the cycle cap
    /// (`LSS408`) every cycle and the wall-clock deadline (`LSS401`) through
    /// the budget's own stride, so a runaway `--run` or daemon `simulate`
    /// request stops with a typed budget error instead of hanging. The
    /// default unlimited handle reduces every check to a `None` compare.
    pub budget: Budget,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            scheduler: Scheduler::Static,
            seed: 0,
            kernel_mutation: KernelMutation::None,
            check_types: false,
            check_protocols: false,
            budget: Budget::unlimited(),
        }
    }
}

/// Aggregate simulation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles executed (incremented once per completed [`Simulator::step`]).
    pub cycles: u64,
    /// Total component `eval` invocations. This is the static-vs-dynamic
    /// scheduler comparison metric: the static schedule evaluates each
    /// component once per cycle (plus the repeats of its fixed sequences
    /// and the fixpoint iterations inside port-level combinational cycles),
    /// while the dynamic baseline re-evaluates from a worklist until
    /// quiescence.
    pub comp_evals: u64,
    /// Collector invocations: one per (event, listening collector) pair.
    pub events_dispatched: u64,
    /// Output port instances observed carrying a value after settle, summed
    /// over cycles.
    pub port_firings: u64,
}

/// A compiled userpoint as the engine runs it: resolved argument names and
/// the BSL program, addressed by [`UserpointId`].
struct UserpointRt {
    name: String,
    arg_names: Vec<String>,
    program: BslProgram,
}

struct CompState {
    /// Runtime variables, indexed by [`RtvId`]; model-declared slots first,
    /// behavior-created slots appended.
    rtvs: SlotTable,
    /// Userpoints in declaration order, indexed by [`UserpointId`].
    userpoints: Vec<UserpointRt>,
    /// Declared event names, indexed by [`EventId`] (resolved from netlist
    /// symbols at build time; used for name resolution and errors only).
    event_names: Vec<String>,
    /// Events emitted by the most recent `eval` this cycle.
    eval_events: Vec<(EventId, Vec<Datum>)>,
    /// Events emitted during `end_of_timestep`.
    eot_events: Vec<(EventId, Vec<Datum>)>,
    /// Cached ids of the system userpoints, resolved once at build.
    init_up: Option<UserpointId>,
    eot_up: Option<UserpointId>,
}

struct Core {
    cycle: u64,
    seed: i64,
    /// One slot per output lane, plus a last slot that is never written:
    /// unconnected input lanes read it.
    values: Vec<Option<Datum>>,
    /// The present slots, each listed once, in the order they were
    /// written: the cycle's port firings, and what the reset at the top of
    /// the next cycle clears.
    live: Vec<usize>,
    /// Per-slot flag: written during the current tracked evaluation
    /// (repeated evaluations, fixpoint blocks and the dynamic scheduler).
    written: Vec<bool>,
    states: Vec<CompState>,
    /// comp -> port -> (name, inferred type); empty unless checking.
    port_types: Vec<Vec<Option<(String, Ty)>>>,
    /// First type violation observed during the current eval, if any.
    type_violation: Option<String>,
}

impl Core {
    /// Stores a port value and lists its slot for the next reset.
    #[inline]
    fn write(&mut self, slot: usize, value: Datum) {
        if self.values[slot].replace(value).is_none() {
            self.live.push(slot);
        }
    }

    /// Records the first value sent against its port's inferred type
    /// ([`SimOptions::check_types`]).
    #[cold]
    #[inline(never)]
    fn check_type(&mut self, comp: usize, port: usize, value: &Datum) {
        if let Some(Some((name, ty))) = self.port_types[comp].get(port) {
            if !value.conforms_to(ty) && self.type_violation.is_none() {
                self.type_violation =
                    Some(format!("port `{name}` expects {ty}, behavior sent {value}"));
            }
        }
    }

    /// Withdraws a port value (fixpoint retraction). Rare, and the slot
    /// was most likely written recently, so the search runs from the end.
    fn retract(&mut self, slot: usize) {
        if self.values[slot].take().is_some() {
            if let Some(i) = self.live.iter().rposition(|&s| s == slot) {
                self.live.swap_remove(i);
            }
        }
    }

    /// Applies an injected [`KernelMutation`] to the writes of the
    /// evaluation outside a fixpoint block that just ran: `live[mark..]`,
    /// the slots it made present, in write order (every slot of a static
    /// leaf, since each starts the cycle absent). Writes the mutation holds
    /// back go to `held`, for the caller to make after settle.
    fn mutate_leaf(
        &mut self,
        mutation: KernelMutation,
        mark: usize,
        held: &mut Vec<(usize, Datum)>,
    ) {
        match mutation {
            KernelMutation::None => {}
            KernelMutation::StaleCommit => {
                if self.live.len() > mark {
                    let slot = self.live.pop().expect("a leaf write");
                    self.values[slot] = None;
                }
            }
            KernelMutation::SkipBarrier => {
                for slot in self.live.drain(mark..) {
                    let value = self.values[slot].take().expect("a live slot");
                    held.push((slot, value));
                }
            }
        }
    }

    /// Makes every port value absent again.
    fn reset_values(&mut self) {
        for s in self.live.drain(..) {
            self.values[s] = None;
        }
    }
}

/// One port of one leaf in the flat port table.
#[derive(Debug, Clone, Copy)]
struct PortRow {
    /// Output: the first of `width` consecutive arena slots. Input: the
    /// first of `width` entries in [`Layout::in_lanes`].
    base: u32,
    /// Inferred width (connected lanes).
    width: u32,
    out: bool,
}

/// Where every port lane lives, filled once by [`build`].
struct Layout {
    /// Every leaf's ports, leaf by leaf, in port order.
    rows: Vec<PortRow>,
    /// comp -> its first row; `n + 1` entries.
    first_row: Vec<usize>,
    /// Input lane -> driving slot (the never-written last slot when
    /// unconnected).
    in_lanes: Vec<u32>,
    /// comp -> its first output slot; `n + 1` entries. A leaf's output
    /// slots are consecutive, port by port.
    first_slot: Vec<usize>,
}

impl Layout {
    #[inline]
    fn ports(&self, comp: usize) -> &[PortRow] {
        &self.rows[self.first_row[comp]..self.first_row[comp + 1]]
    }

    fn out_slots(&self, comp: usize) -> std::ops::Range<usize> {
        self.first_slot[comp]..self.first_slot[comp + 1]
    }

    /// The arena slot of an output lane, if the port is an output and the
    /// lane is connected.
    fn out_slot(&self, comp: usize, port: usize, lane: usize) -> Option<usize> {
        let row = self.ports(comp).get(port)?;
        (row.out && lane < row.width as usize).then(|| row.base as usize + lane)
    }

    /// The output slots of one port.
    fn port_slots(&self, comp: usize, port: usize) -> std::ops::Range<usize> {
        match self.ports(comp).get(port) {
            Some(row) if row.out => row.base as usize..(row.base + row.width) as usize,
            _ => 0..0,
        }
    }

    /// The driving slots of one input port.
    fn in_port_slots(&self, comp: usize, port: usize) -> &[u32] {
        match self.ports(comp).get(port) {
            Some(row) if !row.out => {
                &self.in_lanes[row.base as usize..(row.base + row.width) as usize]
            }
            _ => &[],
        }
    }
}

/// The engine's port-I/O context for one leaf: [`CompCtx`] over the flat
/// value arena, with the leaf's port rows in hand.
///
/// Behaviors receive it in [`Component::eval_in`] and
/// [`Component::end_of_timestep_in`] and use it only through [`CompCtx`];
/// its fields are private to the engine.
pub struct Ctx<'a> {
    core: &'a mut Core,
    ports: &'a [PortRow],
    in_lanes: &'a [u32],
    comp: usize,
    /// Running `end_of_timestep` (routes `emit`).
    in_eot: bool,
    /// Record written slots in [`Core::written`] (repeated evaluations,
    /// fixpoint blocks and the dynamic scheduler retract what an
    /// evaluation did not rewrite).
    track: bool,
}

impl<'a> Ctx<'a> {
    #[inline]
    fn new(core: &'a mut Core, layout: &'a Layout, comp: usize) -> Self {
        Ctx {
            core,
            ports: layout.ports(comp),
            in_lanes: &layout.in_lanes,
            comp,
            in_eot: false,
            track: false,
        }
    }
}

impl CompCtx for Ctx<'_> {
    #[inline]
    fn cycle(&self) -> u64 {
        self.core.cycle
    }

    #[inline]
    fn seed(&self) -> i64 {
        self.core.seed
    }

    #[inline(always)]
    fn input(&self, port: usize, lane: u32) -> Option<Datum> {
        let row = self.ports.get(port)?;
        if row.out || lane >= row.width {
            return None;
        }
        let slot = self.in_lanes[(row.base + lane) as usize];
        self.core.values[slot as usize].clone()
    }

    #[inline(always)]
    fn set_output(&mut self, port: usize, lane: u32, value: Datum) {
        let Some(row) = self.ports.get(port) else {
            return;
        };
        if !row.out || lane >= row.width {
            // Writing an unconnected lane is a no-op (unconnected-port
            // semantics: nobody is listening).
            return;
        }
        let slot = (row.base + lane) as usize;
        if !self.core.port_types.is_empty() {
            self.core.check_type(self.comp, port, &value);
        }
        self.core.write(slot, value);
        if self.track {
            self.core.written[slot] = true;
        }
    }

    #[inline(always)]
    fn output(&self, port: usize, lane: u32) -> Option<Datum> {
        let row = self.ports.get(port)?;
        if !row.out || lane >= row.width {
            return None;
        }
        self.core.values[(row.base + lane) as usize].clone()
    }

    #[inline(always)]
    fn width(&self, port: usize) -> u32 {
        self.ports.get(port).map_or(0, |row| row.width)
    }

    fn rtv_id(&self, name: &str) -> Option<RtvId> {
        self.core.states[self.comp]
            .rtvs
            .index_of(name)
            .map(RtvId::from_index)
    }

    fn ensure_rtv(&mut self, name: &str, default: Datum) -> RtvId {
        RtvId::from_index(self.core.states[self.comp].rtvs.ensure(name, default))
    }

    #[inline]
    fn rtv_by_id(&self, id: RtvId) -> Datum {
        self.core.states[self.comp].rtvs.value(id.index()).clone()
    }

    #[inline]
    fn set_rtv_by_id(&mut self, id: RtvId, value: Datum) {
        self.core.states[self.comp].rtvs.set(id.index(), value);
    }

    fn userpoint_id(&self, name: &str) -> Option<UserpointId> {
        self.core.states[self.comp]
            .userpoints
            .iter()
            .position(|up| up.name == name)
            .map(UserpointId::from_index)
    }

    fn call_userpoint_by_id(&mut self, id: UserpointId, args: &[Datum]) -> Result<Datum, SimError> {
        let state = &mut self.core.states[self.comp];
        let Some(up) = state.userpoints.get(id.index()) else {
            return Err(SimError::new(format!(
                "userpoint {id} does not exist on this instance"
            )));
        };
        if up.arg_names.len() != args.len() {
            return Err(SimError::new(format!(
                "userpoint `{}` expects {} argument(s), got {}",
                up.name,
                up.arg_names.len(),
                args.len()
            )));
        }
        let mut env = BslEnv::bound(&up.arg_names, args.to_vec(), &mut state.rtvs);
        match exec(&up.program, &mut env, BSL_MAX_STEPS)? {
            Some(v) => Ok(v),
            None => Ok(Datum::Int(0)),
        }
    }

    fn event_id(&self, name: &str) -> Option<EventId> {
        self.core.states[self.comp]
            .event_names
            .iter()
            .position(|e| e == name)
            .map(EventId::from_index)
    }

    fn emit_by_id(&mut self, event: EventId, args: Vec<Datum>) {
        let state = &mut self.core.states[self.comp];
        if self.in_eot {
            state.eot_events.push((event, args));
        } else {
            state.eval_events.push((event, args));
        }
    }
}

struct CollectorRt {
    comp: usize,
    /// Resolved event name (reports and errors only).
    event: String,
    program: BslProgram,
    state: SlotTable,
}

/// An output port the firing loop visits: it has `<port>_fire`
/// listeners, or its instance is watched (or both).
#[derive(Clone, Copy)]
struct FireSite {
    comp: usize,
    port: usize,
    /// The instance matches a [`Simulator::watch`] prefix.
    watched: bool,
}

/// Selects a precomputed listener table for [`Simulator::dispatch`].
#[derive(Clone, Copy)]
enum Listeners {
    /// `<port>_fire` listeners of the given output port.
    Fire(usize),
    /// Listeners of a declared event.
    Declared(EventId),
}

/// A runnable simulation built from a typed netlist.
pub struct Simulator {
    core: Core,
    layout: Layout,
    comps: Vec<Box<dyn Component>>,
    paths: Vec<String>,
    /// Sorted `(path, comp)` pairs; binary-searched at the API boundary.
    path_index: Vec<(String, usize)>,
    port_names: Vec<Vec<String>>,
    /// The static scheduler's plan.
    plan: Plan,
    /// Scratch buffer for eval change detection, reused across evals.
    prev_scratch: Vec<Option<Datum>>,
    /// comp -> downstream comps (for the dynamic scheduler).
    consumers: Vec<Vec<usize>>,
    collectors: Vec<CollectorRt>,
    /// comp -> output port -> collector indices listening on `<port>_fire`.
    fire_listeners: Vec<Vec<Vec<usize>>>,
    /// comp -> declared event -> collector indices.
    event_listeners: Vec<Vec<Vec<usize>>>,
    /// Output ports with fire listeners or a watched instance, sorted by
    /// `(comp, port)`; rebuilt by [`Simulator::watch`].
    fire_sites: Vec<FireSite>,
    /// Components whose `end_of_timestep` can do work, in component order,
    /// with their `end_of_timestep` userpoint: behaviors with state to
    /// update, and instances with such a userpoint.
    eot_comps: Vec<(usize, Option<UserpointId>)>,
    /// Components that declare at least one event, in component order.
    event_comps: Vec<usize>,
    /// Argument names bound for `<port>_fire` dispatch.
    fire_arg_names: Vec<String>,
    /// Argument-name tables for declared events, indexed by argument count:
    /// `event_arg_names[n]` = `["arg0", ..., "arg{n-2}", "cycle"]`.
    event_arg_names: Vec<Vec<String>>,
    opts: SimOptions,
    stats: SimStats,
    initialized: bool,
    /// Protocol-enforcement state (empty unless `check_protocols`).
    monitors: Vec<ProtocolMonitor>,
    /// Firing-log filter: record values from instance paths starting with
    /// any of these prefixes (empty = logging disabled).
    watch_prefixes: Vec<String>,
    firing_log: Vec<FiringRecord>,
    firing_log_cap: usize,
}

/// One recorded port firing (see [`Simulator::watch`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FiringRecord {
    /// Cycle the value was carried.
    pub cycle: u64,
    /// Instance path.
    pub path: String,
    /// Port name.
    pub port: String,
    /// Port-instance lane.
    pub lane: u32,
    /// The value.
    pub value: Datum,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("components", &self.comps.len())
            .field("cycle", &self.core.cycle)
            .field("scheduler", &self.opts.scheduler)
            .finish()
    }
}

/// How the runtime monitor enforces one protocol binding.
enum MonitorKind {
    /// A consumer-role group whose primary port is an *output*: the first
    /// value it drives is a violation (consumers have no send transition
    /// on the data channel).
    ConsumerDrives,
    /// A producer with a concrete `credit(n)` budget and no wired credit
    /// return: its total sends may never exceed `budget`. (With a wired
    /// return channel the corelib's absolute-credit discipline applies and
    /// consumer behaviors enforce it via their overflow checks.)
    ProducerBudget { budget: i64, sent: i64 },
    /// A custom automaton stepped on observed traffic: data on the primary
    /// port must match an enabled transition of the right direction, as
    /// must traffic on the reverse port.
    Custom {
        /// Reverse port and whether it is an output on this instance.
        rev: Option<(usize, bool)>,
        state: u32,
    },
}

/// Runtime enforcement state for one declared protocol binding
/// ([`SimOptions::check_protocols`]).
struct ProtocolMonitor {
    comp: usize,
    group: String,
    span: Option<SrcSpan>,
    /// Primary (data) port index and whether it is an output here.
    port: usize,
    port_out: bool,
    states: Vec<String>,
    transitions: Vec<(u32, ActionDir, String, u32)>,
    kind: MonitorKind,
}

/// Which leaf inputs are registered and which output/input pairs run on
/// independent paths: the behavioral half of the analyzer's zero-delay
/// dependency graph, looked up by `tar_file` and port name in each
/// behavior's registered [`Deps`](crate::Deps). No behavior is built. An
/// unregistered `tar_file` keeps the combinational default, which errs
/// toward *reporting* cycles. [`build`] schedules from this same answer.
pub fn comb_info(netlist: &Netlist, registry: &ComponentRegistry) -> CombInfo {
    let mut comb = CombInfo::all_combinational();
    for inst in &netlist.instances {
        let InstanceKind::Leaf { tar_file } = &inst.kind else {
            continue;
        };
        let deps = registry.deps(tar_file);
        for (i_idx, input) in inst.ports.iter().enumerate() {
            if input.dir != Dir::In {
                continue;
            }
            let in_name = netlist.name(input.name);
            if !deps.reads(in_name) {
                comb.set_non_combinational(inst.id, PortId::from_index(i_idx));
                continue;
            }
            for (o_idx, output) in inst.ports.iter().enumerate() {
                if output.dir == Dir::Out && !deps.output_reads(netlist.name(output.name), in_name)
                {
                    comb.set_independent(
                        inst.id,
                        PortId::from_index(o_idx),
                        PortId::from_index(i_idx),
                    );
                }
            }
        }
    }
    comb
}

/// One leaf's behavior configuration, with its userpoints compiled: what
/// [`build`] and the reference simulator instantiate.
///
/// # Errors
///
/// A port has no inferred type, or a userpoint does not compile.
pub fn leaf_spec(netlist: &Netlist, inst: &lss_netlist::Instance) -> Result<CompSpec, BuildError> {
    let mut ports = Vec::with_capacity(inst.ports.len());
    for p in &inst.ports {
        let Some(ty) = p.ty.clone() else {
            return Err(BuildError::new(format!(
                "{}.{}: port has no inferred type; run type inference before building",
                inst.path,
                netlist.name(p.name)
            )));
        };
        ports.push(PortSpec {
            name: netlist.name(p.name).to_string(),
            dir: p.dir,
            width: p.width,
            ty,
        });
    }
    let mut userpoints = HashMap::new();
    for up in &inst.userpoints {
        let up_name = netlist.name(up.name);
        let program = compile_bsl(&up.code).map_err(|e| {
            BuildError::new(format!(
                "{}: userpoint `{up_name}` does not compile:\n{e}",
                inst.path
            ))
        })?;
        userpoints.insert(up_name.to_string(), program);
    }
    let spec = CompSpec {
        path: inst.path.clone(),
        module: netlist.name(inst.module).to_string(),
        params: inst
            .params
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect(),
        ports,
        userpoints,
        runtime_vars: inst
            .runtime_vars
            .iter()
            .map(|rv| (netlist.name(rv.name).to_string(), rv.init.clone()))
            .collect(),
        protocols: inst.protocols.clone(),
    };
    Ok(spec)
}

/// Builds a simulator from a typed netlist.
///
/// # Errors
///
/// * ports without inferred types (run type inference first);
/// * unknown `tar_file` behaviors;
/// * collectors targeting non-leaf instances;
/// * BSL code in userpoints/collectors that does not compile.
pub fn build(
    netlist: &Netlist,
    registry: &ComponentRegistry,
    opts: SimOptions,
) -> Result<Simulator, BuildError> {
    // Enumerate leaves.
    let mut comp_of_inst: HashMap<InstanceId, usize> = HashMap::new();
    let mut leaf_ids: Vec<InstanceId> = Vec::new();
    for inst in &netlist.instances {
        if inst.is_leaf() {
            comp_of_inst.insert(inst.id, leaf_ids.len());
            leaf_ids.push(inst.id);
        }
    }
    let n = leaf_ids.len();

    // Lay out the flat port table: output lanes get consecutive arena
    // slots, leaf by leaf; input lanes get entries in `in_lanes`, pointed
    // at their driving slots through the flattened wires below.
    let mut rows: Vec<PortRow> = Vec::new();
    let mut first_row = Vec::with_capacity(n + 1);
    let mut first_slot = Vec::with_capacity(n + 1);
    let mut in_count = 0u32;
    let mut slot_count = 0u32;
    for &id in &leaf_ids {
        first_row.push(rows.len());
        first_slot.push(slot_count as usize);
        for port in &netlist.instance(id).ports {
            let out = port.dir == Dir::Out;
            let next = if out { &mut slot_count } else { &mut in_count };
            rows.push(PortRow {
                base: *next,
                width: port.width,
                out,
            });
            *next += port.width;
        }
    }
    first_row.push(rows.len());
    first_slot.push(slot_count as usize);
    let slot_count = slot_count as usize;
    // Unconnected input lanes read the extra, never-written last slot.
    let mut layout = Layout {
        rows,
        first_row,
        in_lanes: vec![slot_count as u32; in_count as usize],
        first_slot,
    };
    let wires = netlist.flatten();
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for wire in &wires {
        let src_comp = comp_of_inst[&wire.src.inst];
        let dst_comp = comp_of_inst[&wire.dst.inst];
        let slot = layout
            .out_slot(src_comp, wire.src.port.index(), wire.src.index as usize)
            .expect("a wire leaves a connected output lane");
        let dst = layout.ports(dst_comp)[wire.dst.port.index()];
        layout.in_lanes[(dst.base + wire.dst.index) as usize] = slot as u32;
        if !consumers[src_comp].contains(&dst_comp) {
            consumers[src_comp].push(dst_comp);
        }
    }

    // Build behaviors. Names cross the string->ID boundary here: everything
    // the per-cycle path needs is resolved from netlist symbols into dense
    // per-component tables.
    let mut specs = Vec::with_capacity(n);
    let mut states: Vec<CompState> = Vec::with_capacity(n);
    let mut paths = Vec::with_capacity(n);
    let mut port_names = Vec::with_capacity(n);
    let mut has_update = Vec::with_capacity(n);
    for &id in &leaf_ids {
        let inst = netlist.instance(id);
        let InstanceKind::Leaf { tar_file } = &inst.kind else {
            unreachable!("leaves only")
        };
        let spec = leaf_spec(netlist, inst)?;
        let deps = registry.deps(tar_file);
        deps.check(&spec)?;
        has_update.push(deps.end_of_timestep);
        let userpoints_rt: Vec<UserpointRt> = inst
            .userpoints
            .iter()
            .map(|up| {
                let name = netlist.name(up.name);
                UserpointRt {
                    name: name.to_string(),
                    arg_names: up
                        .args
                        .iter()
                        .map(|(s, _)| netlist.name(*s).to_string())
                        .collect(),
                    program: spec.userpoints[name].clone(),
                }
            })
            .collect();
        let init_up = userpoints_rt
            .iter()
            .position(|up| up.name == "init")
            .map(UserpointId::from_index);
        let eot_up = userpoints_rt
            .iter()
            .position(|up| up.name == "end_of_timestep")
            .map(UserpointId::from_index);
        let rtvs = SlotTable::from_pairs(spec.runtime_vars.iter().cloned());
        specs.push((tar_file, spec));
        states.push(CompState {
            rtvs,
            userpoints: userpoints_rt,
            event_names: inst
                .events
                .iter()
                .map(|e| netlist.name(e.name).to_string())
                .collect(),
            eval_events: Vec::new(),
            eot_events: Vec::new(),
            init_up,
            eot_up,
        });
        paths.push(inst.path.clone());
        port_names.push(
            inst.ports
                .iter()
                .map(|p| netlist.name(p.name).to_string())
                .collect::<Vec<_>>(),
        );
    }

    // The behaviors are built in a loop of their own, so consecutive
    // leaves' state sits close together in memory for the per-cycle walks.
    let comps = specs
        .iter()
        .map(|(tar_file, spec)| registry.build(tar_file, spec))
        .collect::<Result<Vec<_>, _>>()?;
    drop(specs);

    // Static plan: condense the analyzer's leaf dependency graph, built
    // from the behaviors' declared dependencies, and run its SCCs in
    // topological order; a leaf-level cycle is ordered by its own port
    // subgraph, the graph `lssc check`'s cycle detector reports on.
    let deps = leaf_dep_graph(netlist, &wires, &comb_info(netlist, registry));
    debug_assert_eq!(deps.leaves, leaf_ids, "analyzer and engine leaf order");
    let plan = Plan::new(&deps);

    // Collectors: resolve each onto its precomputed listener table —
    // declared events index `event_listeners`, implicit `<port>_fire`
    // events index `fire_listeners` by output port.
    let mut collectors = Vec::new();
    let mut fire_listeners: Vec<Vec<Vec<usize>>> = (0..n)
        .map(|c| vec![Vec::new(); layout.ports(c).len()])
        .collect();
    let mut event_listeners: Vec<Vec<Vec<usize>>> = (0..n)
        .map(|c| vec![Vec::new(); states[c].event_names.len()])
        .collect();
    for coll in &netlist.collectors {
        let Some(&comp) = comp_of_inst.get(&coll.inst) else {
            let path = netlist.instance(coll.inst).path.clone();
            return Err(BuildError::new(format!(
                "collector on `{path}`: collectors must target leaf instances"
            )));
        };
        let event_name = netlist.name(coll.event);
        let program = compile_bsl(&coll.code).map_err(|e| {
            BuildError::new(format!(
                "collector on `{}` event `{event_name}` does not compile:\n{e}",
                paths[comp]
            ))
        })?;
        let idx = collectors.len();
        collectors.push(CollectorRt {
            comp,
            event: event_name.to_string(),
            program,
            state: SlotTable::new(),
        });
        let inst = netlist.instance(coll.inst);
        if let Some(eid) = inst.events.iter().position(|e| e.name == coll.event) {
            event_listeners[comp][eid].push(idx);
        } else if let Some(pidx) = inst
            .ports
            .iter()
            .position(|p| event_name == format!("{}_fire", netlist.name(p.name)))
        {
            fire_listeners[comp][pidx].push(idx);
        }
        // Anything else can never fire; elaboration rejects such
        // collectors, and hand-built netlists get the old no-op semantics.
    }

    let mut path_index: Vec<(String, usize)> = paths
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, p)| (p, i))
        .collect();
    path_index.sort();
    let port_types: Vec<Vec<Option<(String, Ty)>>> = if opts.check_types {
        leaf_ids
            .iter()
            .map(|&id| {
                netlist
                    .instance(id)
                    .ports
                    .iter()
                    .map(|p| {
                        p.ty.clone()
                            .map(|ty| (netlist.name(p.name).to_string(), ty))
                    })
                    .collect()
            })
            .collect()
    } else {
        Vec::new()
    };
    let eot_comps: Vec<(usize, Option<UserpointId>)> = (0..n)
        .map(|c| (c, states[c].eot_up))
        .filter(|&(c, up)| has_update[c] || up.is_some())
        .collect();
    let event_comps: Vec<usize> = (0..n)
        .filter(|&c| !states[c].event_names.is_empty())
        .collect();

    // Protocol monitors: one per enforceable declared binding.
    let mut monitors = Vec::new();
    if opts.check_protocols {
        for (c, &id) in leaf_ids.iter().enumerate() {
            let inst = netlist.instance(id);
            for b in &inst.protocols {
                let primary = b.primary().index();
                let Some(pport) = inst.ports.get(primary) else {
                    continue;
                };
                let port_out = pport.dir == Dir::Out;
                let kind = match (&b.automaton.template, b.role) {
                    (Template::Custom(_), _) => {
                        let rev = b.reverse().and_then(|r| {
                            inst.ports
                                .get(r.index())
                                .map(|p| (r.index(), p.dir == Dir::Out))
                        });
                        MonitorKind::Custom { rev, state: 0 }
                    }
                    (_, Role::Consumer) if port_out => MonitorKind::ConsumerDrives,
                    (Template::Credit(Some(count)), Role::Producer) if port_out => {
                        let rev_wired = b
                            .reverse()
                            .and_then(|r| inst.ports.get(r.index()))
                            .is_some_and(|p| p.width > 0);
                        if rev_wired {
                            continue;
                        }
                        MonitorKind::ProducerBudget {
                            budget: *count as i64,
                            sent: 0,
                        }
                    }
                    _ => continue,
                };
                monitors.push(ProtocolMonitor {
                    comp: c,
                    group: b.group.clone(),
                    span: b.span.known(),
                    port: primary,
                    port_out,
                    states: b.automaton.states.clone(),
                    transitions: b
                        .automaton
                        .transitions
                        .iter()
                        .map(|t| (t.from, t.dir, t.action.clone(), t.to))
                        .collect(),
                    kind,
                });
            }
        }
    }
    let mut sim = Simulator {
        core: Core {
            cycle: 0,
            seed: opts.seed,
            values: vec![None; slot_count + 1],
            live: Vec::new(),
            written: vec![false; slot_count],
            states,
            port_types,
            type_violation: None,
        },
        layout,
        comps,
        paths,
        path_index,
        port_names,
        plan,
        prev_scratch: Vec::new(),
        consumers,
        collectors,
        fire_listeners,
        event_listeners,
        fire_sites: Vec::new(),
        eot_comps,
        event_comps,
        fire_arg_names: vec!["value".to_string(), "lane".to_string(), "cycle".to_string()],
        event_arg_names: Vec::new(),
        opts,
        stats: SimStats::default(),
        initialized: false,
        monitors,
        watch_prefixes: Vec::new(),
        firing_log: Vec::new(),
        firing_log_cap: 100_000,
    };
    sim.rebuild_fire_sites();
    Ok(sim)
}

impl Simulator {
    /// Number of leaf components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// Number of static leaves in the plan: leaves evaluated exactly once
    /// per cycle, with no change detection. The dynamic scheduler does not
    /// use the plan.
    pub fn static_leaf_count(&self) -> usize {
        self.plan.static_leaves()
    }

    /// Number of evaluations per cycle of leaves that a fixed sequence
    /// runs more than once (each retracts what it does not rewrite).
    pub fn repeated_eval_count(&self) -> usize {
        self.plan.window_len(Window::Repeated)
    }

    /// The static plan as executed, unit by unit in order: each unit's
    /// components and whether it is a combinational-cycle fixpoint block.
    /// A unit that is not a block is one evaluation of one leaf; a leaf
    /// that a sequence repeats appears in several units.
    pub fn plan_stages(&self) -> Vec<(&[usize], bool)> {
        self.plan.units()
    }

    /// Current cycle (number of completed cycles).
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// Simulation counters.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Runs `comp`'s `eval_in`, then reports its error or its first type
    /// violation (only [`SimOptions::check_types`] records any).
    #[inline]
    fn eval_leaf(&mut self, comp: usize, track: bool) -> Result<(), SimError> {
        let mut ctx = Ctx::new(&mut self.core, &self.layout, comp);
        ctx.track = track;
        let result = self.comps[comp].eval_in(&mut ctx);
        if result.is_err() || self.opts.check_types {
            return self.eval_outcome(comp, result);
        }
        Ok(())
    }

    #[cold]
    #[inline(never)]
    fn eval_outcome(&mut self, comp: usize, result: Result<(), SimError>) -> Result<(), SimError> {
        result.map_err(|e| self.locate(comp, e))?;
        match self.core.type_violation.take() {
            Some(violation) => Err(self.locate(comp, SimError::new(violation))),
            None => Ok(()),
        }
    }

    /// Evaluates `comp` again within the cycle. During eval the component
    /// still *sees* the outputs of its previous evaluation (self-loops
    /// observe their own last value), but any output lane it does not
    /// write this time is retracted afterwards — that keeps re-evaluation
    /// able to withdraw stale values (essential for credit networks). Its
    /// emissions replace those of its previous evaluation.
    fn eval_tracked(&mut self, comp: usize) -> Result<(), SimError> {
        let slots = self.layout.out_slots(comp);
        self.core.written[slots.clone()].fill(false);
        self.core.states[comp].eval_events.clear();
        self.eval_leaf(comp, true)?;
        for s in slots {
            if !self.core.written[s] {
                self.core.retract(s);
            }
        }
        Ok(())
    }

    /// Evaluates one component inside a fixpoint block or under the
    /// dynamic scheduler; returns whether any of its outputs changed.
    fn eval_comp(&mut self, comp: usize) -> Result<bool, SimError> {
        let slots = self.layout.out_slots(comp);
        let mut before = std::mem::take(&mut self.prev_scratch);
        before.clear();
        before.extend_from_slice(&self.core.values[slots.clone()]);
        self.stats.comp_evals += 1;
        self.eval_tracked(comp)?;
        let changed = self.core.values[slots] != before[..];
        self.prev_scratch = before;
        Ok(changed)
    }

    fn locate(&self, comp: usize, e: SimError) -> SimError {
        SimError {
            message: format!("{}: {}", self.paths[comp], e.message),
            span: e.span,
            budget: e.budget,
        }
    }

    /// Number of lanes of `port` carrying a value after settle.
    fn port_item_count(&self, comp: usize, port: usize, out: bool) -> usize {
        let values = &self.core.values;
        if out {
            self.layout
                .port_slots(comp, port)
                .filter(|&s| values[s].is_some())
                .count()
        } else {
            self.layout
                .in_port_slots(comp, port)
                .iter()
                .filter(|&&s| values[s as usize].is_some())
                .count()
        }
    }

    /// Steps every protocol monitor on this cycle's observed traffic
    /// ([`SimOptions::check_protocols`]), failing on a violated transition.
    fn enforce_protocols(&mut self) -> Result<(), SimError> {
        for i in 0..self.monitors.len() {
            let (comp, port, port_out, rev_info) = {
                let m = &self.monitors[i];
                let rev = match &m.kind {
                    MonitorKind::Custom { rev, .. } => *rev,
                    _ => None,
                };
                (m.comp, m.port, m.port_out, rev)
            };
            let primary_items = self.port_item_count(comp, port, port_out);
            let rev_items = rev_info.map_or(0, |(rp, ro)| self.port_item_count(comp, rp, ro));
            let m = &mut self.monitors[i];
            let mut violation: Option<SimError> = None;
            match &mut m.kind {
                MonitorKind::ConsumerDrives => {
                    if primary_items > 0 {
                        violation = Some(SimError::protocol_violation(
                            &m.group,
                            "consumer-role group drove its data port; \
                             a consumer has no enabled send transition",
                            m.span,
                        ));
                    }
                }
                MonitorKind::ProducerBudget { budget, sent } => {
                    *sent += primary_items as i64;
                    if *sent > *budget {
                        violation = Some(SimError::protocol_violation(
                            &m.group,
                            format!(
                                "send `item` is not enabled in state `{budget} in flight`: \
                                 credit budget {budget} exhausted with no return channel"
                            ),
                            m.span,
                        ));
                    }
                }
                MonitorKind::Custom { rev, state } => {
                    // Receive-direction moves first: a credit or ack that
                    // arrives this cycle enables the send it pays for.
                    let prim_dir = if port_out {
                        ActionDir::Send
                    } else {
                        ActionDir::Recv
                    };
                    let rev_dir =
                        rev.map(|(_, ro)| if ro { ActionDir::Send } else { ActionDir::Recv });
                    let mut ordered: Vec<(ActionDir, usize)> = Vec::new();
                    for want in [ActionDir::Recv, ActionDir::Send] {
                        if rev_dir == Some(want) && rev_items > 0 {
                            ordered.push((want, rev_items));
                        }
                        if prim_dir == want && primary_items > 0 {
                            ordered.push((want, primary_items));
                        }
                    }
                    'moves: for (dir, count) in ordered {
                        for _ in 0..count {
                            match m.transitions.iter().find(|t| t.0 == *state && t.1 == dir) {
                                Some(t) => *state = t.3,
                                None => {
                                    let name = m
                                        .states
                                        .get(*state as usize)
                                        .cloned()
                                        .unwrap_or_else(|| format!("s{state}"));
                                    violation = Some(SimError::protocol_violation(
                                        &m.group,
                                        format!(
                                            "no {} transition is enabled in state `{name}`",
                                            match dir {
                                                ActionDir::Send => "send",
                                                ActionDir::Recv => "receive",
                                            }
                                        ),
                                        m.span,
                                    ));
                                    break 'moves;
                                }
                            }
                        }
                    }
                }
            }
            if let Some(e) = violation {
                return Err(self.locate(comp, e));
            }
        }
        Ok(())
    }

    /// One-time initialization: `init` hooks plus `init` userpoints.
    pub fn init(&mut self) -> Result<(), SimError> {
        assert!(!self.initialized, "init() called twice");
        for comp in 0..self.comps.len() {
            let mut ctx = Ctx::new(&mut self.core, &self.layout, comp);
            let mut result = self.comps[comp].init(&mut ctx);
            if let (Ok(()), Some(up)) = (&result, ctx.core.states[comp].init_up) {
                result = ctx.call_userpoint_by_id(up, &[]).map(drop);
            }
            result.map_err(|e| self.locate(comp, e))?;
        }
        // An eval's emissions replace earlier ones, so `init`'s never
        // reach a collector. Static leaves evaluate once per cycle and
        // leave the clearing to the dispatch that drains them (or to a
        // failed step).
        for state in &mut self.core.states {
            state.eval_events.clear();
        }
        self.initialized = true;
        Ok(())
    }

    /// Runs one clock cycle.
    pub fn step(&mut self) -> Result<(), SimError> {
        // Budget gate: the cycle cap is a plain `Option` compare, and the
        // deadline poll is strided inside the budget handle, so unlimited
        // runs pay two branches per cycle (benched <1% on the Table 3
        // sweep). Checked before any work so a shed cycle leaves state at
        // the previous cycle boundary.
        self.opts
            .budget
            .check_cycles(self.core.cycle + 1, "simulate")
            .map_err(SimError::budget)?;
        self.opts
            .budget
            .check_deadline("simulate")
            .map_err(SimError::budget)?;
        if !self.initialized {
            self.init()?;
        }
        if let Err(e) = self.advance() {
            self.drop_pending_events();
            return Err(e);
        }
        self.core.cycle += 1;
        self.stats.cycles += 1;
        Ok(())
    }

    /// The body of [`Simulator::step`]: settle, port events, the state
    /// update and declared-event dispatch.
    fn advance(&mut self) -> Result<(), SimError> {
        // New cycle: all port values start absent.
        self.core.reset_values();
        match self.opts.scheduler {
            Scheduler::Static => self.settle_static()?,
            Scheduler::Dynamic => self.settle_dynamic()?,
        }
        self.fire_port_events()?;
        if self.opts.check_protocols {
            self.enforce_protocols()?;
        }
        // Synchronous state update, then the `end_of_timestep` userpoint.
        // Behaviors whose update is a no-op and that carry no such
        // userpoint are not in the list at all.
        for i in 0..self.eot_comps.len() {
            let (comp, eot_up) = self.eot_comps[i];
            let mut ctx = Ctx::new(&mut self.core, &self.layout, comp);
            ctx.in_eot = true;
            let mut result = self.comps[comp].end_of_timestep_in(&mut ctx);
            if let (Ok(()), Some(up)) = (&result, eot_up) {
                result = ctx.call_userpoint_by_id(up, &[]).map(drop);
            }
            if let Err(e) = result {
                return Err(self.locate(comp, e));
            }
        }
        self.dispatch_declared_events()
    }

    /// Drops the events a failed step left undispatched, so a retried
    /// cycle does not dispatch them a second time.
    #[cold]
    #[inline(never)]
    fn drop_pending_events(&mut self) {
        for &comp in &self.event_comps {
            let state = &mut self.core.states[comp];
            state.eval_events.clear();
            state.eot_events.clear();
        }
    }

    /// Runs `n` cycles.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// The static settle loop: the plan in order, each static leaf
    /// evaluated once, each repeated evaluation tracked and each fixpoint
    /// block iterated.
    fn settle_static(&mut self) -> Result<(), SimError> {
        let mut held = Vec::new();
        let mut next = 0;
        for w in 0..self.plan.windows.len() {
            let (window, kind) = self.plan.windows[w].clone();
            self.eval_static(next..window.start, &mut held)?;
            next = window.end;
            match kind {
                Window::Repeated => self.eval_repeated(window, &mut held)?,
                Window::Block => self.settle_block(window)?,
            }
        }
        self.eval_static(next..self.plan.order.len(), &mut held)?;
        // Only the skipped-barrier mutation holds writes back this long.
        for (slot, v) in held {
            self.core.write(slot, v);
        }
        Ok(())
    }

    /// Evaluates the static leaves `plan.order[range]`, each once and
    /// untracked: its inputs are settled and its outputs start the cycle
    /// absent, so there is nothing to retract and no change to detect.
    /// An injected [`KernelMutation`] applies to each leaf's writes.
    fn eval_static(
        &mut self,
        range: Range<usize>,
        held: &mut Vec<(usize, Datum)>,
    ) -> Result<(), SimError> {
        let evals = range.len() as u64;
        let mutation = self.opts.kernel_mutation;
        if mutation == KernelMutation::None {
            for i in range {
                self.eval_leaf(self.plan.order[i], false)?;
            }
        } else {
            for i in range {
                let mark = self.core.live.len();
                self.eval_leaf(self.plan.order[i], false)?;
                self.core.mutate_leaf(mutation, mark, held);
            }
        }
        self.stats.comp_evals += evals;
        Ok(())
    }

    /// Runs the repeated evaluations `plan.order[range]`, each tracked so
    /// that it retracts what it does not rewrite, with no snapshot and no
    /// compare. An injected [`KernelMutation`] applies to each one's new
    /// writes.
    fn eval_repeated(
        &mut self,
        range: Range<usize>,
        held: &mut Vec<(usize, Datum)>,
    ) -> Result<(), SimError> {
        let evals = range.len() as u64;
        let mutation = self.opts.kernel_mutation;
        for i in range {
            let mark = self.core.live.len();
            self.eval_tracked(self.plan.order[i])?;
            self.core.mutate_leaf(mutation, mark, held);
        }
        self.stats.comp_evals += evals;
        Ok(())
    }

    /// Iterates the fixpoint block `plan.order[block]` until its outputs
    /// stop changing.
    fn settle_block(&mut self, block: Range<usize>) -> Result<(), SimError> {
        let mut iters = 0;
        loop {
            let mut any = false;
            for j in block.clone() {
                any |= self.eval_comp(self.plan.order[j])?;
            }
            if !any {
                break;
            }
            iters += 1;
            if iters > MAX_FIXPOINT_ITERS {
                let names: Vec<&str> = self.plan.order[block]
                    .iter()
                    .map(|&c| self.paths[c].as_str())
                    .collect();
                return Err(SimError::new(format!(
                    "combinational cycle did not settle after {} iterations: {}",
                    MAX_FIXPOINT_ITERS,
                    names.join(", ")
                )));
            }
        }
        Ok(())
    }

    fn settle_dynamic(&mut self) -> Result<(), SimError> {
        let n = self.comps.len();
        let mut queue: VecDeque<usize> = (0..n).collect();
        let mut queued = vec![true; n];
        let mut safety = 0u64;
        let cap = (n as u64 + 1) * (MAX_FIXPOINT_ITERS as u64 + 1) * 4;
        while let Some(comp) = queue.pop_front() {
            queued[comp] = false;
            let changed = self.eval_comp(comp)?;
            if changed {
                for &consumer in &self.consumers[comp] {
                    if !queued[consumer] {
                        queued[consumer] = true;
                        queue.push_back(consumer);
                    }
                }
            }
            safety += 1;
            if safety > cap {
                return Err(SimError::new(
                    "dynamic scheduler did not reach a fixpoint (oscillating model?)",
                ));
            }
        }
        Ok(())
    }

    /// Recomputes [`Simulator::fire_sites`] from the listener tables and
    /// the watch prefixes.
    fn rebuild_fire_sites(&mut self) {
        let mut sites = Vec::new();
        for comp in 0..self.comps.len() {
            let watched = self
                .watch_prefixes
                .iter()
                .any(|p| self.paths[comp].starts_with(p.as_str()));
            for (port, row) in self.layout.ports(comp).iter().enumerate() {
                if row.out
                    && row.width > 0
                    && (watched || !self.fire_listeners[comp][port].is_empty())
                {
                    sites.push(FireSite {
                        comp,
                        port,
                        watched,
                    });
                }
            }
        }
        self.fire_sites = sites;
    }

    fn fire_port_events(&mut self) -> Result<(), SimError> {
        // Every arena slot is an output lane (see `build`), so the firing
        // count is the number of present slots; only observed ports are
        // visited per lane.
        self.stats.port_firings += self.core.live.len() as u64;
        for i in 0..self.fire_sites.len() {
            let FireSite {
                comp,
                port,
                watched,
            } = self.fire_sites[i];
            let has_listeners = !self.fire_listeners[comp][port].is_empty();
            let slots = self.layout.port_slots(comp, port);
            for (lane, slot) in slots.clone().enumerate() {
                let Some(value) = &self.core.values[slot] else {
                    continue;
                };
                if watched && self.firing_log.len() < self.firing_log_cap {
                    self.firing_log.push(FiringRecord {
                        cycle: self.core.cycle,
                        path: self.paths[comp].clone(),
                        port: self.port_names[comp][port].clone(),
                        lane: lane as u32,
                        value: value.clone(),
                    });
                }
                if has_listeners {
                    let args = vec![
                        value.clone(),
                        Datum::Int(lane as i64),
                        Datum::Int(self.core.cycle as i64),
                    ];
                    self.dispatch(comp, Listeners::Fire(port), args)?;
                }
            }
        }
        Ok(())
    }

    fn dispatch_declared_events(&mut self) -> Result<(), SimError> {
        for i in 0..self.event_comps.len() {
            let comp = self.event_comps[i];
            if self.core.states[comp].eval_events.is_empty()
                && self.core.states[comp].eot_events.is_empty()
            {
                continue;
            }
            let mut events = std::mem::take(&mut self.core.states[comp].eval_events);
            events.extend(std::mem::take(&mut self.core.states[comp].eot_events));
            for (eid, mut args) in events {
                if self.event_listeners[comp][eid.index()].is_empty() {
                    continue;
                }
                self.ensure_event_arg_names(args.len() + 1);
                args.push(Datum::Int(self.core.cycle as i64));
                self.dispatch(comp, Listeners::Declared(eid), args)?;
            }
        }
        Ok(())
    }

    /// Grows the cached `["arg0", ..., "cycle"]` name tables to cover
    /// dispatches with `total` bound arguments.
    fn ensure_event_arg_names(&mut self, total: usize) {
        while self.event_arg_names.len() <= total {
            let n = self.event_arg_names.len();
            let mut names: Vec<String> = (0..n.saturating_sub(1))
                .map(|i| format!("arg{i}"))
                .collect();
            if n > 0 {
                names.push("cycle".to_string());
            }
            self.event_arg_names.push(names);
        }
    }

    fn dispatch(
        &mut self,
        comp: usize,
        which: Listeners,
        args: Vec<Datum>,
    ) -> Result<(), SimError> {
        let (listeners, arg_names): (&[usize], &[String]) = match which {
            Listeners::Fire(port) => (&self.fire_listeners[comp][port], &self.fire_arg_names),
            Listeners::Declared(eid) => (
                &self.event_listeners[comp][eid.index()],
                &self.event_arg_names[args.len()],
            ),
        };
        for &idx in listeners {
            self.stats.events_dispatched += 1;
            let coll = &mut self.collectors[idx];
            let mut env = BslEnv {
                arg_names,
                args: args.clone(),
                vars: &mut coll.state,
                implicit_zero: true,
            };
            exec(&coll.program, &mut env, BSL_MAX_STEPS).map_err(|e| {
                SimError::new(format!(
                    "collector on {} event {}: {}",
                    self.paths[comp], coll.event, e.message
                ))
            })?;
        }
        Ok(())
    }

    /// Reads the value an output port instance carried in the most recently
    /// completed cycle.
    pub fn peek(&self, path: &str, port: &str, lane: u32) -> Option<Datum> {
        let comp = self.comp_of_path(path)?;
        let pidx = self.port_names[comp].iter().position(|p| p == port)?;
        let slot = self.layout.out_slot(comp, pidx, lane as usize)?;
        self.core.values[slot].clone()
    }

    /// Reads a component's runtime variable.
    pub fn rtv(&self, path: &str, name: &str) -> Option<Datum> {
        let comp = self.comp_of_path(path)?;
        self.core.states[comp].rtvs.get(name).cloned()
    }

    fn comp_of_path(&self, path: &str) -> Option<usize> {
        self.path_index
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| self.path_index[i].1)
    }

    /// Iterates over collector results: (instance path, event, state table).
    pub fn collector_reports(&self) -> Vec<(String, String, &SlotTable)> {
        self.collectors
            .iter()
            .map(|c| (self.paths[c.comp].clone(), c.event.clone(), &c.state))
            .collect()
    }

    /// Starts recording a firing log for instances whose path starts with
    /// `prefix` (visualization/debugging support, §4.5), from the next
    /// cycle on; multiple prefixes accumulate. At most `cap` records are
    /// kept (default 100 000).
    pub fn watch(&mut self, prefix: impl Into<String>) {
        self.watch_prefixes.push(prefix.into());
        self.rebuild_fire_sites();
    }

    /// Caps the firing log length.
    pub fn set_firing_log_cap(&mut self, cap: usize) {
        self.firing_log_cap = cap;
    }

    /// The recorded firing log (empty unless [`Simulator::watch`] was used).
    pub fn firing_log(&self) -> &[FiringRecord] {
        &self.firing_log
    }

    /// A canonical, sorted dump of everything observable after the most
    /// recently completed [`Simulator::step`]: every output port instance
    /// carrying a value, every runtime variable, and every collector
    /// accumulator, one line each.
    ///
    /// The format is the differential-testing contract shared with the
    /// reference simulator in `lss-verify`, which diffs the two line sets
    /// cycle by cycle:
    ///
    /// ```text
    /// port <path>.<port>[<lane>] = <value>
    /// rtv <path>::<name> = <value>
    /// collector <path>/<event>::<name> = <value>
    /// ```
    pub fn state_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for comp in 0..self.comps.len() {
            let path = &self.paths[comp];
            for port in 0..self.port_names[comp].len() {
                for (lane, slot) in self.layout.port_slots(comp, port).enumerate() {
                    if let Some(value) = &self.core.values[slot] {
                        out.push(format!(
                            "port {path}.{}[{lane}] = {value}",
                            self.port_names[comp][port]
                        ));
                    }
                }
            }
            for (name, value) in self.core.states[comp].rtvs.iter() {
                out.push(format!("rtv {path}::{name} = {value}"));
            }
        }
        for coll in &self.collectors {
            let path = &self.paths[coll.comp];
            for (name, value) in coll.state.iter() {
                out.push(format!("collector {path}/{}::{name} = {value}", coll.event));
            }
        }
        out.sort();
        out
    }

    /// Convenience: the value of statistic `name` in the first collector on
    /// `path`/`event`.
    pub fn collector_stat(&self, path: &str, event: &str, name: &str) -> Option<Datum> {
        self.collectors
            .iter()
            .find(|c| self.paths[c.comp] == path && c.event == event)
            .and_then(|c| c.state.get(name).cloned())
    }
}
