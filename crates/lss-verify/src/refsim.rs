//! A deliberately naive reference simulator.
//!
//! [`RefSim`] executes the same typed netlist and the same leaf behaviors,
//! configured by the same `lss_sim::leaf_spec`, as `lss_sim::Simulator`,
//! but shares none of the engine's machinery: no precomputed schedule, no
//! slot array, no interned IDs. Values live in a
//! `BTreeMap` keyed by `(component, port, lane)`; the combinational settle
//! phase is a global fixpoint — evaluate *every* component in instance
//! order, repeat until nothing changes. Where the engine derives a static
//! topological order from the analyzer's dependency condensation, the
//! reference derives nothing at all; agreement between the two is evidence
//! the schedule is right.
//!
//! The per-cycle phase order is the engine's contract and is mirrored
//! exactly (see `lss-sim/src/engine.rs`): clear all port values → settle →
//! implicit `<port>_fire` events in component/port/lane order →
//! `end_of_timestep` plus the `end_of_timestep` userpoint per component →
//! declared-event dispatch (eval events then EOT events, `cycle` appended).
//! Within one evaluation a component sees its own previous outputs, and any
//! output lane it does not rewrite is retracted afterwards.
//!
//! [`Mutation`] injects known scheduler bugs for mutation-testing the
//! differential harness itself: the oracle must *catch* a reference that
//! evaluates in reverse order, or one that never iterates feedback loops
//! to fixpoint.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use lss_netlist::{Dir, EventId, Instance, InstanceKind, Netlist, RtvId, UserpointId};
use lss_sim::{
    compile_bsl, exec, leaf_spec, BslEnv, BslProgram, BuildError, CompCtx, CompSpec, Component,
    ComponentRegistry, SimError, SlotTable, BSL_MAX_STEPS,
};
use lss_types::Datum;

/// An intentionally injected scheduler bug (for mutation tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Faithful reference semantics.
    #[default]
    None,
    /// Settle with a single pass in *reverse* instance order and no
    /// fixpoint iteration: combinational consumers run before their
    /// producers and see nothing.
    ReversedSinglePass,
    /// Settle with a single pass in *forward* instance order and no
    /// fixpoint iteration: correct for forward-ordered acyclic pipelines,
    /// wrong wherever feedback needs iteration (a cache miss waiting on
    /// `lower_resp` from a backing memory evaluated later).
    ForwardSinglePass,
}

/// A key addressing one port instance: `(component, port, lane)`.
type LaneKey = (usize, usize, u32);

#[derive(Clone)]
struct UserpointRt {
    name: String,
    arg_names: Vec<String>,
    program: BslProgram,
}

/// One leaf as the reference builds it: the spec its behavior factory
/// takes, its userpoints by [`UserpointId`], its runtime variables and its
/// declared event names.
#[derive(Clone)]
pub(crate) struct LeafParts {
    pub(crate) spec: CompSpec,
    userpoints: Vec<UserpointRt>,
    rtvs: SlotTable,
    event_names: Vec<String>,
}

/// Builds one leaf's [`LeafParts`] from the netlist.
pub(crate) fn leaf_parts(netlist: &Netlist, inst: &Instance) -> Result<LeafParts, BuildError> {
    let spec = leaf_spec(netlist, inst)?;
    let userpoints = inst
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
    Ok(LeafParts {
        rtvs: SlotTable::from_pairs(spec.runtime_vars.iter().cloned()),
        spec,
        userpoints,
        event_names: inst
            .events
            .iter()
            .map(|e| netlist.name(e.name).to_string())
            .collect(),
    })
}

pub(crate) struct RefState {
    pub(crate) rtvs: SlotTable,
    userpoints: Vec<UserpointRt>,
    event_names: Vec<String>,
    pub(crate) eval_events: Vec<(EventId, Vec<Datum>)>,
    pub(crate) eot_events: Vec<(EventId, Vec<Datum>)>,
    in_eot: bool,
    init_up: Option<UserpointId>,
    eot_up: Option<UserpointId>,
}

impl RefState {
    fn new(parts: LeafParts) -> RefState {
        let up = |name: &str| {
            parts
                .userpoints
                .iter()
                .position(|up| up.name == name)
                .map(UserpointId::from_index)
        };
        RefState {
            init_up: up("init"),
            eot_up: up("end_of_timestep"),
            rtvs: parts.rtvs,
            userpoints: parts.userpoints,
            event_names: parts.event_names,
            eval_events: Vec::new(),
            eot_events: Vec::new(),
            in_eot: false,
        }
    }
}

struct RefCollector {
    comp: usize,
    event: String,
    program: BslProgram,
    state: SlotTable,
}

/// Everything a component evaluation touches, split from the behavior boxes
/// so both can be borrowed at once.
pub(crate) struct RefCore {
    pub(crate) cycle: u64,
    /// Present port-instance values (absent = no value this cycle).
    pub(crate) values: BTreeMap<LaneKey, Datum>,
    /// Lanes written by the evaluation currently in progress.
    written: BTreeSet<LaneKey>,
    /// Input lane -> driving output lane, re-derived independently from
    /// `Netlist::flatten`.
    drivers: BTreeMap<LaneKey, LaneKey>,
    pub(crate) dirs: Vec<Vec<Dir>>,
    pub(crate) widths: Vec<Vec<u32>>,
    pub(crate) states: Vec<RefState>,
}

struct RefCtx<'a> {
    core: &'a mut RefCore,
    comp: usize,
}

impl CompCtx for RefCtx<'_> {
    fn cycle(&self) -> u64 {
        self.core.cycle
    }

    fn input(&self, port: usize, lane: u32) -> Option<Datum> {
        let driver = self.core.drivers.get(&(self.comp, port, lane))?;
        self.core.values.get(driver).cloned()
    }

    fn set_output(&mut self, port: usize, lane: u32, value: Datum) {
        // Writing an unconnected lane (beyond the port's width) is a no-op,
        // matching the engine's unconnected-port semantics.
        if self.core.dirs[self.comp].get(port) != Some(&Dir::Out)
            || lane >= self.core.widths[self.comp][port]
        {
            return;
        }
        self.core.values.insert((self.comp, port, lane), value);
        self.core.written.insert((self.comp, port, lane));
    }

    fn output(&self, port: usize, lane: u32) -> Option<Datum> {
        self.core.values.get(&(self.comp, port, lane)).cloned()
    }

    fn width(&self, port: usize) -> u32 {
        self.core.widths[self.comp].get(port).copied().unwrap_or(0)
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

    fn rtv_by_id(&self, id: RtvId) -> Datum {
        self.core.states[self.comp].rtvs.value(id.index()).clone()
    }

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
        if state.in_eot {
            state.eot_events.push((event, args));
        } else {
            state.eval_events.push((event, args));
        }
    }
}

struct Placeholder;
impl Component for Placeholder {
    fn eval(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        Ok(())
    }
}

/// The naive event-driven fixpoint simulator.
pub struct RefSim {
    pub(crate) core: RefCore,
    comps: Vec<Box<dyn Component>>,
    paths: Vec<String>,
    port_names: Vec<Vec<String>>,
    collectors: Vec<RefCollector>,
    /// comp -> output port -> collector indices on `<port>_fire`.
    fire_listeners: Vec<Vec<Vec<usize>>>,
    /// comp -> declared event -> collector indices.
    event_listeners: Vec<Vec<Vec<usize>>>,
    mutation: Mutation,
    max_passes: usize,
    initialized: bool,
}

impl RefSim {
    /// Builds a reference simulator over `netlist` using the same behavior
    /// `registry` as the engine.
    ///
    /// # Errors
    ///
    /// Same conditions as `lss_sim::build`: untyped ports, unknown
    /// behaviors, collectors on non-leaf instances, BSL that fails to
    /// compile.
    pub fn build(
        netlist: &Netlist,
        registry: &ComponentRegistry,
        mutation: Mutation,
    ) -> Result<RefSim, BuildError> {
        let mut comp_of_inst = HashMap::new();
        let mut leaf_ids = Vec::new();
        for inst in &netlist.instances {
            if inst.is_leaf() {
                comp_of_inst.insert(inst.id, leaf_ids.len());
                leaf_ids.push(inst.id);
            }
        }
        let n = leaf_ids.len();

        let mut comps: Vec<Box<dyn Component>> = Vec::with_capacity(n);
        let mut states = Vec::with_capacity(n);
        let mut paths = Vec::with_capacity(n);
        let mut port_names = Vec::with_capacity(n);
        let mut dirs = Vec::with_capacity(n);
        let mut widths = Vec::with_capacity(n);
        for &id in &leaf_ids {
            let inst = netlist.instance(id);
            let InstanceKind::Leaf { tar_file } = &inst.kind else {
                unreachable!("leaves only")
            };
            let parts = leaf_parts(netlist, inst)?;
            comps.push(registry.build(tar_file, &parts.spec)?);
            port_names.push(
                parts
                    .spec
                    .ports
                    .iter()
                    .map(|p| p.name.clone())
                    .collect::<Vec<_>>(),
            );
            states.push(RefState::new(parts));
            paths.push(inst.path.clone());
            dirs.push(inst.ports.iter().map(|p| p.dir).collect::<Vec<_>>());
            widths.push(inst.ports.iter().map(|p| p.width).collect::<Vec<_>>());
        }

        let mut drivers = BTreeMap::new();
        for wire in netlist.flatten() {
            let src = comp_of_inst[&wire.src.inst];
            let dst = comp_of_inst[&wire.dst.inst];
            drivers.insert(
                (dst, wire.dst.port.index(), wire.dst.index),
                (src, wire.src.port.index(), wire.src.index),
            );
        }

        let mut collectors = Vec::new();
        let mut fire_listeners: Vec<Vec<Vec<usize>>> = (0..n)
            .map(|c| vec![Vec::new(); port_names[c].len()])
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
            collectors.push(RefCollector {
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
        }

        Ok(RefSim {
            core: RefCore {
                cycle: 0,
                values: BTreeMap::new(),
                written: BTreeSet::new(),
                drivers,
                dirs,
                widths,
                states,
            },
            comps,
            paths,
            port_names,
            collectors,
            fire_listeners,
            event_listeners,
            mutation,
            max_passes: n + 66,
            initialized: false,
        })
    }

    /// Number of leaf components.
    pub fn component_count(&self) -> usize {
        self.comps.len()
    }

    /// A reference holding one leaf, `comp`, as component 0, with no
    /// collectors. Each of its input lanes reads the same port and lane of
    /// a phantom component 1, whose values the caller sets directly in
    /// `core.values`.
    pub(crate) fn single_leaf(comp: Box<dyn Component>, parts: LeafParts) -> RefSim {
        let ports = &parts.spec.ports;
        let mut drivers = BTreeMap::new();
        for (port, p) in ports.iter().enumerate() {
            if p.dir == Dir::In {
                for lane in 0..p.width {
                    drivers.insert((0, port, lane), (1, port, lane));
                }
            }
        }
        let dirs = vec![ports.iter().map(|p| p.dir).collect()];
        let widths = vec![ports.iter().map(|p| p.width).collect()];
        let port_names: Vec<String> = ports.iter().map(|p| p.name.clone()).collect();
        let fire_listeners = vec![vec![Vec::new(); port_names.len()]];
        let event_listeners = vec![vec![Vec::new(); parts.event_names.len()]];
        let paths = vec![parts.spec.path.clone()];
        RefSim {
            core: RefCore {
                cycle: 0,
                values: BTreeMap::new(),
                written: BTreeSet::new(),
                drivers,
                dirs,
                widths,
                states: vec![RefState::new(parts)],
            },
            comps: vec![comp],
            paths,
            port_names: vec![port_names],
            collectors: Vec::new(),
            fire_listeners,
            event_listeners,
            mutation: Mutation::None,
            max_passes: 1,
            initialized: false,
        }
    }

    /// Current cycle (completed steps).
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    fn locate(&self, comp: usize, e: SimError) -> SimError {
        SimError::new(format!("{}: {}", self.paths[comp], e.message))
    }

    fn with_comp<R>(
        &mut self,
        comp: usize,
        f: impl FnOnce(&mut Box<dyn Component>, &mut RefCtx<'_>) -> R,
    ) -> R {
        let mut boxed = std::mem::replace(&mut self.comps[comp], Box::new(Placeholder));
        let mut ctx = RefCtx {
            core: &mut self.core,
            comp,
        };
        let result = f(&mut boxed, &mut ctx);
        self.comps[comp] = boxed;
        result
    }

    /// All output lanes of `comp`, in port/lane order.
    fn out_lanes(&self, comp: usize) -> Vec<LaneKey> {
        let mut out = Vec::new();
        for (port, dir) in self.core.dirs[comp].iter().enumerate() {
            if *dir != Dir::Out {
                continue;
            }
            for lane in 0..self.core.widths[comp][port] {
                out.push((comp, port, lane));
            }
        }
        out
    }

    /// Evaluates one component as a fixpoint pass does: its previous
    /// outputs stay visible, lanes it leaves unwritten are retracted and
    /// its eval events replace the previous ones. Returns whether an
    /// output changed.
    pub(crate) fn eval_comp(&mut self, comp: usize) -> Result<bool, SimError> {
        self.core.states[comp].eval_events.clear();
        let lanes = self.out_lanes(comp);
        let before: Vec<Option<Datum>> = lanes
            .iter()
            .map(|k| self.core.values.get(k).cloned())
            .collect();
        self.core.written.clear();
        self.with_comp(comp, |c, ctx| c.eval(ctx))
            .map_err(|e| self.locate(comp, e))?;
        for key in &lanes {
            if !self.core.written.contains(key) {
                self.core.values.remove(key);
            }
        }
        let changed = lanes
            .iter()
            .zip(&before)
            .any(|(k, prev)| self.core.values.get(k) != prev.as_ref());
        Ok(changed)
    }

    /// One-time initialization: `init` hooks plus `init` userpoints.
    pub fn init(&mut self) -> Result<(), SimError> {
        assert!(!self.initialized, "init() called twice");
        for comp in 0..self.comps.len() {
            self.with_comp(comp, |c, ctx| c.init(ctx))
                .map_err(|e| self.locate(comp, e))?;
            if let Some(up) = self.core.states[comp].init_up {
                let mut ctx = RefCtx {
                    core: &mut self.core,
                    comp,
                };
                ctx.call_userpoint_by_id(up, &[])
                    .map_err(|e| self.locate(comp, e))?;
            }
        }
        self.initialized = true;
        Ok(())
    }

    fn settle(&mut self) -> Result<(), SimError> {
        match self.mutation {
            Mutation::ReversedSinglePass => {
                for comp in (0..self.comps.len()).rev() {
                    self.eval_comp(comp)?;
                }
                return Ok(());
            }
            Mutation::ForwardSinglePass => {
                for comp in 0..self.comps.len() {
                    self.eval_comp(comp)?;
                }
                return Ok(());
            }
            Mutation::None => {}
        }
        // Global fixpoint: evaluate everyone, in instance order, until a
        // full pass changes nothing.
        for _pass in 0..self.max_passes {
            let mut any = false;
            for comp in 0..self.comps.len() {
                any |= self.eval_comp(comp)?;
            }
            if !any {
                return Ok(());
            }
        }
        Err(SimError::new(format!(
            "reference fixpoint did not settle after {} passes",
            self.max_passes
        )))
    }

    /// Runs one clock cycle with the engine's exact phase order.
    pub fn step(&mut self) -> Result<(), SimError> {
        if !self.initialized {
            self.init()?;
        }
        self.core.values.clear();
        self.settle()?;
        self.fire_port_events()?;
        for comp in 0..self.comps.len() {
            self.end_of_timestep(comp, true)?;
        }
        self.dispatch_declared_events()?;
        self.core.cycle += 1;
        Ok(())
    }

    /// One component's `end_of_timestep` and its `end_of_timestep`
    /// userpoint; with `method` false, the userpoint alone (what the engine
    /// runs for a behavior declared without an update).
    pub(crate) fn end_of_timestep(&mut self, comp: usize, method: bool) -> Result<(), SimError> {
        self.core.states[comp].in_eot = true;
        let result = self.with_comp(comp, |c, ctx| {
            if method {
                c.end_of_timestep(ctx)?;
            }
            match ctx.core.states[comp].eot_up {
                Some(up) => ctx.call_userpoint_by_id(up, &[]).map(drop),
                None => Ok(()),
            }
        });
        self.core.states[comp].in_eot = false;
        result.map_err(|e| self.locate(comp, e))
    }

    /// Runs `n` cycles.
    pub fn run(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    fn fire_port_events(&mut self) -> Result<(), SimError> {
        for comp in 0..self.comps.len() {
            for (port, dir) in self.core.dirs[comp].clone().iter().enumerate() {
                if *dir != Dir::Out || self.fire_listeners[comp][port].is_empty() {
                    continue;
                }
                for lane in 0..self.core.widths[comp][port] {
                    let Some(value) = self.core.values.get(&(comp, port, lane)).cloned() else {
                        continue;
                    };
                    let args = vec![
                        value,
                        Datum::Int(lane as i64),
                        Datum::Int(self.core.cycle as i64),
                    ];
                    let names = ["value".to_string(), "lane".to_string(), "cycle".to_string()];
                    self.dispatch(comp, &self.fire_listeners[comp][port].clone(), &names, args)?;
                }
            }
        }
        Ok(())
    }

    fn dispatch_declared_events(&mut self) -> Result<(), SimError> {
        for comp in 0..self.comps.len() {
            let mut events = std::mem::take(&mut self.core.states[comp].eval_events);
            events.extend(std::mem::take(&mut self.core.states[comp].eot_events));
            for (eid, mut args) in events {
                let listeners = self.event_listeners[comp][eid.index()].clone();
                if listeners.is_empty() {
                    continue;
                }
                args.push(Datum::Int(self.core.cycle as i64));
                let mut names: Vec<String> =
                    (0..args.len() - 1).map(|i| format!("arg{i}")).collect();
                names.push("cycle".to_string());
                self.dispatch(comp, &listeners, &names, args)?;
            }
        }
        Ok(())
    }

    fn dispatch(
        &mut self,
        comp: usize,
        listeners: &[usize],
        arg_names: &[String],
        args: Vec<Datum>,
    ) -> Result<(), SimError> {
        for &idx in listeners {
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

    /// The reference's canonical state dump in `Simulator::state_lines`
    /// format: one sorted line per carried output port instance, runtime
    /// variable, and collector accumulator.
    pub fn state_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for comp in 0..self.comps.len() {
            let path = &self.paths[comp];
            for key in self.out_lanes(comp) {
                if let Some(value) = self.core.values.get(&key) {
                    out.push(format!(
                        "port {path}.{}[{}] = {value}",
                        self.port_names[comp][key.1], key.2
                    ));
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
}
