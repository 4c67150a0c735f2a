//! The leaf-component model and behavior registry.
//!
//! In the paper, leaf module behavior lives in BSL `.tar` payloads compiled
//! by LSE's code generator. Our substitute (documented in DESIGN.md) keys
//! Rust implementations of [`Component`] by the module's `tar_file` string
//! in a [`ComponentRegistry`]. The interface preserved from the paper:
//! resolved parameters are forwarded to the behavior, ports carry inferred
//! widths and types, userpoint code customizes computation, and runtime
//! variables hold cross-invocation state.

use std::collections::HashMap;
use std::fmt;

use lss_netlist::{Dir, EventId, ProtocolBinding, RtvId, SrcSpan, UserpointId};
use lss_types::{BudgetError, BudgetKind, Datum, Ty};

use crate::bsl::BslProgram;
use crate::engine::Ctx;

/// A port as seen by a component factory: name, direction, inferred width
/// and basic type.
#[derive(Debug, Clone)]
pub struct PortSpec {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: Dir,
    /// Inferred width (number of connected port instances).
    pub width: u32,
    /// Inferred basic type.
    pub ty: Ty,
}

/// Everything a component factory needs to configure a behavior instance.
#[derive(Debug, Clone)]
pub struct CompSpec {
    /// Hierarchical path of the instance (for error messages).
    pub path: String,
    /// Module name the instance came from.
    pub module: String,
    /// Resolved parameter values (after use-based specialization).
    pub params: HashMap<String, Datum>,
    /// Ports in declaration order.
    pub ports: Vec<PortSpec>,
    /// Userpoints compiled to executable BSL.
    pub userpoints: HashMap<String, BslProgram>,
    /// Runtime variables with initial values.
    pub runtime_vars: Vec<(String, Datum)>,
    /// Declared port-protocol contracts (interface automata), in
    /// declaration order. Behaviors consult these for diagnostic context
    /// (group name, annotation span); the engine's opt-in monitor
    /// (`SimOptions::check_protocols`) enforces them.
    pub protocols: Vec<ProtocolBinding>,
}

impl CompSpec {
    /// Index of the named port.
    pub fn port_index(&self, name: &str) -> Result<usize, BuildError> {
        self.ports
            .iter()
            .position(|p| p.name == name)
            .ok_or_else(|| {
                BuildError::new(format!("{}: behavior expects a port `{name}`", self.path))
            })
    }

    /// The named port's spec.
    pub fn port(&self, name: &str) -> Result<&PortSpec, BuildError> {
        Ok(&self.ports[self.port_index(name)?])
    }

    /// Integer parameter accessor with a build-time error on mismatch.
    pub fn int_param(&self, name: &str) -> Result<i64, BuildError> {
        match self.params.get(name) {
            Some(Datum::Int(v)) => Ok(*v),
            Some(other) => Err(BuildError::new(format!(
                "{}: parameter `{name}` should be int, got {other}",
                self.path
            ))),
            None => Err(BuildError::new(format!(
                "{}: missing parameter `{name}`",
                self.path
            ))),
        }
    }

    /// Integer parameter with a fallback.
    pub fn int_param_or(&self, name: &str, default: i64) -> Result<i64, BuildError> {
        match self.params.get(name) {
            None => Ok(default),
            Some(_) => self.int_param(name),
        }
    }

    /// String parameter accessor.
    pub fn str_param_or(&self, name: &str, default: &str) -> Result<String, BuildError> {
        match self.params.get(name) {
            Some(Datum::Str(s)) => Ok(s.clone()),
            Some(other) => Err(BuildError::new(format!(
                "{}: parameter `{name}` should be string, got {other}",
                self.path
            ))),
            None => Ok(default.to_string()),
        }
    }

    /// Boolean parameter (declared `int` in LSS; nonzero = true).
    pub fn flag_param(&self, name: &str, default: bool) -> Result<bool, BuildError> {
        Ok(self.int_param_or(name, default as i64)? != 0)
    }

    /// Diagnostic context for protocol violations observed on `port`: the
    /// declared group name and annotation span, falling back to the port's
    /// own name (and no span) when the instance declares no contract
    /// there. Feed the result to [`SimError::protocol_violation`].
    pub fn protocol_context(&self, port: usize) -> (String, Option<SrcSpan>) {
        match self.protocols.iter().find(|b| b.primary().index() == port) {
            Some(b) => (b.group.clone(), b.span.known()),
            None => (
                self.ports
                    .get(port)
                    .map(|p| p.name.clone())
                    .unwrap_or_else(|| format!("port{port}")),
                None,
            ),
        }
    }
}

/// An error while constructing a simulator from a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError {
    /// What went wrong.
    pub message: String,
}

impl BuildError {
    /// Creates a build error.
    pub fn new(message: impl Into<String>) -> Self {
        BuildError {
            message: message.into(),
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BuildError {}

/// A runtime error during simulation (userpoint failures, type violations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// What went wrong.
    pub message: String,
    /// Source span of the declaration this error traces back to (today:
    /// the `protocol` annotation a violation breaches), when known.
    pub span: Option<SrcSpan>,
    /// The exhausted resource class when this error is a budget stop
    /// (`LSS4xx`), `None` for ordinary runtime failures. Lets callers —
    /// the `lssc` exit-code contract, the `lssd` response mapper — tell
    /// "your model is wrong" from "give this run a bigger allowance"
    /// without string matching.
    pub budget: Option<BudgetKind>,
}

impl SimError {
    /// Creates a simulation error.
    pub fn new(message: impl Into<String>) -> Self {
        SimError {
            message: message.into(),
            span: None,
            budget: None,
        }
    }

    /// Wraps a resource-budget stop, preserving its `LSS4xx` kind and
    /// appending the raise-the-limit hint.
    pub fn budget(e: BudgetError) -> Self {
        SimError {
            message: format!("{} [{}]; {}", e, e.code(), e.hint()),
            span: None,
            budget: Some(e.kind),
        }
    }

    /// The stable `LSS4xx` code when this error is a budget stop.
    pub fn budget_code(&self) -> Option<&'static str> {
        self.budget.map(BudgetKind::code)
    }

    /// The uniform protocol-violation diagnostic — the runtime counterpart
    /// of the static checker's `LSS105`/`LSS107`. Every credit/handshake
    /// breach, whether raised by a behavior (buffer overflow) or by the
    /// engine's protocol monitor, renders through this constructor so the
    /// message shape is greppable and names the violated transition.
    ///
    /// `group` labels the port group (`<group>` from the annotation, or a
    /// port name when the instance declares no contract); `violated` says
    /// which transition of the discipline was broken.
    pub fn protocol_violation(
        group: impl fmt::Display,
        violated: impl fmt::Display,
        span: Option<SrcSpan>,
    ) -> Self {
        SimError {
            message: format!("protocol violation on group `{group}`: {violated}"),
            span,
            budget: None,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SimError {}

/// The per-cycle interface a component uses to talk to the engine.
///
/// Implemented by the engine; a trait keeps `Component` implementations
/// decoupled and easily unit-testable with a mock.
///
/// Named state is addressed two ways. The **dense-ID methods**
/// ([`CompCtx::rtv_by_id`], [`CompCtx::emit_by_id`], ...) index
/// precomputed per-instance tables and do no string work — behaviors
/// resolve names once in [`Component::init`] (via [`CompCtx::rtv_id`],
/// [`CompCtx::event_id`], [`CompCtx::userpoint_id`]) and use the IDs every
/// cycle. The **name-based methods** ([`CompCtx::rtv`], [`CompCtx::emit`],
/// ...) are thin default shims over the ID methods, kept for one-shot
/// access and existing code.
pub trait CompCtx {
    /// Current cycle number (0-based).
    fn cycle(&self) -> u64;
    /// The simulation seed (`SimOptions::seed` in the engine). Behaviors
    /// fold it into generated stimulus so differently seeded runs diverge
    /// deterministically; contexts without a seed concept keep the default
    /// of 0.
    fn seed(&self) -> i64 {
        0
    }
    /// Reads input `port` lane `lane`. `None` when nothing was sent.
    fn input(&self, port: usize, lane: u32) -> Option<Datum>;
    /// Writes output `port` lane `lane` for this cycle.
    fn set_output(&mut self, port: usize, lane: u32, value: Datum);
    /// Reads back an output lane written earlier this cycle.
    fn output(&self, port: usize, lane: u32) -> Option<Datum>;
    /// The inferred width of `port`.
    fn width(&self, port: usize) -> u32;

    /// Resolves a runtime-variable name to its dense slot, if declared.
    fn rtv_id(&self, name: &str) -> Option<RtvId>;
    /// Resolves a runtime-variable name, creating the slot with `default`
    /// if the model did not declare it (an existing slot keeps its value).
    fn ensure_rtv(&mut self, name: &str, default: Datum) -> RtvId;
    /// Reads a runtime variable by slot.
    fn rtv_by_id(&self, id: RtvId) -> Datum;
    /// Writes a runtime variable by slot.
    fn set_rtv_by_id(&mut self, id: RtvId, value: Datum);

    /// Resolves a userpoint name to its dense index, if the instance
    /// carries it.
    fn userpoint_id(&self, name: &str) -> Option<UserpointId>;
    /// Invokes a userpoint by index with positional arguments (bound to the
    /// declared argument names).
    fn call_userpoint_by_id(&mut self, id: UserpointId, args: &[Datum]) -> Result<Datum, SimError>;

    /// Resolves an event name against the instance's event table (declared
    /// events). `None` means nothing can listen — emission is a no-op.
    fn event_id(&self, name: &str) -> Option<EventId>;
    /// Emits a declared event by table index. Emissions from `eval` are
    /// kept only from the final evaluation of the cycle (re-evaluations
    /// discard earlier emissions); emissions from
    /// `end_of_timestep` always stand.
    fn emit_by_id(&mut self, event: EventId, args: Vec<Datum>);

    /// Reads a runtime variable by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never declared.
    fn rtv(&self, name: &str) -> Datum {
        match self.rtv_id(name) {
            Some(id) => self.rtv_by_id(id),
            None => panic!("runtime variable `{name}` was never declared"),
        }
    }
    /// Writes a runtime variable by name, creating it if undeclared.
    fn set_rtv(&mut self, name: &str, value: Datum) {
        let id = self.ensure_rtv(name, Datum::Int(0));
        self.set_rtv_by_id(id, value);
    }
    /// Invokes a userpoint by name.
    fn call_userpoint(&mut self, name: &str, args: &[Datum]) -> Result<Datum, SimError> {
        match self.userpoint_id(name) {
            Some(id) => self.call_userpoint_by_id(id, args),
            None => Err(SimError::new(format!(
                "no userpoint `{name}` on this instance"
            ))),
        }
    }
    /// Emits a declared event by name. Unknown events are dropped (nothing
    /// could be listening — collectors may only name declared events).
    fn emit(&mut self, event: &str, args: Vec<Datum>) {
        if let Some(id) = self.event_id(event) {
            self.emit_by_id(id, args);
        }
    }
}

/// A leaf hardware behavior.
///
/// The engine drives each cycle in two phases: `eval` computes outputs from
/// inputs and current state (and may run several times per cycle, the
/// earlier runs with inputs that are not yet settled — it must be a pure
/// function of inputs and state, so a repeated `eval` leaves what a single
/// one with the final inputs would), then `end_of_timestep` commits
/// synchronous state updates once. Which ports those phases read is stated
/// once, as data, in the behavior's [`Deps`]; `lss_verify::contract` checks
/// both promises.
pub trait Component {
    /// One-time initialization before cycle 0.
    fn init(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        Ok(())
    }

    /// Combinational evaluation.
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError>;

    /// Synchronous state update at the end of the cycle.
    fn end_of_timestep(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        Ok(())
    }

    /// `eval` against the engine's own context.
    ///
    /// The default forwards to [`Component::eval`] through `dyn CompCtx`,
    /// so a behavior only needs `eval`. A behavior that writes its body
    /// once, generic over `C: CompCtx + ?Sized`, and calls it from both
    /// methods gets a copy specialized to [`Ctx`]: port I/O becomes direct
    /// calls into the value arena. The engine calls this entry for every
    /// leaf, under both schedulers.
    fn eval_in(&mut self, ctx: &mut Ctx<'_>) -> Result<(), SimError> {
        self.eval(ctx)
    }

    /// `end_of_timestep` against the engine's own context; see
    /// [`Component::eval_in`].
    fn end_of_timestep_in(&mut self, ctx: &mut Ctx<'_>) -> Result<(), SimError> {
        self.end_of_timestep(ctx)
    }
}

/// A behavior's scheduling facts, declared beside its body and registered
/// with its factory; ports are named as in its LSS module. Analysis and
/// the static scheduler read them without building the behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deps {
    /// The inputs `eval` reads (`None`: all). The others are registered:
    /// read only by `end_of_timestep`, they break feedback loops.
    pub comb: Option<&'static [&'static str]>,
    /// Per listed output, the inputs its `eval` value reads (a credit
    /// computed from state alone reads none); an unlisted output reads
    /// every input `eval` reads.
    pub outputs: &'static [(&'static str, &'static [&'static str])],
    /// Whether `end_of_timestep` does anything; when false the engine skips
    /// it (an `end_of_timestep` userpoint still runs).
    pub end_of_timestep: bool,
}

impl Deps {
    /// The safe over-approximation for a behavior that declares nothing:
    /// every output reads every input, and `end_of_timestep` runs.
    pub const DEFAULT: Deps = Deps {
        comb: None,
        outputs: &[],
        end_of_timestep: true,
    };
    /// A state element: `eval` reads no input.
    pub const REGISTERED: Deps = Deps::reading(&[]);
    /// Logic without state: `end_of_timestep` does nothing.
    pub const STATELESS: Deps = Deps {
        end_of_timestep: false,
        ..Deps::DEFAULT
    };

    /// `eval` reads only `inputs`; `end_of_timestep` runs.
    pub const fn reading(inputs: &'static [&'static str]) -> Deps {
        Deps {
            comb: Some(inputs),
            ..Deps::DEFAULT
        }
    }

    /// Whether `eval` reads `input`.
    pub fn reads(&self, input: &str) -> bool {
        self.comb.is_none_or(|comb| comb.contains(&input))
    }

    /// Whether `output`'s `eval` value reads `input`.
    pub fn output_reads(&self, output: &str, input: &str) -> bool {
        let listed = self.outputs.iter().find(|(o, _)| *o == output);
        self.reads(input) && listed.is_none_or(|(_, inputs)| inputs.contains(&input))
    }

    /// Checks that each port the declaration names is a port of `spec` in
    /// the direction its place implies.
    pub fn check(&self, spec: &CompSpec) -> Result<(), BuildError> {
        let read = self.outputs.iter().flat_map(|(_, inputs)| *inputs);
        let inputs = self.comb.unwrap_or(&[]).iter().chain(read);
        let outputs = self.outputs.iter().map(|(o, _)| (o, Dir::Out));
        for (name, dir) in inputs.map(|p| (p, Dir::In)).chain(outputs) {
            if spec.port(name)?.dir != dir {
                let path = &spec.path;
                return Err(BuildError::new(format!(
                    "{path}: `{name}` is not an {dir}put port"
                )));
            }
        }
        Ok(())
    }
}

/// Factory producing a configured behavior from a spec.
pub type Factory = Box<dyn Fn(&CompSpec) -> Result<Box<dyn Component>, BuildError> + Send + Sync>;

/// Maps `tar_file` keys to behavior factories and their [`Deps`].
#[derive(Default)]
pub struct ComponentRegistry {
    factories: HashMap<String, (Deps, Factory)>,
}

impl ComponentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory for `tar_file` with its behavior's scheduling
    /// facts ([`Deps::DEFAULT`] when it declares none).
    ///
    /// # Panics
    ///
    /// Panics if the key is already registered (two behaviors for one
    /// `tar_file` is a programming error).
    pub fn register(
        &mut self,
        tar_file: impl Into<String>,
        deps: Deps,
        factory: impl Fn(&CompSpec) -> Result<Box<dyn Component>, BuildError> + Send + Sync + 'static,
    ) {
        let key = tar_file.into();
        let prev = self
            .factories
            .insert(key.clone(), (deps, Box::new(factory)));
        assert!(prev.is_none(), "behavior `{key}` registered twice");
    }

    /// The scheduling facts registered for `tar_file`; [`Deps::DEFAULT`]
    /// for an unknown key, which errs toward *reporting* cycles rather
    /// than hiding them.
    pub fn deps(&self, tar_file: &str) -> Deps {
        self.factories
            .get(tar_file)
            .map_or(Deps::DEFAULT, |(deps, _)| *deps)
    }

    /// Instantiates the behavior for `tar_file`.
    pub fn build(&self, tar_file: &str, spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        match self.factories.get(tar_file) {
            Some((_, f)) => f(spec),
            None => {
                let mut known: Vec<&String> = self.factories.keys().collect();
                known.sort();
                Err(BuildError::new(format!(
                    "{}: no behavior registered for `{tar_file}` (known: {})",
                    spec.path,
                    known
                        .iter()
                        .take(8)
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                )))
            }
        }
    }

    /// Number of registered behaviors.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// True if no behaviors are registered.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }
}

impl fmt::Debug for ComponentRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ComponentRegistry")
            .field("behaviors", &self.factories.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CompSpec {
        CompSpec {
            path: "x".into(),
            module: "m".into(),
            params: [
                ("n".to_string(), Datum::Int(4)),
                ("s".to_string(), Datum::Str("hi".into())),
            ]
            .into_iter()
            .collect(),
            ports: vec![PortSpec {
                name: "in".into(),
                dir: Dir::In,
                width: 2,
                ty: Ty::Int,
            }],
            userpoints: HashMap::new(),
            runtime_vars: vec![],
            protocols: vec![],
        }
    }

    #[test]
    fn spec_accessors() {
        let s = spec();
        assert_eq!(s.port_index("in").unwrap(), 0);
        assert!(s.port_index("out").is_err());
        assert_eq!(s.int_param("n").unwrap(), 4);
        assert_eq!(s.int_param_or("missing", 7).unwrap(), 7);
        assert!(s.int_param("s").is_err());
        assert_eq!(s.str_param_or("s", "d").unwrap(), "hi");
        assert_eq!(s.str_param_or("t", "d").unwrap(), "d");
        assert!(s.flag_param("n", false).unwrap());
        assert!(!s.flag_param("missing", false).unwrap());
    }

    struct Nop;
    impl Component for Nop {
        fn eval(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
            Ok(())
        }
    }

    #[test]
    fn registry_builds_and_reports_unknown() {
        let mut reg = ComponentRegistry::new();
        assert!(reg.is_empty());
        reg.register("corelib/nop.tar", Deps::DEFAULT, |_spec| {
            Ok(Box::new(Nop) as Box<dyn Component>)
        });
        assert_eq!(reg.len(), 1);
        assert!(reg.build("corelib/nop.tar", &spec()).is_ok());
        let Err(err) = reg.build("corelib/missing.tar", &spec()) else {
            panic!("expected a build error for an unregistered behavior");
        };
        assert!(err.message.contains("no behavior registered"));
        assert!(err.message.contains("corelib/nop.tar"));
    }

    #[test]
    fn deps_default_to_every_input_and_listed_outputs_narrow_it() {
        assert!(Deps::DEFAULT.output_reads("out", "in"));
        assert!(!Deps::REGISTERED.reads("in"));
        let deps = Deps {
            comb: Some(&["credit_in"]),
            outputs: &[("credit", &[])],
            ..Deps::DEFAULT
        };
        assert!(!deps.reads("in"));
        assert!(!deps.output_reads("out", "in"));
        assert!(deps.output_reads("out", "credit_in"));
        assert!(!deps.output_reads("credit", "credit_in"));
        let reg = ComponentRegistry::new();
        assert_eq!(reg.deps("corelib/missing.tar"), Deps::DEFAULT);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut reg = ComponentRegistry::new();
        reg.register("a", Deps::DEFAULT, |_s| {
            Ok(Box::new(Nop) as Box<dyn Component>)
        });
        reg.register("a", Deps::DEFAULT, |_s| {
            Ok(Box::new(Nop) as Box<dyn Component>)
        });
    }
}
