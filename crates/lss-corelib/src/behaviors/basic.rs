//! Basic data-movement components: sources, sinks, registers, fan-out.

use lss_netlist::{EventId, RtvId};
use lss_sim::{BuildError, CompCtx, CompSpec, Component, Deps, SimError};
use lss_types::{Datum, Ty};

/// `corelib/source.tar` — emits a value on every lane of `out` each cycle.
///
/// For `int` ports it counts from `start + seed` (the seed comes from
/// [`CompCtx::seed`], so batch lanes produce distinct streams); for any
/// other inferred type it emits the type's default value (the polymorphic
/// case).
pub struct Source {
    out: usize,
    start: i64,
    /// The fixed value for non-`int` types; `None` selects the counter.
    konst: Option<Datum>,
}

impl Source {
    /// No inputs, no state update.
    pub const DEPS: Deps = Deps::STATELESS;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        let out = spec.port_index("out")?;
        Ok(Box::new(Source {
            out,
            start: spec.int_param_or("start", 0)?,
            konst: match &spec.ports[out].ty {
                Ty::Int => None,
                other => Some(Datum::default_for(other)),
            },
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let value = match &self.konst {
            Some(value) => value.clone(),
            None => Datum::Int(self.start + ctx.seed() + ctx.cycle() as i64),
        };
        for lane in 0..ctx.width(self.out) {
            ctx.set_output(self.out, lane, value.clone());
        }
        Ok(())
    }
}

impl Component for Source {
    eval_body!();
}

/// `corelib/sink.tar` — consumes everything on `in`, counting arrivals in
/// the runtime variable `count` (declared by the corelib module).
pub struct Sink {
    inp: usize,
    count: Option<RtvId>,
}

impl Sink {
    /// Arrivals are counted at the end of the cycle.
    pub const DEPS: Deps = Deps::REGISTERED;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Sink {
            inp: spec.port_index("in")?,
            count: None,
        }))
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let id = self.count.expect("resolved in init");
        let mut count = ctx.rtv_by_id(id).as_int().unwrap_or(0);
        for lane in 0..ctx.width(self.inp) {
            if ctx.input(self.inp, lane).is_some() {
                count += 1;
            }
        }
        ctx.set_rtv_by_id(id, Datum::Int(count));
        Ok(())
    }
}

impl Component for Sink {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.count = Some(ctx.ensure_rtv("count", Datum::Int(0)));
        Ok(())
    }

    fn eval(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        Ok(())
    }

    end_of_timestep_body!();
}

/// `corelib/delay.tar` — the paper's Figure 5 single-cycle delay element:
/// `out` carries the state (initially `initial_state`), which takes `in`'s
/// value at the end of each cycle.
pub struct Delay {
    inp: usize,
    out: usize,
    state: Datum,
}

impl Delay {
    /// `out` is the state; `in` is latched at the end of the cycle.
    pub const DEPS: Deps = Deps::REGISTERED;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Delay {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
            state: Datum::Int(spec.int_param_or("initial_state", 0)?),
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.out) {
            ctx.set_output(self.out, lane, self.state.clone());
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        if let Some(v) = ctx.input(self.inp, 0) {
            self.state = v;
        }
        Ok(())
    }
}

impl Component for Delay {
    eval_body!();
    end_of_timestep_body!();
}

/// `corelib/latch.tar` — a polymorphic register: each `out` lane carries
/// what the matching `in` lane held at the end of the previous cycle
/// (nothing in the first cycle).
pub struct Latch {
    inp: usize,
    out: usize,
    state: Vec<Option<Datum>>,
}

impl Latch {
    /// `out` is the state; `in` is latched at the end of the cycle.
    pub const DEPS: Deps = Deps::REGISTERED;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Latch {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
            state: Vec::new(),
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        // Lanes past `out`'s width are unconnected: writing them is a no-op.
        for (lane, v) in self.state.iter().enumerate() {
            if let Some(v) = v {
                ctx.set_output(self.out, lane as u32, v.clone());
            }
        }
        Ok(())
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let lanes = ctx.width(self.inp).max(ctx.width(self.out)) as usize;
        if self.state.len() != lanes {
            self.state.resize(lanes, None);
        }
        for lane in 0..lanes {
            self.state[lane] = ctx.input(self.inp, lane as u32);
        }
        Ok(())
    }
}

impl Component for Latch {
    eval_body!();
    end_of_timestep_body!();
}

/// `corelib/tee.tar` — combinational fan-out: copies `in[0]` to every lane
/// of `out`.
pub struct Tee {
    inp: usize,
    out: usize,
}

impl Tee {
    /// Combinational fan-out, no state.
    pub const DEPS: Deps = Deps::STATELESS;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Tee {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
        }))
    }

    fn eval_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        if let Some(v) = ctx.input(self.inp, 0) {
            for lane in 0..ctx.width(self.out) {
                ctx.set_output(self.out, lane, v.clone());
            }
        }
        Ok(())
    }
}

impl Component for Tee {
    eval_body!();
}

/// `corelib/probe.tar` — a pure observation tap: counts arrivals per lane
/// into the `seen` runtime variable and emits an `observed` event per
/// value. Lets models be instrumented without touching other components
/// (§4.5).
pub struct Probe {
    inp: usize,
    seen: Option<RtvId>,
    observed: Option<EventId>,
}

impl Probe {
    /// Arrivals are observed at the end of the cycle.
    pub const DEPS: Deps = Deps::REGISTERED;

    /// Factory.
    pub fn new(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(Probe {
            inp: spec.port_index("in")?,
            seen: None,
            observed: None,
        }))
    }

    fn end_of_timestep_on<C: CompCtx + ?Sized>(&mut self, ctx: &mut C) -> Result<(), SimError> {
        let seen_id = self.seen.expect("resolved in init");
        let mut seen = ctx.rtv_by_id(seen_id).as_int().unwrap_or(0);
        for lane in 0..ctx.width(self.inp) {
            if let Some(v) = ctx.input(self.inp, lane) {
                seen += 1;
                if let Some(ev) = self.observed {
                    ctx.emit_by_id(ev, vec![v]);
                }
            }
        }
        ctx.set_rtv_by_id(seen_id, Datum::Int(seen));
        Ok(())
    }
}

impl Component for Probe {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.seen = Some(ctx.ensure_rtv("seen", Datum::Int(0)));
        self.observed = ctx.event_id("observed");
        Ok(())
    }

    fn eval(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        Ok(())
    }

    end_of_timestep_body!();
}
