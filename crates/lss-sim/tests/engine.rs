//! End-to-end engine tests: LSS source → netlist → simulator → observed
//! cycle-accurate behavior.

use lss_ast::{parse, DiagnosticBag, SourceMap};
use lss_interp::{compile, CompileOptions, Unit};
use lss_netlist::Netlist;
use lss_sim::{
    build, BuildError, CompCtx, Component, ComponentRegistry, Deps, Scheduler, SimError,
    SimOptions, Simulator,
};
use lss_types::Datum;

// ---- test behaviors --------------------------------------------------------

/// Emits `start + cycle` on every lane of `out`.
struct Counter {
    out: usize,
    start: i64,
}
impl Component for Counter {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.out) {
            ctx.set_output(self.out, lane, Datum::Int(self.start + ctx.cycle() as i64));
        }
        Ok(())
    }
}

/// Accumulates everything arriving on `in` into runtime variable `total`.
struct Accumulate {
    inp: usize,
}
impl Component for Accumulate {
    fn eval(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        Ok(())
    }
    fn end_of_timestep(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let mut total = ctx.rtv("total").as_int().unwrap_or(0);
        for lane in 0..ctx.width(self.inp) {
            if let Some(Datum::Int(v)) = ctx.input(self.inp, lane) {
                total += v;
            }
        }
        ctx.set_rtv("total", Datum::Int(total));
        Ok(())
    }
}

/// One-cycle register: output = state; state <- input at end of cycle.
struct Register {
    inp: usize,
    out: usize,
    state: Vec<Option<Datum>>,
}
impl Component for Register {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        for lane in 0..ctx.width(self.out) {
            if let Some(v) = self.state.get(lane as usize).cloned().flatten() {
                ctx.set_output(self.out, lane, v);
            }
        }
        Ok(())
    }
    fn end_of_timestep(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let w = ctx.width(self.inp).max(ctx.width(self.out)) as usize;
        self.state.resize(w, None);
        for lane in 0..w {
            self.state[lane] = ctx.input(self.inp, lane as u32);
        }
        Ok(())
    }
}

/// Combinational adder: out[0] = a[0] + b[0].
struct Add {
    a: usize,
    b: usize,
    out: usize,
}
impl Component for Add {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        if let (Some(Datum::Int(x)), Some(Datum::Int(y))) =
            (ctx.input(self.a, 0), ctx.input(self.b, 0))
        {
            ctx.set_output(self.out, 0, Datum::Int(x + y));
        }
        Ok(())
    }
}

/// Applies its `f` userpoint to the input and forwards the result; also
/// emits a declared `applied` event in end_of_timestep.
struct Apply {
    inp: usize,
    out: usize,
}
impl Component for Apply {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        if let Some(v) = ctx.input(self.inp, 0) {
            let r = ctx.call_userpoint("f", &[v])?;
            ctx.set_output(self.out, 0, r);
        }
        Ok(())
    }
    fn end_of_timestep(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        if let Some(v) = ctx.input(self.inp, 0) {
            ctx.emit("applied", vec![v]);
        }
        Ok(())
    }
}

/// A combinational loop: out = max(in, floor) that converges.
struct Clamp {
    inp: usize,
    out: usize,
    floor: i64,
}
impl Component for Clamp {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let incoming = match ctx.input(self.inp, 0) {
            Some(Datum::Int(v)) => v,
            _ => 0,
        };
        ctx.set_output(self.out, 0, Datum::Int(incoming.max(self.floor)));
        Ok(())
    }
}

/// An oscillator: out = !in, never settles when looped to itself.
struct Inverter {
    inp: usize,
    out: usize,
}
impl Component for Inverter {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let v = matches!(ctx.input(self.inp, 0), Some(Datum::Bool(true)));
        ctx.set_output(self.out, 0, Datum::Bool(!v));
        Ok(())
    }
}

/// Drives its cycle number on `out` and emits a declared `tick` event in
/// every `eval`.
struct Ticker {
    out: usize,
}
impl Component for Ticker {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let cycle = Datum::Int(ctx.cycle() as i64);
        ctx.set_output(self.out, 0, cycle.clone());
        ctx.emit("tick", vec![cycle]);
        Ok(())
    }
}

/// Reads `in` combinationally and fails the first evaluation of cycle 1.
struct Flaky {
    inp: usize,
    failed: bool,
}
impl Component for Flaky {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        if ctx.input(self.inp, 0) == Some(Datum::Int(1)) && !self.failed {
            self.failed = true;
            return Err(SimError::new("transient failure"));
        }
        Ok(())
    }
}

fn registry() -> ComponentRegistry {
    let mut reg = ComponentRegistry::new();
    reg.register("test/counter.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Counter {
            out: spec.port_index("out")?,
            start: spec.int_param_or("start", 0)?,
        }) as Box<dyn Component>)
    });
    reg.register("test/acc.tar", Deps::REGISTERED, |spec| {
        Ok(Box::new(Accumulate {
            inp: spec.port_index("in")?,
        }) as Box<dyn Component>)
    });
    reg.register("test/reg.tar", Deps::REGISTERED, |spec| {
        Ok(Box::new(Register {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
            state: Vec::new(),
        }) as Box<dyn Component>)
    });
    reg.register("test/add.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Add {
            a: spec.port_index("a")?,
            b: spec.port_index("b")?,
            out: spec.port_index("out")?,
        }) as Box<dyn Component>)
    });
    reg.register("test/apply.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Apply {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
        }) as Box<dyn Component>)
    });
    reg.register("test/clamp.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Clamp {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
            floor: spec.int_param_or("floor", 0)?,
        }) as Box<dyn Component>)
    });
    reg.register("test/ticker.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Ticker {
            out: spec.port_index("out")?,
        }) as Box<dyn Component>)
    });
    reg.register("test/flaky.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Flaky {
            inp: spec.port_index("in")?,
            failed: false,
        }) as Box<dyn Component>)
    });
    reg.register("test/inv.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Inverter {
            inp: spec.port_index("in")?,
            out: spec.port_index("out")?,
        }) as Box<dyn Component>)
    });
    reg
}

const LIB: &str = r#"
module counter {
    parameter start = 0:int;
    outport out:int;
    tar_file = "test/counter.tar";
};
module acc {
    inport in:int;
    runtime var total:int = 0;
    tar_file = "test/acc.tar";
};
module reg {
    inport in:'a;
    outport out:'a;
    tar_file = "test/reg.tar";
};
module add {
    inport a:int;
    inport b:int;
    outport out:int;
    tar_file = "test/add.tar";
};
module apply {
    parameter f: userpoint(x:int => int);
    inport in:int;
    outport out:int;
    event applied(int);
    tar_file = "test/apply.tar";
};
module clamp {
    parameter floor = 0:int;
    inport in:int;
    outport out:int;
    tar_file = "test/clamp.tar";
};
module inv {
    inport in:bool;
    outport out:bool;
    tar_file = "test/inv.tar";
};
module ticker {
    outport out:int;
    event tick(int);
    tar_file = "test/ticker.tar";
};
module flaky {
    inport in:int;
    tar_file = "test/flaky.tar";
};
"#;

fn netlist_of(src: &str) -> Netlist {
    let mut sources = SourceMap::new();
    let lib_file = sources.add_file("lib.lss", LIB);
    let model_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, LIB, &mut diags);
    let model = parse(model_file, src, &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render(&sources));
    compile(
        &[
            Unit {
                program: &lib,
                library: true,
            },
            Unit {
                program: &model,
                library: false,
            },
        ],
        &CompileOptions::default(),
        &mut diags,
    )
    .unwrap_or_else(|| panic!("{}", diags.render(&sources)))
    .netlist
}

fn sim_of(src: &str, scheduler: Scheduler) -> Simulator {
    let netlist = netlist_of(src);
    build(
        &netlist,
        &registry(),
        SimOptions {
            scheduler,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| panic!("build failed: {e}"))
}

// ---- tests -----------------------------------------------------------------

#[test]
fn counter_feeds_accumulator() {
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut sim = sim_of(
            "instance c:counter;\ninstance a:acc;\nc.out -> a.in;",
            scheduler,
        );
        sim.run(5).unwrap();
        // 0+1+2+3+4 = 10.
        assert_eq!(sim.rtv("a", "total"), Some(Datum::Int(10)), "{scheduler:?}");
    }
}

#[test]
fn register_delays_by_one_cycle() {
    let mut sim = sim_of(
        "instance c:counter;\ninstance r:reg;\ninstance a:acc;\nc.out -> r.in;\nr.out -> a.in;",
        Scheduler::Static,
    );
    sim.run(1).unwrap();
    // Cycle 0: register still empty.
    assert_eq!(sim.peek("r", "out", 0), None);
    sim.run(1).unwrap();
    // Cycle 1: register outputs cycle-0's value.
    assert_eq!(sim.peek("r", "out", 0), Some(Datum::Int(0)));
    sim.run(1).unwrap();
    assert_eq!(sim.peek("r", "out", 0), Some(Datum::Int(1)));
    // After 3 cycles the accumulator saw 0 and 1.
    assert_eq!(sim.rtv("a", "total"), Some(Datum::Int(1)));
}

#[test]
fn three_stage_register_pipeline_has_three_cycle_latency() {
    let src = r#"
        instance c:counter;
        instance r0:reg;
        instance r1:reg;
        instance r2:reg;
        instance a:acc;
        c.out -> r0.in;
        r0.out -> r1.in;
        r1.out -> r2.in;
        r2.out -> a.in;
    "#;
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut sim = sim_of(src, scheduler);
        sim.run(3).unwrap();
        assert_eq!(sim.peek("r2", "out", 0), None, "{scheduler:?}");
        sim.run(1).unwrap();
        assert_eq!(
            sim.peek("r2", "out", 0),
            Some(Datum::Int(0)),
            "{scheduler:?}"
        );
        sim.run(1).unwrap();
        assert_eq!(
            sim.peek("r2", "out", 0),
            Some(Datum::Int(1)),
            "{scheduler:?}"
        );
    }
}

#[test]
fn adder_combines_two_counters_same_cycle() {
    let src = r#"
        instance c1:counter;
        instance c2:counter;
        c2.start = 100;
        instance x:add;
        instance a:acc;
        c1.out -> x.a;
        c2.out -> x.b;
        x.out -> a.in;
    "#;
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut sim = sim_of(src, scheduler);
        sim.run(1).unwrap();
        assert_eq!(
            sim.peek("x", "out", 0),
            Some(Datum::Int(100)),
            "{scheduler:?}"
        );
        sim.run(1).unwrap();
        assert_eq!(
            sim.peek("x", "out", 0),
            Some(Datum::Int(102)),
            "{scheduler:?}"
        );
    }
}

#[test]
fn static_schedule_evaluates_each_component_once_per_cycle() {
    let src = r#"
        instance c:counter;
        instance r:reg;
        instance x:add;
        instance a:acc;
        c.out -> x.a;
        c.out -> x.b;
        x.out -> r.in;
        r.out -> a.in;
    "#;
    let mut sim = sim_of(src, Scheduler::Static);
    sim.run(10).unwrap();
    let stats = sim.stats();
    assert_eq!(stats.cycles, 10);
    assert_eq!(stats.comp_evals, 40, "4 components x 10 cycles exactly");

    let mut dyn_sim = sim_of(src, Scheduler::Dynamic);
    dyn_sim.run(10).unwrap();
    // Dynamic scheduling re-evaluates consumers whose inputs changed.
    assert!(
        dyn_sim.stats().comp_evals > stats.comp_evals,
        "dynamic ({}) should do more evals than static ({})",
        dyn_sim.stats().comp_evals,
        stats.comp_evals
    );
    // But both compute the same result.
    assert_eq!(dyn_sim.rtv("a", "total"), sim.rtv("a", "total"));
}

#[test]
fn userpoints_customize_computation() {
    let src = r#"
        instance c:counter;
        instance ap:apply;
        instance a:acc;
        ap.f = "return x * x;";
        c.out -> ap.in;
        ap.out -> a.in;
    "#;
    let mut sim = sim_of(src, Scheduler::Static);
    sim.run(4).unwrap();
    // 0 + 1 + 4 + 9 = 14.
    assert_eq!(sim.rtv("a", "total"), Some(Datum::Int(14)));
}

#[test]
fn collectors_count_port_firings_and_declared_events() {
    let src = r#"
        instance c:counter;
        instance ap:apply;
        instance a:acc;
        ap.f = "return x;";
        c.out -> ap.in;
        ap.out -> a.in;
        collector ap : applied = "seen = seen + 1; last = arg0;";
        collector c : out_fire = "fires = fires + 1; sum = sum + value;";
    "#;
    let mut sim = sim_of(src, Scheduler::Static);
    sim.run(5).unwrap();
    assert_eq!(
        sim.collector_stat("ap", "applied", "seen"),
        Some(Datum::Int(5))
    );
    assert_eq!(
        sim.collector_stat("ap", "applied", "last"),
        Some(Datum::Int(4))
    );
    assert_eq!(
        sim.collector_stat("c", "out_fire", "fires"),
        Some(Datum::Int(5))
    );
    assert_eq!(
        sim.collector_stat("c", "out_fire", "sum"),
        Some(Datum::Int(10))
    );
    assert!(sim.stats().events_dispatched >= 10);
}

#[test]
fn init_and_end_of_timestep_system_userpoints_run() {
    // `acc2` wraps acc with the two system-defined userpoints (§4.3).
    let src = r#"
        module acc2 {
            inport in:int;
            runtime var total:int = 0;
            runtime var cycles:int = 0;
            parameter init = "total = 1000;" : userpoint( => int);
            parameter end_of_timestep = "cycles = cycles + 1;" : userpoint( => int);
            tar_file = "test/acc.tar";
        };
        instance c:counter;
        instance a:acc2;
        c.out -> a.in;
    "#;
    let mut sim = sim_of(src, Scheduler::Static);
    sim.run(3).unwrap();
    // init set total to 1000 before cycle 0; inputs 0+1+2 added.
    assert_eq!(sim.rtv("a", "total"), Some(Datum::Int(1003)));
    assert_eq!(sim.rtv("a", "cycles"), Some(Datum::Int(3)));
}

#[test]
fn convergent_combinational_loop_settles() {
    // clamp1 -> clamp2 -> clamp1 — both converge to the max floor.
    let src = r#"
        instance k1:clamp;
        instance k2:clamp;
        k1.floor = 3;
        k2.floor = 8;
        k1.out -> k2.in;
        k2.out -> k1.in;
    "#;
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut sim = sim_of(src, scheduler);
        sim.run(1).unwrap();
        assert_eq!(
            sim.peek("k1", "out", 0),
            Some(Datum::Int(8)),
            "{scheduler:?}"
        );
        assert_eq!(
            sim.peek("k2", "out", 0),
            Some(Datum::Int(8)),
            "{scheduler:?}"
        );
    }
    // The static plan contains exactly one fixpoint block.
    let sim = sim_of(src, Scheduler::Static);
    let blocks: Vec<_> = sim.plan_stages().into_iter().filter(|u| u.1).collect();
    assert_eq!(blocks.len(), 1);
}

#[test]
fn a_retried_cycle_dispatches_its_events_once() {
    // `f` fails cycle 1 after `e` has emitted that cycle's tick; the tick
    // must not survive into the retried cycle 1, which emits its own.
    let src = r#"
        instance e:ticker;
        instance f:flaky;
        e.out -> f.in;
        collector e : tick = "seen = seen + 1;";
    "#;
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut sim = sim_of(src, scheduler);
        sim.step().unwrap();
        let err = sim.step().unwrap_err();
        assert!(
            err.message.contains("transient failure"),
            "{scheduler:?}: {err}"
        );
        sim.step().unwrap();
        assert_eq!(sim.cycle(), 2, "{scheduler:?}");
        assert_eq!(
            sim.collector_stat("e", "tick", "seen"),
            Some(Datum::Int(2)),
            "{scheduler:?}"
        );
    }
}

#[test]
fn oscillating_loop_is_detected() {
    // A single inverter feeding itself flip-flops forever (a ring of two
    // would be a stable latch).
    let src = r#"
        instance i1:inv;
        i1.out -> i1.in;
    "#;
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut sim = sim_of(src, scheduler);
        let err = sim.run(1).unwrap_err();
        assert!(
            err.message.contains("did not settle") || err.message.contains("fixpoint"),
            "{scheduler:?}: {err}"
        );
    }
}

#[test]
fn fanout_width_lanes_carry_independent_values() {
    // counter drives two accumulators through two lanes of its out port.
    let src = r#"
        instance c:counter;
        instance a1:acc;
        instance a2:acc;
        c.out -> a1.in;
        c.out -> a2.in;
    "#;
    let mut sim = sim_of(src, Scheduler::Static);
    sim.run(3).unwrap();
    assert_eq!(sim.rtv("a1", "total"), Some(Datum::Int(3)));
    assert_eq!(sim.rtv("a2", "total"), Some(Datum::Int(3)));
}

#[test]
fn unknown_behavior_is_a_build_error() {
    let netlist = netlist_of(
        "module ghost { inport in:int; tar_file = \"test/ghost.tar\"; };\n\
         instance c:counter;\ninstance g:ghost;\nc.out -> g.in;",
    );
    let err: BuildError = build(&netlist, &registry(), SimOptions::default()).unwrap_err();
    assert!(err.message.contains("no behavior registered"));
}

#[test]
fn bad_userpoint_code_is_a_build_error() {
    let netlist = netlist_of(
        r#"
        instance c:counter;
        instance ap:apply;
        instance a:acc;
        ap.f = "this is not lss @@@";
        c.out -> ap.in;
        ap.out -> a.in;
        "#,
    );
    let err = build(&netlist, &registry(), SimOptions::default()).unwrap_err();
    assert!(err.message.contains("does not compile"), "{err}");
}

#[test]
fn schedulers_agree_on_a_mixed_model() {
    let src = r#"
        instance c1:counter;
        instance c2:counter;
        c2.start = 7;
        instance x:add;
        instance r:reg;
        instance ap:apply;
        ap.f = "return x * 2;";
        instance a:acc;
        c1.out -> x.a;
        c2.out -> x.b;
        x.out -> r.in;
        r.out -> ap.in;
        ap.out -> a.in;
    "#;
    let mut s1 = sim_of(src, Scheduler::Static);
    let mut s2 = sim_of(src, Scheduler::Dynamic);
    s1.run(20).unwrap();
    s2.run(20).unwrap();
    assert_eq!(s1.rtv("a", "total"), s2.rtv("a", "total"));
    assert_eq!(s1.peek("ap", "out", 0), s2.peek("ap", "out", 0));
}

#[test]
fn collector_reports_enumerate_all_probes() {
    let src = r#"
        instance c:counter;
        instance a:acc;
        c.out -> a.in;
        collector c : out_fire = "n = n + 1;";
    "#;
    let mut sim = sim_of(src, Scheduler::Static);
    sim.run(2).unwrap();
    let reports = sim.collector_reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].0, "c");
    assert_eq!(reports[0].1, "out_fire");
    assert_eq!(reports[0].2.get("n"), Some(&Datum::Int(2)));
}

#[test]
fn firing_log_records_watched_values() {
    let mut sim = sim_of(
        "instance c:counter;\ninstance r:reg;\ninstance a:acc;\nc.out -> r.in;\nr.out -> a.in;",
        Scheduler::Static,
    );
    sim.watch("r");
    sim.set_firing_log_cap(3);
    sim.run(6).unwrap();
    let log = sim.firing_log();
    // The register fires from cycle 1 on; the cap limits the log to 3.
    assert_eq!(log.len(), 3);
    assert_eq!(log[0].cycle, 1);
    assert_eq!(log[0].path, "r");
    assert_eq!(log[0].port, "out");
    assert_eq!(log[0].value, Datum::Int(0));
    assert_eq!(log[2].value, Datum::Int(2));
    // Unwatched components never enter the log.
    assert!(log.iter().all(|rec| rec.path == "r"));
}

#[test]
fn watching_mid_run_logs_from_that_cycle_and_leaves_collectors_alone() {
    let src = r#"
        instance c:counter;
        instance r:reg;
        instance a:acc;
        c.out -> r.in;
        r.out -> a.in;
        collector c : out_fire = "fires = fires + 1; sum = sum + value;";
    "#;
    for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
        let mut plain = sim_of(src, scheduler);
        plain.run(8).unwrap();
        let mut sim = sim_of(src, scheduler);
        sim.run(3).unwrap();
        assert!(sim.firing_log().is_empty(), "{scheduler:?}");
        sim.watch("");
        sim.run(5).unwrap();
        // Cycles 3..8, the counter then the register on each.
        let log: Vec<(u64, &str, Datum)> = sim
            .firing_log()
            .iter()
            .map(|r| (r.cycle, r.path.as_str(), r.value.clone()))
            .collect();
        let expected: Vec<(u64, &str, Datum)> = (3..8)
            .flat_map(|cy| {
                [
                    (cy, "c", Datum::Int(cy as i64)),
                    (cy, "r", Datum::Int(cy as i64 - 1)),
                ]
            })
            .collect();
        assert_eq!(log, expected, "{scheduler:?}");
        for stat in ["fires", "sum"] {
            assert_eq!(
                sim.collector_stat("c", "out_fire", stat),
                plain.collector_stat("c", "out_fire", stat),
                "{scheduler:?}: {stat}"
            );
        }
        assert_eq!(
            sim.collector_stat("c", "out_fire", "sum"),
            Some(Datum::Int(28))
        );
        assert_eq!(sim.stats(), plain.stats(), "{scheduler:?}");
    }
}

#[test]
fn type_checking_mode_catches_behavior_type_violations() {
    // A deliberately broken behavior: declares int ports but sends bools.
    struct Liar {
        out: usize,
    }
    impl Component for Liar {
        fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
            ctx.set_output(self.out, 0, Datum::Bool(true));
            Ok(())
        }
    }
    let mut reg = registry();
    reg.register("test/liar.tar", Deps::DEFAULT, |spec| {
        Ok(Box::new(Liar {
            out: spec.port_index("out")?,
        }) as Box<dyn Component>)
    });
    let netlist = netlist_of(
        "module liar { outport out:int; tar_file = \"test/liar.tar\"; };\n\
         instance l:liar;\ninstance a:acc;\nl.out -> a.in;",
    );
    // Unchecked: the lie reaches the accumulator silently (it ignores
    // non-int values).
    let mut unchecked = build(&netlist, &reg, SimOptions::default()).unwrap();
    unchecked.run(2).unwrap();
    // Checked: the first cycle fails with a precise message.
    let mut checked = build(
        &netlist,
        &reg,
        SimOptions {
            check_types: true,
            ..Default::default()
        },
    )
    .unwrap();
    let err = checked.run(1).unwrap_err();
    assert!(err.message.contains("expects int"), "{err}");
    assert!(
        err.message.contains("l:"),
        "message should name the instance: {err}"
    );
}

#[test]
fn type_checking_mode_passes_clean_models() {
    let netlist = netlist_of("instance c:counter;\ninstance a:acc;\nc.out -> a.in;");
    let mut sim = build(
        &netlist,
        &registry(),
        SimOptions {
            check_types: true,
            ..Default::default()
        },
    )
    .unwrap();
    sim.run(5).unwrap();
    assert_eq!(sim.rtv("a", "total"), Some(Datum::Int(10)));
}

#[test]
fn cycle_budget_stops_runs_with_lss408() {
    use lss_types::{BudgetCaps, BudgetKind};
    let netlist = netlist_of("instance c:counter;\ninstance a:acc;\nc.out -> a.in;");
    let mut sim = build(
        &netlist,
        &registry(),
        SimOptions {
            budget: BudgetCaps {
                max_sim_cycles: Some(3),
                ..Default::default()
            }
            .start(),
            ..Default::default()
        },
    )
    .unwrap();
    // Three cycles fit the allowance exactly...
    sim.run(3).unwrap();
    assert_eq!(sim.stats().cycles, 3);
    // ...the fourth is shed before any work, leaving state at the cycle-3
    // boundary (accumulator saw 0+1+2).
    let err = sim.run(1).unwrap_err();
    assert_eq!(err.budget, Some(BudgetKind::SimCycles));
    assert_eq!(err.budget_code(), Some("LSS408"));
    assert!(err.message.contains("LSS408"), "{err}");
    assert!(err.message.contains("--max-cycles"), "{err}");
    assert_eq!(sim.stats().cycles, 3);
    assert_eq!(sim.rtv("a", "total"), Some(Datum::Int(3)));
}

#[test]
fn expired_deadline_stops_simulation_with_lss401() {
    use lss_types::{BudgetCaps, BudgetKind};
    use std::time::Duration;
    let netlist = netlist_of("instance c:counter;\ninstance a:acc;\nc.out -> a.in;");
    let mut sim = build(
        &netlist,
        &registry(),
        SimOptions {
            budget: BudgetCaps {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            }
            .start(),
            ..Default::default()
        },
    )
    .unwrap();
    // The deadline poll is strided, so run long enough to guarantee a poll.
    let err = sim.run(10_000).unwrap_err();
    assert_eq!(err.budget, Some(BudgetKind::Deadline));
    assert_eq!(err.budget_code(), Some("LSS401"));
}
