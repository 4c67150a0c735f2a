//! Randomized tests over the whole stack: parser/printer consistency,
//! type-inference soundness and completeness against the naive solver,
//! BSL arithmetic correctness, and simulation conservation laws. Driven
//! by the in-repo seeded PRNG so every failure reproduces from its seed.

use lss_types::SplitMix64;

// ---------------------------------------------------------------------------
// Parser / pretty-printer round trip.
// ---------------------------------------------------------------------------

/// A generated expression tree paired with its expected integer value.
#[derive(Debug, Clone)]
enum IntExpr {
    Lit(i32),
    Add(Box<IntExpr>, Box<IntExpr>),
    Sub(Box<IntExpr>, Box<IntExpr>),
    Mul(Box<IntExpr>, Box<IntExpr>),
    Neg(Box<IntExpr>),
    Ternary(Box<IntExpr>, Box<IntExpr>, Box<IntExpr>),
}

impl IntExpr {
    fn gen(rng: &mut SplitMix64, depth: u32) -> IntExpr {
        if depth == 0 || rng.percent(35) {
            return IntExpr::Lit(rng.range_i64(-50, 50) as i32);
        }
        match rng.index(5) {
            0 => IntExpr::Add(
                Box::new(IntExpr::gen(rng, depth - 1)),
                Box::new(IntExpr::gen(rng, depth - 1)),
            ),
            1 => IntExpr::Sub(
                Box::new(IntExpr::gen(rng, depth - 1)),
                Box::new(IntExpr::gen(rng, depth - 1)),
            ),
            2 => IntExpr::Mul(
                Box::new(IntExpr::gen(rng, depth - 1)),
                Box::new(IntExpr::gen(rng, depth - 1)),
            ),
            3 => IntExpr::Neg(Box::new(IntExpr::gen(rng, depth - 1))),
            _ => IntExpr::Ternary(
                Box::new(IntExpr::gen(rng, depth - 1)),
                Box::new(IntExpr::gen(rng, depth - 1)),
                Box::new(IntExpr::gen(rng, depth - 1)),
            ),
        }
    }

    fn render(&self) -> String {
        match self {
            IntExpr::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            IntExpr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            IntExpr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            IntExpr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            IntExpr::Neg(a) => format!("(-{})", a.render()),
            IntExpr::Ternary(c, a, b) => {
                format!("({} > 0 ? {} : {})", c.render(), a.render(), b.render())
            }
        }
    }

    fn value(&self) -> i64 {
        match self {
            IntExpr::Lit(v) => *v as i64,
            IntExpr::Add(a, b) => a.value().wrapping_add(b.value()),
            IntExpr::Sub(a, b) => a.value().wrapping_sub(b.value()),
            IntExpr::Mul(a, b) => a.value().wrapping_mul(b.value()),
            IntExpr::Neg(a) => -a.value(),
            IntExpr::Ternary(c, a, b) => {
                if c.value() > 0 {
                    a.value()
                } else {
                    b.value()
                }
            }
        }
    }
}

/// The compile-time evaluator computes the same value as the reference
/// semantics, through the real parser.
#[test]
fn lss_expressions_evaluate_correctly() {
    let mut rng = SplitMix64::new(0x1001);
    for case in 0..64 {
        let expr = IntExpr::gen(&mut rng, 4);
        let src = format!("instance d:delay;\nd.initial_state = {};", expr.render());
        let mut driver = liberty::Driver::with_corelib();
        driver.add_source("prop.lss", &src);
        let compiled = driver
            .elaborate()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let got = compiled.netlist.find("d").unwrap().params["initial_state"]
            .as_int()
            .unwrap();
        assert_eq!(got, expr.value(), "case {case}: {}", expr.render());
    }
}

/// Pretty-printing then reparsing is a fixed point of the front end.
#[test]
fn pretty_print_reparse_is_stable() {
    use lss_ast::{parse, pretty, DiagnosticBag, SourceMap};
    let mut rng = SplitMix64::new(0x1002);
    for case in 0..128 {
        let expr = IntExpr::gen(&mut rng, 4);
        let src = format!("var x:int = {};", expr.render());
        let mut sources = SourceMap::new();
        let f1 = sources.add_file("a.lss", src.as_str());
        let mut diags = DiagnosticBag::new();
        let p1 = parse(f1, &src, &mut diags);
        assert!(!diags.has_errors(), "case {case}: {src}");
        let printed = pretty::program_to_string(&p1);
        let f2 = sources.add_file("b.lss", printed.as_str());
        let p2 = parse(f2, &printed, &mut diags);
        assert!(!diags.has_errors(), "case {case}: {printed}");
        assert_eq!(printed, pretty::program_to_string(&p2), "case {case}");
    }
}

/// BSL (simulation-time) arithmetic agrees with compile-time evaluation
/// and with the reference semantics.
#[test]
fn bsl_matches_reference_semantics() {
    let mut rng = SplitMix64::new(0x1003);
    for case in 0..128 {
        let expr = IntExpr::gen(&mut rng, 4);
        let code = format!("return {};", expr.render());
        let program = lss_sim::compile_bsl(&code).unwrap_or_else(|e| panic!("case {case}: {e}"));
        let mut vars = lss_sim::SlotTable::new();
        let mut env = lss_sim::BslEnv::bound(&[], vec![], &mut vars);
        let result = lss_sim::exec(&program, &mut env, 1_000_000)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            result,
            Some(lss_types::Datum::Int(expr.value())),
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------------
// Type-inference soundness against the naive solver.
// ---------------------------------------------------------------------------

fn gen_scheme(rng: &mut SplitMix64, vars: u32, depth: u32) -> lss_types::Scheme {
    use lss_types::{Scheme, TyVar};
    if depth == 0 || rng.percent(45) {
        return match rng.index(4) {
            0 => Scheme::Int,
            1 => Scheme::Bool,
            2 => Scheme::Float,
            _ => Scheme::Var(TyVar(rng.range_u32(0, vars))),
        };
    }
    match rng.index(2) {
        0 => Scheme::Array(Box::new(gen_scheme(rng, vars, depth - 1)), 1 + rng.index(2)),
        _ => {
            let n = 2 + rng.index(2);
            Scheme::Or((0..n).map(|_| gen_scheme(rng, vars, depth - 1)).collect())
        }
    }
}

/// On random constraint systems the heuristic solver and the naive
/// algorithm agree on satisfiability, and satisfying solutions actually
/// satisfy every constraint.
#[test]
fn heuristic_solver_agrees_with_naive() {
    use lss_types::{
        solve, Constraint, ConstraintSet, SolveError, SolverConfig, Subst, UnifyStats,
    };
    let mut rng = SplitMix64::new(0x1004);
    for case in 0..96 {
        let n = 1 + rng.index(5);
        let set: ConstraintSet = (0..n)
            .map(|_| Constraint::eq(gen_scheme(&mut rng, 3, 3), gen_scheme(&mut rng, 3, 3)))
            .collect();
        let heuristic = solve(&set, &SolverConfig::heuristic());
        let naive = solve(&set, &SolverConfig::naive().with_budget(5_000_000));
        match (&heuristic, &naive) {
            (Ok(sol), Ok(_)) => {
                // Soundness: substitute and check every constraint.
                for c in set.iter() {
                    let l = sol.subst.resolve(&c.lhs);
                    let r = sol.subst.resolve(&c.rhs);
                    let le = l.expand_disjuncts(512).expect("cap");
                    let re = r.expand_disjuncts(512).expect("cap");
                    let mut stats = UnifyStats::default();
                    let ok = le.iter().any(|a| {
                        re.iter()
                            .any(|b| lss_types::unifiable(a, b, &Subst::new(), &mut stats))
                    });
                    assert!(
                        ok,
                        "case {case}: solution violates {c} (resolved {l} = {r})"
                    );
                }
            }
            (Err(SolveError::Unsatisfiable { .. }), Err(SolveError::Unsatisfiable { .. })) => {}
            (_, Err(SolveError::BudgetExhausted { .. })) => {
                // Naive ran out of budget; nothing to compare.
            }
            (h, n) => {
                panic!("case {case}: solvers disagree: heuristic={h:?} naive={n:?} on {set}")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Simulation conservation: nothing is lost or duplicated in transit.
// ---------------------------------------------------------------------------

/// Every value a source emits through a randomly sized latch chain arrives
/// at the sink exactly once, under both schedulers.
#[test]
fn delay_chains_conserve_values() {
    let mut rng = SplitMix64::new(0x1005);
    for case in 0..12 {
        let stages = 1 + rng.index(7);
        let lanes = 1 + rng.index(3);
        let cycles = rng.range_i64(10, 30) as u64;
        let src = format!(
            r#"
            module wsrc {{ outport out:'a; tar_file = "corelib/source.tar"; }};
            module wsink {{ inport in:'a; runtime var count:int = 0; tar_file = "corelib/sink.tar"; }};
            module wlatch {{ inport in:'a; outport out:'a; tar_file = "corelib/latch.tar"; }};
            module wchain {{
                parameter n:int;
                inport in:'a;
                outport out:'a;
                var stages:instance ref[];
                stages = new instance[n](wlatch, "stages");
                var i:int;
                LSS_connect_bus(in, stages[0].in, in.width);
                for (i = 1; i < n; i = i + 1) {{
                    LSS_connect_bus(stages[i-1].out, stages[i].in, in.width);
                }}
                LSS_connect_bus(stages[n-1].out, out, in.width);
            }};
            instance gen:wsrc;
            instance chain:wchain;
            chain.n = {stages};
            instance hole:wsink;
            LSS_connect_bus(gen.out, chain.in, {lanes});
            LSS_connect_bus(chain.out, hole.in, {lanes});
            gen.out :: int;
            "#
        );
        let mut driver = liberty::Driver::with_corelib();
        driver.add_source("chain.lss", &src);
        let compiled = driver
            .elaborate()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        for scheduler in [liberty::Scheduler::Static, liberty::Scheduler::Dynamic] {
            let mut driver2 = liberty::Driver::with_corelib();
            driver2.sim_options.scheduler = scheduler;
            driver2.add_source("chain.lss", &src);
            let mut sim = driver2
                .simulator(&compiled.netlist)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            sim.run(cycles)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            let expected = (cycles as i64 - stages as i64).max(0) * lanes as i64;
            let got = sim.rtv("hole", "count").unwrap().as_int().unwrap();
            assert_eq!(got, expected, "case {case}: scheduler {scheduler:?}");
        }
    }
}
