//! Behavior contracts: every corelib behavior, built from the leaves of the
//! Table 3 models and the single-file fuzz corpus (which together instance
//! all of them), keeps its declared dependencies and declared absence of
//! an update, and evaluates repeatably (`lss_verify::contract`). The static
//! plan's fixed evaluation sequences and its state-update walk rely on
//! them. Three canaries, each registered with decode's declaration, the
//! check must catch: a decode whose `credit` reads `in`, one whose
//! `credit` remembers an earlier evaluation of the same cycle, and one
//! that counts instructions in an `end_of_timestep` the declaration says
//! it does not have.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use lss_corelib::behaviors::cpu::Decode;
use lss_interp::CompileOptions;
use lss_models::{compile_model, compile_source, models};
use lss_netlist::RtvId;
use lss_netlist::{InstanceKind, Netlist};
use lss_sim::{BuildError, CompCtx, CompSpec, Component, SimError};
use lss_types::Datum;
use lss_verify::{check_contracts, ContractViolation};

fn suite() -> Vec<(String, Netlist)> {
    let mut netlists: Vec<(String, Netlist)> = models()
        .iter()
        .map(|m| {
            (
                format!("model {}", m.id),
                compile_model(m).expect("compile").netlist,
            )
        })
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("tests/corpus must exist")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "lss"))
        .collect();
    files.sort();
    for path in files {
        let text = fs::read_to_string(&path).expect("corpus file readable");
        if let Ok(compiled) = compile_source(&text, &CompileOptions::default()) {
            let name = path.file_name().expect("a file").to_string_lossy();
            netlists.push((name.into_owned(), compiled.netlist));
        }
    }
    netlists
}

#[test]
fn every_corelib_behavior_keeps_its_contract() {
    let registry = lss_corelib::registry();
    let mut behaviors = BTreeSet::new();
    let mut trials = 0;
    let mut violations = Vec::new();
    for (name, netlist) in suite() {
        let report = check_contracts(&netlist, &registry).unwrap_or_else(|e| panic!("{name}: {e}"));
        behaviors.extend(report.behaviors);
        trials += report.trials;
        violations.extend(report.violations.iter().map(|v| format!("{name}: {v}")));
    }
    assert_eq!(
        behaviors.len(),
        registry.len(),
        "behaviors checked: {behaviors:?}"
    );
    assert!(trials > 1000, "only {trials} trials ran");
    assert!(
        violations.is_empty(),
        "violations:\n{}",
        violations.join("\n")
    );
}

/// A decode that lowers its `credit` while an instruction is on `in`,
/// though decode's declaration says `credit` reads only `credit_in`.
struct LeakyDecode {
    inner: Box<dyn Component>,
    inp: usize,
    credit: usize,
}

impl LeakyDecode {
    fn factory(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(LeakyDecode {
            inner: Decode::new(spec)?,
            inp: spec.port_index("in")?,
            credit: spec.port_index("credit")?,
        }))
    }
}

impl Component for LeakyDecode {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.inner.eval(ctx)?;
        if ctx.input(self.inp, 0).is_some() {
            if let Some(Datum::Int(c)) = ctx.output(self.credit, 0) {
                ctx.set_output(self.credit, 0, Datum::Int((c - 1).max(0)));
            }
        }
        Ok(())
    }
}

/// A decode whose `credit` is the largest `credit_in` any evaluation of
/// the cycle saw: right for one evaluation, wrong after a stale one.
struct StickyDecode {
    inner: Box<dyn Component>,
    credit_in: usize,
    credit: usize,
    seen: i64,
}

impl StickyDecode {
    fn factory(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(StickyDecode {
            inner: Decode::new(spec)?,
            credit_in: spec.port_index("credit_in")?,
            credit: spec.port_index("credit")?,
            seen: 0,
        }))
    }
}

impl Component for StickyDecode {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.inner.eval(ctx)?;
        if let Some(Datum::Int(c)) = ctx.input(self.credit_in, 0) {
            self.seen = self.seen.max(c);
        }
        if ctx.output(self.credit, 0).is_some() {
            ctx.set_output(self.credit, 0, Datum::Int(self.seen));
        }
        Ok(())
    }

    fn end_of_timestep(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.seen = 0;
        Ok(())
    }
}

/// A decode that counts the instructions it passed into a `decoded`
/// runtime variable at the end of each cycle, though decode's declaration
/// says it has no `end_of_timestep`, so the engine would never count.
struct CountingDecode {
    inner: Box<dyn Component>,
    inp: usize,
    decoded: Option<RtvId>,
}

impl CountingDecode {
    fn factory(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(CountingDecode {
            inner: Decode::new(spec)?,
            inp: spec.port_index("in")?,
            decoded: None,
        }))
    }
}

impl Component for CountingDecode {
    fn init(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.decoded = Some(ctx.ensure_rtv("decoded", Datum::Int(0)));
        Ok(())
    }

    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        self.inner.eval(ctx)
    }

    fn end_of_timestep(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        let id = self.decoded.expect("resolved in init");
        let mut decoded = ctx.rtv_by_id(id).as_int().unwrap_or(0);
        for lane in 0..ctx.width(self.inp) {
            decoded += ctx.input(self.inp, lane).is_some() as i64;
        }
        ctx.set_rtv_by_id(id, Datum::Int(decoded));
        Ok(())
    }
}

/// Model C with every decode replaced by the canary `tar_file`, registered
/// with decode's declaration, and the contract report over it.
fn check_with_decode(
    tar_file: &str,
    factory: fn(&CompSpec) -> Result<Box<dyn Component>, BuildError>,
) -> Vec<ContractViolation> {
    let mut registry = lss_corelib::registry();
    registry.register(tar_file, Decode::DEPS, factory);
    let model = models().iter().find(|m| m.id == 'C').expect("model C");
    let mut netlist = compile_model(model).expect("compile").netlist;
    for inst in &mut netlist.instances {
        if let InstanceKind::Leaf { tar_file: t } = &mut inst.kind {
            if t == "corelib/decode.tar" {
                *t = tar_file.to_string();
            }
        }
    }
    check_contracts(&netlist, &registry)
        .expect("build")
        .violations
}

#[test]
fn a_decode_whose_credit_reads_in_is_caught() {
    let violations = check_with_decode("canary/leaky_decode.tar", LeakyDecode::factory);
    assert!(
        violations.iter().any(|v| matches!(
            v,
            ContractViolation::Dependency { output, input, .. } if output == "credit" && input == "in"
        )),
        "the leaky decode went undetected: {violations:?}"
    );
}

#[test]
fn a_decode_that_remembers_a_stale_eval_is_caught() {
    let violations = check_with_decode("canary/sticky_decode.tar", StickyDecode::factory);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, ContractViolation::Repeat { .. })),
        "the sticky decode went undetected: {violations:?}"
    );
    assert!(
        !violations
            .iter()
            .any(|v| matches!(v, ContractViolation::Dependency { .. })),
        "the sticky decode keeps its dependency contract: {violations:?}"
    );
}

#[test]
fn a_decode_with_an_undeclared_update_is_caught() {
    let violations = check_with_decode("canary/counting_decode.tar", CountingDecode::factory);
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, ContractViolation::Update { .. })),
        "the counting decode went undetected: {violations:?}"
    );
    assert!(
        !violations.iter().any(|v| matches!(
            v,
            ContractViolation::Dependency { .. } | ContractViolation::Repeat { .. }
        )),
        "the counting decode keeps its dependencies and repeats: {violations:?}"
    );
}
