//! Behavior contracts: every corelib behavior, built from the leaves of the
//! Table 3 models and the single-file fuzz corpus (which together instance
//! all of them), keeps its dependency contract and evaluates repeatably
//! (`lss_verify::contract`). The static plan's fixed evaluation sequences
//! rely on both. Two canaries the check must catch: a decode whose
//! `credit` reads `in`, and one whose `credit` remembers an earlier
//! evaluation of the same cycle.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use lss_interp::CompileOptions;
use lss_models::{compile_model, compile_source, models};
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

/// A decode that lowers its `credit` while an instruction is on `in`, but
/// keeps the real decode's hooks, which say `credit` reads only
/// `credit_in`.
struct LeakyDecode {
    inner: Box<dyn Component>,
    inp: usize,
    credit: usize,
}

impl LeakyDecode {
    fn factory(spec: &CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(LeakyDecode {
            inner: lss_corelib::behaviors::cpu::Decode::new(spec)?,
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

    fn input_is_combinational(&self, port: usize) -> bool {
        self.inner.input_is_combinational(port)
    }

    fn output_depends_on(&self, output: usize, input: usize) -> bool {
        self.inner.output_depends_on(output, input)
    }

    fn has_end_of_timestep(&self) -> bool {
        self.inner.has_end_of_timestep()
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
            inner: lss_corelib::behaviors::cpu::Decode::new(spec)?,
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

    fn output_depends_on(&self, output: usize, input: usize) -> bool {
        self.inner.output_depends_on(output, input)
    }
}

/// Model C with every decode replaced by the canary `tar_file`, and the
/// contract report over it.
fn check_with_decode(
    tar_file: &str,
    factory: fn(&CompSpec) -> Result<Box<dyn Component>, BuildError>,
) -> Vec<ContractViolation> {
    let mut registry = lss_corelib::registry();
    registry.register(tar_file, factory);
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
