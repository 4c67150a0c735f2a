//! Kernel-equivalence harness: the static engine, with its kernels, must
//! be observationally indistinguishable from the naive fixpoint reference
//! simulator, which runs every leaf through its dyn `Component`.
//!
//! Lockstep over all six Table 3 models and every single-file fuzz-corpus
//! entry, comparing the canonical `state_lines()` dump after every cycle.

use std::fs;
use std::path::PathBuf;

use lss_interp::CompileOptions;
use lss_models::{compile_model, compile_source, models};
use lss_netlist::Netlist;
use lss_sim::{build, SimOptions, Simulator};
use lss_verify::{Mutation, RefSim};

const CYCLES: u64 = 50;

fn build_engine(netlist: &Netlist) -> Simulator {
    build(netlist, &lss_corelib::registry(), SimOptions::default()).expect("engine build")
}

/// Steps the engine and the reference in lockstep, comparing
/// `state_lines()` after every cycle. Returns an error message naming the
/// first divergence.
fn against_refsim(netlist: &Netlist, name: &str, cycles: u64) -> Result<(), String> {
    let registry = lss_corelib::registry();
    let mut engine = build_engine(netlist);
    let mut reference =
        RefSim::build(netlist, &registry, Mutation::None).map_err(|e| format!("{name}: {e}"))?;
    reference.init().map_err(|e| format!("{name}: {e}"))?;
    for cycle in 0..cycles {
        // Both must agree on success/failure as well as on state.
        match (engine.step(), reference.step()) {
            (Ok(()), Ok(())) => {}
            (Err(a), Err(b)) => {
                let (a, b) = (a.to_string(), b.to_string());
                if a == b {
                    return Ok(()); // agreed failure: equivalent behavior
                }
                return Err(format!(
                    "{name} cycle {cycle}: simulators disagree on error:\n  engine: {a}\n  refsim: {b}"
                ));
            }
            (re, rr) => {
                return Err(format!(
                    "{name} cycle {cycle}: simulators disagree on success: engine={re:?} refsim={rr:?}"
                ));
            }
        }
        let le = engine.state_lines();
        let lr = reference.state_lines();
        if le != lr {
            let diff = first_diff(&le, &lr);
            return Err(format!(
                "{name} cycle {cycle}: engine diverges from refsim:\n{diff}"
            ));
        }
    }
    Ok(())
}

fn first_diff(a: &[String], b: &[String]) -> String {
    for i in 0..a.len().max(b.len()) {
        let la = a.get(i).map(String::as_str).unwrap_or("<missing>");
        let lb = b.get(i).map(String::as_str).unwrap_or("<missing>");
        if la != lb {
            return format!("  line {i}:\n    left:  {la}\n    right: {lb}");
        }
    }
    "  (no line diff — lengths equal?)".to_string()
}

#[test]
fn all_table3_models_agree_with_refsim() {
    let mut failures = Vec::new();
    for m in models() {
        let compiled =
            compile_model(m).unwrap_or_else(|e| panic!("model {} failed to compile:\n{e}", m.id));
        if let Err(e) = against_refsim(&compiled.netlist, &format!("model {}", m.id), CYCLES) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

#[test]
fn all_table3_models_lower_kernels() {
    // The static engine must actually run kernels: on every Table 3 model
    // the bulk of the leaves lower (the dyn fallback is for the exotic
    // residue).
    for m in models() {
        let compiled = compile_model(m).expect("compile");
        let sim = build_engine(&compiled.netlist);
        assert!(
            sim.kernel_count() * 3 >= compiled.netlist.leaves().count(),
            "model {}: only {} of {} leaves lowered to kernels",
            m.id,
            sim.kernel_count(),
            compiled.netlist.leaves().count()
        );
        assert!(sim.stage_count() > 1, "model {}: no staging", m.id);
    }
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> =
        fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
            .expect("tests/corpus must exist")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "lss"))
            .collect();
    files.sort();
    files
}

#[test]
fn corpus_agrees_with_refsim() {
    let mut failures = Vec::new();
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("corpus file readable");
        let compiled = match compile_source(&text, &CompileOptions::default()) {
            Ok(c) => c,
            Err(_) => continue, // invalid corpus entries are covered elsewhere
        };
        if let Err(e) = against_refsim(&compiled.netlist, &name, 30) {
            failures.push(e);
        }
    }
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}
