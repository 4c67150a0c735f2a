//! Engine-equivalence harness: the static engine, with its static plan,
//! must be observationally indistinguishable from the naive fixpoint
//! reference simulator.
//!
//! The engine and RefSim share the corelib behavior bodies: each behavior
//! writes `eval` and `end_of_timestep` once, generic over `CompCtx`. The
//! engine runs the copy specialized to its own context, RefSim the one
//! over `dyn CompCtx`. So this harness checks scheduling and port I/O, not
//! behavior semantics; the goldens and the Table 3 tests pin those.
//!
//! Lockstep over all six Table 3 models and every single-file fuzz-corpus
//! entry, comparing the canonical `state_lines()` dump after every cycle.
//! Together these inputs instance every corelib behavior.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use lss_interp::CompileOptions;
use lss_models::{compile_model, compile_source, models};
use lss_netlist::{InstanceKind, Netlist};
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
fn all_table3_static_leaves_run_in_stage_windows() {
    // No Table 3 model has a port-level combinational cycle, so no leaf
    // runs in a fixpoint block: each is a static leaf, evaluated once per
    // cycle, or a leaf that a fixed sequence evaluates more than once. No
    // behavior is left off the fast path.
    for m in models() {
        let compiled = compile_model(m).expect("compile");
        let sim = build_engine(&compiled.netlist);
        let units = sim.plan_stages();
        assert!(
            units.iter().all(|unit| !unit.1),
            "model {}: fixpoint block in the plan",
            m.id
        );
        let mut evals = vec![0usize; sim.component_count()];
        for unit in &units {
            evals[unit.0[0]] += 1;
        }
        let once = evals.iter().filter(|&&n| n == 1).count();
        let repeated: usize = evals.iter().filter(|&&n| n > 1).sum();
        assert!(
            evals.iter().all(|&n| n > 0),
            "model {}: a leaf is missing from the plan",
            m.id
        );
        assert_eq!(
            (sim.static_leaf_count(), sim.repeated_eval_count()),
            (once, repeated),
            "model {}: static leaves and repeated evaluations",
            m.id
        );
        assert!(once > 0, "model {}: no static leaves", m.id);
    }
}

/// The `tar_file` of every corelib module, read from the corelib source.
fn corelib_tar_files() -> BTreeSet<String> {
    lss_corelib::corelib_source()
        .lines()
        .filter_map(|line| {
            let rest = line.trim().strip_prefix("tar_file = \"")?;
            Some(rest.split('"').next()?.to_string())
        })
        .collect()
}

fn leaf_tar_files(netlist: &Netlist, into: &mut BTreeSet<String>) {
    for inst in netlist.leaves() {
        if let InstanceKind::Leaf { tar_file } = &inst.kind {
            into.insert(tar_file.clone());
        }
    }
}

#[test]
fn suite_inputs_instance_every_corelib_behavior() {
    let all = corelib_tar_files();
    assert_eq!(all.len(), lss_corelib::registry().len(), "{all:?}");
    let mut seen = BTreeSet::new();
    for m in models() {
        leaf_tar_files(&compile_model(m).expect("compile").netlist, &mut seen);
    }
    for path in corpus_files() {
        let text = fs::read_to_string(&path).expect("corpus file readable");
        if let Ok(compiled) = compile_source(&text, &CompileOptions::default()) {
            leaf_tar_files(&compiled.netlist, &mut seen);
        }
    }
    let missing: Vec<&String> = all.difference(&seen).collect();
    assert!(
        missing.is_empty(),
        "no Table 3 model or corpus spec instances {missing:?}"
    );
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

/// A two-tee ring: a port-level combinational cycle (`LSS101`).
const TEE_RING: &str =
    "instance a:tee;\ninstance b:tee;\na.out -> b.in;\nb.out -> a.in;\na.out :: int;\n";

/// The engine keeps a fixpoint block for exactly the analyzer's
/// port-level cyclic SCCs (the `LSS101` findings), as leaf sets; every
/// other leaf-level cycle runs as a fixed sequence. Checked over the
/// Table 3 models, `examples/lss/`, `tests/corpus/` and a tee ring.
#[test]
fn fixpoint_blocks_are_exactly_the_port_level_cycles() {
    use lss_analyze::{leaf_dep_graph, AnalysisConfig, Code, PassManager};

    let mut netlists: Vec<(String, Netlist)> = models()
        .iter()
        .map(|m| {
            (
                format!("model {}", m.id),
                compile_model(m).expect("compile").netlist,
            )
        })
        .collect();
    let mut files = corpus_files();
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/lss");
    files.extend(
        fs::read_dir(examples)
            .expect("examples/lss must exist")
            .filter_map(|e| Some(e.ok()?.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "lss")),
    );
    let mut sources: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            (
                p.display().to_string(),
                fs::read_to_string(p).expect("readable"),
            )
        })
        .collect();
    sources.push(("tee ring".to_string(), TEE_RING.to_string()));
    for (name, text) in sources {
        if let Ok(compiled) = compile_source(&text, &CompileOptions::default()) {
            netlists.push((name, compiled.netlist));
        }
    }
    let registry = lss_corelib::registry();
    let mut blocks_seen = 0;
    for (name, netlist) in &netlists {
        let sim = build_engine(netlist);
        let blocks: BTreeSet<Vec<usize>> = sim
            .plan_stages()
            .into_iter()
            .filter(|unit| unit.1)
            .map(|unit| unit.0.to_vec())
            .collect();
        let comb = lss_sim::comb_info(netlist, &registry);
        let deps = leaf_dep_graph(netlist, &netlist.flatten(), &comb);
        let cycles: BTreeSet<Vec<usize>> = deps
            .ports
            .condense()
            .cycles()
            .map(|scc| {
                let mut leaves: Vec<usize> = scc.iter().map(|&n| deps.port_of_node(n).0).collect();
                leaves.sort_unstable();
                leaves.dedup();
                leaves
            })
            .collect();
        assert_eq!(blocks, cycles, "{name}: blocks vs port-level cycles");
        let findings = PassManager::with_default_passes()
            .run(netlist, &comb, &AnalysisConfig::default())
            .with_code(Code::CombCycle)
            .count();
        assert_eq!(blocks.len(), findings, "{name}: blocks vs LSS101 findings");
        blocks_seen += blocks.len();
    }
    assert!(netlists.len() > 20, "too few inputs: {}", netlists.len());
    assert_eq!(blocks_seen, 1, "only the tee ring has a port-level cycle");
}
