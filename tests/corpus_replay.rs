//! Deterministic replay of the checked-in fuzz corpus.
//!
//! Every `.lss` file under `tests/corpus/` is run through the full
//! differential harness: static-schedule engine vs. the naive fixpoint
//! reference simulator, the exhaustive type oracle vs. the heuristic
//! solver, and the binary netlist round trip. A file that
//! compiles but diverges on any oracle fails the suite with the
//! discrepancy report.
//!
//! Subdirectories holding a `top.lss` are multi-file project repros:
//! their root is loaded through the import-closure pipeline (per-unit
//! elaboration + link) and replayed through the same oracles.

use std::fs;
use std::path::PathBuf;

use lss_verify::{difftest_root, difftest_source, DiffOptions};

fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "lss"))
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_nonempty() {
    let files = corpus_files();
    assert!(
        files.len() >= 10,
        "expected at least 10 corpus entries, found {}",
        files.len()
    );
}

#[test]
fn corpus_replays_clean() {
    let mut failures = Vec::new();
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = fs::read_to_string(&path).expect("corpus file readable");
        match difftest_source(&name, &text, &DiffOptions::default()) {
            Ok(None) => {}
            Ok(Some(d)) => failures.push(format!("{name}: {d}")),
            Err(e) => failures.push(format!("{name}: harness error: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "corpus discrepancies:\n{}",
        failures.join("\n")
    );
}

fn corpus_projects() -> Vec<PathBuf> {
    let mut roots: Vec<PathBuf> = fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir() && p.join("top.lss").is_file())
        .collect();
    roots.sort();
    roots
}

#[test]
fn project_corpus_replays_clean() {
    let projects = corpus_projects();
    assert!(
        projects.len() >= 2,
        "expected at least 2 multi-file corpus projects, found {}",
        projects.len()
    );
    let mut failures = Vec::new();
    for project in projects {
        let name = project.file_name().unwrap().to_string_lossy().into_owned();
        match difftest_root(&project.join("top.lss"), &DiffOptions::default()) {
            Ok(None) => {}
            Ok(Some(d)) => failures.push(format!("{name}: {d}")),
            Err(e) => failures.push(format!("{name}: harness error: {e}")),
        }
    }
    assert!(
        failures.is_empty(),
        "project corpus discrepancies:\n{}",
        failures.join("\n")
    );
}
