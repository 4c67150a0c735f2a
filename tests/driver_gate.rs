//! Architectural gate: every consumer compiles through `lss_driver`
//! (re-exported as `liberty::Driver`). Direct calls into the raw
//! `lss_interp::compile` entry point bypass staged artifacts, timings, and
//! the netlist cache, so they are banned outside the driver layer itself.
//!
//! The gate scans the consumer layers' sources textually. The crates below
//! the driver (`lss-interp`, `lss-corelib`, `lss-driver` itself) are
//! intentionally out of scope — they cannot depend on the driver without a
//! cycle.

use std::path::{Path, PathBuf};

/// Directories (relative to the workspace root) that must go through the
/// driver.
const CONSUMER_DIRS: &[&str] = &[
    "src",
    "tests",
    "examples",
    "crates/liberty",
    "crates/lss-models",
    "crates/bench",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_none_or(|n| n != "driver_gate.rs")
        {
            out.push(path);
        }
    }
}

fn offending_lines(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| {
            let line = line.trim_start();
            if line.starts_with("//") {
                return false;
            }
            // Direct path call, or importing `compile` out of lss_interp.
            line.contains("lss_interp::compile")
                || (line.contains("use lss_interp") && {
                    let bytes = line.as_bytes();
                    line.match_indices("compile").any(|(i, _)| {
                        let before_ok =
                            i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_';
                        let after = i + "compile".len();
                        let after_ok = after >= bytes.len()
                            || !bytes[after].is_ascii_alphanumeric() && bytes[after] != b'_';
                        before_ok && after_ok
                    })
                })
        })
        .map(|(i, line)| (i + 1, line))
        .collect()
}

#[test]
fn consumers_never_call_lss_interp_compile_directly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in CONSUMER_DIRS {
        rust_sources(&root.join(dir), &mut files);
    }
    assert!(
        files.len() >= 10,
        "gate scanned suspiciously few files ({}): did the layout move?",
        files.len()
    );

    let mut violations = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for (line_no, line) in offending_lines(&text) {
            violations.push(format!(
                "{}:{line_no}: {}",
                file.strip_prefix(root).unwrap_or(file).display(),
                line.trim()
            ));
        }
    }
    assert!(
        violations.is_empty(),
        "direct lss_interp::compile use outside the driver layer:\n{}",
        violations.join("\n")
    );
}

#[test]
fn gate_pattern_catches_both_call_and_import_forms() {
    assert_eq!(
        offending_lines("let c = lss_interp::compile(&sources, &opts);").len(),
        1
    );
    assert_eq!(offending_lines("use lss_interp::{compile, Unit};").len(), 1);
    // Legitimate driver-layer imports stay clean.
    assert!(offending_lines("use lss_interp::{CompileOptions, Unit};").is_empty());
    assert!(offending_lines("// lss_interp::compile is banned here").is_empty());
}
