//! The paper's Table 3 processor models, expressed in LSS.
//!
//! | Model | Description |
//! |---|---|
//! | A | A Tomasulo-style machine for the DLX instruction set |
//! | B | Same as A, but with a single issue window |
//! | C | A model equivalent to the SimpleScalar simulator |
//! | D | An out-of-order processor core for IA-64 |
//! | E | Two of the cores from D sharing a cache hierarchy |
//! | F | A validated Itanium 2 processor model |
//!
//! The models are LSS sources layered on the corelib (`lss-corelib`) plus a
//! shared set of hierarchical CPU modules ([`cpu_lib`]). This crate also
//! provides:
//!
//! * [`compile_model`] — corelib + cpu_lib + model → typed netlist;
//! * [`staticgen`] — generation of the "pre-LSS" static-structural
//!   equivalent of a model (the §7 line-count experiment);
//! * [`runner`] — run a compiled model to completion and report CPI and
//!   collector statistics;
//! * [`loc`] — the line-counting convention used by the experiments.

#![warn(missing_docs)]

pub mod runner;
pub mod staticgen;

use lss_driver::{Driver, Elaborated};
use lss_interp::CompileOptions;

/// One of the Table 3 models.
#[derive(Debug, Clone, Copy)]
pub struct Model {
    /// Single-letter id, `'A'..='F'`.
    pub id: char,
    /// Short name.
    pub name: &'static str,
    /// Table 3 description.
    pub description: &'static str,
    /// The model's LSS source (excluding corelib and cpu_lib).
    pub source: &'static str,
}

/// The shared hierarchical CPU modules (frontend, memsys, exec_cluster,
/// window_core, tomasulo_core).
pub fn cpu_lib() -> &'static str {
    include_str!("../models/cpu_lib.lss")
}

/// All six models, in Table 3 order.
pub fn models() -> &'static [Model] {
    &[
        Model {
            id: 'A',
            name: "tomasulo-dlx",
            description: "A Tomasulo style machine for the DLX instruction set",
            source: include_str!("../models/model_a.lss"),
        },
        Model {
            id: 'B',
            name: "single-window-dlx",
            description: "Same as A, but with a single issue window",
            source: include_str!("../models/model_b.lss"),
        },
        Model {
            id: 'C',
            name: "simplescalar",
            description: "A model equivalent to the SimpleScalar simulator",
            source: include_str!("../models/model_c.lss"),
        },
        Model {
            id: 'D',
            name: "ia64-ooo",
            description: "An out-of-order processor core for IA-64",
            source: include_str!("../models/model_d.lss"),
        },
        Model {
            id: 'E',
            name: "ia64-cmp",
            description: "Two of the cores from D sharing a cache hierarchy",
            source: include_str!("../models/model_e.lss"),
        },
        Model {
            id: 'F',
            name: "itanium2",
            description: "A validated Itanium 2 processor model",
            source: include_str!("../models/model_f.lss"),
        },
    ]
}

/// Looks a model up by id (case-insensitive).
pub fn model(id: char) -> Option<&'static Model> {
    models().iter().find(|m| m.id == id.to_ascii_uppercase())
}

/// Compiles arbitrary model source against corelib + cpu_lib.
///
/// # Errors
///
/// Returns the rendered diagnostics on any parse, elaboration, or type
/// inference failure.
pub fn compile_source(model_src: &str, opts: &CompileOptions) -> Result<Elaborated, String> {
    driver_for_source(model_src, opts)
        .finish()
        .map_err(|e| e.to_string())
}

/// A driver session preloaded with corelib + cpu_lib + the model source,
/// ready for staged compilation (callers can configure a cache directory
/// before elaborating).
pub fn driver_for_source(model_src: &str, opts: &CompileOptions) -> Driver {
    let mut driver = Driver::with_corelib();
    driver.options = opts.clone();
    driver.add_source("cpu_lib.lss", cpu_lib());
    driver.add_source("model.lss", model_src);
    driver
}

/// Compiles one of the six models with default options.
///
/// # Errors
///
/// See [`compile_source`].
pub fn compile_model(model: &Model) -> Result<Elaborated, String> {
    compile_source(model.source, &CompileOptions::default())
}

/// Counts specification lines the way the §7 experiment does: non-blank
/// lines that are not pure comments.
pub fn loc(source: &str) -> usize {
    source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_models_in_order() {
        let ids: Vec<char> = models().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec!['A', 'B', 'C', 'D', 'E', 'F']);
        assert_eq!(model('c').unwrap().name, "simplescalar");
        assert!(model('z').is_none());
    }

    #[test]
    fn loc_ignores_blanks_and_comments() {
        assert_eq!(loc("// c\n\n  x = 1;\n  // d\n y = 2;\n"), 2);
    }
}
