//! Declared scheduling facts: every corelib declaration names ports of the
//! LSS module with its `tar_file`, in the right direction, and a custom
//! declaration that names a missing port fails `build` with an error.

use std::collections::BTreeMap;

use lss_ast::{parse, DiagnosticBag, ExprKind, PortDir, SourceMap, Stmt};
use lss_corelib::behaviors::basic::Tee;
use lss_corelib::{corelib_source, registry};
use lss_interp::{compile, CompileOptions, Unit};
use lss_netlist::Netlist;
use lss_sim::{build, comb_info, BuildError, Deps, SimOptions};

/// `tar_file` → (inports, outports) of each corelib leaf module.
fn leaf_modules() -> BTreeMap<String, (Vec<String>, Vec<String>)> {
    let mut diags = DiagnosticBag::new();
    let mut sources = SourceMap::new();
    let file = sources.add_file("corelib.lss", corelib_source());
    let program = parse(file, corelib_source(), &mut diags);
    assert!(!diags.has_errors(), "{}", diags.render(&sources));
    let mut leaves = BTreeMap::new();
    for module in &program.modules {
        let (mut tar_file, mut ins, mut outs) = (None, Vec::new(), Vec::new());
        for stmt in &module.body {
            match stmt {
                Stmt::Port(p) if p.dir == PortDir::In => ins.push(p.name.name.clone()),
                Stmt::Port(p) => outs.push(p.name.name.clone()),
                Stmt::Assign(a) => {
                    if let (Some(target), ExprKind::Str(value)) =
                        (a.target.as_ident(), &a.value.kind)
                    {
                        if target.name == "tar_file" {
                            tar_file = Some(value.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(tar_file) = tar_file {
            leaves.insert(tar_file, (ins, outs));
        }
    }
    leaves
}

#[test]
fn every_declaration_names_ports_of_its_module() {
    let registry = registry();
    let leaves = leaf_modules();
    assert_eq!(leaves.len(), registry.len(), "one leaf module per behavior");
    for (tar_file, (ins, outs)) in &leaves {
        let deps = registry.deps(tar_file);
        let is_in = |p: &&str| ins.iter().any(|i| i == p);
        for input in deps.comb.unwrap_or(&[]) {
            assert!(is_in(input), "{tar_file}: `{input}` is not an inport");
        }
        for (output, inputs) in deps.outputs {
            assert!(
                outs.iter().any(|o| o == output),
                "{tar_file}: `{output}` is not an outport"
            );
            for input in *inputs {
                assert!(is_in(input), "{tar_file}: `{input}` is not an inport");
                assert!(
                    deps.reads(input),
                    "{tar_file}: `{output}` reads `{input}`, which eval does not read"
                );
            }
        }
    }
}

fn netlist_of(src: &str) -> Netlist {
    let corelib = corelib_source();
    let mut sources = SourceMap::new();
    let lib_file = sources.add_file("corelib.lss", corelib);
    let model_file = sources.add_file("model.lss", src);
    let mut diags = DiagnosticBag::new();
    let lib = parse(lib_file, corelib, &mut diags);
    let model = parse(model_file, src, &mut diags);
    let units = [
        Unit {
            program: &lib,
            library: true,
        },
        Unit {
            program: &model,
            library: false,
        },
    ];
    compile(&units, &CompileOptions::default(), &mut diags)
        .unwrap_or_else(|| panic!("{}", diags.render(&sources)))
        .netlist
}

/// Builds a tee model whose behavior is registered with `deps`.
fn build_tee_declared(deps: Deps) -> Result<(), BuildError> {
    let mut registry = registry();
    registry.register("test/tee.tar", deps, Tee::new);
    let netlist = netlist_of(
        r#"
        module mytee { inport in:int; outport out:int; tar_file = "test/tee.tar"; };
        instance g:source;
        instance t:mytee;
        instance k:sink;
        g.out -> t.in;
        t.out -> k.in;
        "#,
    );
    // Analysis reads the declaration without validating it, and must not
    // fail on it either.
    comb_info(&netlist, &registry);
    build(&netlist, &registry, SimOptions::default()).map(drop)
}

#[test]
fn a_declaration_naming_a_missing_port_is_a_build_error() {
    assert!(build_tee_declared(Tee::DEPS).is_ok());
    let err = build_tee_declared(Deps {
        comb: Some(&["credit"]),
        ..Deps::DEFAULT
    })
    .unwrap_err();
    assert!(err.message.contains("port `credit`"), "{err}");
    let err = build_tee_declared(Deps {
        outputs: &[("out", &["credit_in"])],
        ..Deps::DEFAULT
    })
    .unwrap_err();
    assert!(err.message.contains("port `credit_in`"), "{err}");
}

#[test]
fn a_declaration_with_a_port_in_the_wrong_direction_is_a_build_error() {
    let err = build_tee_declared(Deps {
        comb: Some(&["out"]),
        ..Deps::DEFAULT
    })
    .unwrap_err();
    assert!(err.message.contains("`out` is not an input port"), "{err}");
    let err = build_tee_declared(Deps {
        outputs: &[("in", &[])],
        ..Deps::DEFAULT
    })
    .unwrap_err();
    assert!(err.message.contains("`in` is not an output port"), "{err}");
}
