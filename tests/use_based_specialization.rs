//! Cross-crate integration tests for use-based specialization (§6),
//! exercised through the public `liberty::Driver` API.

use liberty::types::Datum;
use liberty::Driver;

fn compile(src: &str) -> liberty::Elaborated {
    let mut driver = Driver::with_corelib();
    driver.add_source("test.lss", src);
    driver
        .finish()
        .unwrap_or_else(|e| panic!("compile failed:\n{e}"))
}

fn compile_err(src: &str) -> String {
    let mut driver = Driver::with_corelib();
    driver.add_source("test.lss", src);
    driver
        .elaborate()
        .expect_err("expected a compile error")
        .to_string()
}

#[test]
fn widths_are_counted_from_connections() {
    // Figure 11 without the explicit width parameter: five connections
    // imply width five.
    let compiled = compile(
        r#"
        instance gen:source;
        instance q:queue;
        instance hole:sink;
        LSS_connect_bus(gen.out, q.in, 5);
        LSS_connect_bus(q.out, hole.in, 5);
        gen.out :: int;
        "#,
    );
    let q = compiled.netlist.find("q").unwrap();
    assert_eq!(q.port("in").unwrap().width, 5);
    assert_eq!(q.port("out").unwrap().width, 5);
    assert_eq!(
        q.port("credit").unwrap().width,
        0,
        "credit was left unconnected"
    );
}

#[test]
fn width_zero_means_unconnected_port_semantics() {
    // The queue's credit machinery is optional: a model that does not
    // connect credit ports still compiles and runs (§4.2: "rich
    // communication interfaces without burdening a user").
    let compiled = compile(
        r#"
        instance gen:source;
        instance q:queue;
        instance hole:sink;
        gen.out -> q.in;
        q.out -> hole.in;
        gen.out :: int;
        "#,
    );
    let mut driver = Driver::with_corelib();
    driver.add_source(
        "again.lss",
        r#"
        instance gen:source;
        instance q:queue;
        instance hole:sink;
        gen.out -> q.in;
        q.out -> hole.in;
        gen.out :: int;
        "#,
    );
    let mut sim = driver.simulator(&compiled.netlist).unwrap();
    sim.run(5).unwrap();
    assert_eq!(sim.rtv("hole", "count").unwrap().as_int(), Some(4));
}

#[test]
fn module_interface_depends_on_use() {
    // Figure 12 through the public API: same module, three different
    // interfaces depending on how it is used.
    let narrowing_without_policy = r#"
        instance a:source;
        instance b:source;
        instance f:funnel;
        instance z:sink;
        a.out -> f.in;
        b.out -> f.in;
        f.out -> z.in;
        a.out :: int;
    "#;
    let err = compile_err(narrowing_without_policy);
    assert!(err.contains("arbitration_policy"), "{err}");

    let with_policy = format!(
        "{}\nf.arbitration_policy = \"return 0;\";",
        narrowing_without_policy
    );
    let compiled = compile(&with_policy);
    assert!(compiled.netlist.find("f.arb").is_some());

    let passthrough = r#"
        instance a:source;
        instance f:funnel;
        instance z:sink;
        a.out -> f.in;
        f.out -> z.in;
        a.out :: int;
    "#;
    let compiled = compile(passthrough);
    assert!(compiled.netlist.find("f.arb").is_none());
}

#[test]
fn btb_and_cache_levels_specialize_from_connectivity() {
    // bp grows a BTB only when branch_target is connected; cache chains to
    // a lower level only when lower_req is connected.
    let compiled = compile(
        r#"
        instance f:fetch;
        instance pred:bp;
        instance tap:probe;
        LSS_connect_bus(f.bp_lookup, pred.lookup, 1);
        LSS_connect_bus(pred.pred, f.bp_pred, 1);
        LSS_connect_bus(f.bp_update, pred.update, 1);
        pred.branch_target -> tap.in;

        instance fu0:fu;
        instance l1:cache;
        instance l2:cache;
        instance mm:memory;
        fu0.mem_req -> l1.req;
        l1.resp -> fu0.mem_resp;
        l1.lower_req -> l2.req;
        l2.resp -> l1.lower_resp;
        l2.lower_req -> mm.req;
        mm.resp -> l2.lower_resp;
        "#,
    );
    let n = &compiled.netlist;
    assert_eq!(n.find("pred").unwrap().params["has_btb"], Datum::Int(1));
    assert_eq!(n.find("l1").unwrap().params["has_lower"], Datum::Int(1));
    assert_eq!(n.find("l2").unwrap().params["has_lower"], Datum::Int(1));
}

#[test]
fn deferred_evaluation_lets_parameters_follow_instantiation() {
    // §6.2's core behavior across the whole toolchain: assignments written
    // after the instantiation line reach the constructor, and constructors
    // pop LIFO so the last instance elaborates first without changing
    // the result.
    let compiled = compile(
        r#"
        instance c1:delayn;
        instance c2:delayn;
        c2.n = 2;
        c1.n = 4;
        instance g:source;
        instance s1:sink;
        instance s2:sink;
        g.out -> c1.in;
        g.out -> c2.in;
        c1.out -> s1.in;
        c2.out -> s2.in;
        "#,
    );
    // 5 declared instances + 4 + 2 sub-delays.
    assert_eq!(compiled.netlist.instances.len(), 11);
    assert!(compiled.netlist.find("c1.delays[3]").is_some());
    assert!(compiled.netlist.find("c2.delays[2]").is_none());
    // Fan-out on g.out got two lanes.
    assert_eq!(
        compiled
            .netlist
            .find("g")
            .unwrap()
            .port("out")
            .unwrap()
            .width,
        2
    );
}

#[test]
fn defaulted_parameter_counter_tracks_inference_savings() {
    let compiled = compile(
        r#"
        instance d1:delay;
        instance d2:delay;
        d1.initial_state = 9;
        d1.out -> d2.in;
        "#,
    );
    // d2.initial_state fell back to its default — one inferred parameter.
    assert!(compiled.netlist.elab.defaulted_params >= 1);
    assert_eq!(
        compiled.netlist.find("d2").unwrap().params["initial_state"],
        Datum::Int(0)
    );
}
