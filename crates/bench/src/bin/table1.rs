//! Regenerates the paper's Table 1: the capability matrix of modeling
//! paradigms. Every "yes" cell for LSS is backed by an *executed probe*
//! against this repository's implementation; the baseline columns are
//! probed against the in-repo paradigm representatives
//! (`bench::baselines`), so the claimed limitations are demonstrable, not
//! anecdotal.
//!
//! Run with `cargo run -p bench --bin table1`.

use bench::baselines::{static_structural, structural_oop};
use liberty::Driver;
use lss_types::Ty;

/// Compiles a snippet against the corelib, returning the netlist or the
/// error text.
fn lss(src: &str) -> Result<liberty::Elaborated, String> {
    let mut driver = Driver::with_corelib();
    driver.add_source("probe.lss", src);
    driver.finish().map_err(|e| e.to_string())
}

fn check(name: &str, ok: bool, detail: &str) -> bool {
    println!("    [{}] {name}: {detail}", if ok { "ok" } else { "FAIL" });
    ok
}

fn main() {
    let mut all_ok = true;
    println!("Table 1: Capabilities of existing methods and systems");
    println!("-----------------------------------------------------");
    println!(
        "{:<28} {:>18} {:>18} {:>6}",
        "Capability", "Static structural", "Structural OOP", "LSS"
    );
    let rows = [
        ("Parameters (value)", "yes", "yes", "yes"),
        ("Parameters (structural)", "no", "yes", "yes"),
        ("Parameters (algorithmic)", "partial", "yes", "yes"),
        ("Parametric polymorphism", "yes", "explicit only", "yes"),
        ("Component overloading", "no", "no", "yes"),
        ("Static analysis", "yes", "no", "yes"),
        ("Instrumentation (AOP)", "yes", "no", "yes"),
    ];
    for (cap, st, oop, lss) in rows {
        println!("{cap:<28} {st:>18} {oop:>18} {lss:>6}");
    }
    println!();
    println!("Probes backing each LSS 'yes' (each cell is executed):");

    // Value parameters.
    let n = lss("instance d:delay;\nd.initial_state = 7;")
        .unwrap()
        .netlist;
    all_ok &= check(
        "value parameters",
        n.find("d").unwrap().params["initial_state"] == lss_types::Datum::Int(7),
        "delay.initial_state customized per instance",
    );

    // Structural parameters: delayn's length controls instance count.
    let n5 = lss("instance c:delayn;\nc.n = 5;").unwrap().netlist;
    let n9 = lss("instance c:delayn;\nc.n = 9;").unwrap().netlist;
    all_ok &= check(
        "structural parameters",
        n5.instances.len() == 6 && n9.instances.len() == 10,
        "delayn.n parameterizes the number of sub-instances",
    );

    // Algorithmic customization via userpoints.
    let arb = lss(
        "instance a:arbiter;\na.policy = \"return cycle % count;\";\n\
         instance s:source;\ninstance k:sink;\ns.out -> a.in;\na.out -> k.in;\ns.out :: int;",
    )
    .unwrap()
    .netlist;
    all_ok &= check(
        "algorithmic parameters",
        arb.find("a").unwrap().userpoints[0].code.contains("cycle"),
        "arbitration policy supplied as BSL code",
    );

    // Parametric polymorphism + inference.
    let poly = lss(
        "instance s:source;\ninstance q:queue;\ninstance d:delay;\ninstance k:sink;\n\
         s.out -> q.in;\nq.out -> d.in;\nd.out -> k.in;",
    )
    .unwrap()
    .netlist;
    all_ok &= check(
        "parametric polymorphism",
        poly.find("q").unwrap().port("in").unwrap().ty == Some(Ty::Int),
        "queue's 'a inferred as int from the connected delay",
    );

    // Component overloading.
    let over = lss(
        "module fsrc { outport out:float; tar_file = \"corelib/source.tar\"; };\n\
         instance s:fsrc;\ninstance x:alu;\ninstance k:sink;\n\
         s.out -> x.a;\ns.out -> x.b;\nx.res -> k.in;",
    )
    .unwrap()
    .netlist;
    all_ok &= check(
        "component overloading",
        over.find("x").unwrap().port("res").unwrap().ty == Some(Ty::Float),
        "int|float ALU resolved to the float member by connectivity",
    );

    // Static analysis: reuse stats + schedule computed before simulation.
    let compiled = lss("instance c:delayn;\nc.n = 3;").unwrap();
    let stats = liberty::reuse_stats(&compiled.netlist);
    all_ok &= check(
        "static analysis",
        stats.instances == 4 && compiled.solve_stats.unify_steps > 0,
        "reuse statistics and type inference ran pre-simulation",
    );

    // Instrumentation without modifying components.
    let instr = lss(
        "instance s:source;\ninstance k:sink;\ns.out -> k.in;\ns.out :: int;\n\
         collector s : out_fire = \"n = n + 1;\";",
    )
    .unwrap()
    .netlist;
    all_ok &= check(
        "aspect-oriented instrumentation",
        instr.collectors.len() == 1,
        "collector attached without touching source/sink",
    );

    println!();
    println!("Baseline demonstrations:");
    let d = static_structural::unrolled_delay_chain(8);
    all_ok &= check(
        "static paradigm analyzable",
        d.instance_count() == 10 && d.fan_in("hole.in") == 1,
        "description is data; analysis needs no execution",
    );
    all_ok &= check(
        "static paradigm not parametric",
        static_structural::unrolled_delay_chain(16).instance_count()
            != static_structural::unrolled_delay_chain(8).instance_count(),
        "each chain length requires a different hand-unrolled description",
    );
    let oop = structural_oop::delay_chain(8);
    let (comps, conns) = oop.elaborate_at_run_time();
    all_ok &= check(
        "OOP paradigm parametric but late",
        comps.len() == 10 && conns.len() == 9,
        "structure is only known after running construction code",
    );
    all_ok &= check(
        "OOP paradigm needs explicit types",
        comps.iter().all(|c| c.port_type == "int"),
        "every component carries a manually written type instantiation",
    );

    println!();
    if all_ok {
        println!("all Table 1 probes passed");
    } else {
        println!("SOME PROBES FAILED");
        std::process::exit(1);
    }
}
