//! The paper's Figure 12: use-based specialization exporting additional
//! parameters. The corelib `funnel` module inspects its *use* — the widths
//! its ports were connected with — and only instantiates an arbiter (and
//! only demands an arbitration policy) when its input is wider than its
//! output.
//!
//! Run with `cargo run --example arbitration`.

use liberty::Driver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Case 1: three producers funnel into one consumer. The funnel must
    // arbitrate, so the `arbitration_policy` userpoint is required and an
    // internal arbiter appears.
    let narrowing = r#"
        instance s0:source;
        instance s1:source;
        instance s2:source;
        s1.start = 100;
        s2.start = 200;
        instance fn1:funnel;
        instance hole:sink;
        fn1.arbitration_policy = "return cycle;";   // rotate priority
        s0.out -> fn1.in;
        s1.out -> fn1.in;
        s2.out -> fn1.in;
        fn1.out -> hole.in;
        s0.out :: int;
    "#;
    let mut driver = Driver::with_corelib();
    driver.add_source("narrow.lss", narrowing);
    let compiled = driver.elaborate()?;
    let funnel = compiled.netlist.find("fn1").unwrap();
    println!(
        "narrowing use: in.width={} out.width={} -> arbiter instantiated: {}",
        funnel.port("in").unwrap().width,
        funnel.port("out").unwrap().width,
        compiled.netlist.find("fn1.arb").is_some(),
    );
    let mut sim = driver.simulator(&compiled.netlist)?;
    println!("rotating arbitration picks a different source each cycle:");
    for _ in 0..4 {
        sim.step()?;
        println!(
            "  cycle {}: winner value {}",
            sim.cycle() - 1,
            sim.peek("fn1.arb", "out", 0).unwrap()
        );
    }

    // Case 2: a one-to-one funnel. No arbitration is needed, no arbiter is
    // created, and — crucially — no policy needs to be written.
    let passthrough = r#"
        instance s0:source;
        instance fn1:funnel;
        instance hole:sink;
        s0.out -> fn1.in;
        fn1.out -> hole.in;
        s0.out :: int;
    "#;
    let mut driver2 = Driver::with_corelib();
    driver2.add_source("pass.lss", passthrough);
    let compiled2 = driver2.elaborate()?;
    println!(
        "\npass-through use: arbiter instantiated: {} (policy parameter never demanded)",
        compiled2.netlist.find("fn1.arb").is_some(),
    );

    // Case 3: the same narrowing model *without* a policy is a compile
    // error — the funnel exported the parameter because its use requires
    // one, exactly Figure 12's behavior.
    let missing_policy = narrowing.replace("fn1.arbitration_policy = \"return cycle;\";", "");
    let mut driver3 = Driver::with_corelib();
    driver3.add_source("missing.lss", &missing_policy);
    match driver3.elaborate() {
        Ok(_) => panic!("expected the missing policy to be required"),
        Err(e) => {
            let rendered = e.to_string();
            let first = rendered.lines().next().unwrap_or_default();
            println!("\nwithout a policy the compiler demands one:\n  {first}");
        }
    }
    Ok(())
}
