//! Quickstart: the paper's Figure 1 — a structural model that adds two
//! numbers, with structure in LSS and behavior in a leaf component.
//!
//! Run with `cargo run --example quickstart`.

use liberty::Driver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Figure 1(b): the structural specification. Two value generators feed
    // an adder block whose output is consumed by a sink. The adder is the
    // corelib `alu`, whose ports are *overloaded* (int|float) — connecting
    // int sources selects the integer implementation automatically.
    let model = r#"
        instance block1:source;
        instance block2:source;
        block2.start = 100;
        instance addblock:alu;
        instance block3:sink;

        block1.out -> addblock.a;   // Figure 1(b)'s port connections
        block2.out -> addblock.b;
        addblock.res -> block3.in;
        block1.out :: int;
    "#;

    let mut driver = Driver::with_corelib();
    driver.add_source("adder.lss", model);

    // Compile: LSS code executes now, producing the static netlist.
    let compiled = driver.elaborate()?;
    println!(
        "elaborated {} instances, {} connections",
        compiled.netlist.instances.len(),
        compiled.netlist.connections.len()
    );
    for inst in &compiled.netlist.instances {
        let ports: Vec<String> = inst
            .ports
            .iter()
            .map(|p| format!("{}:{}", p.name, p.ty.as_ref().unwrap()))
            .collect();
        println!("  {} : {} [{}]", inst.path, inst.module, ports.join(", "));
    }

    // Figure 1(c)'s behavioral code lives in the registered `alu` behavior;
    // simulate a few cycles and watch the sums appear.
    let mut sim = driver.simulator(&compiled.netlist)?;
    println!("\ncycle-by-cycle adder output:");
    for _ in 0..5 {
        sim.step()?;
        let out = sim.peek("addblock", "res", 0).unwrap();
        println!("  cycle {}: {} ", sim.cycle() - 1, out);
    }
    // Sources count up from start: 0+100, 1+101, ...
    assert_eq!(sim.peek("addblock", "res", 0).unwrap().as_int(), Some(108));
    println!(
        "\nthe sink swallowed {} values",
        sim.rtv("block3", "count").unwrap()
    );
    Ok(())
}
