//! The paper's running example: Figures 2, 8, and 9 — a parametric
//! n-stage delay chain built by compile-time execution of imperative LSS
//! code, something static structural systems fundamentally cannot express
//! (§3.1).
//!
//! Run with `cargo run --example delay_chain`.

use liberty::netlist::dump;
use liberty::Driver;

fn chain_model(n: usize) -> String {
    // Figure 9: instantiate the corelib delayn (Figure 8) with n stages.
    format!(
        r#"
        instance gen:source;
        instance hole:sink;
        instance delay3:delayn;
        delay3.n = {n};
        gen.out -> delay3.in;
        delay3.out -> hole.in;
        "#
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One source file, three different machines: the length is a parameter.
    for n in [3usize, 6, 12] {
        let mut driver = Driver::with_corelib();
        driver.add_source("chain.lss", &chain_model(n));
        let compiled = driver.elaborate()?;
        println!(
            "n = {n:>2}: {} instances, {} leaf-to-leaf wires",
            compiled.netlist.instances.len(),
            compiled.netlist.flatten().len()
        );
    }

    // Figure 2's block diagram, reconstructed from the n=3 netlist.
    let mut driver = Driver::with_corelib();
    driver.add_source("chain.lss", &chain_model(3));
    let compiled = driver.elaborate()?;
    println!("\ninstance hierarchy (Figure 2):");
    print!("{}", dump::tree(&compiled.netlist));

    // Type inference resolved every polymorphic port from the structure.
    let delay3 = compiled.netlist.find("delay3").unwrap();
    println!(
        "\ndelay3.in was declared ':a and inferred as `{}` (width {})",
        delay3.port("in").unwrap().ty.as_ref().unwrap(),
        delay3.port("in").unwrap().width,
    );

    // Simulate: a value entering the chain appears 3 cycles later.
    let mut sim = driver.simulator(&compiled.netlist)?;
    println!("\nsimulation (source counts up; the chain delays by 3):");
    for _ in 0..6 {
        sim.step()?;
        let inp = sim.peek("gen", "out", 0).unwrap();
        let out = sim
            .peek("delay3.delays[2]", "out", 0)
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".into());
        println!("  cycle {}: in={inp} out={out}", sim.cycle() - 1);
    }
    assert_eq!(sim.rtv("hole", "count").unwrap().as_int(), Some(6));
    Ok(())
}
