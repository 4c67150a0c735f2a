//! Aspect-oriented instrumentation (§4.5): the same model reused for two
//! different data-collection needs without touching any component — first
//! with performance counters, then with a debugging probe watching the
//! actual values in flight.
//!
//! Run with `cargo run --example instrumentation`.

use liberty::Driver;

const MODEL: &str = r#"
    instance gen:source;
    instance chain:delayn;
    chain.n = 4;
    instance hole:sink;
    gen.out -> chain.in;
    chain.out -> hole.in;
"#;

fn run_with(probes: &str) -> Result<liberty::Simulator, String> {
    let mut driver = Driver::with_corelib();
    driver.add_source("model.lss", &format!("{MODEL}\n{probes}"));
    let compiled = driver.elaborate().map_err(|e| e.to_string())?;
    let mut sim = driver
        .simulator(&compiled.netlist)
        .map_err(|e| e.to_string())?;
    sim.run(10).map_err(|e| e.to_string())?;
    Ok(sim)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Use 1: performance measurement. Collectors hook the implicit
    // port-firing events; their BSL bodies accumulate statistics.
    let perf = r#"
        collector gen : out_fire = "sent = sent + 1;";
        collector chain.delays[3] : out_fire = "delivered = delivered + 1;";
    "#;
    let sim = run_with(perf)?;
    println!("performance probes (model text untouched):");
    for (path, event, state) in sim.collector_reports() {
        let kv: Vec<String> = state.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  {path}/{event}: {}", kv.join(" "));
    }

    // Use 2: debugging. A different set of collectors on the *same* model
    // checks the chain's timing law: after the 4-cycle fill (during which
    // the Figure 5 delays emit their initial state), the value arriving at
    // cycle c must be exactly c - 4.
    let debug = r#"
        collector chain.delays[3] : out_fire =
            "if (cycle >= 4 && value != cycle - 4) { anomalies = anomalies + 1; } last_value = value; last_cycle = cycle;";
    "#;
    let sim = run_with(debug)?;
    println!("\ndebugging probes on the same model:");
    for (path, event, state) in sim.collector_reports() {
        let kv: Vec<String> = state.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("  {path}/{event}: {}", kv.join(" "));
    }
    let anomalies = sim
        .collector_stat("chain.delays[3]", "out_fire", "anomalies")
        .map(|d| d.as_int().unwrap_or(0))
        .unwrap_or(0);
    println!("\nanomalies detected: {anomalies} (the 4-stage chain is healthy)");
    Ok(())
}
