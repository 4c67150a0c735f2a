//! A 4-node network-on-chip built from the corelib crossbar — the paper's
//! point that "many behaviors such as arbitration and queuing are
//! extremely common in a wide range of hardware systems": the same
//! arbiters and demuxes that route instructions in the CPU models switch
//! packets here.
//!
//! Run with `cargo run --example noc`.

use liberty::Driver;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Each node emits packets (its node id as payload); destinations are
    // fixed routes chosen with constant selectors (input-less delays hold
    // their initial state forever): 0 -> 2, 1 -> 3, 2 -> 0, 3 -> 1.
    let model = r#"
        module node_src {
            parameter id:int;
            outport out:int;
            parameter start = 0:int;
            tar_file = "corelib/source.tar";
        };
        var n:int = 4;
        var srcs:instance ref[];
        srcs = new instance[n](node_src, "srcs");
        var routes:instance ref[];
        routes = new instance[n](delay, "routes");
        var sinks:instance ref[];
        sinks = new instance[n](sink, "sinks");
        instance sw:xbar;
        sw.n_in = n;
        sw.n_out = n;
        sw.policy = "return cycle;";
        var i:int;
        for (i = 0; i < n; i = i + 1) {
            srcs[i].id = i;
            srcs[i].start = 100 * (i + 1);
            routes[i].initial_state = (i + 2) % n;
            srcs[i].out -> sw.in[i];
            routes[i].out -> sw.dest[i];
            sw.out[i] -> sinks[i].in;
        }
        srcs[0].out :: int;
        collector sw.arbs[0] : out_fire = "delivered = delivered + 1;";
    "#;

    let mut driver = Driver::with_corelib();
    driver.add_source("noc.lss", model);
    let compiled = driver.elaborate()?;
    println!(
        "4-node NoC: {} instances ({} from the library), {} connections",
        compiled.netlist.instances.len(),
        compiled
            .netlist
            .instances
            .iter()
            .filter(|i| i.from_library)
            .count(),
        compiled.netlist.connections.len()
    );

    let mut sim = driver.simulator(&compiled.netlist)?;
    sim.watch("sw.arbs");
    sim.run(4)?;
    println!("\nswitch outputs over 4 cycles (node i sends 100*(i+1)+cycle):");
    print!("{}", liberty::sim::to_ascii(sim.firing_log(), 8));

    // Route check: node 0 (payload 100+cycle) goes to output 2, etc.
    assert_eq!(
        sim.peek("sw.arbs[2]", "out", 0).unwrap().as_int(),
        Some(103)
    );
    assert_eq!(
        sim.peek("sw.arbs[0]", "out", 0).unwrap().as_int(),
        Some(303)
    );
    for i in 0..4 {
        let count = sim.rtv(&format!("sinks[{i}]"), "count").unwrap();
        println!("node {i} received {count} packets");
    }
    Ok(())
}
