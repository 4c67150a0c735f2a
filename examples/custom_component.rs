//! Extending the library with your own leaf behavior — the open component
//! model that let groups like the Spinach NIC project (§7 of the paper)
//! build domain libraries on top of LSE.
//!
//! A user crate provides (1) an LSS module declaration whose `tar_file`
//! names the behavior and (2) a Rust implementation of the `Component`
//! trait registered under that key. Everything else — parameters, inferred
//! widths and types, userpoints, instrumentation — comes from the
//! framework.
//!
//! Run with `cargo run --example custom_component`.

use liberty::sim::{BuildError, CompCtx, Component, SimError};
use liberty::types::Datum;
use liberty::Driver;

/// A DMA-style burst engine: accepts a descriptor (base address, length)
/// and then streams one word address per cycle on `mem_addr` until the
/// burst completes, reporting `busy` while working.
struct BurstEngine {
    desc: usize,
    mem_addr: usize,
    busy: usize,
    /// Remaining (next_addr, words_left).
    state: Option<(i64, i64)>,
}

impl BurstEngine {
    // Factory in the corelib convention: boxed, ready for the registry.
    #[allow(clippy::new_ret_no_self)]
    fn new(spec: &liberty::sim::CompSpec) -> Result<Box<dyn Component>, BuildError> {
        Ok(Box::new(BurstEngine {
            desc: spec.port_index("desc")?,
            mem_addr: spec.port_index("mem_addr")?,
            busy: spec.port_index("busy")?,
            state: None,
        }))
    }
}

impl Component for BurstEngine {
    fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        if let Some((addr, _)) = self.state {
            ctx.set_output(self.mem_addr, 0, Datum::Int(addr));
        }
        ctx.set_output(self.busy, 0, Datum::Int(self.state.is_some() as i64));
        Ok(())
    }

    fn end_of_timestep(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
        // Advance the burst.
        if let Some((addr, left)) = self.state {
            self.state = if left > 1 {
                Some((addr + 4, left - 1))
            } else {
                None
            };
            let done = ctx.rtv("words").as_int().unwrap_or(0) + 1;
            ctx.set_rtv("words", Datum::Int(done));
        }
        // Accept a new descriptor when idle: a struct {base, len}.
        if self.state.is_none() {
            if let Some(d) = ctx.input(self.desc, 0) {
                let base = d.field("base").and_then(Datum::as_int).unwrap_or(0);
                let len = d.field("len").and_then(Datum::as_int).unwrap_or(0);
                if len > 0 {
                    self.state = Some((base, len));
                    ctx.emit("burst_started", vec![Datum::Int(base), Datum::Int(len)]);
                }
            }
        }
        Ok(())
    }

    fn input_is_combinational(&self, _port: usize) -> bool {
        false
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The user library: one LSS module declaration + one registered behavior.
    let nic_lib = r#"
        module burst_engine {
            inport desc: struct { base:int; len:int; };
            outport mem_addr:int;
            outport busy:int;
            runtime var words:int = 0;
            event burst_started(int, int);
            tar_file = "nic/burst.tar";
        };
    "#;

    // A descriptor source (a custom module reusing the corelib source
    // behavior would emit defaults; instead drive descriptors from a delay
    // holding a constant struct is overkill — use a probe-friendly setup:
    // one burst descriptor injected by a tiny custom feeder behavior).
    struct Feeder {
        out: usize,
        sent: bool,
    }
    impl Component for Feeder {
        fn eval(&mut self, ctx: &mut dyn CompCtx) -> Result<(), SimError> {
            if !self.sent {
                ctx.set_output(
                    self.out,
                    0,
                    Datum::Struct(
                        vec![
                            ("base".into(), Datum::Int(0x1000)),
                            ("len".into(), Datum::Int(4)),
                        ]
                        .into(),
                    ),
                );
            }
            Ok(())
        }
        fn end_of_timestep(&mut self, _ctx: &mut dyn CompCtx) -> Result<(), SimError> {
            self.sent = true;
            Ok(())
        }
    }

    let model = r#"
        module desc_feeder {
            outport out: struct { base:int; len:int; };
            tar_file = "nic/feeder.tar";
        };
        instance feeder:desc_feeder;
        instance dma:burst_engine;
        instance addr_sink:sink;
        instance busy_sink:sink;
        feeder.out -> dma.desc;
        dma.mem_addr -> addr_sink.in;
        dma.busy -> busy_sink.in;
        collector dma : burst_started = "bursts = bursts + 1; last_len = arg1;";
    "#;

    let mut driver = Driver::with_corelib();
    // Extend the registry with the user behaviors.
    let mut registry = liberty::corelib::registry();
    registry.register("nic/burst.tar", BurstEngine::new);
    registry.register("nic/feeder.tar", |spec| {
        Ok(Box::new(Feeder {
            out: spec.port_index("out")?,
            sent: false,
        }) as Box<dyn Component>)
    });
    driver.set_registry(registry);
    driver.add_library("nic_lib.lss", nic_lib);
    driver.add_source("model.lss", model);

    let compiled = driver.elaborate()?;
    println!(
        "NIC model: {} instances; dma.desc inferred as `{}`",
        compiled.netlist.instances.len(),
        compiled
            .netlist
            .find("dma")
            .unwrap()
            .port("desc")
            .unwrap()
            .ty
            .as_ref()
            .unwrap()
    );

    let mut sim = driver.simulator(&compiled.netlist)?;
    sim.watch("dma");
    sim.run(8)?;
    println!("\nburst engine activity:");
    print!("{}", liberty::sim::to_ascii(sim.firing_log(), 8));
    println!(
        "\nwords transferred: {}, bursts: {}",
        sim.rtv("dma", "words").unwrap(),
        sim.collector_stat("dma", "burst_started", "bursts")
            .unwrap()
    );
    assert_eq!(sim.rtv("dma", "words").unwrap().as_int(), Some(4));
    Ok(())
}
