//! Shared helpers for the experiment binaries and Criterion benches that
//! regenerate the paper's tables and figures (see DESIGN.md §4 for the
//! experiment index).

pub mod baselines;
pub mod timing;

use lss_driver::Elaborated;
use lss_interp::CompileOptions;
use lss_models::Model;
use lss_netlist::Netlist;

/// Compiles a Table 3 model, panicking with diagnostics on failure (the
/// experiment binaries treat model breakage as fatal).
pub fn compiled_model(model: &Model) -> Elaborated {
    lss_models::compile_model(model)
        .unwrap_or_else(|e| panic!("model {} failed to compile:\n{e}", model.id))
}

/// Compiles model source with explicit options.
pub fn compiled_source(src: &str, opts: &CompileOptions) -> Elaborated {
    lss_models::compile_source(src, opts)
        .unwrap_or_else(|e| panic!("source failed to compile:\n{e}"))
}

/// A generated delay-chain model of `n` stages and `width` lanes: the
/// scaling workload for elaboration and simulation benchmarks.
pub fn delay_chain_source(n: usize, lanes: usize) -> String {
    format!(
        r#"
        module widesrc {{ outport out:'a; tar_file = "corelib/source.tar"; }};
        module widesink {{ inport in:'a; runtime var count:int = 0; tar_file = "corelib/sink.tar"; }};
        module widedelay {{ inport in:'a; outport out:'a; tar_file = "corelib/latch.tar"; }};
        module widechain {{
            parameter n:int;
            inport in:'a;
            outport out:'a;
            var stages:instance ref[];
            stages = new instance[n](widedelay, "stages");
            var i:int;
            LSS_connect_bus(in, stages[0].in, in.width);
            for (i = 1; i < n; i = i + 1) {{
                LSS_connect_bus(stages[i-1].out, stages[i].in, in.width);
            }}
            LSS_connect_bus(stages[n-1].out, out, in.width);
        }};
        instance gen:widesrc;
        instance chain:widechain;
        chain.n = {n};
        instance hole:widesink;
        LSS_connect_bus(gen.out, chain.in, {lanes});
        LSS_connect_bus(chain.out, hole.in, {lanes});
        gen.out :: int;
        "#
    )
}

/// Builds a simulator for `netlist` with the corelib registry.
pub fn simulator(netlist: &Netlist, scheduler: lss_sim::Scheduler) -> lss_sim::Simulator {
    simulator_opts(
        netlist,
        lss_sim::SimOptions {
            scheduler,
            ..Default::default()
        },
    )
}

/// Builds a simulator with caller-chosen engine options (a budget, say).
pub fn simulator_opts(netlist: &Netlist, opts: lss_sim::SimOptions) -> lss_sim::Simulator {
    lss_sim::build(netlist, &lss_corelib::registry(), opts)
        .unwrap_or_else(|e| panic!("simulator build failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_chain_scales() {
        for (n, lanes) in [(1, 1), (5, 3)] {
            let src = delay_chain_source(n, lanes);
            let compiled = compiled_source(&src, &CompileOptions::default());
            assert_eq!(compiled.netlist.instances.len(), 3 + n);
            let mut sim = simulator(&compiled.netlist, lss_sim::Scheduler::Static);
            sim.run(10).unwrap();
            let count = sim.rtv("hole", "count").unwrap().as_int().unwrap();
            // After n cycles of latency, `lanes` values arrive per cycle.
            assert_eq!(count, (10 - n as i64) * lanes as i64);
        }
    }
}
