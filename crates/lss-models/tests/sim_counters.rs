//! The engine's counters are part of its contract: `comp_evals`,
//! `port_firings` and `events_dispatched` feed `--stats`, the benchmark's
//! per-cycle metrics and the §8 comparison. Optimizations of the per-cycle
//! loops must leave them exactly where they were, so each Table 3 model's
//! counters after a fixed number of cycles are pinned here, under both
//! schedulers.

use lss_models::runner::build_sim;
use lss_models::{compile_model, models};
use lss_sim::{Scheduler, SimStats};

const CYCLES: u64 = 1010;

/// `(model, scheduler, comp_evals, port_firings, events_dispatched)` after
/// [`CYCLES`] cycles.
const PINNED: [(char, Scheduler, u64, u64, u64); 12] = [
    ('A', Scheduler::Static, 23230, 20290, 144),
    ('A', Scheduler::Dynamic, 43155, 20290, 144),
    ('B', Scheduler::Static, 16160, 10341, 167),
    ('B', Scheduler::Dynamic, 26761, 10341, 167),
    ('C', Scheduler::Static, 20200, 14665, 228),
    ('C', Scheduler::Dynamic, 31505, 14665, 228),
    ('D', Scheduler::Static, 25250, 21602, 1134),
    ('D', Scheduler::Dynamic, 38737, 21602, 1134),
    ('E', Scheduler::Static, 50500, 44974, 2115),
    ('E', Scheduler::Dynamic, 80903, 44974, 2115),
    ('F', Scheduler::Static, 25250, 16935, 247),
    ('F', Scheduler::Dynamic, 35431, 16935, 247),
];

#[test]
fn table3_counters_are_pinned() {
    let mut actual = Vec::new();
    for model in models() {
        let compiled = compile_model(model)
            .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.id));
        for scheduler in [Scheduler::Static, Scheduler::Dynamic] {
            let mut sim = build_sim(&compiled.netlist, scheduler).expect("build");
            sim.run(CYCLES).expect("run");
            let SimStats {
                cycles,
                comp_evals,
                port_firings,
                events_dispatched,
            } = sim.stats();
            assert_eq!(cycles, CYCLES);
            actual.push((
                model.id,
                scheduler,
                comp_evals,
                port_firings,
                events_dispatched,
            ));
        }
    }
    assert_eq!(actual, PINNED, "counters moved; actual values: {actual:#?}");
}
