//! Running compiled models to completion and extracting their statistics.

use std::collections::BTreeMap;

use lss_netlist::Netlist;
use lss_sim::{build, Scheduler, SimOptions, Simulator};
use lss_types::Datum;

/// Results of running a model to completion.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Total instructions committed (summed over all commit units).
    pub committed: i64,
    /// Total instructions the fetch units were configured to produce.
    pub target: i64,
    /// Cycles per instruction.
    pub cpi: f64,
    /// Mispredicts summed over all fetch units.
    pub mispredicts: i64,
    /// Collector state tables keyed by `"path/event"`.
    pub collectors: BTreeMap<String, BTreeMap<String, Datum>>,
    /// Engine counters.
    pub sim: lss_sim::SimStats,
}

/// Builds a simulator for a compiled netlist with the corelib registry.
///
/// # Errors
///
/// Propagates simulator build errors as strings.
pub fn build_sim(netlist: &Netlist, scheduler: Scheduler) -> Result<Simulator, String> {
    build_sim_opts(
        netlist,
        SimOptions {
            scheduler,
            ..Default::default()
        },
    )
}

/// Like [`build_sim`] but with full control over the engine options
/// (scheduler, seed, type checks, mutations, ...).
///
/// # Errors
///
/// Propagates simulator build errors as strings.
pub fn build_sim_opts(netlist: &Netlist, opts: SimOptions) -> Result<Simulator, String> {
    build(netlist, &lss_corelib::registry(), opts).map_err(|e| e.to_string())
}

/// Runs until every fetch unit's instructions have committed (or
/// `max_cycles` elapses), then gathers statistics.
///
/// # Errors
///
/// Simulation errors and non-termination are reported as strings.
pub fn run_to_completion(
    netlist: &Netlist,
    scheduler: Scheduler,
    max_cycles: u64,
) -> Result<RunStats, String> {
    run_to_completion_opts(
        netlist,
        SimOptions {
            scheduler,
            ..Default::default()
        },
        max_cycles,
    )
}

/// Like [`run_to_completion`] but with full control over engine options.
///
/// # Errors
///
/// Simulation errors and non-termination are reported as strings.
pub fn run_to_completion_opts(
    netlist: &Netlist,
    opts: SimOptions,
    max_cycles: u64,
) -> Result<RunStats, String> {
    let mut sim = build_sim_opts(netlist, opts)?;
    run_sim_to_completion(netlist, &mut sim, max_cycles)
}

/// Runs `sim`, already built from `netlist` (see [`build_sim_opts`]),
/// until every fetch unit's instructions have committed (or the cycle
/// count reaches `max_cycles`), then gathers statistics. The caller keeps
/// the simulator, e.g. to report its plan.
///
/// # Errors
///
/// Simulation errors and non-termination are reported as strings.
pub fn run_sim_to_completion(
    netlist: &Netlist,
    sim: &mut Simulator,
    max_cycles: u64,
) -> Result<RunStats, String> {
    let commit_sym = netlist.sym("commit");
    let fetch_sym = netlist.sym("fetch");
    let commit_paths: Vec<String> = netlist
        .leaves()
        .filter(|i| Some(i.module) == commit_sym)
        .map(|i| i.path.clone())
        .collect();
    let fetch_paths: Vec<String> = netlist
        .leaves()
        .filter(|i| Some(i.module) == fetch_sym)
        .map(|i| i.path.clone())
        .collect();
    if commit_paths.is_empty() || fetch_paths.is_empty() {
        return Err("model has no fetch/commit units to measure".to_string());
    }
    let target: i64 = netlist
        .leaves()
        .filter(|i| Some(i.module) == fetch_sym)
        .map(|i| {
            i.params
                .get("n_instrs")
                .and_then(Datum::as_int)
                .unwrap_or(0)
        })
        .sum();

    let committed_total = |sim: &Simulator| -> i64 {
        commit_paths
            .iter()
            .map(|p| {
                sim.rtv(p, "committed")
                    .and_then(|d| d.as_int())
                    .unwrap_or(0)
            })
            .sum()
    };
    loop {
        sim.step()
            .map_err(|e| format!("cycle {}: {e}", sim.cycle()))?;
        if committed_total(sim) >= target {
            break;
        }
        if sim.cycle() >= max_cycles {
            return Err(format!(
                "model did not finish: {} of {target} instructions committed after {max_cycles} cycles",
                committed_total(sim)
            ));
        }
    }
    let committed = committed_total(sim);
    let mispredicts = fetch_paths
        .iter()
        .map(|p| {
            sim.rtv(p, "mispredicts")
                .and_then(|d| d.as_int())
                .unwrap_or(0)
        })
        .sum();
    let mut collectors = BTreeMap::new();
    for (path, event, state) in sim.collector_reports() {
        let table: BTreeMap<String, Datum> = state
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        collectors.insert(format!("{path}/{event}"), table);
    }
    Ok(RunStats {
        cycles: sim.cycle(),
        committed,
        target,
        cpi: sim.cycle() as f64 / committed.max(1) as f64,
        mispredicts,
        collectors,
        sim: sim.stats(),
    })
}
