//! `table3_sim`: the paper's Table 3 models run to completion, exactly as
//! `lssc --model X --run-model` runs them.

use std::collections::BTreeMap;
use std::time::Instant;

use lss_models::runner::{run_to_completion_opts, RunStats};
use lss_netlist::Netlist;
use lss_sim::{SimOptions, Simulator};
use lss_types::Datum;
use lss_verify::{Mutation, RefSim};

use crate::harness::{shuffled, Config, Metric, OpLog, Workload};
use crate::pipeline::count_steps;
use crate::trace::{Tracer, OP};

/// The runner's cycle cap (`lssc --run-model` uses the same).
const MAX_CYCLES: u64 = 10_000_000;

/// Cycles `--smoke` compares against the reference simulator.
const REFSIM_CYCLES: u64 = 200;

/// What each model must report: cycles, committed instructions,
/// mispredicts, and its collector tables.
const EXPECTED: [(char, u64, i64, i64, &str); 6] = [
    (
        'A',
        6770,
        2000,
        60,
        "cpu.ms.l1/miss: misses=127; cpu.wb/commit: n=2000",
    ),
    (
        'B',
        6644,
        2000,
        60,
        "cpu.ms.l1/miss: misses=127; cpu.wb/commit: n=2000",
    ),
    (
        'C',
        10871,
        2000,
        60,
        "cpu.ms.l1/hit: hits=331; cpu.ms.l1/miss: misses=385; cpu.wb/commit: n=2000",
    ),
    (
        'D',
        2631,
        2000,
        60,
        "cpu.ms.l1/miss: l1_misses=389; cpu.ms.l2/miss: l2_misses=385; cpu.wb/commit: n=2000",
    ),
    (
        'E',
        2368,
        4000,
        124,
        "core0.wb/commit: n=2000; core1.wb/commit: n=2000; l2/miss: l2_misses=570",
    ),
    (
        'F',
        12435,
        2000,
        60,
        "cpu.ms.l1/miss: l1_misses=385; cpu.ms.l2/miss: l2_misses=385; cpu.wb/commit: n=2000",
    ),
];

pub struct Table3 {
    models: Vec<(char, Netlist)>,
    seed: u64,
    smoke: bool,
}

/// `path/event: key=value ...; ...`, the collector tables in one line.
fn render_collectors(collectors: &BTreeMap<String, BTreeMap<String, Datum>>) -> String {
    collectors
        .iter()
        .map(|(table, entries)| {
            let items: Vec<String> = entries.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{table}: {}", items.join(" "))
        })
        .collect::<Vec<_>>()
        .join("; ")
}

fn check(id: char, stats: &RunStats) -> Result<(), String> {
    let (_, cycles, committed, mispredicts, collectors) = EXPECTED
        .iter()
        .find(|e| e.0 == id)
        .expect("every model has an expectation");
    let got = (stats.cycles, stats.committed, stats.mispredicts);
    if got != (*cycles, *committed, *mispredicts) {
        return Err(format!(
            "cycles/committed/mispredicts {got:?}, expected {:?}",
            (cycles, committed, mispredicts)
        ));
    }
    let tables = render_collectors(&stats.collectors);
    if tables != *collectors {
        return Err(format!("collectors `{tables}`, expected `{collectors}`"));
    }
    Ok(())
}

/// `run_to_completion_opts` step by step, with the runner's own work
/// (finding fetch and commit units, the per-cycle completion poll, the
/// final report) separated from the simulator's.
fn traced_run(tr: &mut Tracer, netlist: &Netlist) -> Result<RunStats, String> {
    let (commit_paths, fetch_paths, target) = tr.time("models.runner", || {
        let commit_sym = netlist.sym("commit");
        let fetch_sym = netlist.sym("fetch");
        let paths = |sym| -> Vec<String> {
            netlist
                .leaves()
                .filter(|i| Some(i.module) == sym)
                .map(|i| i.path.clone())
                .collect()
        };
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
        (paths(commit_sym), paths(fetch_sym), target)
    });
    if commit_paths.is_empty() || fetch_paths.is_empty() {
        return Err("model has no fetch/commit units to measure".into());
    }
    let registry = tr.time("corelib.registry", lss_corelib::registry);
    let mut sim = tr
        .time("sim.build", || {
            lss_sim::build(netlist, &registry, SimOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let rtv_sum = |sim: &Simulator, paths: &[String], name: &str| -> i64 {
        paths
            .iter()
            .map(|p| sim.rtv(p, name).and_then(|d| d.as_int()).unwrap_or(0))
            .sum()
    };
    loop {
        tr.time("sim.step", || sim.step())
            .map_err(|e| format!("cycle {}: {e}", sim.cycle()))?;
        if tr.time("models.poll", || {
            rtv_sum(&sim, &commit_paths, "committed") >= target
        }) {
            break;
        }
        if sim.cycle() >= MAX_CYCLES {
            return Err(format!("model did not finish in {MAX_CYCLES} cycles"));
        }
    }
    let stats = tr.time("models.runner", || {
        let committed = rtv_sum(&sim, &commit_paths, "committed");
        let mut collectors = BTreeMap::new();
        for (path, event, state) in sim.collector_reports() {
            let table = state
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect();
            collectors.insert(format!("{path}/{event}"), table);
        }
        RunStats {
            cycles: sim.cycle(),
            committed,
            target,
            cpi: sim.cycle() as f64 / committed.max(1) as f64,
            mispredicts: rtv_sum(&sim, &fetch_paths, "mispredicts"),
            collectors,
            sim: sim.stats(),
        }
    });
    count_steps(tr, &sim);
    Ok(stats)
}

/// Steps the engine and the reference simulator side by side, comparing
/// their full observable state every cycle.
fn refsim_agrees(netlist: &Netlist) -> Result<(), String> {
    let registry = lss_corelib::registry();
    let mut sim =
        lss_sim::build(netlist, &registry, SimOptions::default()).map_err(|e| e.to_string())?;
    let mut reference =
        RefSim::build(netlist, &registry, Mutation::None).map_err(|e| e.to_string())?;
    for cycle in 0..REFSIM_CYCLES {
        sim.step().map_err(|e| e.to_string())?;
        reference.step().map_err(|e| e.to_string())?;
        if sim.state_lines() != reference.state_lines() {
            return Err(format!(
                "state differs from the reference after cycle {cycle}"
            ));
        }
    }
    Ok(())
}

impl Workload for Table3 {
    const PASSES_PER_S: f64 = 4.1;

    fn setup(cfg: &Config) -> Result<Table3, String> {
        let models = lss_models::models()
            .iter()
            .map(|m| lss_models::compile_model(m).map(|c| (m.id, c.netlist)))
            .collect::<Result<_, _>>()?;
        Ok(Table3 {
            models,
            seed: cfg.seed,
            smoke: cfg.smoke,
        })
    }

    fn ops_per_pass(&self) -> usize {
        self.models.len()
    }

    fn pass(&mut self, index: usize, log: &mut OpLog, mut tracer: Option<&mut Tracer>) {
        for i in shuffled(self.models.len(), self.seed, index) {
            let (id, netlist) = &self.models[i];
            let start = Instant::now();
            let stats = match tracer.as_deref_mut() {
                None => run_to_completion_opts(netlist, SimOptions::default(), MAX_CYCLES),
                Some(tr) => {
                    tr.begin(OP);
                    let stats = traced_run(tr, netlist);
                    tr.end();
                    stats
                }
            };
            let end = Instant::now();
            log.record(
                &format!("model_{id}"),
                start,
                end,
                stats.and_then(|s| check(*id, &s)),
            );
        }
        if self.smoke && index == 0 {
            for (id, netlist) in &self.models {
                let start = Instant::now();
                let agrees = refsim_agrees(netlist);
                log.record(&format!("refsim_{id}"), start, Instant::now(), agrees);
            }
        }
    }

    fn details(&self, log: &OpLog) -> Vec<Metric> {
        // Thousand committed instructions per host second over one pass
        // at each model's median time.
        let committed: i64 = EXPECTED.iter().map(|e| e.2).sum();
        let pass_s: f64 = EXPECTED
            .iter()
            .map(|e| log.median_ms(&format!("model_{}", e.0)) / 1e3)
            .sum();
        vec![Metric::new(
            "sim_kips",
            committed as f64 / pass_s / 1e3,
            "kinstr/s",
        )]
    }
}
