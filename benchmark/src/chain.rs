//! `wide_chain`: a cold build of a long delay chain, then enough cycles
//! for values to cross it.

use std::time::Instant;

use lss_driver::Driver;

use crate::harness::{Config, Metric, OpLog, Workload};
use crate::pipeline::{count_steps, driver_build, traced_build};
use crate::trace::{Tracer, OP};

const STAGES: usize = 2048;
const SMOKE_STAGES: usize = 64;
const LANES: usize = 2;
/// Cycles after the chain has filled; the sink then counts exactly
/// `DRAIN_CYCLES * LANES` values.
const DRAIN_CYCLES: u64 = 500;

pub struct Chain {
    source: String,
    stages: usize,
}

impl Chain {
    fn cycles(&self) -> u64 {
        self.stages as u64 + DRAIN_CYCLES
    }

    fn session(&self) -> Driver {
        let mut driver = Driver::with_corelib();
        driver.add_source("chain.lss", &self.source);
        driver
    }
}

impl Workload for Chain {
    const PASSES_PER_S: f64 = 1.65;

    fn setup(cfg: &Config) -> Result<Chain, String> {
        let stages = if cfg.smoke { SMOKE_STAGES } else { STAGES };
        let chain = Chain {
            source: bench::delay_chain_source(stages, LANES),
            stages,
        };
        // A first build parses the shared corelib and warms the allocator.
        driver_build(chain.session(), false)?;
        Ok(chain)
    }

    fn ops_per_pass(&self) -> usize {
        2
    }

    fn pass(&mut self, _index: usize, log: &mut OpLog, mut tracer: Option<&mut Tracer>) {
        let start = Instant::now();
        let built = match tracer.as_deref_mut() {
            None => driver_build(self.session(), false),
            Some(tr) => {
                tr.begin(OP);
                let driver = tr.time("driver.session", || self.session());
                let built = traced_build(tr, driver, None, false);
                tr.end();
                built
            }
        };
        let end = Instant::now();
        let mut sim = match built {
            Ok(built) => {
                log.record("build", start, end, Ok(()));
                built.sim
            }
            Err(e) => return log.record("build", start, end, Err(e)),
        };

        let cycles = self.cycles();
        let start = Instant::now();
        let ran = match tracer {
            None => sim.run(cycles),
            Some(tr) => {
                tr.begin(OP);
                let ran = (0..cycles).try_for_each(|_| tr.time("sim.step", || sim.step()));
                tr.end();
                count_steps(tr, &sim);
                ran
            }
        };
        let end = Instant::now();
        let outcome = ran.map_err(|e| e.to_string()).and_then(|()| {
            let count = sim.rtv("hole", "count").and_then(|d| d.as_int());
            let expected = (DRAIN_CYCLES * LANES as u64) as i64;
            match count {
                Some(n) if n == expected => Ok(()),
                other => Err(format!("sink counted {other:?}, expected {expected}")),
            }
        });
        log.record("run", start, end, outcome);
    }

    fn details(&self, log: &OpLog) -> Vec<Metric> {
        vec![
            Metric::new(
                "sim_cycles_per_s",
                self.cycles() as f64 / (log.median_ms("run") / 1e3),
                "cycles/s",
            ),
            Metric::new("build_cold_ms", log.median_ms("build"), "ms"),
        ]
    }
}
