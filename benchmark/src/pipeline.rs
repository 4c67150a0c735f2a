//! A compile to a ready simulator, as `lss_driver::Driver` runs it.
//!
//! [`driver_build`] is what users call: `Driver::analyze` (or
//! `Driver::elaborate`) and then `Driver::simulator`. [`traced_build`]
//! does the same work through the layers' public functions one at a time,
//! each inside a span: the cache probe, parse, elaboration (per unit and
//! then `link` for a multi-file project), inference with the partition
//! memo, the cache store, analysis and the simulator build. Both return a
//! [`Built`], so the same checks apply to either.

use std::collections::HashMap;
use std::path::Path;

use lss_analyze::{AnalysisConfig, PassManager};
use lss_ast::{Diagnostic, DiagnosticBag, FileId};
use lss_driver::{cache, CacheOutcome, DiskMemo, Driver, DriverError, Fnv64, Parsed, Stage};
use lss_interp::Unit;
use lss_netlist::{LinkUnit, Netlist};
use lss_sim::Simulator;
use lss_types::PartitionMemo;

use crate::trace::Tracer;

/// The outcome of one build.
pub struct Built {
    pub instances: usize,
    pub connections: usize,
    pub cache: CacheOutcome,
    /// Denied analysis findings; `None` when the build did not analyze.
    pub denied: Option<usize>,
    pub sim: Simulator,
}

/// Builds through the driver's own stages; the session ends with the
/// build.
pub fn driver_build(mut driver: Driver, analyze: bool) -> Result<Built, String> {
    let (elaborated, denied) = if analyze {
        let analyzed = driver
            .analyze(&AnalysisConfig::default())
            .map_err(|e| e.to_string())?;
        (analyzed.elaborated, Some(analyzed.analysis.denied))
    } else {
        (driver.elaborate().map_err(|e| e.to_string())?, None)
    };
    let sim = driver
        .simulator(&elaborated.netlist)
        .map_err(|e| e.to_string())?;
    Ok(Built {
        instances: elaborated.netlist.instances.len(),
        connections: elaborated.netlist.connections.len(),
        cache: elaborated.cache,
        denied,
        sim,
    })
}

/// Adds a finished simulation's engine counters to the trace.
pub fn count_steps(tr: &mut Tracer, sim: &Simulator) {
    let stats = sim.stats();
    tr.count("sim.cycles", stats.cycles as f64);
    tr.count("sim.comp_evals", stats.comp_evals as f64);
    tr.count("sim.port_firings", stats.port_firings as f64);
    tr.count("sim.events", stats.events_dispatched as f64);
    let comp_cycles = stats.cycles * sim.component_count() as u64;
    tr.count("sim.comp_cycles", comp_cycles as f64);
}

fn diagnostics(stage: Stage, diags: Vec<Diagnostic>, driver: &Driver) -> String {
    DriverError::new(stage, diags, driver.sources()).to_string()
}

/// Builds like [`driver_build`], one span per layer call.
pub fn traced_build(
    tr: &mut Tracer,
    mut driver: Driver,
    cache_dir: Option<&Path>,
    analyze: bool,
) -> Result<Built, String> {
    let built = traced_stages(tr, &mut driver, cache_dir, analyze);
    // Ending the session frees its sources, syntax trees and netlist, as
    // dropping the driver does in `driver_build`.
    tr.time("driver.session", || drop(driver));
    built.map(|(built, netlist)| {
        tr.time("driver.session", || drop(netlist));
        built
    })
}

fn traced_stages(
    tr: &mut Tracer,
    driver: &mut Driver,
    cache_dir: Option<&Path>,
    analyze: bool,
) -> Result<(Built, Netlist), String> {
    let key = tr.time("driver.cache_key", || driver.cache_key());
    let mut cached = None;
    if let Some(dir) = cache_dir {
        tr.count("driver.cache_probes", 1.0);
        cached = tr.time("driver.cache_probe", || cache::load(dir, key))?;
    }
    let (netlist, outcome) = match cached {
        Some(build) => {
            tr.count("driver.cache_hits", 1.0);
            (build.netlist, CacheOutcome::Hit)
        }
        None => {
            let netlist = compile(tr, driver, cache_dir, key)?;
            let outcome = match cache_dir {
                Some(_) => CacheOutcome::Miss,
                None => CacheOutcome::Disabled,
            };
            (netlist, outcome)
        }
    };
    let mut denied = None;
    if analyze {
        let comb = tr.time("sim.comb_info", || {
            lss_sim::comb_info(&netlist, driver.registry())
        });
        let (findings, denied_findings) = tr
            .time("analyze.passes", || {
                PassManager::with_default_passes()
                    .run_budgeted(&netlist, &comb, &AnalysisConfig::default(), driver.budget())
                    .map(|analysis| (analysis.findings.len(), analysis.denied))
            })
            .map_err(|e| e.to_string())?;
        tr.count("analyze.findings", findings as f64);
        denied = Some(denied_findings);
        tr.time("sim.comb_info", || drop(comb));
    }
    let sim = tr
        .time("sim.build", || {
            lss_sim::build(&netlist, driver.registry(), driver.sim_options.clone())
        })
        .map_err(|e| e.to_string())?;
    let built = Built {
        instances: netlist.instances.len(),
        connections: netlist.connections.len(),
        cache: outcome,
        denied,
        sim,
    };
    Ok((built, netlist))
}

/// Parse, elaborate, infer and store: the miss path of
/// `Driver::elaborate`.
fn compile(
    tr: &mut Tracer,
    driver: &mut Driver,
    cache_dir: Option<&Path>,
    key: u64,
) -> Result<Netlist, String> {
    let parsed = tr.time("ast.parse", || driver.parse());
    if parsed.has_errors() {
        return Err(diagnostics(
            Stage::Parse,
            parsed.diagnostics.clone(),
            driver,
        ));
    }
    // The corelib at file 0 is parsed once per process, not per build.
    let bytes: usize = parsed
        .units
        .iter()
        .filter(|u| u.file != FileId(0))
        .filter_map(|u| driver.sources().get(u.file))
        .map(|f| f.text.len())
        .sum();
    tr.count("ast.bytes", bytes as f64);
    let project = parsed.units.iter().any(|u| !u.program().imports.is_empty());
    let (mut netlist, prints) = if project {
        elaborate_project(tr, driver, &parsed, cache_dir)?
    } else {
        let units: Vec<Unit<'_>> = parsed
            .units
            .iter()
            .map(|u| Unit {
                program: u.program(),
                library: u.library,
            })
            .collect();
        let mut bag = DiagnosticBag::new();
        let out = tr.time("interp.elaborate", || {
            lss_interp::elaborate(&units, &driver.options.elab, &mut bag)
        });
        let out = out.ok_or_else(|| diagnostics(Stage::Elaborate, bag.into_vec(), driver))?;
        (out.netlist, out.prints)
    };
    tr.count("interp.instances", netlist.instances.len() as f64);

    let mut memo = cache_dir.map(|dir| DiskMemo::new(dir.to_path_buf()));
    let mut bag = DiagnosticBag::new();
    let solved = tr.time("types.infer", || {
        lss_interp::infer_with_memo(
            &mut netlist,
            &driver.options.solver,
            &mut bag,
            memo.as_mut().map(|m| m as &mut dyn PartitionMemo),
        )
    });
    let stats = solved.ok_or_else(|| diagnostics(Stage::Infer, bag.into_vec(), driver))?;
    tr.count("types.unify_steps", stats.unify_steps as f64);
    tr.count("types.backtracks", stats.backtracks as f64);
    tr.count("types.partitions", stats.partitions as f64);
    tr.count("types.memo_hits", stats.memo_hits as f64);

    if let Some(dir) = cache_dir {
        tr.time("driver.cache_store", || {
            cache::store(dir, key, &netlist, &stats, &prints)
        })?;
        let size = std::fs::metadata(cache::entry_path(dir, key)).map_or(0, |m| m.len());
        tr.count("netlist.bin_bytes", size as f64);
        tr.count("netlist.bin_entries", 1.0);
    }
    Ok(netlist)
}

/// Project mode: every project file elaborates as its own unit against
/// its import closure, each unit is cached on its own, and `link` merges
/// them. Library units (the corelib) are the context every unit sees;
/// the others are the project's files.
fn elaborate_project(
    tr: &mut Tracer,
    driver: &Driver,
    parsed: &Parsed,
    cache_dir: Option<&Path>,
) -> Result<(Netlist, Vec<String>), String> {
    let units = &parsed.units;
    // The driver names a project file by the path its importer joined,
    // so an import resolves to the unit of that exact name.
    let index: HashMap<&str, usize> = (0..units.len())
        .filter(|&i| !units[i].library)
        .map(|i| (units[i].name.as_str(), i))
        .collect();
    let deps: Vec<Vec<usize>> = units
        .iter()
        .map(|u| {
            let dir = Path::new(&u.name).parent().unwrap_or(Path::new(""));
            u.program()
                .imports
                .iter()
                .filter_map(|i| {
                    let path = dir.join(i.path.rel_path()).display().to_string();
                    index.get(path.as_str()).copied()
                })
                .collect()
        })
        .collect();
    let context: Vec<usize> = (0..units.len()).filter(|&i| units[i].library).collect();
    let mk = |i: usize| Unit {
        program: units[i].program(),
        library: units[i].library,
    };
    let text = |i: usize| {
        driver
            .sources()
            .get(units[i].file)
            .map_or("", |f| &f.text[..])
    };
    let mut unit_opts = driver.options.elab.clone();
    unit_opts.allow_deferred = true;

    let mut link_units = Vec::new();
    let mut prints = Vec::new();
    for u in (0..units.len()).filter(|&i| !units[i].library) {
        let closure = import_closure(&deps, u);
        // The driver's own per-unit key, so traced and untraced builds
        // share cache entries.
        let unit_key = tr.time("driver.cache_key", || {
            let mut h = Fnv64::new();
            h.write_str("lss-driver-unit");
            h.write(&cache::CACHE_VERSION.to_le_bytes());
            h.write(&lss_netlist::BIN_FORMAT.to_le_bytes());
            h.write_str(lss_corelib::VERSION);
            h.write_str(&format!("{:?}", driver.options));
            for &i in context.iter().chain(&closure).chain([&u]) {
                h.write(&u64::from(units[i].file.0).to_le_bytes());
                h.write_str(&units[i].name);
                h.write(&[u8::from(units[i].library)]);
                h.write_str(text(i));
            }
            h.finish()
        });
        let mut cached = None;
        if let Some(dir) = cache_dir {
            cached = tr.time("driver.cache_probe", || cache::load_unit(dir, unit_key))?;
        }
        let (netlist, deferred, unit_prints) = match cached {
            Some(unit) => (unit.netlist, unit.deferred, unit.prints),
            None => {
                let decl: Vec<Unit<'_>> = context.iter().chain(&closure).map(|&i| mk(i)).collect();
                let mut bag = DiagnosticBag::new();
                let out = tr.time("interp.elaborate", || {
                    lss_interp::elaborate_scoped(&decl, &[mk(u)], &unit_opts, &mut bag)
                });
                let out =
                    out.ok_or_else(|| diagnostics(Stage::Elaborate, bag.into_vec(), driver))?;
                if let Some(dir) = cache_dir {
                    tr.time("driver.cache_store", || {
                        cache::store_unit(dir, unit_key, &out.netlist, &out.deferred, &out.prints)
                    })?;
                }
                (out.netlist, out.deferred, out.prints)
            }
        };
        prints.extend(unit_prints);
        link_units.push(LinkUnit { netlist, deferred });
    }
    let linked = tr.time("netlist.link", || lss_netlist::link(link_units));
    Ok((linked.map_err(|e| e.to_string())?, prints))
}

/// The transitive imports of `root` in dependency post-order, without
/// `root` itself.
fn import_closure(deps: &[Vec<usize>], root: usize) -> Vec<usize> {
    fn visit(deps: &[Vec<usize>], i: usize, seen: &mut [bool], order: &mut Vec<usize>) {
        for &d in &deps[i] {
            if !seen[d] {
                seen[d] = true;
                visit(deps, d, seen, order);
                order.push(d);
            }
        }
    }
    let mut seen = vec![false; deps.len()];
    let mut order = Vec::new();
    visit(deps, root, &mut seen, &mut order);
    order
}
