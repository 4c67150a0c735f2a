//! The static plan and the dynamic worklist baseline must be
//! observationally equivalent: on every Table 3 model, the same values
//! fire on the same ports in the same cycles, and every collector ends in
//! the same state. (`comp_evals` legitimately differs — the static
//! schedule's whole point is evaluating each component fewer times.)

use std::collections::BTreeMap;

use lss_models::runner::build_sim;
use lss_models::{compile_model, models};
use lss_netlist::Netlist;
use lss_sim::Scheduler;
use lss_types::Datum;

const CYCLES: u64 = 60;

/// One port fire, with the value rendered so the tuple is sortable.
type Fire = (u64, String, String, u32, String);

fn run(
    netlist: &Netlist,
    scheduler: Scheduler,
) -> (Vec<Fire>, BTreeMap<String, BTreeMap<String, Datum>>) {
    let mut sim = build_sim(netlist, scheduler).expect("build");
    sim.watch(""); // log every fire in the model
    sim.set_firing_log_cap(usize::MAX);
    sim.run(CYCLES).expect("run");
    let mut fires: Vec<Fire> = sim
        .firing_log()
        .iter()
        .map(|r| {
            (
                r.cycle,
                r.path.clone(),
                r.port.clone(),
                r.lane,
                r.value.to_string(),
            )
        })
        .collect();
    // Within a cycle the two schedulers visit components in different
    // orders; the *set* of fires is what must agree.
    fires.sort();
    let mut collectors = BTreeMap::new();
    for (path, event, state) in sim.collector_reports() {
        let table: BTreeMap<String, Datum> = state
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        collectors.insert(format!("{path}/{event}"), table);
    }
    (fires, collectors)
}

/// The engine must execute exactly the plan the static analyzer derives:
/// `lss-analyze`'s component-level dependency graph, condensed, is the
/// single source of truth for evaluation order. Every SCC appears exactly
/// once, in the condensation's topological order, and is a fixpoint unit
/// exactly when it is cyclic.
#[test]
fn engine_schedule_matches_analyzer_condensation() {
    use lss_analyze::leaf_dep_graph;

    let registry = lss_corelib::registry();
    for model in models() {
        let compiled = compile_model(model)
            .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.id));
        let sim = build_sim(&compiled.netlist, Scheduler::Static).expect("build");
        let wires = compiled.netlist.flatten();
        let comb = lss_sim::comb_info(&compiled.netlist, &registry);
        let deps = leaf_dep_graph(&compiled.netlist, &wires, &comb);
        let cond = deps.graph.condense();
        let expected: Vec<(Vec<usize>, bool)> = cond
            .sccs
            .iter()
            .cloned()
            .zip(cond.cyclic.iter().copied())
            .collect();
        let actual: Vec<(Vec<usize>, bool)> = sim
            .plan_stages()
            .into_iter()
            .map(|(c, f)| (c.to_vec(), f))
            .collect();
        assert_eq!(
            actual, expected,
            "model {}: engine plan diverges from analyzer condensation",
            model.id
        );
        assert!(
            sim.static_leaf_count() > 0,
            "model {}: static plan has no static leaves",
            model.id
        );
    }
}

#[test]
fn static_and_dynamic_schedulers_agree_on_all_models() {
    for model in models() {
        let compiled = compile_model(model)
            .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.id));
        let (static_fires, static_colls) = run(&compiled.netlist, Scheduler::Static);
        let (dynamic_fires, dynamic_colls) = run(&compiled.netlist, Scheduler::Dynamic);
        assert!(
            !static_fires.is_empty(),
            "model {}: nothing fired in {CYCLES} cycles",
            model.id
        );
        assert_eq!(
            static_fires.len(),
            dynamic_fires.len(),
            "model {}: schedulers produced different fire counts",
            model.id
        );
        for (s, d) in static_fires.iter().zip(&dynamic_fires) {
            assert_eq!(s, d, "model {}: firing logs diverge", model.id);
        }
        assert_eq!(
            static_colls, dynamic_colls,
            "model {}: collector state diverges",
            model.id
        );
    }
}
