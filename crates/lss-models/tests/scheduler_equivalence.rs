//! The static plan and the dynamic worklist baseline must be
//! observationally equivalent: on every Table 3 model, the same values
//! fire on the same ports in the same cycles, and every collector ends in
//! the same state. (`comp_evals` legitimately differs — the static
//! schedule's whole point is evaluating each component fewer times.)

use std::collections::{BTreeMap, HashMap, HashSet};

use lss_analyze::LeafDepGraph;
use lss_models::runner::build_sim;
use lss_models::{compile_model, models};
use lss_netlist::{Dir, Netlist};
use lss_sim::Scheduler;
use lss_types::Datum;

const CYCLES: u64 = 60;

/// One port fire, with the value rendered so the tuple is sortable.
type Fire = (u64, String, String, u32, String);
/// One unit of the static plan: its components, and whether it is a
/// fixpoint block.
type Unit = (Vec<usize>, bool);

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

/// Replays the fixed sequence `seq` over the leaf-level cycle `scc` at
/// port granularity. An input is current when every output of the cycle
/// wired to it is current (inputs from outside the cycle are settled); an
/// output becomes current when its leaf runs while every input it reads is
/// current, and stops being current when its leaf runs while one is not.
/// True when every member's last run saw current inputs.
fn sequence_settles(netlist: &Netlist, deps: &LeafDepGraph, scc: &[usize], seq: &[usize]) -> bool {
    let is_out = |node: usize| {
        let (leaf, port) = deps.port_of_node(node);
        netlist.instance(deps.leaves[leaf]).ports[port].dir == Dir::Out
    };
    // Port-graph predecessors of every node of the cycle, within the cycle.
    let mut preds: HashMap<usize, Vec<usize>> = HashMap::new();
    for &leaf in scc {
        for v in deps.port_nodes(leaf) {
            for &w in deps.ports.successors(v) {
                if scc.contains(&deps.port_of_node(w).0) {
                    preds.entry(w).or_default().push(v);
                }
            }
        }
    }
    let no_preds = Vec::new();
    let preds_of = |node: usize| preds.get(&node).unwrap_or(&no_preds);
    let mut current: HashSet<usize> = HashSet::new();
    let mut last_run_saw_current: HashMap<usize, bool> = HashMap::new();
    for &leaf in seq {
        let input_current = |i: usize| preds_of(i).iter().all(|o| current.contains(o));
        let inputs = deps.port_nodes(leaf).filter(|&n| !is_out(n));
        let saw = inputs.clone().all(input_current);
        let outputs: Vec<(usize, bool)> = deps
            .port_nodes(leaf)
            .filter(|&n| is_out(n))
            .map(|o| (o, preds_of(o).iter().all(|&i| input_current(i))))
            .collect();
        for (o, ok) in outputs {
            if ok {
                current.insert(o);
            } else {
                current.remove(&o);
            }
        }
        last_run_saw_current.insert(leaf, saw);
    }
    scc.iter()
        .all(|leaf| last_run_saw_current.get(leaf) == Some(&true))
}

/// The engine must execute exactly the plan the static analyzer derives:
/// `lss-analyze`'s leaf-level dependency graph, condensed, is the single
/// source of truth for evaluation order. Every SCC appears once, as one
/// contiguous run of units, in the condensation's topological order. An
/// acyclic SCC is one evaluation. A cyclic SCC is a fixpoint block exactly
/// when its ports form a cycle of the port-level graph; otherwise it is a
/// fixed sequence of evaluations (pinned by length) whose replay at port
/// granularity leaves every member's last evaluation with settled inputs.
#[test]
fn engine_schedule_matches_analyzer_condensation() {
    use lss_analyze::leaf_dep_graph;

    // Per model, the lengths of its fixed sequences, in plan order.
    let pinned: [(char, &[usize]); 6] = [
        ('A', &[3, 3]),
        ('B', &[3, 3]),
        ('C', &[3, 3]),
        ('D', &[5, 3]),
        ('E', &[3, 3, 10]),
        ('F', &[5, 3]),
    ];
    let registry = lss_corelib::registry();
    for (model, (id, lengths)) in models().iter().zip(pinned) {
        assert_eq!(model.id, id);
        let compiled = compile_model(model)
            .unwrap_or_else(|e| panic!("model {} failed to compile: {e}", model.id));
        let netlist = &compiled.netlist;
        let sim = build_sim(netlist, Scheduler::Static).expect("build");
        let wires = netlist.flatten();
        let comb = lss_sim::comb_info(netlist, &registry);
        let deps = leaf_dep_graph(netlist, &wires, &comb);
        let cond = deps.graph.condense();
        let port_cycles = deps.ports.condense();
        // Group the units by SCC; each SCC must be one contiguous group.
        let mut groups: Vec<(usize, Vec<Unit>)> = Vec::new();
        for (comps, block) in sim.plan_stages() {
            let scc = cond.comp_of[comps[0]];
            match groups.last_mut() {
                Some((s, units)) if *s == scc => units.push((comps.to_vec(), block)),
                _ => groups.push((scc, vec![(comps.to_vec(), block)])),
            }
        }
        let order: Vec<usize> = groups.iter().map(|g| g.0).collect();
        assert_eq!(
            order,
            (0..cond.sccs.len()).collect::<Vec<_>>(),
            "model {}: units do not follow the condensation",
            model.id
        );
        let mut seq_lengths = Vec::new();
        for (scc_index, units) in &groups {
            let scc = &cond.sccs[*scc_index];
            let port_cyclic = port_cycles
                .cycles()
                .any(|c| c.iter().any(|&n| scc.contains(&deps.port_of_node(n).0)));
            if !cond.cyclic[*scc_index] {
                assert_eq!(units, &vec![(scc.clone(), false)], "model {}", model.id);
            } else if port_cyclic {
                assert_eq!(units, &vec![(scc.clone(), true)], "model {}", model.id);
            } else {
                let seq: Vec<usize> = units
                    .iter()
                    .map(|(comps, block)| {
                        assert!(!block && comps.len() == 1, "model {}", model.id);
                        comps[0]
                    })
                    .collect();
                assert!(
                    sequence_settles(netlist, &deps, scc, &seq),
                    "model {}: sequence {seq:?} over {scc:?} leaves an input unsettled",
                    model.id
                );
                seq_lengths.push(seq.len());
            }
        }
        assert_eq!(seq_lengths, lengths, "model {}: sequence lengths", model.id);
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
