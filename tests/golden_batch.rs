//! Golden seeded traces: the static engine's per-cycle trace under seeds
//! 0, 1 and 2, as `lssc --run N --batch 3` runs them (lane `k` is a solo
//! simulator built with `SimOptions::seed = k`).
//!
//! A checked-in snapshot of the three traces under `tests/golden/` pins the
//! seeded behavior for models A and C, so it stays stable across
//! refactors.
//!
//! To regenerate after an intentional semantic change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_batch
//! ```

use std::fs;
use std::path::PathBuf;

use lss_models::{compile_model, model};
use lss_netlist::Netlist;
use lss_sim::{build, SimOptions};

const TRACE_CYCLES: u64 = 8;
const SEEDS: [i64; 3] = [0, 1, 2];

/// One solo simulator's rendered per-cycle trace under `seed`.
fn solo_trace(netlist: &Netlist, seed: i64) -> String {
    let registry = lss_corelib::registry();
    let opts = SimOptions {
        seed,
        ..Default::default()
    };
    let mut sim = build(netlist, &registry, opts).expect("solo build");
    let mut out = String::new();
    for cycle in 0..TRACE_CYCLES {
        sim.step().expect("solo step");
        out.push_str(&format!("cycle {cycle}\n"));
        for line in sim.state_lines() {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// The rendered batch: one `lane k (seed s)` section per seed, each
/// holding that seed's solo trace.
fn batch_trace(netlist: &Netlist) -> Vec<String> {
    SEEDS
        .iter()
        .enumerate()
        .map(|(k, &s)| format!("lane {k} (seed {s})\n{}", solo_trace(netlist, s)))
        .collect()
}

fn golden_path(id: char) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
        .join(format!("batch_model_{}.trace", id.to_ascii_lowercase()))
}

fn check_model(id: char) {
    let m = model(id).expect("known model id");
    let elab = compile_model(m).expect("model compiles");
    let lanes = batch_trace(&elab.netlist);

    // The whole batch trace matches the checked-in snapshot.
    let rendered = lanes.concat();
    let path = golden_path(id);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden batch trace {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if rendered != golden {
        let first = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b);
        panic!(
            "model {id}: batch trace diverges from {} (first differing line: {:?}); \
             run with UPDATE_GOLDEN=1 if the change is intentional",
            path.display(),
            first
        );
    }
}

#[test]
fn batch_lanes_match_solo_and_golden_model_a() {
    check_model('A');
}

#[test]
fn batch_lanes_match_solo_and_golden_model_c() {
    check_model('C');
}

#[test]
fn seeds_actually_differentiate_the_lanes() {
    // The seed must reach the behaviors: on model A (whose sources feed
    // seed-offset counters through the pipeline) differently seeded lanes
    // must not produce identical traces, or `--batch` is silently running
    // N copies of the same simulation.
    let m = model('A').expect("model A");
    let elab = compile_model(m).expect("model compiles");
    assert!(
        solo_trace(&elab.netlist, 0) != solo_trace(&elab.netlist, 1),
        "seeds 0 and 1 produced identical traces — the seed is not reaching the behaviors"
    );
}
