//! Golden batch-mode traces: batch lane `k` must be byte-identical to a
//! solo static-engine run with seed `k`.
//!
//! `build_batch` runs N lanes of one netlist in lockstep, each lane seeded
//! independently. The contract that makes batch mode trustworthy is that a
//! lane is not an approximation — it is *the* run you would get from a
//! single simulator built with that seed. This suite pins that two ways
//! for models A and C:
//!
//! 1. Direct equality: each lane's per-cycle trace equals a fresh solo
//!    simulator's trace with the same seed.
//! 2. A checked-in snapshot of the whole batch trace under `tests/golden/`,
//!    so the seeded behavior itself (not just the lane/solo agreement)
//!    is stable across refactors.
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
use lss_sim::{build, build_batch, SimOptions};

const TRACE_CYCLES: u64 = 8;
const SEEDS: [i64; 3] = [0, 1, 2];

fn seeded_opts(seed: i64) -> SimOptions {
    SimOptions {
        seed,
        ..Default::default()
    }
}

/// One lane's (or one solo simulator's) rendered per-cycle trace.
fn solo_trace(netlist: &Netlist, seed: i64) -> String {
    let registry = lss_corelib::registry();
    let mut sim = build(netlist, &registry, seeded_opts(seed)).expect("solo build");
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

/// The whole batch's rendered trace: one `lane k (seed s)` section per
/// lane, each holding that lane's per-cycle dump.
fn batch_trace(netlist: &Netlist) -> Vec<String> {
    let registry = lss_corelib::registry();
    let mut batch = build_batch(netlist, &registry, seeded_opts(0), &SEEDS).expect("batch build");
    let mut lanes: Vec<String> = SEEDS
        .iter()
        .enumerate()
        .map(|(k, s)| format!("lane {k} (seed {s})\n"))
        .collect();
    for cycle in 0..TRACE_CYCLES {
        batch.step().expect("batch step");
        for (k, out) in lanes.iter_mut().enumerate() {
            out.push_str(&format!("cycle {cycle}\n"));
            for line in batch.lane(k).state_lines() {
                out.push_str(&line);
                out.push('\n');
            }
        }
    }
    lanes
}

fn golden_path(id: char) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
        .join(format!("batch_model_{}.trace", id.to_ascii_lowercase()))
}

fn check_model(id: char) {
    let m = model(id).expect("known model id");
    let elab = compile_model(m).expect("model compiles");
    let lanes = batch_trace(&elab.netlist);

    // Lane k == solo run with seed k, byte for byte (headers aside).
    for (k, &seed) in SEEDS.iter().enumerate() {
        let solo = solo_trace(&elab.netlist, seed);
        let lane_body = lanes[k]
            .split_once('\n')
            .map(|(_, body)| body)
            .unwrap_or("");
        assert!(
            lane_body == solo,
            "model {id}: batch lane {k} differs from solo run with seed {seed}"
        );
    }

    // And the whole batch trace matches the checked-in snapshot.
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
    // must not produce identical traces, or batch mode is silently running
    // N copies of the same simulation.
    let m = model('A').expect("model A");
    let elab = compile_model(m).expect("model compiles");
    let lanes = batch_trace(&elab.netlist);
    assert!(
        lanes[0].split_once('\n').map(|p| p.1) != lanes[1].split_once('\n').map(|p| p.1),
        "seeds 0 and 1 produced identical traces — the seed is not reaching the behaviors"
    );
}
