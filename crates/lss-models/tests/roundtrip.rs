//! Binary round-trip fidelity for every netlist the repo ships: the six
//! Table 3 models, generated programs, the standalone `examples/lss/*.lss`
//! sources and a protocol-annotated model.
//!
//! Binary is the one format a netlist is loaded back from (the driver's
//! cache stores it): `from_binary(to_binary(n))` must reproduce a netlist
//! that is indistinguishable from the original — same reuse statistics,
//! same shape counts, the same JSON rendering, and a byte-identical second
//! encoding.

use lss_driver::Driver;
use lss_interp::CompileOptions;
use lss_models::{compile_source, models};
use lss_netlist::binary::{from_binary, to_binary};
use lss_netlist::json::to_json;
use lss_netlist::netlist::Netlist;
use lss_netlist::stats::reuse_stats;

/// Checks the round trip of `netlist` and returns the decoded netlist.
fn assert_round_trip(name: &str, netlist: &Netlist) -> Netlist {
    let first = to_binary(netlist);
    let restored =
        from_binary(&first).unwrap_or_else(|e| panic!("{name}: from_binary failed: {e}"));

    // Reuse statistics (Table 2) survive the trip. f64 fields compare via
    // Debug so an accidental NaN shows up as a readable mismatch.
    assert_eq!(
        format!("{:?}", reuse_stats(netlist)),
        format!("{:?}", reuse_stats(&restored)),
        "{name}: reuse stats changed across the round trip"
    );

    // Shape counts survive.
    assert_eq!(
        netlist.instances.len(),
        restored.instances.len(),
        "{name}: instance count changed"
    );
    assert_eq!(
        netlist.connections.len(),
        restored.connections.len(),
        "{name}: connection count changed"
    );
    assert_eq!(
        netlist.constraints.constraints.len(),
        restored.constraints.constraints.len(),
        "{name}: constraint count changed"
    );

    // The decoded netlist is the same netlist: its complete JSON rendering
    // is byte-identical to the original's.
    assert_eq!(
        to_json(netlist),
        to_json(&restored),
        "{name}: decoding changed the netlist"
    );

    // The second encoding is byte-identical to the first, so the cache's
    // content hash is stable across store/load cycles.
    let second = to_binary(&restored);
    assert_eq!(
        first, second,
        "{name}: second encoding is not byte-identical"
    );
    restored
}

#[test]
fn table3_models_round_trip_through_binary() {
    for model in models() {
        let compiled = compile_source(model.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("model {} failed to compile:\n{e}", model.id));
        assert_round_trip(&format!("model {}", model.id), &compiled.netlist);
    }
}

#[test]
fn generated_programs_round_trip_through_binary() {
    // Property test over the structure-aware fuzzer: every netlist the
    // generator produces — hierarchical wrappers, disjunctive alus,
    // cache/bp clusters — must survive the cache's binary format.
    let cfg = lss_verify::GenConfig::default();
    let mut compiled_count = 0;
    for seed in 0..24u64 {
        let spec = lss_verify::generate(seed, &cfg);
        let name = format!("gen seed {seed}");
        let (_, elab) = lss_verify::compile_source(&name, &spec.render())
            .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
        assert_round_trip(&name, &elab.netlist);
        compiled_count += 1;
    }
    assert_eq!(compiled_count, 24);
}

/// A model exercising every protocol-binding shape: concrete and
/// adaptive credit (corelib queue), req_resp handshakes (fu and cache),
/// and a custom declared automaton on an instance port group.
const PROTOCOL_MODEL: &str = r#"
instance s:source;
instance q:queue;
instance k:sink;
instance cs:sink;
q.depth = 4;
s.out -> q.in;
q.out -> k.in;
q.credit -> cs.in;
s.out :: int;
instance f:fu;
instance c:cache;
f.mem_req -> c.req;
c.resp -> f.mem_resp;
protocol chatty {
    state idle;
    state busy;
    idle -> busy : send item;
    busy -> idle : recv ack;
};
instance d:delay;
instance ds:sink;
d.out -> ds.in;
protocol talk : producer chatty on d.out;
"#;

#[test]
fn protocol_annotations_round_trip_byte_identically() {
    let mut driver = Driver::with_corelib();
    driver.add_source("protocol_roundtrip.lss", PROTOCOL_MODEL);
    let compiled = driver
        .finish()
        .unwrap_or_else(|e| panic!("protocol model failed to compile:\n{e}"));
    let netlist = &compiled.netlist;

    // The netlist carries the bindings: queue (2 groups), fu (2),
    // cache (2), memory-free; plus the instance-level custom automaton.
    let annotated: usize = netlist.instances.iter().map(|i| i.protocols.len()).sum();
    assert!(
        annotated >= 7,
        "expected at least 7 protocol bindings in the compiled netlist, found {annotated}"
    );
    let custom = netlist
        .instances
        .iter()
        .flat_map(|i| &i.protocols)
        .find(|b| b.group == "talk")
        .expect("instance-level custom binding survives elaboration");
    assert_eq!(custom.automaton.states.len(), 2);
    assert_eq!(custom.automaton.transitions.len(), 2);

    let restored = assert_round_trip("protocol model", netlist);

    // Binding-level fidelity, not just byte identity: every group, role,
    // template, and transition table survives the trip.
    for (a, b) in netlist.instances.iter().zip(restored.instances.iter()) {
        assert_eq!(
            a.protocols, b.protocols,
            "protocols changed across the round trip on `{}`",
            a.path
        );
    }
}

#[test]
fn cache_warm_loads_preserve_protocol_annotations() {
    let dir =
        std::env::temp_dir().join(format!("lss-models-protocol-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let compile_cached = || {
        let mut driver = Driver::with_corelib();
        driver.set_cache_dir(Some(dir.clone()));
        driver.add_source("protocol_cache.lss", PROTOCOL_MODEL);
        driver
            .finish()
            .unwrap_or_else(|e| panic!("protocol model failed to compile:\n{e}"))
    };
    let cold = compile_cached();
    let warm = compile_cached();
    assert!(
        matches!(warm.cache, lss_driver::CacheOutcome::Hit),
        "second build should warm-load from the cache, got {:?}",
        warm.cache
    );
    for (a, b) in cold
        .netlist
        .instances
        .iter()
        .zip(warm.netlist.instances.iter())
    {
        assert_eq!(
            a.protocols, b.protocols,
            "cache warm-load changed protocols on `{}`",
            a.path
        );
    }
    let custom = warm
        .netlist
        .instances
        .iter()
        .flat_map(|i| &i.protocols)
        .find(|b| b.group == "talk")
        .expect("custom binding survives the cache");
    assert_eq!(custom.automaton.transitions.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn example_sources_round_trip_through_binary() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/lss");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/lss exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "lss") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut driver = Driver::with_corelib();
        driver.add_source(&name, &text);
        let compiled = driver
            .finish()
            .unwrap_or_else(|e| panic!("{name} failed to compile:\n{e}"));
        assert_round_trip(&name, &compiled.netlist);
        seen += 1;
    }
    assert!(seen >= 3, "expected the bundled example models, saw {seen}");
}
