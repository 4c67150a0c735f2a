//! Cache fault-injection: every injected failure mode must degrade to a
//! clean cold rebuild producing a byte-identical netlist — never a wrong
//! netlist, never a crash.
//!
//! Faults are injected through the `LSS_CACHE_FAULT` environment variable
//! (see `lss_driver::cache`). The variable is process-global, so these
//! tests live in their own integration binary and each holds one mutex
//! from start to finish: a fault armed by one test must never reach
//! another test's unfaulted builds.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use lss_driver::{CacheOutcome, Driver};

const MODEL: &str =
    "instance gen:source;\ninstance hole:sink;\ngen.out -> hole.in;\ngen.out :: int;";

/// Serializes the tests; hold the guard for the whole test.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Arms a fault and clears it on drop, so a panicking test cannot leak an
/// armed fault into the next one.
struct FaultGuard;

impl FaultGuard {
    fn arm(fault: &str) -> Self {
        std::env::set_var("LSS_CACHE_FAULT", fault);
        FaultGuard
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        std::env::remove_var("LSS_CACHE_FAULT");
    }
}

fn temp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lss-cache-fault-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session(dir: &Path) -> Driver {
    let mut driver = Driver::with_corelib();
    driver.set_cache_dir(Some(dir.to_path_buf()));
    driver.add_source("m.lss", MODEL);
    driver
}

/// The ground truth a faulted build must match: a no-cache build.
fn reference_netlist_json() -> String {
    let mut driver = Driver::with_corelib();
    driver.add_source("m.lss", MODEL);
    lss_netlist::to_json(&driver.elaborate().expect("reference build").netlist)
}

#[test]
fn unwritable_dir_degrades_to_cold_builds() {
    let _serial = serial();
    let dir = temp_cache("unwritable");
    let reference = reference_netlist_json();
    {
        let _fault = FaultGuard::arm("unwritable");
        let mut cold = session(&dir);
        let built = cold.elaborate().expect("build succeeds despite fault");
        assert_eq!(built.cache, CacheOutcome::Miss);
        assert_eq!(lss_netlist::to_json(&built.netlist), reference);
        assert!(
            cold.warnings().iter().any(|w| w.contains("injected")),
            "store failure must be surfaced: {:?}",
            cold.warnings()
        );
    }
    // Nothing was stored, so a fault-free session still builds cold.
    let mut after = session(&dir);
    let rebuilt = after.elaborate().expect("rebuild");
    assert_eq!(rebuilt.cache, CacheOutcome::Miss);
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_is_caught_by_the_integrity_gate() {
    let _serial = serial();
    let dir = temp_cache("short-write");
    let reference = reference_netlist_json();
    {
        let _fault = FaultGuard::arm("short-write");
        // The torn store reports success — the build itself is fine.
        let built = session(&dir).elaborate().expect("cold build");
        assert_eq!(built.cache, CacheOutcome::Miss);
        assert_eq!(lss_netlist::to_json(&built.netlist), reference);
    }
    // The warm session must detect the torn entry, warn, and rebuild —
    // never deserialize half a netlist.
    let mut warm = session(&dir);
    let rebuilt = warm.elaborate().expect("rebuild after torn entry");
    assert_eq!(rebuilt.cache, CacheOutcome::Miss, "torn entry must not hit");
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    assert!(
        warm.warnings().iter().any(|w| w.contains("cache")),
        "missing corruption warning: {:?}",
        warm.warnings()
    );
    // The rebuild overwrote the entry: a third session hits cleanly.
    let mut again = session(&dir);
    let hit = again.elaborate().expect("clean hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_errors_degrade_warm_builds_to_cold_rebuilds() {
    let _serial = serial();
    let dir = temp_cache("read-error");
    let reference = reference_netlist_json();
    // A healthy entry exists on disk...
    let built = session(&dir).elaborate().expect("cold build");
    assert_eq!(built.cache, CacheOutcome::Miss);
    {
        // ...but every read of it fails.
        let _fault = FaultGuard::arm("read-error");
        let mut warm = session(&dir);
        let rebuilt = warm.elaborate().expect("rebuild despite read fault");
        assert_eq!(rebuilt.cache, CacheOutcome::Miss);
        assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
        assert!(
            warm.warnings().iter().any(|w| w.contains("injected")),
            "read fault must be surfaced: {:?}",
            warm.warnings()
        );
    }
    // Fault cleared: the (rewritten) entry serves a verified hit.
    let mut again = session(&dir);
    let hit = again.elaborate().expect("clean hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_json_entries_are_detected_warned_about_and_replaced() {
    let _serial = serial();
    let dir = temp_cache("legacy-json");
    let reference = reference_netlist_json();

    // Populate the cache, then regress the entry to the retired format-1
    // JSON envelope: same key, `.json` extension, pre-binary payload.
    let built = session(&dir).elaborate().expect("cold build");
    assert_eq!(built.cache, CacheOutcome::Miss);
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.extension().is_some_and(|x| x == "bin")
                && !p.file_name().unwrap().to_string_lossy().starts_with('p')
        })
        .expect("build entry written");
    let legacy = entry.with_extension("json");
    std::fs::write(
        &legacy,
        "{\"version\": 1, \"format\": 3, \"netlist\": {\"instances\": []}}",
    )
    .unwrap();
    std::fs::remove_file(&entry).unwrap();

    // The warm session must recognize the stale format, say so, rebuild
    // from sources, and write a fresh binary entry.
    let mut warm = session(&dir);
    let rebuilt = warm.elaborate().expect("rebuild past legacy entry");
    assert_eq!(
        rebuilt.cache,
        CacheOutcome::Miss,
        "legacy entry must not hit"
    );
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    assert!(
        warm.warnings()
            .iter()
            .any(|w| w.contains("legacy") && w.contains("JSON")),
        "legacy format must be named in the warning: {:?}",
        warm.warnings()
    );
    assert!(entry.exists(), "binary entry must be rewritten");
    assert!(!legacy.exists(), "legacy JSON entry must be cleaned up");

    // The replacement entry serves a clean hit.
    let hit = session(&dir).elaborate().expect("clean hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_same_key_builds_publish_exactly_once() {
    let _serial = serial();
    // Two sessions compiling the same project simultaneously must both
    // succeed, produce identical netlists, and end with exactly one
    // published cache entry — `link(2)`-based publish makes one writer
    // win and the others observe its entry, so `lssd` worker threads
    // racing on a shared cache directory can never tear an entry.
    let dir = temp_cache("concurrent");
    let reference = reference_netlist_json();
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
    let results: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let barrier = std::sync::Arc::clone(&barrier);
                let dir = dir.clone();
                s.spawn(move || {
                    barrier.wait();
                    let built = session(&dir).elaborate().expect("racing build");
                    lss_netlist::to_json(&built.netlist)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for json in &results {
        assert_eq!(json, &reference, "racing sessions must agree");
    }
    // Exactly one whole-build entry exists and it serves a verified hit.
    let builds = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "bin")
                && !p.file_name().unwrap().to_string_lossy().starts_with('p')
                && !p.file_name().unwrap().to_string_lossy().starts_with('u')
        })
        .count();
    assert_eq!(builds, 1, "same key must yield exactly one build entry");
    assert!(
        !std::fs::read_dir(&dir)
            .expect("cache dir")
            .filter_map(Result::ok)
            .any(|e| e.path().to_string_lossy().ends_with(".tmp")),
        "no temp files may leak past a publish race"
    );
    let mut warm = session(&dir);
    let hit = warm.elaborate().expect("warm hit after race");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entries_self_heal_so_republish_is_never_wedged() {
    let _serial = serial();
    // Exactly-once publish refuses to overwrite an existing entry, so a
    // torn entry must be *removed* when its corruption is detected —
    // otherwise the rebuild could never republish and every warm session
    // would rebuild forever.
    let dir = temp_cache("self-heal");
    let reference = reference_netlist_json();
    let built = session(&dir).elaborate().expect("cold build");
    assert_eq!(built.cache, CacheOutcome::Miss);
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.extension().is_some_and(|x| x == "bin")
                && !p.file_name().unwrap().to_string_lossy().starts_with('p')
        })
        .expect("build entry written");
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let mut warm = session(&dir);
    let rebuilt = warm.elaborate().expect("rebuild past corrupt entry");
    assert_eq!(rebuilt.cache, CacheOutcome::Miss);
    assert_eq!(lss_netlist::to_json(&rebuilt.netlist), reference);
    assert!(
        entry.exists(),
        "rebuild must republish into the healed slot"
    );
    // And the republished entry is whole: a third session hits.
    let hit = session(&dir).elaborate().expect("clean hit");
    assert_eq!(hit.cache, CacheOutcome::Hit);
    assert_eq!(lss_netlist::to_json(&hit.netlist), reference);
    let _ = std::fs::remove_dir_all(&dir);
}
