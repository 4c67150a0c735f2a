//! `compile_edit`: the edit-compile loop. Each input is built once, then
//! edited (a new comment line, so the text and the cache key change) and
//! built again, then rebuilt unchanged; each build goes through
//! elaboration, analysis and the simulator build with a disk cache.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lss_driver::{CacheOutcome, Driver};
use lss_verify::GenConfig;

use crate::harness::{
    dir_entries, remove_new_entries, shuffled, work_dir, Config, Metric, OpLog, Workload,
};
use crate::pipeline::{driver_build, traced_build, Built};
use crate::stats::geomean;
use crate::trace::{Tracer, OP};

const EXAMPLES: [(&str, &str); 3] = [
    (
        "arbitration",
        include_str!("../../examples/lss/arbitration.lss"),
    ),
    (
        "credit_queue",
        include_str!("../../examples/lss/credit_queue.lss"),
    ),
    (
        "delay_chain",
        include_str!("../../examples/lss/delay_chain.lss"),
    ),
];

/// The multi-file projects: name, files, and the leaf module edits go to.
type ProjectFiles = (
    &'static str,
    &'static [(&'static str, &'static str)],
    &'static str,
);

const PROJECTS: [ProjectFiles; 2] = [
    (
        "model_a",
        &[
            (
                "lss.toml",
                include_str!("../../examples/lss/model_a/lss.toml"),
            ),
            (
                "top.lss",
                include_str!("../../examples/lss/model_a/top.lss"),
            ),
            (
                "machine.lss",
                include_str!("../../examples/lss/model_a/machine.lss"),
            ),
            (
                "debug.lss",
                include_str!("../../examples/lss/model_a/debug.lss"),
            ),
        ],
        "debug.lss",
    ),
    (
        "model_e",
        &[
            (
                "lss.toml",
                include_str!("../../examples/lss/model_e/lss.toml"),
            ),
            (
                "top.lss",
                include_str!("../../examples/lss/model_e/top.lss"),
            ),
            (
                "machine.lss",
                include_str!("../../examples/lss/model_e/machine.lss"),
            ),
            (
                "debug0.lss",
                include_str!("../../examples/lss/model_e/debug0.lss"),
            ),
            (
                "debug1.lss",
                include_str!("../../examples/lss/model_e/debug1.lss"),
            ),
        ],
        "debug0.lss",
    ),
];

/// Instances and connections every fixed input elaborates to.
const EXPECTED: [(&str, usize, usize); 11] = [
    ("model_A", 25, 69),
    ("model_B", 18, 69),
    ("model_C", 22, 125),
    ("model_D", 26, 152),
    ("model_E", 51, 304),
    ("model_F", 26, 167),
    ("project_model_a", 25, 69),
    ("project_model_e", 51, 304),
    ("example_arbitration", 5, 5),
    ("example_credit_queue", 4, 3),
    ("example_delay_chain", 4, 3),
];

/// Generated programs per run.
const GENERATED: usize = 8;

enum Files {
    /// Sources added in order; an edit appends to the last one.
    Sources(Vec<(String, String)>),
    /// A project directory, and the leaf file an edit appends to with its
    /// unedited text.
    Project {
        root: PathBuf,
        leaf: PathBuf,
        text: String,
    },
}

struct Input {
    name: String,
    files: Files,
    instances: usize,
    connections: usize,
    /// Whether the unedited input is in the cache.
    built: bool,
}

pub struct Compile {
    inputs: Vec<Input>,
    dir: PathBuf,
    seed: u64,
    edits: u64,
}

/// Instances and connections of the fixed input `name`.
pub fn expected(name: &str) -> (usize, usize) {
    let (_, instances, connections) = EXPECTED
        .iter()
        .find(|e| e.0 == name)
        .expect("every fixed input has an expectation");
    (*instances, *connections)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A driver session for `input` with the disk cache at `cache`; `edited`
/// replaces the text of the last source.
fn session(input: &Input, cache: &Path, edited: Option<&str>) -> Result<Driver, String> {
    let mut driver = Driver::with_corelib();
    driver.set_cache_dir(Some(cache.to_path_buf()));
    match &input.files {
        Files::Sources(files) => {
            for (k, (name, text)) in files.iter().enumerate() {
                let last = k + 1 == files.len();
                driver.add_source(name, edited.filter(|_| last).unwrap_or(text));
            }
        }
        Files::Project { root, .. } => driver.add_root_file(root)?,
    }
    Ok(driver)
}

fn check(input: &Input, built: Result<Built, String>, want: CacheOutcome) -> Result<(), String> {
    let built = built?;
    if built.cache != want {
        return Err(format!("cache {:?}, expected {want:?}", built.cache));
    }
    let got = (built.instances, built.connections);
    if got != (input.instances, input.connections) {
        return Err(format!(
            "instances/connections {got:?}, expected {:?}",
            (input.instances, input.connections)
        ));
    }
    match built.denied {
        Some(0) => Ok(()),
        denied => Err(format!("{denied:?} denied analysis findings")),
    }
}

impl Compile {
    fn cache(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// One build of `input`, timed; traced when `tracer` is given.
    fn build(
        &self,
        input: &Input,
        edited: Option<&str>,
        tracer: Option<&mut Tracer>,
    ) -> (Instant, Instant, Result<Built, String>) {
        let cache = self.cache();
        let start = Instant::now();
        let built = match tracer {
            None => session(input, &cache, edited).and_then(|d| driver_build(d, true)),
            Some(tr) => {
                tr.begin(OP);
                let built = tr
                    .time("driver.session", || session(input, &cache, edited))
                    .and_then(|d| traced_build(tr, d, Some(&cache), true));
                tr.end();
                built
            }
        };
        (start, Instant::now(), built)
    }

    /// Builds `input` as the edit-compile loop finds it, then the edit,
    /// then the rebuild.
    fn edit_loop(&mut self, i: usize, log: &mut OpLog, mut tracer: Option<&mut Tracer>) {
        self.edits += 1;
        let edit = format!("\n// edit {}-{}\n", self.seed, self.edits);
        let input = &self.inputs[i];
        let (base, edited) = match &input.files {
            Files::Sources(files) => {
                let last = &files.last().expect("at least one source").1;
                (None, Some(format!("{last}{edit}")))
            }
            Files::Project { leaf, text, .. } => (Some((leaf, text)), None),
        };
        // The untimed build of the unedited input: a miss the first time,
        // a hit after that.
        let want = if input.built {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        let primed = base
            .map_or(Ok(()), |(leaf, text)| write(leaf, text))
            .and_then(|()| check(input, self.build(input, None, None).2, want))
            .and_then(|()| {
                base.map_or(Ok(()), |(leaf, text)| write(leaf, &format!("{text}{edit}")))
            });
        if let Err(e) = primed {
            return log.failures.push(format!("{}/prime: {e}", input.name));
        }
        let cache = self.cache();
        let before = dir_entries(&cache);
        for (phase, want) in [("edit", CacheOutcome::Miss), ("rebuild", CacheOutcome::Hit)] {
            let (start, end, built) = self.build(input, edited.as_deref(), tracer.as_deref_mut());
            let class = format!("{}/{phase}", input.name);
            log.record(&class, start, end, check(input, built, want));
        }
        // No later build reads the edit's entries: removing them keeps
        // the cache the same for every edit.
        remove_new_entries(&cache, &before);
        self.inputs[i].built = true;
    }
}

impl Workload for Compile {
    const PASSES_PER_S: f64 = 28.0;

    fn setup(cfg: &Config) -> Result<Compile, String> {
        let dir = work_dir().join(format!("compile_edit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut inputs = Vec::new();
        let fixed = |name: String, files: Files| {
            let (instances, connections) = expected(&name);
            Input {
                name,
                files,
                instances,
                connections,
                built: false,
            }
        };
        for m in lss_models::models() {
            let files = vec![
                ("cpu_lib.lss".to_string(), lss_models::cpu_lib().to_string()),
                ("model.lss".to_string(), m.source.to_string()),
            ];
            inputs.push(fixed(format!("model_{}", m.id), Files::Sources(files)));
        }
        // Projects import the shared CPU library by a relative path, so
        // the copies keep the repository's layout.
        let src = dir.join("src");
        let models_dir = src.join("crates/lss-models/models");
        std::fs::create_dir_all(&models_dir).map_err(|e| e.to_string())?;
        write(&models_dir.join("cpu_lib.lss"), lss_models::cpu_lib())?;
        for (name, files, leaf) in PROJECTS {
            let root = src.join("examples/lss").join(name);
            std::fs::create_dir_all(&root).map_err(|e| e.to_string())?;
            for (file, text) in files {
                write(&root.join(file), text)?;
            }
            let text = files.iter().find(|f| f.0 == leaf).expect("leaf listed").1;
            let files = Files::Project {
                leaf: root.join(leaf),
                root,
                text: text.to_string(),
            };
            inputs.push(fixed(format!("project_{name}"), files));
        }
        for (name, text) in EXAMPLES {
            let files = Files::Sources(vec![(format!("{name}.lss"), text.to_string())]);
            inputs.push(fixed(format!("example_{name}"), files));
        }
        // Generated programs, kept when they build and analyze clean; a
        // build without cache gives the counts their edits must keep.
        let first = cfg.seed.wrapping_mul(1 << 16);
        for candidate in (0..1000).map(|k| first.wrapping_add(k)) {
            if inputs.len() == EXPECTED.len() + GENERATED {
                break;
            }
            let text = lss_verify::generate(candidate, &GenConfig::default()).render();
            let mut driver = Driver::with_corelib();
            driver.add_source("gen.lss", &text);
            if let Ok(built) = driver_build(driver, true) {
                if built.denied == Some(0) {
                    inputs.push(Input {
                        name: format!("gen_{}", inputs.len() - EXPECTED.len()),
                        files: Files::Sources(vec![("gen.lss".to_string(), text)]),
                        instances: built.instances,
                        connections: built.connections,
                        built: false,
                    });
                }
            }
        }
        if inputs.len() < EXPECTED.len() + GENERATED {
            return Err("too few generated programs build and analyze clean".into());
        }
        Ok(Compile {
            inputs,
            dir,
            seed: cfg.seed,
            edits: 0,
        })
    }

    fn ops_per_pass(&self) -> usize {
        2 * self.inputs.len()
    }

    fn pass(&mut self, index: usize, log: &mut OpLog, mut tracer: Option<&mut Tracer>) {
        for i in shuffled(self.inputs.len(), self.seed, index) {
            self.edit_loop(i, log, tracer.as_deref_mut());
        }
    }

    fn details(&self, log: &OpLog) -> Vec<Metric> {
        let phase = |p: &str| {
            let medians: Vec<f64> = self
                .inputs
                .iter()
                .map(|i| log.median_ms(&format!("{}/{p}", i.name)))
                .collect();
            geomean(&medians)
        };
        vec![
            Metric::new("build_cold_ms", phase("edit"), "ms"),
            Metric::new("build_warm_ms", phase("rebuild"), "ms"),
        ]
    }

    fn teardown(self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.dir)
            .map_err(|e| format!("cannot remove {}: {e}", self.dir.display()))
    }
}
