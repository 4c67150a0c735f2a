//! The staged compilation driver.
//!
//! Decomposes the paper's Figure 4 pipeline into named stages with typed
//! artifacts — [`Parsed`] → [`Elaborated`] (netlist + solver stats) →
//! [`Analyzed`] → [`SimReady`] — so stages can be cached, skipped, timed,
//! and run in parallel across models. Every consumer in the workspace
//! (the `lssc` CLI, the Table 3 model runners, benches, tests, examples)
//! wires the pipeline through this crate and nowhere else.
//!
//! * Failures carry a [`DriverError`]: the failing [`Stage`] plus the
//!   structured diagnostics, pre-rendered with source excerpts.
//! * Per-stage wall-clock timings accumulate in [`StageTimings`]
//!   (`lssc --timings` exposes them as JSON).
//! * With a cache directory configured, elaboration + inference results
//!   are stored content-addressed on disk ([`cache`]); a warm build
//!   replays the netlist without re-running either stage, and corrupt or
//!   stale entries fall back to a clean rebuild with a warning.
//! * The corelib is parsed once per process and shared by every session.
//!
//! # Example
//!
//! ```
//! use lss_driver::Driver;
//!
//! let mut driver = Driver::with_corelib();
//! driver.add_source(
//!     "model.lss",
//!     "instance gen:source;\ninstance hole:sink;\ngen.out -> hole.in;\ngen.out :: int;",
//! );
//! let elaborated = driver.elaborate()?;
//! assert_eq!(elaborated.netlist.instances.len(), 2);
//! let mut sim = driver.simulator(&elaborated.netlist)?;
//! sim.run(5)?;
//! assert_eq!(sim.rtv("hole", "count").unwrap().as_int(), Some(5));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod error;
pub mod project;
pub mod timing;

pub use cache::{CachedBuild, CachedUnit, DiskMemo, Fnv64};
pub use error::{DriverError, Stage};
pub use project::Manifest;
pub use timing::StageTimings;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use lss_analyze::{Analysis, AnalysisConfig, PassManager};
use lss_ast::{parse, Diagnostic, DiagnosticBag, FileId, Program, Severity, SourceMap, Span};
use lss_interp::{CompileOptions, Unit};
use lss_netlist::{LinkUnit, Netlist};
use lss_sim::{ComponentRegistry, SimOptions, Simulator};
use lss_types::{Budget, BudgetCaps, SolveStats};

/// The corelib program, parsed once per process.
///
/// Spans inside it are bound to [`FileId`] 0, which is where
/// [`Driver::with_corelib`] always registers the corelib source — the
/// shared AST is only used for corelib units sitting at file 0.
fn corelib_program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        let mut diags = DiagnosticBag::new();
        let program = parse(FileId(0), lss_corelib::corelib_source(), &mut diags);
        assert!(!diags.has_errors(), "bundled corelib must parse");
        program
    })
}

/// A parsed program, either shared (the memoized corelib) or owned.
#[derive(Debug)]
enum ProgramRef {
    Shared(&'static Program),
    Owned(Program),
}

/// One parsed source unit inside a [`Parsed`] artifact.
#[derive(Debug)]
pub struct ParsedUnit {
    /// Display name of the source (path or pseudo-name).
    pub name: String,
    /// The unit's file in the session's [`SourceMap`].
    pub file: FileId,
    /// True for library sources (their instances count as "from library"
    /// in the reuse statistics).
    pub library: bool,
    program: ProgramRef,
}

impl ParsedUnit {
    /// The unit's AST.
    pub fn program(&self) -> &Program {
        match &self.program {
            ProgramRef::Shared(p) => p,
            ProgramRef::Owned(p) => p,
        }
    }
}

/// Artifact of the parse stage: every unit's AST plus all parse
/// diagnostics as a structured list (not a concatenated string).
#[derive(Debug)]
pub struct Parsed {
    /// The units in the order they were added.
    pub units: Vec<ParsedUnit>,
    /// All parse diagnostics across units, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Parsed {
    /// True if any unit failed to parse.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }
}

/// How the elaborate stage was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Replayed from a verified on-disk entry; elaboration and inference
    /// did not run.
    Hit,
    /// Built from sources; the entry was (re)written.
    Miss,
    /// No cache directory configured.
    Disabled,
}

impl CacheOutcome {
    /// Stable lowercase name, used in `--timings` JSON.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Disabled => "off",
        }
    }
}

/// How one module of a multi-file project was built (project mode only).
#[derive(Debug, Clone)]
pub struct ModuleBuild {
    /// The module's display name (its source path).
    pub name: String,
    /// Whether the module's elaboration unit came from the cache. `Hit`
    /// means the module was *not* re-elaborated this session.
    pub outcome: CacheOutcome,
}

/// Artifact of the elaborate + infer stages: the typed netlist.
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// The elaborated netlist with every port type resolved.
    pub netlist: Netlist,
    /// Inference work counters (replayed from the cache on a hit).
    pub solve_stats: SolveStats,
    /// Machine-step trace (empty unless tracing was requested; tracing
    /// disables the cache).
    pub trace: Vec<String>,
    /// `print(...)` output from elaboration (replayed on a hit).
    pub prints: Vec<String>,
    /// Whether this artifact came from the cache.
    pub cache: CacheOutcome,
    /// Per-module build records for multi-file projects: which modules
    /// were re-elaborated and which replayed from per-unit cache entries.
    /// Empty for single-file builds and for whole-build cache hits (a
    /// whole-build hit elaborates nothing at all).
    pub modules: Vec<ModuleBuild>,
}

/// Artifact of the analyze stage.
#[derive(Debug)]
pub struct Analyzed {
    /// The elaborated netlist the analysis ran over.
    pub elaborated: Arc<Elaborated>,
    /// Findings from the full pass suite.
    pub analysis: Analysis,
}

/// Artifact of the simulator-build stage: a ready-to-run simulator that
/// keeps its netlist alive. Dereferences to [`Simulator`].
#[derive(Debug)]
pub struct SimReady {
    /// The netlist the simulator was built from.
    pub elaborated: Arc<Elaborated>,
    /// The executable simulator.
    pub sim: Simulator,
}

impl std::ops::Deref for SimReady {
    type Target = Simulator;

    fn deref(&self) -> &Simulator {
        &self.sim
    }
}

impl std::ops::DerefMut for SimReady {
    fn deref_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }
}

struct UnitEntry {
    name: String,
    file: FileId,
    library: bool,
    corelib: bool,
    /// Direct imports, as indices into `Driver::units` (project mode).
    deps: Vec<usize>,
    /// True for units that belong to a multi-file project (added through
    /// [`Driver::add_root_file`]); false for context units (corelib,
    /// libraries, plain sources).
    project: bool,
}

/// A compilation session: sources, options, registry, cache
/// configuration, and the memoized stage artifacts.
///
/// Stages run lazily and at most once per session; artifacts are shared
/// via [`Arc`] so downstream stages and callers never re-run or deep-copy
/// earlier work.
pub struct Driver {
    sources: SourceMap,
    units: Vec<UnitEntry>,
    /// Compilation options (elaboration limits, solver heuristics). Part
    /// of the cache key — mutate before the first `elaborate` call.
    pub options: CompileOptions,
    /// Simulation options (scheduler choice, fixpoint caps).
    pub sim_options: SimOptions,
    registry: ComponentRegistry,
    cache_dir: Option<PathBuf>,
    budget: Budget,
    parsed: Option<Arc<Parsed>>,
    elaborated: Option<Arc<Elaborated>>,
    timings: StageTimings,
    warnings: Vec<String>,
    /// Import-resolution diagnostics (LSS001 cycle, LSS002 missing file),
    /// surfaced through the parse stage.
    pending_diags: Vec<Diagnostic>,
    /// True once any unit declared an `import`: elaboration switches to
    /// per-module units linked by `lss_netlist::link`.
    project: bool,
}

impl std::fmt::Debug for Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Driver")
            .field("units", &self.units.len())
            .field("cache_dir", &self.cache_dir)
            .finish()
    }
}

impl Default for Driver {
    fn default() -> Self {
        Driver::new()
    }
}

impl Driver {
    /// An empty session with an empty registry and the cache disabled.
    pub fn new() -> Self {
        Driver {
            sources: SourceMap::new(),
            units: Vec::new(),
            options: CompileOptions::default(),
            sim_options: SimOptions::default(),
            registry: ComponentRegistry::new(),
            cache_dir: None,
            budget: Budget::unlimited(),
            parsed: None,
            elaborated: None,
            timings: StageTimings::default(),
            warnings: Vec::new(),
            pending_diags: Vec::new(),
            project: false,
        }
    }

    /// A session preloaded with the corelib modules and behaviors. The
    /// corelib AST is parsed once per process and shared.
    pub fn with_corelib() -> Self {
        let mut driver = Driver::new();
        driver.registry = lss_corelib::registry();
        driver.add_unit("corelib.lss", lss_corelib::corelib_source(), true, true);
        driver
    }

    fn add_unit(&mut self, name: &str, text: &str, library: bool, corelib: bool) {
        assert!(
            self.parsed.is_none() && self.elaborated.is_none(),
            "cannot add sources after compilation has started"
        );
        let file = self.sources.add_file(name, text);
        self.units.push(UnitEntry {
            name: name.to_string(),
            file,
            library,
            corelib,
            deps: Vec::new(),
            project: false,
        });
    }

    /// Adds a multi-file project rooted at `path`: a `.lss` file (whose
    /// transitive `import` closure is loaded, depth-first, dependencies
    /// before importers), a directory containing an `lss.toml` manifest,
    /// or the manifest file itself.
    ///
    /// Import problems do not fail this call: a missing imported file
    /// (`LSS002`) or an import cycle (`LSS001`) becomes a spanned
    /// diagnostic surfaced by the parse stage, exactly like a syntax
    /// error. A file with no imports behaves like [`Driver::add_source`].
    ///
    /// # Errors
    ///
    /// Only for problems with the root itself: an unreadable root file or
    /// a missing/invalid manifest.
    pub fn add_root_file(&mut self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        if path.is_dir()
            || path
                .file_name()
                .is_some_and(|n| n == project::MANIFEST_NAME)
        {
            return self.add_project(path);
        }
        let mut visiting = Vec::new();
        let mut done = HashMap::new();
        self.load_module(path, None, &mut visiting, &mut done)
            .map(|_| ())
    }

    /// Adds a project by manifest: `path` is a directory holding an
    /// `lss.toml`, or the manifest file itself. The manifest's `root`
    /// names the file whose import closure forms the project.
    ///
    /// # Errors
    ///
    /// Unreadable or invalid manifest, or an unreadable root file.
    pub fn add_project(&mut self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        let manifest_path = if path.is_dir() {
            path.join(project::MANIFEST_NAME)
        } else {
            path.to_path_buf()
        };
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        let base = manifest_path.parent().unwrap_or(Path::new("."));
        let manifest = project::parse_manifest(&text, base)
            .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
        self.add_root_file(&manifest.root)
    }

    /// Loads one project file, its imports first (post-order), recording
    /// the dependency edges. `origin` is the span of the `import` that
    /// requested this file (`None` for the root). Returns the unit index,
    /// or `None` when the file was skipped with a pending diagnostic.
    fn load_module(
        &mut self,
        path: &Path,
        origin: Option<Span>,
        visiting: &mut Vec<(PathBuf, String)>,
        done: &mut HashMap<PathBuf, Option<usize>>,
    ) -> Result<Option<usize>, String> {
        assert!(
            self.parsed.is_none() && self.elaborated.is_none(),
            "cannot add sources after compilation has started"
        );
        let canon = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
        if let Some(idx) = done.get(&canon) {
            return Ok(*idx);
        }
        let display = path.display().to_string();
        if let Some(pos) = visiting.iter().position(|(p, _)| *p == canon) {
            let mut chain: Vec<String> = visiting[pos..].iter().map(|(_, n)| n.clone()).collect();
            chain.push(display);
            self.pending_diags.push(
                Diagnostic::error(
                    format!("import cycle detected: {}", chain.join(" -> ")),
                    origin.unwrap_or_else(Span::synthetic),
                )
                .with_code("LSS001")
                .with_note("every file along the cycle imports the next; break one edge"),
            );
            // Leave the entry unresolved so re-imports of the same file
            // do not repeat the report.
            done.insert(canon, None);
            return Ok(None);
        }
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => match origin {
                Some(span) => {
                    self.pending_diags.push(
                        Diagnostic::error(
                            format!("cannot read imported file `{display}`: {e}"),
                            span,
                        )
                        .with_code("LSS002")
                        .with_note("import paths resolve relative to the importing file"),
                    );
                    done.insert(canon, None);
                    return Ok(None);
                }
                None => return Err(format!("cannot read {display}: {e}")),
            },
        };
        let file = self.sources.add_file(&display, &*text);
        // Throwaway parse for the import list only; `Driver::parse`
        // re-parses the unit and is where syntax errors surface.
        let mut bag = DiagnosticBag::new();
        let program = parse(file, &text, &mut bag);
        self.project |= !program.imports.is_empty();
        visiting.push((canon.clone(), display.clone()));
        let parent = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let mut deps = Vec::new();
        for import in &program.imports {
            let target = parent.join(import.path.rel_path());
            if let Some(idx) = self.load_module(&target, Some(import.span), visiting, done)? {
                deps.push(idx);
            }
        }
        visiting.pop();
        let idx = self.units.len();
        self.units.push(UnitEntry {
            name: display,
            file,
            library: false,
            corelib: false,
            deps,
            project: true,
        });
        done.insert(canon, Some(idx));
        Ok(Some(idx))
    }

    /// The transitive imports of unit `root`, in deterministic dependency
    /// post-order (dependencies before importers), excluding `root`.
    fn import_closure(&self, root: usize) -> Vec<usize> {
        fn visit(units: &[UnitEntry], idx: usize, seen: &mut [bool], order: &mut Vec<usize>) {
            for &dep in &units[idx].deps {
                if !seen[dep] {
                    seen[dep] = true;
                    visit(units, dep, seen, order);
                    order.push(dep);
                }
            }
        }
        let mut order = Vec::new();
        let mut seen = vec![false; self.units.len()];
        visit(&self.units, root, &mut seen, &mut order);
        order
    }

    /// Adds a library source (its instances count as "from library" in
    /// the reuse statistics).
    pub fn add_library(&mut self, name: &str, text: &str) {
        self.add_unit(name, text, true, false);
    }

    /// Adds a model source.
    pub fn add_source(&mut self, name: &str, text: &str) {
        self.add_unit(name, text, false, false);
    }

    /// Replaces the behavior registry (for custom component sets).
    pub fn set_registry(&mut self, registry: ComponentRegistry) {
        self.registry = registry;
    }

    /// The behavior registry in use.
    pub fn registry(&self) -> &ComponentRegistry {
        &self.registry
    }

    /// The source map (for rendering custom diagnostics).
    pub fn sources(&self) -> &SourceMap {
        &self.sources
    }

    /// Enables (`Some(dir)`) or disables (`None`) the on-disk netlist
    /// cache for this session. Disabled by default.
    pub fn set_cache_dir(&mut self, dir: Option<PathBuf>) {
        self.cache_dir = dir;
    }

    /// Arms a resource budget for this session: starts the caps' clock
    /// and threads one shared [`Budget`] handle through elaboration,
    /// inference, and analysis, so every stage draws down the same
    /// wall-clock allowance. Call before the first [`Driver::elaborate`].
    ///
    /// On exhaustion the failing stage returns a [`DriverError`] whose
    /// diagnostics carry an `LSS4xx` code
    /// ([`DriverError::budget_code`]) instead of hanging or aborting.
    pub fn set_budget(&mut self, caps: BudgetCaps) {
        let budget = caps.start();
        self.options.set_budget(budget.clone());
        self.sim_options.budget = budget.clone();
        self.budget = budget;
    }

    /// The session's shared budget handle (unlimited unless
    /// [`Driver::set_budget`] was called).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Wall-clock time spent in each stage so far.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Non-fatal notices (cache corruption fallbacks, store failures).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// The content-address of this session's inputs: hashes the source
    /// texts, the compile options, and the format/corelib versions.
    pub fn cache_key(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("lss-driver-cache");
        h.write(&cache::CACHE_VERSION.to_le_bytes());
        h.write(&lss_netlist::BIN_FORMAT.to_le_bytes());
        h.write_str(lss_corelib::VERSION);
        h.write_str(&format!("{:?}", self.options));
        for entry in &self.units {
            h.write_str(&entry.name);
            h.write(&[entry.library as u8]);
            let text = &self.sources.get(entry.file).expect("unit registered").text;
            h.write_str(text);
        }
        h.finish()
    }

    /// The content-address of one project unit's elaboration inputs: the
    /// context units (corelib, libraries), the unit's transitive import
    /// closure, and the unit itself. Editing a module changes only the
    /// keys of the units that (transitively) import it.
    fn unit_cache_key(&self, idx: usize, closure: &[usize]) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("lss-driver-unit");
        h.write(&cache::CACHE_VERSION.to_le_bytes());
        h.write(&lss_netlist::BIN_FORMAT.to_le_bytes());
        h.write_str(lss_corelib::VERSION);
        h.write_str(&format!("{:?}", self.options));
        let feed = |h: &mut Fnv64, i: usize| {
            let entry = &self.units[i];
            // File ids pin the spans baked into the cached netlist.
            h.write(&u64::from(entry.file.0).to_le_bytes());
            h.write_str(&entry.name);
            h.write(&[entry.library as u8]);
            h.write_str(&self.sources.get(entry.file).expect("unit registered").text);
        };
        for (i, entry) in self.units.iter().enumerate() {
            if !entry.project {
                feed(&mut h, i);
            }
        }
        for &i in closure {
            feed(&mut h, i);
        }
        feed(&mut h, idx);
        h.finish()
    }

    /// Runs (or replays) the parse stage.
    ///
    /// Infallible by design: parse problems surface as diagnostics on the
    /// artifact, and [`Driver::elaborate`] turns them into a
    /// [`Stage::Parse`] error. Corelib units reuse the shared AST.
    pub fn parse(&mut self) -> Arc<Parsed> {
        if let Some(parsed) = &self.parsed {
            return Arc::clone(parsed);
        }
        let start = Instant::now();
        let mut diagnostics = self.pending_diags.clone();
        let mut units = Vec::new();
        for entry in &self.units {
            let program = if entry.corelib && entry.file == FileId(0) {
                ProgramRef::Shared(corelib_program())
            } else {
                let text = Arc::clone(&self.sources.get(entry.file).expect("registered").text);
                let mut bag = DiagnosticBag::new();
                let program = parse(entry.file, &text, &mut bag);
                diagnostics.extend(bag.into_vec());
                ProgramRef::Owned(program)
            };
            units.push(ParsedUnit {
                name: entry.name.clone(),
                file: entry.file,
                library: entry.library,
                program,
            });
        }
        self.timings.parse += start.elapsed();
        let parsed = Arc::new(Parsed { units, diagnostics });
        self.parsed = Some(Arc::clone(&parsed));
        parsed
    }

    /// Runs (or replays) elaboration + type inference.
    ///
    /// With a cache directory configured, probes the cache first — a
    /// verified hit skips parse, elaborate, and infer entirely. Corrupt
    /// or stale entries are reported in [`Driver::warnings`] and trigger
    /// a clean rebuild that overwrites the entry.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage's diagnostics.
    pub fn elaborate(&mut self) -> Result<Arc<Elaborated>, DriverError> {
        if let Some(elaborated) = &self.elaborated {
            return Ok(Arc::clone(elaborated));
        }
        // Tracing output cannot be replayed from the cache, so a tracing
        // session always builds from sources.
        let cache_dir = if self.options.elab.trace {
            None
        } else {
            self.cache_dir.clone()
        };
        let key = self.cache_key();
        if let Some(dir) = &cache_dir {
            let start = Instant::now();
            let loaded = cache::load(dir, key);
            self.timings.cache_probe += start.elapsed();
            match loaded {
                Ok(Some(build)) => {
                    let elaborated = Arc::new(Elaborated {
                        netlist: build.netlist,
                        solve_stats: build.solve_stats,
                        trace: Vec::new(),
                        prints: build.prints,
                        cache: CacheOutcome::Hit,
                        modules: Vec::new(),
                    });
                    self.elaborated = Some(Arc::clone(&elaborated));
                    return Ok(elaborated);
                }
                Ok(None) => {}
                Err(msg) => {
                    self.warnings
                        .push(format!("cache: {msg}; rebuilding from sources"));
                }
            }
        }

        let parsed = self.parse();
        if parsed.has_errors() {
            return Err(DriverError::new(
                Stage::Parse,
                parsed.diagnostics.clone(),
                &self.sources,
            ));
        }
        if self.project {
            return self.elaborate_project(&parsed, cache_dir.as_ref(), key);
        }
        let units: Vec<Unit<'_>> = parsed
            .units
            .iter()
            .map(|u| Unit {
                program: u.program(),
                library: u.library,
            })
            .collect();
        let mut bag = DiagnosticBag::new();
        let start = Instant::now();
        let out = lss_interp::elaborate(&units, &self.options.elab, &mut bag);
        self.timings.elaborate += start.elapsed();
        let Some(out) = out else {
            return Err(DriverError::new(
                Stage::Elaborate,
                bag.into_vec(),
                &self.sources,
            ));
        };
        let lss_interp::ElabOutput {
            mut netlist,
            trace,
            prints,
            deferred: _,
        } = out;
        let solve_stats = self
            .run_inference(&mut netlist, cache_dir.as_ref())
            .map_err(|diags| DriverError::new(Stage::Infer, diags, &self.sources))?;
        let mut outcome = CacheOutcome::Disabled;
        if let Some(dir) = &cache_dir {
            outcome = CacheOutcome::Miss;
            if let Err(msg) = cache::store(dir, key, &netlist, &solve_stats, &prints) {
                self.warnings.push(format!("cache: {msg}"));
            }
        }
        let elaborated = Arc::new(Elaborated {
            netlist,
            solve_stats,
            trace,
            prints,
            cache: outcome,
            modules: Vec::new(),
        });
        self.elaborated = Some(Arc::clone(&elaborated));
        Ok(elaborated)
    }

    /// Runs type inference over `netlist`, threading the on-disk
    /// solved-partition memo when the cache is enabled.
    fn run_inference(
        &mut self,
        netlist: &mut Netlist,
        cache_dir: Option<&PathBuf>,
    ) -> Result<SolveStats, Vec<Diagnostic>> {
        let mut bag = DiagnosticBag::new();
        let mut memo = cache_dir.map(|dir| cache::DiskMemo::new(dir.clone()));
        let start = Instant::now();
        let solve = lss_interp::infer_with_memo(
            netlist,
            &self.options.solver,
            &mut bag,
            memo.as_mut()
                .map(|m| m as &mut dyn lss_types::PartitionMemo),
        );
        self.timings.infer += start.elapsed();
        solve.ok_or_else(|| bag.into_vec())
    }

    /// Project-mode elaboration: each project unit elaborates on its own
    /// (against declaration-only views of its import closure), per-unit
    /// results are cached individually, and `lss_netlist::link` merges
    /// the unit netlists and resolves the deferred cross-file
    /// connections. Editing one module re-elaborates only that module and
    /// the modules that import it.
    fn elaborate_project(
        &mut self,
        parsed: &Arc<Parsed>,
        cache_dir: Option<&PathBuf>,
        key: u64,
    ) -> Result<Arc<Elaborated>, DriverError> {
        let mk = |i: usize| Unit {
            program: parsed.units[i].program(),
            library: parsed.units[i].library,
        };
        let mut unit_opts = self.options.elab.clone();
        unit_opts.allow_deferred = true;
        let context: Vec<usize> = (0..self.units.len())
            .filter(|&i| !self.units[i].project)
            .collect();
        let project_units: Vec<usize> = (0..self.units.len())
            .filter(|&i| self.units[i].project)
            .collect();

        let mut link_units = Vec::new();
        let mut prints = Vec::new();
        let mut trace = Vec::new();
        let mut modules = Vec::new();
        for &u in &project_units {
            let closure = self.import_closure(u);
            let unit_key = self.unit_cache_key(u, &closure);
            let mut replayed = None;
            if let Some(dir) = cache_dir {
                let start = Instant::now();
                let loaded = cache::load_unit(dir, unit_key);
                self.timings.cache_probe += start.elapsed();
                match loaded {
                    Ok(found) => replayed = found,
                    Err(msg) => self.warnings.push(format!(
                        "cache: {msg}; re-elaborating {}",
                        self.units[u].name
                    )),
                }
            }
            let (netlist, deferred, unit_prints, unit_trace, outcome) = match replayed {
                Some(unit) => (
                    unit.netlist,
                    unit.deferred,
                    unit.prints,
                    Vec::new(),
                    CacheOutcome::Hit,
                ),
                None => {
                    let decl_units: Vec<Unit<'_>> = context
                        .iter()
                        .chain(closure.iter())
                        .map(|&i| mk(i))
                        .collect();
                    let full = [mk(u)];
                    let mut bag = DiagnosticBag::new();
                    let start = Instant::now();
                    let out =
                        lss_interp::elaborate_scoped(&decl_units, &full, &unit_opts, &mut bag);
                    self.timings.elaborate += start.elapsed();
                    let Some(out) = out else {
                        return Err(DriverError::new(
                            Stage::Elaborate,
                            bag.into_vec(),
                            &self.sources,
                        ));
                    };
                    let outcome = match cache_dir {
                        Some(dir) => {
                            if let Err(msg) = cache::store_unit(
                                dir,
                                unit_key,
                                &out.netlist,
                                &out.deferred,
                                &out.prints,
                            ) {
                                self.warnings.push(format!("cache: {msg}"));
                            }
                            CacheOutcome::Miss
                        }
                        None => CacheOutcome::Disabled,
                    };
                    (out.netlist, out.deferred, out.prints, out.trace, outcome)
                }
            };
            modules.push(ModuleBuild {
                name: self.units[u].name.clone(),
                outcome,
            });
            prints.extend(unit_prints);
            trace.extend(unit_trace);
            link_units.push(LinkUnit { netlist, deferred });
        }

        let start = Instant::now();
        let linked = lss_netlist::link(link_units);
        self.timings.elaborate += start.elapsed();
        let mut netlist = linked.map_err(|e| {
            let span = e
                .span
                .map(|s| Span {
                    file: FileId(s.file),
                    start: s.start,
                    end: s.end,
                })
                .unwrap_or_else(Span::synthetic);
            DriverError::new(
                Stage::Elaborate,
                vec![Diagnostic::error(e.message, span)],
                &self.sources,
            )
        })?;

        let solve_stats = self
            .run_inference(&mut netlist, cache_dir)
            .map_err(|diags| DriverError::new(Stage::Infer, diags, &self.sources))?;
        let mut outcome = CacheOutcome::Disabled;
        if let Some(dir) = cache_dir {
            outcome = CacheOutcome::Miss;
            if let Err(msg) = cache::store(dir, key, &netlist, &solve_stats, &prints) {
                self.warnings.push(format!("cache: {msg}"));
            }
        }
        let elaborated = Arc::new(Elaborated {
            netlist,
            solve_stats,
            trace,
            prints,
            cache: outcome,
            modules,
        });
        self.elaborated = Some(Arc::clone(&elaborated));
        Ok(elaborated)
    }

    /// Consumes the session and returns the elaborated artifact by value
    /// (for callers that need to move the netlist out).
    ///
    /// # Errors
    ///
    /// Same as [`Driver::elaborate`].
    pub fn finish(mut self) -> Result<Elaborated, DriverError> {
        self.elaborate()?;
        let arc = self.elaborated.take().expect("just elaborated");
        drop(self.parsed.take());
        Ok(Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }

    /// Runs the full static-analysis pass suite over the elaborated
    /// netlist.
    ///
    /// Combinational/registered input classification comes from this
    /// session's behavior registry (the same answer the simulator's
    /// static scheduler uses), so `check` diagnostics and runtime
    /// scheduling can never disagree. Not memoized — the config varies
    /// per call.
    ///
    /// # Errors
    ///
    /// Fails if elaboration fails, or with a [`Stage::Analyze`] budget
    /// error (`LSS401`) when the session's wall-clock deadline expires
    /// mid-analysis.
    pub fn analyze(&mut self, config: &AnalysisConfig) -> Result<Analyzed, DriverError> {
        let elaborated = self.elaborate()?;
        let start = Instant::now();
        let comb = lss_sim::comb_info(&elaborated.netlist, &self.registry);
        let analysis = PassManager::with_default_passes().run_budgeted(
            &elaborated.netlist,
            &comb,
            config,
            &self.budget,
        );
        self.timings.analyze += start.elapsed();
        let analysis = analysis.map_err(|e| {
            DriverError::new(
                Stage::Analyze,
                vec![Diagnostic::error(e.to_string(), lss_ast::Span::synthetic())
                    .with_code(e.code())
                    .with_note(e.hint())],
                &self.sources,
            )
        })?;
        Ok(Analyzed {
            elaborated,
            analysis,
        })
    }

    /// Builds a simulator for a compiled netlist using this session's
    /// registry and simulation options.
    ///
    /// # Errors
    ///
    /// Returns a [`Stage::SimBuild`] error (unknown behaviors, untyped
    /// ports, bad BSL code).
    pub fn simulator(&mut self, netlist: &Netlist) -> Result<Simulator, DriverError> {
        let start = Instant::now();
        let sim = lss_sim::build(netlist, &self.registry, self.sim_options.clone());
        self.timings.sim_build += start.elapsed();
        sim.map_err(|e| DriverError::message(Stage::SimBuild, e.to_string()))
    }

    /// Runs every stage through simulator construction.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage's error.
    pub fn build_simulator(&mut self) -> Result<SimReady, DriverError> {
        let elaborated = self.elaborate()?;
        let sim = self.simulator(&elaborated.netlist)?;
        Ok(SimReady { elaborated, sim })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL: &str =
        "instance gen:source;\ninstance hole:sink;\ngen.out -> hole.in;\ngen.out :: int;";

    fn temp_cache(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lss-driver-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn stages_produce_artifacts_and_timings() {
        let mut driver = Driver::with_corelib();
        driver.add_source("m.lss", MODEL);
        let parsed = driver.parse();
        assert!(!parsed.has_errors());
        assert_eq!(parsed.units.len(), 2);
        let elaborated = driver.elaborate().expect("elaborates");
        assert_eq!(elaborated.netlist.instances.len(), 2);
        assert_eq!(elaborated.cache, CacheOutcome::Disabled);
        let mut ready = driver.build_simulator().expect("builds");
        ready.run(5).unwrap();
        assert_eq!(ready.rtv("hole", "count").unwrap().as_int(), Some(5));
        assert!(driver.timings().elaborate > std::time::Duration::ZERO);
        assert!(driver.timings().total() >= driver.timings().elaborate);
    }

    #[test]
    fn parse_errors_become_structured_parse_stage_errors() {
        let mut driver = Driver::with_corelib();
        driver.add_source("bad.lss", "instance x:");
        driver.add_source("bad2.lss", "module {");
        let parsed = driver.parse();
        assert!(parsed.has_errors());
        // Diagnostics from *both* bad units accumulate as a list.
        assert!(parsed.diagnostics.len() >= 2, "{:?}", parsed.diagnostics);
        let err = driver.elaborate().unwrap_err();
        assert_eq!(err.stage, Stage::Parse);
        assert!(err.to_string().contains("expected identifier"), "{err}");
    }

    #[test]
    fn elaboration_and_simbuild_errors_carry_their_stage() {
        let mut driver = Driver::with_corelib();
        driver.add_source("m.lss", "instance x:nonexistent_module;");
        let err = driver.elaborate().unwrap_err();
        assert_eq!(err.stage, Stage::Elaborate);
        assert!(err.to_string().contains("unknown module"), "{err}");

        let mut driver = Driver::with_corelib();
        driver.set_registry(ComponentRegistry::new());
        driver.add_source("m.lss", "instance gen:source;\ngen.out :: int;");
        let err = driver.build_simulator().unwrap_err();
        assert_eq!(err.stage, Stage::SimBuild);
        assert!(err.to_string().contains("no behavior registered"), "{err}");
    }

    #[test]
    fn corelib_parse_is_shared_across_sessions() {
        let mut a = Driver::with_corelib();
        let mut b = Driver::with_corelib();
        let pa = a.parse();
        let pb = b.parse();
        let prog_a: *const Program = pa.units[0].program();
        let prog_b: *const Program = pb.units[0].program();
        assert!(
            std::ptr::eq(prog_a, prog_b),
            "corelib AST must be the shared memoized parse"
        );
    }

    #[test]
    fn warm_cache_replays_the_same_netlist_without_elaborating() {
        let dir = temp_cache("warm");

        let mut cold = Driver::with_corelib();
        cold.set_cache_dir(Some(dir.clone()));
        cold.add_source("m.lss", MODEL);
        let first = cold.elaborate().expect("cold build");
        assert_eq!(first.cache, CacheOutcome::Miss);
        let cold_json = lss_netlist::to_json(&first.netlist);

        let mut warm = Driver::with_corelib();
        warm.set_cache_dir(Some(dir.clone()));
        warm.add_source("m.lss", MODEL);
        let second = warm.elaborate().expect("warm build");
        assert_eq!(second.cache, CacheOutcome::Hit);
        assert_eq!(second.solve_stats, first.solve_stats);
        assert_eq!(lss_netlist::to_json(&second.netlist), cold_json);
        assert_eq!(
            warm.timings().elaborate,
            std::time::Duration::ZERO,
            "a hit must not run elaboration"
        );
        assert_eq!(warm.timings().infer, std::time::Duration::ZERO);

        // A simulator builds fine from the cache-served netlist.
        let mut sim = warm.build_simulator().expect("sim from cached netlist");
        sim.run(3).unwrap();
        assert_eq!(sim.rtv("hole", "count").unwrap().as_int(), Some(3));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_or_option_changes_miss_the_cache() {
        let dir = temp_cache("invalidate");

        let mut a = Driver::with_corelib();
        a.set_cache_dir(Some(dir.clone()));
        a.add_source("m.lss", MODEL);
        let key_a = a.cache_key();
        assert_eq!(a.elaborate().unwrap().cache, CacheOutcome::Miss);

        // Different source text → different key → miss.
        let mut b = Driver::with_corelib();
        b.set_cache_dir(Some(dir.clone()));
        b.add_source("m.lss", &format!("{MODEL}\n// comment\n"));
        assert_ne!(b.cache_key(), key_a);
        assert_eq!(b.elaborate().unwrap().cache, CacheOutcome::Miss);

        // Different options → different key.
        let mut c = Driver::with_corelib();
        c.set_cache_dir(Some(dir.clone()));
        c.add_source("m.lss", MODEL);
        c.options.solver.smart = !c.options.solver.smart;
        assert_ne!(c.cache_key(), key_a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_warn_and_rebuild() {
        let dir = temp_cache("corrupt");

        let mut cold = Driver::with_corelib();
        cold.set_cache_dir(Some(dir.clone()));
        cold.add_source("m.lss", MODEL);
        cold.elaborate().expect("cold build");
        let key = cold.cache_key();

        // Truncate the entry on disk.
        let path = cache::entry_path(&dir, key);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();

        let mut warm = Driver::with_corelib();
        warm.set_cache_dir(Some(dir.clone()));
        warm.add_source("m.lss", MODEL);
        let rebuilt = warm.elaborate().expect("rebuild after corruption");
        assert_eq!(rebuilt.cache, CacheOutcome::Miss, "corruption must rebuild");
        assert!(
            warm.warnings().iter().any(|w| w.contains("cache")),
            "missing corruption warning: {:?}",
            warm.warnings()
        );
        assert_eq!(rebuilt.netlist.instances.len(), 2);

        // The rebuild overwrote the entry: a third session hits cleanly.
        let mut again = Driver::with_corelib();
        again.set_cache_dir(Some(dir.clone()));
        again.add_source("m.lss", MODEL);
        assert_eq!(again.elaborate().unwrap().cache, CacheOutcome::Hit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_returns_an_owned_artifact() {
        let mut driver = Driver::with_corelib();
        driver.add_source("m.lss", MODEL);
        let owned: Elaborated = driver.finish().expect("finishes");
        assert_eq!(owned.netlist.instances.len(), 2);
    }

    #[test]
    fn expired_deadline_surfaces_as_a_coded_budget_error() {
        let mut driver = Driver::with_corelib();
        driver.add_source("spin.lss", "var i = 0;\nwhile (true) { i = i + 1; }");
        driver.set_budget(BudgetCaps {
            deadline: Some(std::time::Duration::from_millis(20)),
            ..BudgetCaps::default()
        });
        let start = Instant::now();
        let err = driver.elaborate().unwrap_err();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "budget must terminate the spin promptly"
        );
        assert_eq!(err.stage, Stage::Elaborate);
        assert_eq!(err.budget_code(), Some("LSS401"), "{err}");
        assert!(err.to_string().contains("LSS401"), "{err}");
    }

    #[test]
    fn analyze_deadline_is_a_stage_analyze_budget_error() {
        let mut driver = Driver::with_corelib();
        driver.add_source("m.lss", MODEL);
        // Elaborate under no budget, then arm an already-expired deadline
        // so the analyze stage (and only it) trips.
        driver.elaborate().expect("elaborates");
        driver.set_budget(BudgetCaps {
            deadline: Some(std::time::Duration::ZERO),
            ..BudgetCaps::default()
        });
        let err = driver.analyze(&AnalysisConfig::default()).unwrap_err();
        assert_eq!(err.stage, Stage::Analyze);
        assert_eq!(err.budget_code(), Some("LSS401"), "{err}");
    }

    #[test]
    fn budget_caps_keep_the_cache_key_stable_across_sessions() {
        let caps = BudgetCaps {
            deadline: Some(std::time::Duration::from_secs(30)),
            max_netlist_items: Some(100_000),
            ..BudgetCaps::default()
        };
        let mut a = Driver::with_corelib();
        a.add_source("m.lss", MODEL);
        a.set_budget(caps);
        let mut b = Driver::with_corelib();
        b.add_source("m.lss", MODEL);
        b.set_budget(caps);
        // The live clock differs between the two sessions; the key must
        // hash only the caps or warm builds could never hit.
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn analyze_runs_the_default_pass_suite() {
        let mut driver = Driver::with_corelib();
        driver.add_source("m.lss", MODEL);
        let analyzed = driver
            .analyze(&AnalysisConfig::default())
            .expect("analyzes");
        assert!(analyzed.elaborated.netlist.instances.len() == 2);
        // The toy model is clean of denied findings by default.
        assert_eq!(analyzed.analysis.denied, 0);
    }
}
