//! The session core both front ends share: what a compile is made of
//! ([`Spec`]), how its resource flags parse and apply ([`Quota`]), where
//! its cache lives ([`resolve_cache_dir`]), and how its outcome is named
//! and turned into an exit code ([`Status`]).
//!
//! `lssc` (one-shot, `build`, `check`, `client`) and `lssd` (per request)
//! build every [`Driver`] through [`Spec::driver`], so the same spec
//! yields the same netlist, cache key and status from either front end.
//! Rendering stays with each front end: `lssc` prints text, `lssd`
//! answers JSON.

use std::path::PathBuf;

use lss_driver::{Driver, DriverError};
use lss_sim::SimError;
use lss_types::{BudgetCaps, SolverConfig};

use crate::proto::Quota;

/// How a request or command ended: the wire `status` of an `lssd`
/// response and, through [`Status::exit_code`], the exit code of `lssc`
/// and `lssc client` alike (docs/SERVICE.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Served or compiled cleanly.
    Ok,
    /// A compile, simulate or findings failure.
    Error,
    /// A resource budget ran out (an `LSS4xx` diagnostic).
    Budget,
    /// Malformed input: a usage error, an unknown model, a bad frame.
    BadRequest,
    /// An internal error (a panic behind the isolation boundary).
    Ice,
    /// Shed by admission control; retry later.
    Busy,
}

impl Status {
    /// Every status, in the order docs/SERVICE.md lists them.
    pub const ALL: [Status; 6] = [
        Status::Ok,
        Status::BadRequest,
        Status::Busy,
        Status::Budget,
        Status::Error,
        Status::Ice,
    ];

    /// The status of a failed pipeline stage: `Budget` when a resource
    /// cap stopped it, `Error` otherwise.
    pub fn of(e: &DriverError) -> Status {
        if e.is_budget_exhausted() {
            Status::Budget
        } else {
            Status::Error
        }
    }

    /// The status of a failed simulation: `Budget` for a cycle cap or
    /// deadline stop, `Error` otherwise.
    pub fn of_sim(e: &SimError) -> Status {
        if e.budget_code().is_some() {
            Status::Budget
        } else {
            Status::Error
        }
    }

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Budget => "budget",
            Status::BadRequest => "bad-request",
            Status::Ice => "ice",
            Status::Busy => "busy",
        }
    }

    /// The status for a wire name (`None` for an unknown name).
    pub fn parse(name: &str) -> Option<Status> {
        Status::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The process exit code: 0 ok, 1 error, 2 bad request (usage),
    /// 3 budget exhausted, 4 internal error, 75 busy (the conventional
    /// "temporary failure; retry").
    pub fn exit_code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Error => 1,
            Status::BadRequest => 2,
            Status::Budget => 3,
            Status::Ice => 4,
            Status::Busy => 75,
        }
    }
}

impl From<Status> for std::process::ExitCode {
    fn from(status: Status) -> Self {
        std::process::ExitCode::from(status.exit_code())
    }
}

/// Parses a flag's numeric value; the error names the flag.
///
/// # Errors
///
/// A missing value, or one that does not parse as `T`.
pub fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let Some(text) = value else {
        return Err(format!("{flag} needs a value"));
    };
    text.parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, got `{text}`"))
}

impl Quota {
    /// Consumes `flag` and its value from `args` if it is one of the
    /// resource-budget flags (`--deadline-ms` … `--max-cycles`);
    /// `Ok(false)` for any other flag, leaving `args` untouched.
    ///
    /// # Errors
    ///
    /// A budget flag with a missing or non-numeric value.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let slot = match flag {
            "--deadline-ms" => &mut self.deadline_ms,
            "--max-steps" => &mut self.max_steps,
            "--max-instances" => &mut self.max_instances,
            "--max-depth" => {
                self.max_depth = Some(flag_value(flag, args.next())?);
                return Ok(true);
            }
            "--solver-steps" => &mut self.solver_steps,
            "--expansion-cap" => &mut self.expansion_cap,
            "--max-netlist" => &mut self.max_netlist,
            "--max-cycles" => &mut self.max_cycles,
            _ => return Ok(false),
        };
        *slot = Some(flag_value(flag, args.next())?);
        Ok(true)
    }

    /// Arms a session with the quota: fuel caps go into the stage
    /// options, wall-clock, depth and size caps into the shared budget
    /// handle. Call after any solver replacement.
    pub fn apply(&self, driver: &mut Driver) {
        if let Some(n) = self.max_steps {
            driver.options.elab.max_steps = n;
        }
        if let Some(n) = self.max_instances {
            driver.options.elab.max_instances = n as usize;
        }
        if let Some(n) = self.max_depth {
            driver.options.elab.max_depth = n as usize;
        }
        if let Some(n) = self.solver_steps {
            driver.options.solver.step_budget = Some(n);
        }
        if let Some(n) = self.expansion_cap {
            driver.options.solver.expansion_cap = n as usize;
        }
        let caps = self.budget_caps();
        if caps != BudgetCaps::default() {
            driver.set_budget(caps);
        }
    }
}

/// Where the netlist cache lives: `--no-cache` wins, then `--cache-dir`,
/// then `$LSS_CACHE_DIR`, then `target/lss-cache`; `None` disables it.
///
/// # Errors
///
/// An explicit `--cache-dir` that exists and is not a directory: a
/// mistyped cache path fails loudly instead of silently disabling
/// caching file by file.
pub fn resolve_cache_dir(
    no_cache: bool,
    explicit: Option<PathBuf>,
) -> Result<Option<PathBuf>, String> {
    if no_cache {
        return Ok(None);
    }
    if let Some(dir) = explicit {
        if dir.exists() && !dir.is_dir() {
            return Err(format!(
                "cache directory {} exists but is not a directory",
                dir.display()
            ));
        }
        return Ok(Some(dir));
    }
    Ok(Some(std::env::var_os("LSS_CACHE_DIR").map_or_else(
        || PathBuf::from("target/lss-cache"),
        PathBuf::from,
    )))
}

/// Everything that determines a compile. The front ends fill it from
/// flags or a request; [`Spec::driver`] is the one session setup.
#[derive(Debug, Clone)]
pub struct Spec {
    /// A built-in Table 3 model, compiled as `cpu_lib.lss` plus
    /// `model_{id}.lss`.
    pub model: Option<char>,
    /// `(name, text)` library units; their instances count as "from
    /// library".
    pub libs: Vec<(String, String)>,
    /// `(name, text)` source units.
    pub sources: Vec<(String, String)>,
    /// Files to load with their imports: a `.lss` file, a directory
    /// holding an `lss.toml`, or the manifest itself.
    pub roots: Vec<PathBuf>,
    /// Preload the corelib (default on).
    pub corelib: bool,
    /// Solve types without the paper's heuristics.
    pub naive: bool,
    /// Resource caps armed on the session.
    pub quota: Quota,
    /// The netlist cache directory (`None` disables it).
    pub cache_dir: Option<PathBuf>,
}

impl Default for Spec {
    fn default() -> Self {
        Spec {
            model: None,
            libs: Vec::new(),
            sources: Vec::new(),
            roots: Vec::new(),
            corelib: true,
            naive: false,
            quota: Quota::default(),
            cache_dir: None,
        }
    }
}

impl Spec {
    /// A driver session holding the spec's units, options and quota,
    /// ready to elaborate.
    ///
    /// # Errors
    ///
    /// `BadRequest` for an unknown model or a spec with nothing to
    /// compile; `Error` for a root file that cannot be read.
    pub fn driver(&self) -> Result<Driver, (Status, String)> {
        let mut driver = if self.corelib {
            Driver::with_corelib()
        } else {
            Driver::new()
        };
        driver.set_cache_dir(self.cache_dir.clone());
        if self.naive {
            driver.options.solver = SolverConfig::naive().with_budget(50_000_000);
        }
        self.quota.apply(&mut driver);
        if let Some(id) = self.model {
            let Some(model) = lss_models::model(id) else {
                return Err((
                    Status::BadRequest,
                    format!("no such model `{id}` (expected A-F)"),
                ));
            };
            driver.add_source("cpu_lib.lss", lss_models::cpu_lib());
            driver.add_source(&format!("model_{id}.lss"), model.source);
        }
        for (name, text) in &self.libs {
            driver.add_library(name, text);
        }
        for (name, text) in &self.sources {
            driver.add_source(name, text);
        }
        for root in &self.roots {
            driver.add_root_file(root).map_err(|e| (Status::Error, e))?;
        }
        if self.model.is_none() && self.sources.is_empty() && self.roots.is_empty() {
            return Err((
                Status::BadRequest,
                "request needs `sources` or `model`".into(),
            ));
        }
        Ok(driver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_names_round_trip() {
        for status in Status::ALL {
            assert_eq!(Status::parse(status.name()), Some(status));
        }
        assert_eq!(Status::parse("fine"), None);
    }

    /// The status table in docs/SERVICE.md is the published contract:
    /// every row's wire name and first exit code must match [`Status`].
    #[test]
    fn exit_codes_match_the_service_doc() {
        let doc = include_str!("../../../docs/SERVICE.md");
        let mut rows = Vec::new();
        for line in doc.lines() {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let [_, name, _, exit, _] = cells[..] else {
                continue;
            };
            let Some(name) = name.strip_prefix('`').and_then(|n| n.strip_suffix('`')) else {
                continue;
            };
            let code: String = exit.chars().take_while(char::is_ascii_digit).collect();
            rows.push((name.to_string(), code.parse::<u8>().expect("exit code")));
        }
        let table: Vec<(String, u8)> = Status::ALL
            .iter()
            .map(|s| (s.name().to_string(), s.exit_code()))
            .collect();
        assert_eq!(rows, table, "docs/SERVICE.md status table");
    }

    #[test]
    fn budget_flags_parse_and_reject_bad_values() {
        let mut quota = Quota::default();
        let mut args = ["7".to_string(), "rest".to_string()].into_iter();
        assert_eq!(quota.parse_flag("--max-depth", &mut args), Ok(true));
        assert_eq!(quota.max_depth, Some(7));
        assert_eq!(quota.parse_flag("--lib", &mut args), Ok(false));
        assert_eq!(
            args.next().as_deref(),
            Some("rest"),
            "non-budget flag consumed"
        );
        let err = quota
            .parse_flag("--deadline-ms", &mut ["soon".to_string()].into_iter())
            .unwrap_err();
        assert!(
            err.contains("--deadline-ms") && err.contains("soon"),
            "{err}"
        );
        let err = quota
            .parse_flag("--max-cycles", &mut std::iter::empty())
            .unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn unknown_models_and_empty_specs_are_bad_requests() {
        let spec = Spec {
            model: Some('Z'),
            ..Spec::default()
        };
        let (status, message) = spec.driver().unwrap_err();
        assert_eq!(status, Status::BadRequest);
        assert!(message.contains("no such model"), "{message}");
        assert_eq!(Spec::default().driver().unwrap_err().0, Status::BadRequest);
    }
}
