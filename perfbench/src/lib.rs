//! # perfbench
//!
//! The repo benchmark. Three workloads drive the workspace crates through
//! their public APIs:
//!
//! * `census` — the `repro fig4 fig5` path at 1/1024 scale;
//! * `strata` — the `repro table5` path at 1/16384 scale;
//! * `serve-mix` — an in-process `ghosts-serve` over the repro backend
//!   with the durable ingest plane, driven by two closed-loop clients.
//!
//! Untraced runs (`--trace 0`) time whole operations on the same code
//! path the binaries use. Traced runs (`--trace 1`) run one more
//! operation on that path with the recorder and the workspace's stage
//! profiler on, time the benchmark's own calls into each crate as spans,
//! and report per-layer figures. See `perfbench/README.md`.

#![forbid(unsafe_code)]
// Reading the wall clock is this crate's job; the workspace bans it only
// to keep estimation paths bit-reproducible.
#![allow(clippy::disallowed_methods)]

pub mod account;
pub mod census;
pub mod check;
pub mod layers;
pub mod measure;
pub mod serve_mix;
pub mod strata;
pub mod trace;

use account::Tally;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads every workload may use: the benchmark box has two cores.
pub const THREADS: usize = 2;

/// The scenario every run uses unless `--scenario-seed` says otherwise:
/// `repro`'s default seed. One fixed scenario keeps the seeds' spread down
/// to the host's noise; `strata` alone costs up to 20 % more on the
/// held-out scenario.
pub const DEFAULT_SCENARIO: u64 = 2014;

/// The held-out scenario a claimed gain is re-checked on: the first seed
/// after 2014 whose routed space has the same size (3,321,600 addresses in
/// 12,975 /24s at 1/1024). It has a committed reference too.
pub const HELD_OUT_SCENARIO: u64 = 2021;

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The `--seed` argument: drives the serve-mix request schedule.
    pub seed: u64,
    /// The simulated Internet every workload runs on (`--scenario-seed`).
    pub scenario_seed: u64,
    /// Measurement budget in seconds: operations repeat while another one
    /// is expected to fit.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Write the reference output for this scenario instead of checking
    /// against it.
    pub capture: bool,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Every check passed.
    pub correct: bool,
    /// Attempted / failed operations.
    pub tally: Tally,
    /// The metrics, end-to-end or per-layer depending on the run.
    pub metrics: Vec<Metric>,
}

/// Timings of one end-to-end operation.
#[derive(Debug, Clone, Copy)]
pub struct OpTiming {
    /// Wall seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the whole process over the operation.
    pub cpu_s: f64,
}

/// Runs `f`, returning its result with wall and CPU seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, OpTiming) {
    let cpu0 = measure::cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = measure::cpu_s() - cpu0;
    (out, OpTiming { wall_s, cpu_s })
}

/// Set-up samples of an untraced `census` or `strata` run; `setup_s` is
/// their median.
pub const SETUP_SAMPLES: usize = 15;

/// Constructions timed together as one set-up sample. A `ReproContext`
/// generates its windows lazily, so constructing one takes 0.2 to 2 ms:
/// timed one at a time, the readings spread by 30 to 45 % within a set of
/// runs on the benchmark box.
pub const SETUP_BATCH: usize = 20;

/// [`SETUP_SAMPLES`] set-up samples, each the mean seconds of one
/// construction (and drop) of `make()` over [`SETUP_BATCH`] of them.
pub fn setup_samples<T>(make: impl Fn() -> T) -> Vec<f64> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..SETUP_BATCH {
                drop(make());
            }
            t0.elapsed().as_secs_f64() / SETUP_BATCH as f64
        })
        .collect()
}

/// Whether another operation of `last_s` seconds still fits in the budget.
pub fn another_fits(start: Instant, seconds: f64, last_s: f64) -> bool {
    start.elapsed().as_secs_f64() + last_s <= seconds
}

/// The end-to-end metrics every workload reports.
pub fn e2e_metrics(setups: &[f64], ops: &[OpTiming], peak_rss_mb: f64) -> Vec<Metric> {
    let walls: Vec<f64> = ops.iter().map(|o| o.wall_s).collect();
    let cpus: Vec<f64> = ops.iter().map(|o| o.cpu_s).collect();
    vec![
        Metric::new("setup_s", measure::median(setups), "s"),
        Metric::new("wall_s", measure::median(&walls), "s"),
        Metric::new("cpu_s", measure::median(&cpus), "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// The benchmark package directory (holds `reference/`).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch directory for span dumps and the serve-mix state directory;
/// ignored by git, inside the checkout.
pub fn work_dir() -> PathBuf {
    package_dir().join(".work")
}

/// Path of the committed reference for a workload and scenario.
pub fn reference_path(workload: &str, scenario_seed: u64) -> PathBuf {
    package_dir()
        .join("reference")
        .join(format!("{workload}-{scenario_seed}.json"))
}

/// Reads the committed reference for a workload and seed.
///
/// # Errors
///
/// A message when the file is missing or does not parse.
pub fn load_reference(
    workload: &str,
    scenario_seed: u64,
) -> Result<ghosts_obs::json::JsonValue, String> {
    let path = reference_path(workload, scenario_seed);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    ghosts_obs::json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// The reference a run checks against: `None` when capturing one, a
/// failed report when it cannot be read.
///
/// # Errors
///
/// The report to return as the run's result.
pub fn reference_for(
    workload: &str,
    opts: &RunOpts,
) -> Result<Option<ghosts_obs::json::JsonValue>, RunReport> {
    if opts.capture {
        return Ok(None);
    }
    load_reference(workload, opts.scenario_seed)
        .map(Some)
        .map_err(|e| {
            eprintln!("{workload}: {e}");
            let mut tally = Tally::default();
            tally.record("reference", &account::Outcome::Error(e));
            RunReport {
                correct: false,
                tally,
                metrics: Vec::new(),
            }
        })
}

/// Writes a reference (capture mode).
///
/// # Errors
///
/// Propagates the write error.
pub fn store_reference(
    workload: &str,
    scenario_seed: u64,
    value: &ghosts_obs::json::JsonValue,
) -> std::io::Result<()> {
    let path = reference_path(workload, scenario_seed);
    let mut text = value.to_compact();
    text.push('\n');
    ghosts_durable::atomic_write(&path, text.as_bytes())
}

/// Best-effort message of a caught panic.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "panic with a non-string payload".to_string()
    }
}
