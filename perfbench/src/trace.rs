//! The traced run's span recorder: each timed call into a workspace crate
//! becomes a span (name, start, end, parent) held in memory and written
//! out once the run is over. Spans opened on worker threads name their
//! parent explicitly.
//!
//! The estimator times its own select, fit and CI stages (and the
//! pipeline its spoof filter) through the workspace's
//! [`StageProfiler`]. [`stage_profiler`] drives that profiler with a
//! clock that also records each timed stage as a [`STAGE`] span, so the
//! stages of the real code path count towards the covered share of a
//! traced run without the benchmark re-implementing them.

use ghosts_obs::{Clock, StageProfiler, StageTable};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Name of the spans [`StageClock`] records: one per profiler stage.
pub const STAGE: &str = "profiler.stage";

/// One closed span. Times are microseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// `<layer>.<what>`, e.g. `core.select`.
    pub name: &'static str,
    /// Start, µs since origin.
    pub start_us: u64,
    /// End, µs since origin.
    pub end_us: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    /// Start of the profiler stage open on this thread, if any.
    static STAGE_OPEN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// µs since the origin.
    pub fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// The span open on this thread, to hand to worker closures.
    pub fn current() -> Option<u64> {
        CURRENT.with(Cell::get)
    }

    /// Times `f` as a child of the span open on this thread.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_in(Self::current(), name, f)
    }

    /// Times `f` as a child of `parent` (for closures on worker threads).
    pub fn span_in<T>(&self, parent: Option<u64>, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let saved = CURRENT.with(|c| c.replace(Some(id)));
        let start_us = self.now_us();
        let out = f();
        let end_us = self.now_us();
        CURRENT.with(|c| c.set(saved));
        self.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us,
        });
        out
    }

    /// Records an already closed span under the span open on this thread.
    fn record(&self, name: &'static str, start_us: u64, end_us: u64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: Self::current(),
            name,
            start_us,
            end_us,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }

    /// Every closed span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }
}

/// Summed duration per span name, in seconds. Spans that run concurrently
/// on worker threads add up, so a layer's figure is its worker time.
pub fn seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.seconds();
    }
    out
}

/// The clock [`stage_profiler`] hands the workspace's profiler: wall
/// microseconds on the tracer's time base. A `StageGuard` reads its clock
/// once when a stage is entered and once when it is dropped, on the same
/// thread, and the profiled stages never nest, so readings alternate
/// open/close per thread. Each close records the stage as a [`STAGE`]
/// span; [`check_stage_pairing`] proves the pairing against the
/// profiler's own table.
struct StageClock(Arc<Tracer>);

impl Clock for StageClock {
    fn now(&self) -> u64 {
        let now = self.0.now_us();
        match STAGE_OPEN.with(Cell::take) {
            None => STAGE_OPEN.with(|c| c.set(Some(now))),
            Some(start) => self.0.record(STAGE, start, now),
        }
        now
    }

    fn is_wall(&self) -> bool {
        true
    }
}

/// A wall-clock stage profiler whose stages also land in `tracer` as
/// [`STAGE`] spans.
pub fn stage_profiler(tracer: &Arc<Tracer>) -> StageProfiler {
    StageProfiler::enabled(Arc::new(StageClock(Arc::clone(tracer))))
}

/// Checks that the [`STAGE`] spans are exactly the profiler's stages: as
/// many spans as calls, and the same total microseconds.
///
/// # Errors
///
/// A message naming both counts and totals when they differ.
pub fn check_stage_pairing(spans: &[Span], table: &StageTable) -> Result<(), String> {
    let stage_spans: Vec<&Span> = spans.iter().filter(|s| s.name == STAGE).collect();
    let span_us: u64 = stage_spans.iter().map(|s| s.end_us - s.start_us).sum();
    let calls: u64 = table.rows.iter().map(|r| r.calls).sum();
    let table_us: u64 = table.rows.iter().map(|r| r.total_us).sum();
    if stage_spans.len() as u64 == calls && span_us == table_us {
        Ok(())
    } else {
        Err(format!(
            "{} stage spans over {span_us} us vs {calls} profiler calls over {table_us} us",
            stage_spans.len()
        ))
    }
}

/// Share of `[start_us, end_us]` that no layer span covers: the union of
/// every span, on any thread, except the benchmark's own `bench.*` spans
/// (which wrap whole experiments and would cover everything).
pub fn unattributed_frac(spans: &[Span], start_us: u64, end_us: u64) -> f64 {
    let mut covering: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !s.name.starts_with("bench."))
        .map(|s| (s.start_us.max(start_us), s.end_us.min(end_us)))
        .filter(|(a, b)| a < b)
        .collect();
    covering.sort_unstable();
    let mut covered = 0u64;
    let mut reach = start_us;
    for (a, b) in covering {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    let total = end_us.saturating_sub(start_us);
    if total == 0 {
        0.0
    } else {
        1.0 - covered as f64 / total as f64
    }
}

/// Tab-separated dump: `id parent name start_us end_us`, one span a line.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\tstart_us\tend_us\n");
    for s in spans {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            s.id,
            s.parent.map_or("-".to_string(), |p| p.to_string()),
            s.name,
            s.start_us,
            s.end_us
        ));
    }
    out
}
