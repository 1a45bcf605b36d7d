//! The per-layer metric set of the traced run. Every traced run reports
//! every metric below; a layer a workload does not exercise reads 0.

use crate::account::{Outcome, Tally};
use crate::trace::{check_stage_pairing, seconds_by_name, unattributed_frac, Span, Tracer};
use crate::Metric;
use ghosts_obs::json::JsonValue;
use ghosts_obs::{EventLog, FieldValue, StageTable};
use std::collections::BTreeMap;

/// `(metric, unit)` in the order of `BENCHMARK.json`'s `per_layer`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.window_s", "s"),
    ("sim.addresses", "count"),
    ("pipeline.spoof_filter_s", "s"),
    ("pipeline.spoof_removed", "count"),
    ("pipeline.subnet_sets_s", "s"),
    ("addrplane.table_build_s", "s"),
    ("addrplane.words_computed", "count"),
    ("addrplane.strata_build_s", "s"),
    ("bench.strata_info_s", "s"),
    ("core.select_s", "s"),
    ("core.candidate_fits", "count"),
    ("core.select_rounds", "count"),
    ("core.fit_s", "s"),
    ("core.ci_s", "s"),
    ("core.strata_estimated", "count"),
    ("stats.irls_iterations", "count"),
    ("stats.iterations_per_fit", "count"),
    ("serve.cold_backend_ms", "ms"),
    ("serve.request_parse_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.ingest_apply_us", "us"),
    ("durable.wal_append_us", "us"),
    ("durable.wal_bytes", "bytes"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoints", "count"),
    ("cold_estimate_p50_ms", "ms"),
    ("cold_estimate_p90_ms", "ms"),
    ("cached_estimate_p50_ms", "ms"),
    ("cached_estimate_p99_ms", "ms"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p99_ms", "ms"),
    ("live_estimate_p50_ms", "ms"),
    ("serve.cold_samples", "count"),
    ("serve.cached_samples", "count"),
    ("serve.ingest_samples", "count"),
    ("serve.live_samples", "count"),
    ("error_rate", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// Span names whose summed durations become `<name>_s` metrics.
pub const TIMED_LAYERS: &[&str] = &[
    "sim.window",
    "pipeline.subnet_sets",
    "addrplane.table_build",
    "addrplane.strata_build",
    "bench.strata_info",
];

/// Stages the workspace's own profiler times on the real code path, and
/// the metric each one's total becomes.
pub const PROFILED_STAGES: &[(&str, &str)] = &[
    ("parse/spoof_filter", "pipeline.spoof_filter_s"),
    ("estimate/select", "core.select_s"),
    ("estimate/fit", "core.fit_s"),
    ("estimate/ci", "core.ci_s"),
];

/// Collected per-layer values, keyed by metric name.
#[derive(Debug, Default)]
pub struct LayerValues(pub BTreeMap<&'static str, f64>);

impl LayerValues {
    /// Sets one metric. Unknown names are a programming error.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Adds to one metric.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.0.get(name).copied().unwrap_or(0.0);
        self.set(name, v + value);
    }

    /// Sets the `<layer>_s` metrics from span durations.
    pub fn set_span_seconds(&mut self, spans: &[Span]) {
        let by_name = seconds_by_name(spans);
        for (metric, _) in PER_LAYER {
            if let Some(span) = metric.strip_suffix("_s") {
                if TIMED_LAYERS.contains(&span) {
                    if let Some(s) = by_name.get(span) {
                        self.set(metric, *s);
                    }
                }
            }
        }
    }

    /// Sets the profiled-stage metrics from the profiler's table (wall
    /// microseconds; summed over worker threads).
    pub fn set_stage_seconds(&mut self, table: &StageTable) {
        for row in &table.rows {
            if let Some((_, metric)) = PROFILED_STAGES.iter().find(|(p, _)| *p == row.path) {
                self.add(metric, row.total_us as f64 / 1e6);
            }
        }
    }

    /// Sets the selection and IRLS work counts from the recorder's
    /// `select.*` counters and `*.glm_iterations` histograms.
    pub fn set_work_counts(&mut self, log: &EventLog) {
        let counter = |n: &str| log.counters.get(n).copied().unwrap_or(0) as f64;
        self.set("core.candidate_fits", counter("select.models_evaluated"));
        self.set("core.select_rounds", counter("select.rounds"));
        let (mut iterations, mut fits) = (0u64, 0u64);
        for name in ["select.glm_iterations", "fit.glm_iterations"] {
            if let Some(h) = log.hists.get(name) {
                iterations += h.sum;
                fits += h.count;
            }
        }
        self.set("stats.irls_iterations", iterations as f64);
        if fits > 0 {
            self.set("stats.iterations_per_fit", iterations as f64 / fits as f64);
        }
        let strata = log
            .spans
            .iter()
            .filter(|(path, _)| path.render().contains("stratum["))
            .flat_map(|(_, events)| events)
            .filter(|e| e.name == "estimate")
            .count();
        self.set("core.strata_estimated", strata as f64);
    }

    /// Every per-layer metric, 0 where this workload set none.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| Metric::new(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The timed layers ranked by seconds, largest first (for the notes'
    /// held-out-seed check).
    pub fn ranking(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = PER_LAYER
            .iter()
            .filter(|(n, u)| *u == "s" && self.0.get(n).copied().unwrap_or(0.0) > 0.0)
            .map(|(n, _)| (*n, self.0[n]))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

/// What a traced operation leaves behind for [`finish_traced`].
pub struct TracedOp<'a> {
    /// The span recorder (benchmark spans and profiler stages).
    pub tracer: &'a Tracer,
    /// The stage profiler's table after the operation.
    pub stages: StageTable,
    /// The recorder's flushed event log.
    pub log: &'a EventLog,
    /// Tracer time at the operation's start and end, in µs.
    pub window_us: (u64, u64),
    /// Median wall seconds of the same operation untraced.
    pub untraced_wall: f64,
}

/// Shared tail of a traced run: span- and profiler-derived metrics,
/// overhead, unattributed share, the span dump and the ranking on stderr.
/// A profiler whose stages did not pair up into spans is a failed check.
pub fn finish_traced(
    workload: &str,
    seed: u64,
    op: &TracedOp<'_>,
    mut vals: LayerValues,
    tally: &mut Tally,
) -> Vec<Metric> {
    let spans = op.tracer.spans();
    record_stage_pairing(workload, &spans, &op.stages, tally);
    vals.set_span_seconds(&spans);
    vals.set_stage_seconds(&op.stages);
    vals.set_work_counts(op.log);
    let (t0, t1) = op.window_us;
    let traced_wall = (t1 - t0) as f64 / 1e6;
    vals.set(
        "obs.trace_overhead_frac",
        traced_wall / op.untraced_wall - 1.0,
    );
    vals.set("bench.unattributed_frac", unattributed_frac(&spans, t0, t1));
    vals.set("error_rate", tally.error_rate());
    dump_spans(workload, seed, &spans);
    eprintln!(
        "{workload}: traced wall {traced_wall:.3}s vs untraced {:.3}s; layer ranking (scenario seed {seed}):",
        op.untraced_wall
    );
    for (name, s) in vals.ranking() {
        eprintln!("  {name:<28} {s:>9.3}");
    }
    vals.metrics()
}

/// Records, as one checked operation, whether the profiler's stages
/// paired up into spans (see [`check_stage_pairing`]).
pub fn record_stage_pairing(
    workload: &str,
    spans: &[Span],
    stages: &StageTable,
    tally: &mut Tally,
) {
    let outcome = match check_stage_pairing(spans, stages) {
        Ok(()) => Outcome::Ok,
        Err(e) => Outcome::Error(format!("stage spans: {e}")),
    };
    tally.record(&format!("{workload} stage spans"), &outcome);
}

/// Writes the spans to `perfbench/.work/spans-<workload>-<seed>.tsv`.
pub fn dump_spans(workload: &str, seed: u64, spans: &[Span]) {
    let dump = crate::work_dir().join(format!("spans-{workload}-{seed}.tsv"));
    if let Err(e) = std::fs::create_dir_all(crate::work_dir())
        .and_then(|()| ghosts_durable::atomic_write(&dump, crate::trace::to_tsv(spans).as_bytes()))
    {
        eprintln!("{workload}: could not write {}: {e}", dump.display());
    }
}

/// Every model the estimator chose, from its `estimate` events, keyed by
/// the recorder's span path (`estimate/stratum[3]`, `addr/window[0]`, …)
/// in program order. A degraded estimate is an error.
///
/// # Errors
///
/// The span path and rung of the first degraded estimate.
pub fn models_from_log(log: &EventLog) -> Result<JsonValue, String> {
    let mut out = Vec::new();
    for (path, events) in &log.spans {
        let mut models = Vec::new();
        for e in events.iter().filter(|e| e.name == "estimate") {
            let field = |k: &str| e.fields.iter().find(|(n, _)| n == k).map(|(_, v)| v);
            if let Some(FieldValue::Str(rung)) = field("degraded") {
                return Err(format!("{path} degraded to {rung}"));
            }
            if let Some(FieldValue::Str(m)) = field("model") {
                models.push(JsonValue::Str(m.clone()));
            }
        }
        if !models.is_empty() {
            out.push((path.render(), JsonValue::Array(models)));
        }
    }
    Ok(JsonValue::Object(out))
}
