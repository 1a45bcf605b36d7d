//! `census`: the `repro fig4 fig5` path at 1/1024 scale — eleven windows
//! generated, spoof-filtered and tabulated at address and /24
//! granularity, one stepwise selection per table.

use crate::account::{Outcome, Tally};
use crate::check::{against, from_serde};
use crate::layers::{finish_traced, LayerValues, TracedOp};
use crate::trace::{stage_profiler, Tracer};
use crate::{timed, Metric, OpTiming, RunOpts, RunReport, THREADS};
use ghosts_bench::experiments;
use ghosts_bench::ReproContext;
use ghosts_core::{ContingencyTable, Parallelism};
use ghosts_net::SubnetSet;
use ghosts_obs::json::JsonValue;
use ghosts_obs::{LogicalClock, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Scale denominator.
pub const DENOM: u64 = 1024;

/// The experiments this workload runs, in `repro`'s order.
pub const IDS: [&str; 2] = ["fig4", "fig5"];

fn context(scenario_seed: u64) -> ReproContext {
    let mut ctx = ReproContext::new(DENOM, scenario_seed);
    ctx.parallelism = Parallelism::Fixed(THREADS);
    ctx
}

/// Per-window selected models, from the context's cached estimates
/// (free once the experiments have run). Degraded estimates are an error.
fn models(ctx: &ReproContext) -> Result<JsonValue, String> {
    let mut subnet = Vec::new();
    let mut addr = Vec::new();
    for i in 0..ctx.windows.len() {
        for (est, out) in [
            (ctx.subnet_estimate(i), &mut subnet),
            (ctx.addr_estimate(i), &mut addr),
        ] {
            if let Some(d) = &est.degraded {
                return Err(format!("window {i} degraded: {d:?}"));
            }
            out.push(JsonValue::Str(est.model.clone()));
        }
    }
    Ok(JsonValue::Object(vec![
        ("subnet".to_string(), JsonValue::Array(subnet)),
        ("addr".to_string(), JsonValue::Array(addr)),
    ]))
}

/// One end-to-end operation: both experiments through
/// `ghosts_bench::experiments::run`, exactly as `repro` calls them (minus
/// writing `results/`), with tracing off. Returns the output document
/// `{"fig4": …, "fig5": …, "models": …}` or the failure.
fn e2e(ctx: &ReproContext) -> Result<JsonValue, Outcome> {
    let mut doc = Vec::new();
    for id in IDS {
        let (_, json) = catch_unwind(AssertUnwindSafe(|| experiments::run(id, ctx)))
            .map_err(|p| Outcome::Error(format!("{id}: {}", crate::panic_text(&*p))))?;
        doc.push((id.to_string(), from_serde(&json)));
    }
    doc.push((
        "models".to_string(),
        models(ctx).map_err(|_| Outcome::Degraded)?,
    ));
    Ok(JsonValue::Object(doc))
}

/// One traced operation: every window generated and spoof-filtered
/// through `ReproContext` as `sim.window` and `pipeline.filtered_window`
/// spans, then both experiments on the warm context as one
/// `bench.experiments` span. Inside it the estimator's own select and fit
/// stages are timed by the context's profiler; table builds, truth counts
/// and rendering stay unattributed.
fn traced_op(ctx: &ReproContext, tr: &Tracer) -> Result<JsonValue, Outcome> {
    for i in 0..ctx.windows.len() {
        tr.span("sim.window", || ctx.raw_window(i));
        tr.span("pipeline.filtered_window", || ctx.filtered_window(i));
    }
    tr.span("bench.experiments", || e2e(ctx))
}

/// Times, outside the traced operation, the table-building calls the
/// estimation path makes for window `i`, on the context's cached window:
/// `SourceDataset::subnets` and both `ContingencyTable` builders. Also
/// counts what `sim` generated and what the spoof filter removed.
pub fn probe_tables(ctx: &ReproContext, tr: &Tracer, vals: &mut LayerValues, i: usize) {
    let raw = ctx.raw_window(i);
    let data = ctx.filtered_window(i);
    for (r, f) in raw.sources.iter().zip(&data.sources) {
        vals.add("sim.addresses", r.addrs.len() as f64);
        vals.add(
            "pipeline.spoof_removed",
            (r.addrs.len() - f.addrs.len()) as f64,
        );
    }
    let subnet_sets: Vec<SubnetSet> = tr.span("pipeline.subnet_sets", || {
        data.sources.iter().map(|d| d.subnets()).collect()
    });
    vals.add(
        "addrplane.words_computed",
        subnet_words(&subnet_sets) as f64,
    );
    let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    tr.span("addrplane.table_build", || {
        ContingencyTable::from_subnet_sets(&refs)
    });
    let sets = data.addr_sets();
    vals.add("addrplane.words_computed", addr_words(&sets) as f64);
    tr.span("addrplane.table_build", || {
        ContingencyTable::from_addr_sets(&sets)
    });
}

/// Non-zero 64-bit words across the address planes a table is built from.
pub fn addr_words(sets: &[&ghosts_net::AddrSet]) -> u64 {
    let mut words = 0u64;
    for s in sets {
        s.plane().for_each_word(|_, _| words += 1);
    }
    words
}

/// Non-zero 64-bit words across /24 bitmaps (one bit per /24).
pub fn subnet_words(sets: &[SubnetSet]) -> u64 {
    sets.iter()
        .map(|s| {
            let mut last = None;
            let mut words = 0u64;
            for sub in s.iter() {
                if last != Some(sub >> 6) {
                    words += 1;
                    last = Some(sub >> 6);
                }
            }
            words
        })
        .sum()
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> RunReport {
    let seed = opts.scenario_seed;
    let reference = match crate::reference_for("census", opts) {
        Ok(r) => r,
        Err(report) => return report,
    };
    let mut tally = Tally::default();
    let mut ops: Vec<OpTiming> = Vec::new();
    let start = Instant::now();
    loop {
        let ctx = context(seed);
        let (out, op) = timed(|| e2e(&ctx));
        ops.push(op);
        let outcome = match (&out, &reference) {
            (Err(o), _) => o.clone(),
            (Ok(doc), Some(r)) => against(r, doc),
            (Ok(doc), None) => {
                if let Err(e) = crate::store_reference("census", seed, doc) {
                    Outcome::Error(format!("capture: {e}"))
                } else {
                    Outcome::Ok
                }
            }
        };
        tally.record("census op", &outcome);
        drop(ctx);
        if opts.capture || opts.trace || !crate::another_fits(start, opts.seconds, op.wall_s) {
            break;
        }
    }
    let setups = if opts.trace {
        Vec::new()
    } else {
        crate::setup_samples(|| context(seed))
    };

    let metrics = if opts.trace {
        let untraced = crate::measure::median(&ops.iter().map(|o| o.wall_s).collect::<Vec<_>>());
        traced_run(seed, reference.as_ref(), untraced, &mut tally)
    } else {
        crate::e2e_metrics(&setups, &ops, crate::measure::peak_rss_mb())
    };
    RunReport {
        correct: tally.failed == 0,
        tally,
        metrics,
    }
}

/// One traced operation on a fresh context with the recorder and the
/// stage profiler on, checked against the reference like an untraced
/// one; then the table probes; per-layer metrics.
fn traced_run(
    seed: u64,
    reference: Option<&JsonValue>,
    untraced_wall: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let tr = Arc::new(Tracer::new());
    let mut ctx = context(seed);
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    ctx.recorder = rec.clone();
    ctx.profiler = stage_profiler(&tr);
    let t0 = tr.now_us();
    let out = traced_op(&ctx, &tr);
    let t1 = tr.now_us();
    let outcome = match (&out, reference) {
        (Err(o), _) => o.clone(),
        (Ok(doc), Some(r)) => against(r, doc),
        (Ok(_), None) => Outcome::Ok,
    };
    tally.record("census traced op", &outcome);
    let mut vals = LayerValues::default();
    for i in 0..ctx.windows.len() {
        probe_tables(&ctx, &tr, &mut vals, i);
    }
    let log = rec.flush();
    let op = TracedOp {
        tracer: &tr,
        stages: ctx.profiler.table(),
        log: &log,
        window_us: (t0, t1),
        untraced_wall,
    };
    finish_traced("census", seed, &op, vals, tally)
}
