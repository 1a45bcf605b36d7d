//! `strata`: the `repro table5` path at 1/16384 scale — one window, seven
//! stratifications at two granularities, each stratum its own stepwise
//! selection, plus the unstratified profile ranges.

use crate::account::{Outcome, Tally};
use crate::census;
use crate::check::{against, from_serde};
use crate::layers::{finish_traced, models_from_log, LayerValues, TracedOp};
use crate::trace::{stage_profiler, Tracer};
use crate::{timed, Metric, OpTiming, RunOpts, RunReport, THREADS};
use ghosts_bench::strata::{build, Strat};
use ghosts_bench::{experiments, ReproContext};
use ghosts_core::{ContingencyTable, Parallelism};
use ghosts_net::SubnetSet;
use ghosts_obs::json::JsonValue;
use ghosts_obs::{LogicalClock, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Scale denominator.
pub const DENOM: u64 = 16_384;

/// Table 5's stratifications, in its column order.
pub const STRATS: [Strat; 7] = [
    Strat::None,
    Strat::Rir,
    Strat::Country,
    Strat::AllocAge,
    Strat::PrefixSize,
    Strat::Industry,
    Strat::StaticDynamic,
];

fn context(scenario_seed: u64) -> ReproContext {
    let mut ctx = ReproContext::new(DENOM, scenario_seed);
    ctx.parallelism = Parallelism::Fixed(THREADS);
    ctx
}

/// One end-to-end operation: `table5` through
/// `ghosts_bench::experiments::run`, as `repro table5` runs it.
fn e2e(ctx: &ReproContext) -> Result<JsonValue, Outcome> {
    catch_unwind(AssertUnwindSafe(|| experiments::run("table5", ctx)))
        .map(|(_, json)| from_serde(&json))
        .map_err(|p| Outcome::Error(format!("table5: {}", crate::panic_text(&*p))))
}

/// One traced operation: the last window generated and spoof-filtered
/// through `ReproContext` as `sim.window` and `pipeline.filtered_window`
/// spans, then `table5` on the warm context as one `bench.experiments`
/// span. Inside it the estimator's own select, fit and CI stages are
/// timed by the context's profiler on whichever worker runs them.
fn traced_op(ctx: &ReproContext, tr: &Tracer) -> Result<JsonValue, Outcome> {
    let last = ctx.windows.len() - 1;
    tr.span("sim.window", || ctx.raw_window(last));
    tr.span("pipeline.filtered_window", || ctx.filtered_window(last));
    tr.span("bench.experiments", || e2e(ctx))
}

/// Times, outside the traced operation, the table-building calls
/// `table5` makes on the context's cached last window: the unstratified
/// tables, and per stratification `ghosts_bench::strata::build` and both
/// stratified builders.
fn probe_tables(ctx: &ReproContext, tr: &Tracer, vals: &mut LayerValues) {
    let last = ctx.windows.len() - 1;
    census::probe_tables(ctx, tr, vals, last);
    let data = ctx.filtered_window(last);
    let sets = data.addr_sets();
    let subnet_sets: Vec<SubnetSet> = data.sources.iter().map(|d| d.subnets()).collect();
    let refs: Vec<&SubnetSet> = subnet_sets.iter().collect();
    for strat in STRATS {
        let info = tr.span("bench.strata_info", || build(ctx, strat));
        let n = info.labels.len();
        vals.add("addrplane.words_computed", census::addr_words(&sets) as f64);
        tr.span("addrplane.strata_build", || {
            ContingencyTable::stratified_from_addr_sets(&sets, n, |a| (info.key)(a))
        });
        vals.add(
            "addrplane.words_computed",
            census::subnet_words(&subnet_sets) as f64,
        );
        tr.span("addrplane.strata_build", || {
            ContingencyTable::stratified_from_subnet_sets(&refs, n, |b| (info.key)(b))
        });
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> RunReport {
    let seed = opts.scenario_seed;
    let reference = match crate::reference_for("strata", opts) {
        Ok(r) => r,
        Err(report) => return report,
    };
    let mut tally = Tally::default();
    let mut ops: Vec<OpTiming> = Vec::new();
    let mut captured = None;
    let start = Instant::now();
    loop {
        let ctx = context(seed);
        let (out, op) = timed(|| e2e(&ctx));
        ops.push(op);
        let outcome = match (&out, &reference) {
            (Err(o), _) => o.clone(),
            (Ok(doc), Some(r)) => against(r.get("table5").unwrap_or(&JsonValue::Null), doc),
            (Ok(doc), None) => {
                captured = Some(doc.clone());
                Outcome::Ok
            }
        };
        tally.record("strata op", &outcome);
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

    let metrics = if opts.trace || opts.capture {
        let untraced = crate::measure::median(&ops.iter().map(|o| o.wall_s).collect::<Vec<_>>());
        let (metrics, traced_out) = traced_run(seed, untraced, &mut tally);
        let outcome = match (&traced_out, &reference, &captured) {
            (Err(o), _, _) => o.clone(),
            (Ok(doc), Some(r), _) => against(r, doc),
            (Ok(doc), None, Some(table5)) => {
                // Capture: the traced run must reproduce the untraced
                // `table5` before its models become part of the reference.
                let d = against(table5, doc.get("table5").unwrap_or(&JsonValue::Null));
                match crate::store_reference("strata", seed, doc) {
                    Err(e) => Outcome::Error(format!("capture: {e}")),
                    Ok(()) => d,
                }
            }
            (Ok(_), None, None) => Outcome::Error("capture without an e2e output".to_string()),
        };
        tally.record("strata traced op", &outcome);
        if opts.trace {
            metrics
        } else {
            crate::e2e_metrics(&setups, &ops, crate::measure::peak_rss_mb())
        }
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
/// stage profiler on, then the table probes. Returns the per-layer
/// metrics and the output document `{"table5": …, "models": …}`, the
/// models read from the estimator's `estimate` events.
fn traced_run(
    seed: u64,
    untraced_wall: f64,
    tally: &mut Tally,
) -> (Vec<Metric>, Result<JsonValue, Outcome>) {
    let tr = Arc::new(Tracer::new());
    let mut ctx = context(seed);
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    ctx.recorder = rec.clone();
    ctx.profiler = stage_profiler(&tr);
    let t0 = tr.now_us();
    let out = traced_op(&ctx, &tr);
    let t1 = tr.now_us();
    let mut vals = LayerValues::default();
    probe_tables(&ctx, &tr, &mut vals);
    let log = rec.flush();
    let out = out.and_then(|table5| {
        let models = models_from_log(&log).map_err(|_| Outcome::Degraded)?;
        Ok(JsonValue::Object(vec![
            ("table5".to_string(), table5),
            ("models".to_string(), models),
        ]))
    });
    let op = TracedOp {
        tracer: &tr,
        stages: ctx.profiler.table(),
        log: &log,
        window_us: (t0, t1),
        untraced_wall,
    };
    (finish_traced("strata", seed, &op, vals, tally), out)
}
