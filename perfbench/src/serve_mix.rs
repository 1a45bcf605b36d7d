//! `serve-mix`: an in-process `ghosts-serve` over the repro backend at
//! 1/16384 with the durable ingest plane on, driven by two closed-loop
//! clients through a seeded schedule of four request kinds:
//!
//! * cold `POST /v1/estimate` — a unique `limit` per request, so every one
//!   misses the cache; rotates over windows and `addr`/`subnet`;
//! * cached re-posts of a cold body the same client already got back;
//! * `POST /v1/observations` batches with unique idempotency keys over a
//!   few source names;
//! * `GET /v1/observations/estimate`.
//!
//! Checks: every cold body equals the in-process estimate of the same
//! request; every cached body is byte-equal to its cold original; the
//! final `/v1/observations/stats` digest equals an in-process
//! `IngestStore` fold of the acked batches.

use crate::account::{Outcome, Tally};
use crate::layers::LayerValues;
use crate::measure::{median, percentile};
use crate::trace::{stage_profiler, unattributed_frac, Tracer};
use crate::{timed, OpTiming, RunOpts, RunReport, THREADS};
use ghosts_bench::ReproBackend;
use ghosts_core::{estimate_table, par_map, Parallelism};
use ghosts_durable::DurableLog;
use ghosts_obs::json::parse as parse_json;
use ghosts_obs::{LogicalClock, Recorder, StageProfiler};
use ghosts_serve::client::request_with_headers;
use ghosts_serve::digest::digest_hex;
use ghosts_serve::server::estimate_json;
use ghosts_serve::{
    Backend, EstimateRequest, IngestStore, MetricsHub, ObservationBatch, Server, ServerConfig,
    ServerHandle,
};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Scale denominator.
pub const DENOM: u64 = 16_384;

/// Closed-loop clients (one per core).
pub const CLIENTS: usize = 2;

/// Per-client request counts of one schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Cold estimates.
    pub cold: usize,
    /// Cached re-posts.
    pub cached: usize,
    /// Observation batches.
    pub ingest: usize,
    /// Live estimates over the ingested observations.
    pub live: usize,
}

/// The schedule of an untraced run. The two clients' cold requests cover
/// every (window, target) pair once between them. No production trace of
/// this server exists, so the other counts are an assumption, not a
/// measurement: they are sized so that each request class carries a
/// visible share of the clients' time on the benchmark box. See
/// `perfbench/README.md` for the measured shares.
pub const MIX: Mix = Mix {
    cold: 11,
    cached: 5000,
    ingest: 2500,
    live: 500,
};

/// The traced run's schedule: [`MIX`] with enough cold requests that the
/// cold p90 has at least [`crate::measure::MIN_BEYOND`] samples beyond it
/// over both clients (100 cold; p99 of 10,000 cached and 5000 ingest,
/// p50 of 1000 live).
pub const TRACE_MIX: Mix = Mix { cold: 50, ..MIX };

/// Source names observation batches rotate over.
const SOURCES: [&str; 4] = ["probe-a", "probe-b", "probe-c", "probe-d"];

/// Addresses per observation batch.
const BATCH_ADDRS: usize = 40;

/// Distinct addresses the batches draw from (a /19 worth), so sources
/// overlap and the live estimate has recaptures to work with.
const POOL: u32 = 8192;

/// First address of the pool (100.64.0.0, shared address space).
const POOL_BASE: u32 = 0x6440_0000;

/// Set-ups timed per untraced run (`setup_s` is their median): one per
/// round of the schedule, the rest on their own. A set-up takes seconds,
/// so there are few.
const SETUPS: usize = 3;

/// Checkpoint cadence of the ingest plane (the server default).
const CHECKPOINT_EVERY: u64 = 32;

/// SplitMix64: the schedule's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// A cold estimate; `body` is unique across the schedule.
    Cold {
        /// Request body.
        body: String,
    },
    /// A re-post of this client's `nth` cold request.
    Cached {
        /// Index into the client's cold requests.
        nth: usize,
    },
    /// An observation batch.
    Ingest {
        /// Request body (carries the idempotency key).
        body: String,
    },
    /// `GET /v1/observations/estimate`.
    Live,
}

/// Builds each client's request sequence for `seed`. Routed counts give
/// the cold requests' `limit`s (one above the routed space plus a unique
/// offset, so no two bodies share a cache digest).
pub fn schedule(seed: u64, mix: Mix, windows: usize, routed: (u64, u64)) -> Vec<Vec<Req>> {
    let mut rng = Rng(seed ^ 0x5e12_7e0d);
    let start = rng.below(windows);
    (0..CLIENTS)
        .map(|c| {
            let mut kinds = Vec::new();
            kinds.extend(std::iter::repeat_n(0u8, mix.cold));
            kinds.extend(std::iter::repeat_n(1u8, mix.cached));
            kinds.extend(std::iter::repeat_n(2u8, mix.ingest.saturating_sub(SOURCES.len())));
            kinds.extend(std::iter::repeat_n(3u8, mix.live));
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, rng.below(i + 1));
            }
            // A re-post needs a cold answer to repeat: move the first cold
            // request ahead of every re-post.
            if let Some(first_cold) = kinds.iter().position(|k| *k == 0) {
                let k = kinds.remove(first_cold);
                kinds.insert(0, k);
            }
            // Every source gets a batch before any live estimate runs.
            let mut reqs: Vec<Req> = Vec::new();
            let mut batch = 0usize;
            let mut ingest = |rng: &mut Rng, reqs: &mut Vec<Req>| {
                let source = SOURCES[batch % SOURCES.len()];
                let addrs: Vec<String> = (0..BATCH_ADDRS)
                    .map(|_| ghosts_net::addr_to_string(POOL_BASE + rng.below(POOL as usize) as u32))
                    .map(|a| format!("\"{a}\""))
                    .collect();
                reqs.push(Req::Ingest {
                    body: format!(
                        "{{\"key\":\"s{seed}-c{c}-b{batch}\",\"source\":\"{source}\",\"addrs\":[{}]}}",
                        addrs.join(",")
                    ),
                });
                batch += 1;
            };
            for _ in 0..SOURCES.len().min(mix.ingest) {
                ingest(&mut rng, &mut reqs);
            }
            let mut colds = 0usize;
            for k in kinds {
                match k {
                    0 => {
                        // Client 0 owns the `addr` cells of even windows and
                        // the `subnet` cells of odd ones, client 1 the rest,
                        // so the split of cheap and costly cells between
                        // the clients is the same for every seed; the seed
                        // only rotates where each client starts.
                        let window = (start + colds) % windows;
                        let subnet = (window + c) % 2 == 1;
                        let (target, routed) = if subnet {
                            ("subnet", routed.1)
                        } else {
                            ("addr", routed.0)
                        };
                        let limit = routed + 1 + (colds * CLIENTS + c) as u64;
                        reqs.push(Req::Cold {
                            body: format!(
                                "{{\"window\":{window},\"target\":\"{target}\",\"limit\":{limit}}}"
                            ),
                        });
                        colds += 1;
                    }
                    1 => reqs.push(Req::Cached {
                        nth: rng.below(colds.max(1)),
                    }),
                    2 => ingest(&mut rng, &mut reqs),
                    _ => reqs.push(Req::Live),
                }
            }
            reqs
        })
        .collect()
}

/// Kind of a completed exchange (for latency buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cold estimate.
    Cold,
    /// Cached re-post.
    Cached,
    /// Observation batch.
    Ingest,
    /// Live estimate.
    Live,
}

/// One request as it went over the wire.
#[derive(Debug, Clone)]
struct Exchange {
    kind: Kind,
    /// Body sent (for cached: the original cold body).
    body: String,
    /// For cached: index of the original among this client's colds.
    nth: usize,
    latency_ms: f64,
    status: u16,
    retry_after: bool,
    x_cache: Option<String>,
    response: String,
}

fn drive(addr: SocketAddr, reqs: &[Req]) -> Vec<Exchange> {
    let mut colds: Vec<String> = Vec::new();
    let mut out = Vec::with_capacity(reqs.len());
    for r in reqs {
        let (kind, method, path, body, nth) = match r {
            Req::Cold { body } => {
                colds.push(body.clone());
                (
                    Kind::Cold,
                    "POST",
                    "/v1/estimate",
                    body.clone(),
                    colds.len() - 1,
                )
            }
            Req::Cached { nth } => {
                let body = colds.get(*nth).cloned().unwrap_or_default();
                (Kind::Cached, "POST", "/v1/estimate", body, *nth)
            }
            Req::Ingest { body } => (Kind::Ingest, "POST", "/v1/observations", body.clone(), 0),
            Req::Live => (
                Kind::Live,
                "GET",
                "/v1/observations/estimate",
                String::new(),
                0,
            ),
        };
        let t0 = Instant::now();
        let sent = if method == "POST" {
            Some(body.as_bytes())
        } else {
            None
        };
        let resp = request_with_headers(addr, method, path, sent, &[]);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (status, retry_after, x_cache, response) = match resp {
            Ok(r) => (
                r.status,
                r.header("retry-after").is_some(),
                r.header("x-cache").map(str::to_string),
                r.body_text(),
            ),
            Err(e) => (0, false, None, e.to_string()),
        };
        out.push(Exchange {
            kind,
            body,
            nth,
            latency_ms,
            status,
            retry_after,
            x_cache,
            response,
        });
    }
    out
}

/// A bound server with its state directory.
struct Rig {
    backend: Arc<ReproBackend>,
    server: ServerHandle,
    dir: PathBuf,
}

fn state_dir(tag: &str) -> PathBuf {
    crate::work_dir().join(format!("serve-{}-{tag}", std::process::id()))
}

/// The prewarmed backend: every window generated and spoof-filtered.
fn backend(seed: u64) -> Arc<ReproBackend> {
    let backend = Arc::new(ReproBackend::new(DENOM, seed));
    for i in 0..backend.context().windows.len() {
        backend.context().filtered_window(i);
    }
    backend
}

fn bind(backend: Arc<ReproBackend>, tag: &str) -> std::io::Result<Rig> {
    let dir = state_dir(tag);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(crate::work_dir())?;
    let config = ServerConfig {
        workers: THREADS,
        cache_capacity: 4096,
        ingest_dir: Some(dir.clone()),
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, backend.clone(), MetricsHub::wall())?;
    Ok(Rig {
        backend,
        server,
        dir,
    })
}

/// Everything one schedule produced.
struct Served {
    exchanges: Vec<Vec<Exchange>>,
    stats: String,
    metrics_text: String,
    timing: OpTiming,
}

fn serve(rig: &Rig, plan: &[Vec<Req>]) -> Served {
    let addr = rig.server.local_addr();
    let (exchanges, timing) = timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = plan
                .iter()
                .map(|reqs| s.spawn(move || drive(addr, reqs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_default())
                .collect::<Vec<_>>()
        })
    });
    let get = |path: &str| {
        request_with_headers(addr, "GET", path, None, &[])
            .map(|r| r.body_text())
            .unwrap_or_default()
    };
    Served {
        exchanges,
        stats: get("/v1/observations/stats"),
        metrics_text: get("/metrics"),
        timing,
    }
}

/// The in-process answer to a cold request: `Backend::resolve` then
/// `estimate_table` with the request's config, rendered as the server
/// renders it. `profile` and `obs` are the estimator's own stage profiler
/// and recorder scope (disabled outside the traced run).
fn oracle(
    backend: &ReproBackend,
    body: &str,
    profile: &StageProfiler,
    obs: &Recorder,
) -> Result<String, String> {
    let doc = parse_json(body).map_err(|e| format!("{e:?}"))?;
    let req = EstimateRequest::parse(&doc)?;
    let spec = backend.resolve(&req).map_err(|e| e.message().to_string())?;
    let limit = spec.limits.as_ref().map(|l| l[0]);
    let mut cfg = req.cr_config();
    cfg.profile = profile.scoped("estimate");
    cfg.obs = obs.root("estimate");
    let est = estimate_table(&spec.tables[0], limit, &cfg).map_err(|e| e.to_string())?;
    Ok(estimate_json(&est))
}

/// Classifies every exchange and runs the body and digest checks.
fn verify(served: &Served, oracles: &[Vec<Result<String, String>>], tally: &mut Tally) {
    let mut store = IngestStore::new();
    for (c, exchanges) in served.exchanges.iter().enumerate() {
        let mut cold_bodies: Vec<String> = Vec::new();
        let mut cold_i = 0usize;
        for x in exchanges {
            let mut outcome = Outcome::from_status(x.status, x.retry_after);
            if x.status == 0 {
                outcome = Outcome::Error(x.response.clone());
            }
            match x.kind {
                Kind::Cold => {
                    let want = &oracles[c][cold_i];
                    cold_i += 1;
                    cold_bodies.push(x.response.clone());
                    if outcome == Outcome::Ok && want.as_deref() != Ok(x.response.as_str()) {
                        outcome = Outcome::Mismatch(format!(
                            "cold {}: {} vs oracle {want:?}",
                            x.body, x.response
                        ));
                    }
                }
                Kind::Cached => {
                    let original = cold_bodies.get(x.nth);
                    let hit = matches!(x.x_cache.as_deref(), Some("hit-mem" | "hit-disk"));
                    if outcome == Outcome::Ok && (!hit || original != Some(&x.response)) {
                        outcome = Outcome::Mismatch(format!("cached {} ({:?})", x.body, x.x_cache));
                    }
                }
                Kind::Ingest => {
                    if outcome == Outcome::Ok {
                        if x.status != 201 {
                            outcome = Outcome::Mismatch(format!(
                                "ingest answered {}: {}",
                                x.status, x.response
                            ));
                        } else {
                            let payload = parse_json(&x.body)
                                .map_err(|e| format!("{e:?}"))
                                .and_then(|d| ObservationBatch::parse(&d))
                                .map(|b| b.canonical_payload());
                            if let Err(e) = payload.and_then(|p| store.apply_payload(&p)) {
                                outcome = Outcome::Error(format!("fold: {e}"));
                            }
                        }
                    }
                }
                Kind::Live => {}
            }
            tally.record(&format!("client {c} {:?}", x.kind), &outcome);
        }
    }
    let want = digest_hex(store.digest());
    let got = parse_json(&served.stats)
        .ok()
        .and_then(|d| d.get("digest").and_then(|v| v.as_str()).map(str::to_string));
    let outcome = if got.as_deref() == Some(want.as_str()) {
        Outcome::Ok
    } else {
        Outcome::Mismatch(format!("stats digest {got:?} vs in-process fold {want}"))
    };
    tally.record("observations digest", &outcome);
}

/// The cold bodies of each client, in order.
fn cold_bodies(plan: &[Vec<Req>]) -> Vec<Vec<String>> {
    plan.iter()
        .map(|reqs| {
            reqs.iter()
                .filter_map(|r| match r {
                    Req::Cold { body } => Some(body.clone()),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// In-process oracles for every cold body, fanned out over the cores.
fn oracles(backend: &ReproBackend, plan: &[Vec<Req>]) -> Vec<Vec<Result<String, String>>> {
    let bodies = cold_bodies(plan);
    let flat: Vec<&String> = bodies.iter().flatten().collect();
    let (profile, obs) = (StageProfiler::disabled(), Recorder::disabled());
    let mut answers = par_map(Parallelism::Fixed(THREADS), &flat, |_, b| {
        oracle(backend, b, &profile, &obs)
    })
    .into_iter();
    bodies
        .iter()
        .map(|b| answers.by_ref().take(b.len()).collect())
        .collect()
}

/// A counter's value from the Prometheus text of `/metrics`.
pub fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn routed(backend: &ReproBackend) -> (u64, u64) {
    let gt = &backend.context().scenario.gt;
    (gt.routed.address_count(), gt.routed.subnet24_count())
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> RunReport {
    let seed = opts.scenario_seed;
    let mix = if opts.trace { TRACE_MIX } else { MIX };
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut ops: Vec<OpTiming> = Vec::new();
    let start = Instant::now();
    let mut rounds: Vec<Served> = Vec::new();
    let mut plan = Vec::new();
    // The backend the output check runs on; at most one is alive at a time.
    let mut checker: Option<Arc<ReproBackend>> = None;
    // Peak memory of the first round's set-up and serving. Later rounds,
    // the extra set-ups and the output check only add what the allocator
    // keeps resident from the earlier ones.
    let mut peak_rss_mb = None;
    loop {
        let round_start = Instant::now();
        drop(checker.take());
        let (b, setup) = timed(|| backend(seed));
        setups.push(setup.wall_s);
        let rig = match bind(b, &rounds.len().to_string()) {
            Ok(r) => r,
            Err(e) => {
                tally.record("bind", &Outcome::Error(e.to_string()));
                break;
            }
        };
        let b = &rig.backend;
        plan = schedule(opts.seed, mix, b.context().windows.len(), routed(b));
        let served = serve(&rig, &plan);
        ops.push(served.timing);
        report_shares(&served);
        rig.server.shutdown();
        let _ = std::fs::remove_dir_all(&rig.dir);
        rounds.push(served);
        checker = Some(rig.backend);
        peak_rss_mb.get_or_insert_with(crate::measure::peak_rss_mb);
        let round_s = round_start.elapsed().as_secs_f64();
        if opts.trace || !crate::another_fits(start, opts.seconds, round_s) {
            break;
        }
    }
    while !opts.trace && setups.len() < SETUPS {
        drop(checker.take());
        let (b, setup) = timed(|| backend(seed));
        setups.push(setup.wall_s);
        checker = Some(b);
    }
    let mut layer_vals = LayerValues::default();
    if let Some(backend) = &checker {
        // The schedule is the same every round, so one set of answers
        // checks them all.
        let answers = if opts.trace {
            let (vals, answers) = traced(backend, &plan, &rounds[0], &mut tally);
            layer_vals = vals;
            answers
        } else {
            oracles(backend, &plan)
        };
        for served in &rounds {
            verify(served, &answers, &mut tally);
        }
    }
    let metrics = if opts.trace {
        layer_vals.set("error_rate", tally.error_rate());
        layer_vals.metrics()
    } else {
        crate::e2e_metrics(&setups, &ops, peak_rss_mb.unwrap_or(f64::NAN))
    };
    RunReport {
        correct: tally.failed == 0 && !ops.is_empty(),
        tally,
        metrics,
    }
}

/// Prints each request class's share of the clients' summed waiting:
/// how much of `wall_s` a change to that class's path can move.
fn report_shares(served: &Served) {
    let sums: Vec<(Kind, f64)> = [Kind::Cold, Kind::Cached, Kind::Ingest, Kind::Live]
        .into_iter()
        .map(|k| {
            let sum = served
                .exchanges
                .iter()
                .flatten()
                .filter(|x| x.kind == k)
                .map(|x| x.latency_ms / 1e3)
                .sum();
            (k, sum)
        })
        .collect();
    let total: f64 = sums.iter().map(|(_, s)| s).sum();
    for (k, s) in sums {
        eprintln!(
            "serve-mix: {k:?} requests {s:.3}s, {:.1} % of client time",
            100.0 * s / total
        );
    }
}

fn pctl(vals: &mut LayerValues, name: &'static str, samples: &[f64], p: f64) {
    match percentile(samples, p) {
        Ok(q) => vals.set(name, q.value),
        Err(e) => eprintln!("serve-mix: {name} not reported: {e}"),
    }
}

/// One cold request replayed in-process under a `serve.cold_backend`
/// span: parse, `Backend::resolve` and `estimate_table`, with the
/// estimator's select and fit stages timed by `profile`. Returns the body
/// the server would send.
fn cold_replay(
    tr: &Tracer,
    profile: &StageProfiler,
    rec: &Recorder,
    backend: &ReproBackend,
    body: &str,
) -> Result<String, String> {
    tr.span_in(None, "serve.cold_backend", || {
        oracle(backend, body, profile, rec)
    })
}

/// Per-layer figures: latency percentiles from the HTTP run, the final
/// scrape, and an in-process replay of the same schedule call by call.
/// The traced cold replay doubles as the cold-body oracle.
fn traced(
    backend: &ReproBackend,
    plan: &[Vec<Req>],
    served: &Served,
    tally: &mut Tally,
) -> (LayerValues, Vec<Vec<Result<String, String>>>) {
    let mut vals = LayerValues::default();
    let lat = |k: Kind| -> Vec<f64> {
        served
            .exchanges
            .iter()
            .flatten()
            .filter(|x| x.kind == k)
            .map(|x| x.latency_ms)
            .collect()
    };
    let (cold, cached, ingest, live) = (
        lat(Kind::Cold),
        lat(Kind::Cached),
        lat(Kind::Ingest),
        lat(Kind::Live),
    );
    pctl(&mut vals, "cold_estimate_p50_ms", &cold, 0.5);
    pctl(&mut vals, "cold_estimate_p90_ms", &cold, 0.9);
    pctl(&mut vals, "cached_estimate_p50_ms", &cached, 0.5);
    pctl(&mut vals, "cached_estimate_p99_ms", &cached, 0.99);
    pctl(&mut vals, "ingest_ack_p50_ms", &ingest, 0.5);
    pctl(&mut vals, "ingest_ack_p99_ms", &ingest, 0.99);
    pctl(&mut vals, "live_estimate_p50_ms", &live, 0.5);
    vals.set("serve.cold_samples", cold.len() as f64);
    vals.set("serve.cached_samples", cached.len() as f64);
    vals.set("serve.ingest_samples", ingest.len() as f64);
    vals.set("serve.live_samples", live.len() as f64);
    let m = &served.metrics_text;
    let hits = scrape(m, "serve_cache_hit_mem") + scrape(m, "serve_cache_hit_disk");
    let lookups = hits + scrape(m, "serve_cache_miss");
    if lookups > 0.0 {
        vals.set("serve.cache_hit_ratio", hits / lookups);
    }
    vals.set("serve.shed", scrape(m, "serve_shed"));

    // Cold requests, replayed two at a time like the two clients sent
    // them. The first 22 (the first client's first two passes over its
    // cells) also run untraced for the overhead figure.
    let per_client = cold_bodies(plan);
    let bodies: Vec<&String> = per_client.iter().flatten().collect();
    let twin = (CLIENTS * MIX.cold).min(bodies.len());
    let rec = Recorder::enabled(Arc::new(LogicalClock::new()));
    let tr = Arc::new(Tracer::new());
    let profile = stage_profiler(&tr);
    let par = Parallelism::Fixed(THREADS);
    let (off, rec_off) = (StageProfiler::disabled(), Recorder::disabled());
    let (_, untraced) = timed(|| {
        par_map(par, &bodies[..twin], |_, b| {
            oracle(backend, b, &off, &rec_off)
        })
    });
    let t0 = tr.now_us();
    let (mut answers, traced_twin) = timed(|| {
        par_map(par, &bodies[..twin], |_, b| {
            cold_replay(&tr, &profile, &rec, backend, b)
        })
    });
    answers.extend(par_map(par, &bodies[twin..], |_, b| {
        cold_replay(&tr, &profile, &rec, backend, b)
    }));
    vals.set(
        "obs.trace_overhead_frac",
        traced_twin.wall_s / untraced.wall_s - 1.0,
    );

    // Request parse + canonical digest over every estimate body sent.
    for x in served.exchanges.iter().flatten() {
        if matches!(x.kind, Kind::Cold | Kind::Cached) {
            tr.span("serve.request_parse", || {
                parse_json(&x.body)
                    .ok()
                    .and_then(|d| EstimateRequest::parse(&d).ok())
                    .map(|r| r.digest())
            });
        }
    }

    // The ingest plane: the acked payloads appended with fsync to a fresh
    // log, applied to a fresh store, checkpointed at the server's cadence.
    let payloads: Vec<String> = served
        .exchanges
        .iter()
        .flatten()
        .filter(|x| x.kind == Kind::Ingest && x.status == 201)
        .filter_map(|x| {
            parse_json(&x.body)
                .ok()
                .and_then(|d| ObservationBatch::parse(&d).ok())
                .map(|b| b.canonical_payload())
        })
        .collect();
    let dir = state_dir("replay");
    let _ = std::fs::remove_dir_all(&dir);
    match DurableLog::open(&dir) {
        Ok((mut log, _)) => {
            let mut store = IngestStore::new();
            for p in &payloads {
                if let Err(e) = tr.span("durable.wal_append", || log.append(p.as_bytes())) {
                    tally.record("wal replay", &Outcome::Error(e.to_string()));
                }
                let _ = tr.span("serve.ingest_apply", || store.apply_payload(p));
                if store.applied_batches().is_multiple_of(CHECKPOINT_EVERY) {
                    let _ = tr.span("durable.checkpoint", || {
                        log.checkpoint(&store.snapshot_bytes())
                    });
                }
            }
            // Each record is framed as u32 length + u32 CRC + payload.
            let bytes: usize = payloads.iter().map(|p| p.len() + 8).sum();
            vals.set("durable.wal_bytes", bytes as f64);
        }
        Err(e) => tally.record("wal replay", &Outcome::Error(e.to_string())),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let t1 = tr.now_us();

    let spans = tr.spans();
    let per_call = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds() * scale)
            .collect()
    };
    vals.set(
        "serve.cold_backend_ms",
        median(&per_call("serve.cold_backend", 1e3)),
    );
    vals.set(
        "serve.request_parse_us",
        median(&per_call("serve.request_parse", 1e6)),
    );
    vals.set(
        "serve.ingest_apply_us",
        median(&per_call("serve.ingest_apply", 1e6)),
    );
    vals.set(
        "durable.wal_append_us",
        median(&per_call("durable.wal_append", 1e6)),
    );
    let ckpt = per_call("durable.checkpoint", 1e3);
    vals.set("durable.checkpoints", ckpt.len() as f64);
    if !ckpt.is_empty() {
        vals.set("durable.checkpoint_ms", median(&ckpt));
    }
    let stages = profile.table();
    crate::layers::record_stage_pairing("serve-mix", &spans, &stages, tally);
    vals.set_span_seconds(&spans);
    vals.set_stage_seconds(&stages);
    vals.set_work_counts(&rec.flush());
    vals.set("bench.unattributed_frac", unattributed_frac(&spans, t0, t1));
    let seed = backend.context().scenario.gt.cfg.seed;
    crate::layers::dump_spans("serve-mix", seed, &spans);
    eprintln!(
        "serve-mix: {twin} cold requests untraced {:.3}s vs traced {:.3}s; layer ranking (scenario seed {seed}):",
        untraced.wall_s, traced_twin.wall_s
    );
    for (name, s) in vals.ranking() {
        eprintln!("  {name:<28} {s:>9.3}");
    }
    for (name, v) in &vals.0 {
        if name.ends_with("_ms") || name.ends_with("_us") || name.contains("samples") {
            eprintln!("  {name:<28} {v:>9.3}");
        }
    }
    let mut answers = answers.into_iter();
    let answers = per_client
        .iter()
        .map(|b| answers.by_ref().take(b.len()).collect())
        .collect();
    (vals, answers)
}
