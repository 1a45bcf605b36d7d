//! Self-tests of the benchmark harness: the percentile rule, failure
//! accounting, the output check, the CPU and peak-RSS readers, the span
//! recorder and the serve-mix schedule.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use ghosts_obs::json::parse;
use perfbench::account::{Outcome, Tally};
use perfbench::check::{close, diff, REL_TOL};
use perfbench::measure::{
    median, parse_cpu_s, parse_peak_rss_mb, percentile, samples_needed, PercentileError, MIN_BEYOND,
};
use perfbench::serve_mix::{schedule, scrape, Mix, Req, MIX, TRACE_MIX};
use perfbench::trace::{
    check_stage_pairing, seconds_by_name, stage_profiler, unattributed_frac, Span, Tracer, STAGE,
};

fn ramp(n: usize) -> Vec<f64> {
    // Deliberately unsorted: 1..=n reversed.
    (1..=n).rev().map(|v| v as f64).collect()
}

#[test]
fn percentile_needs_ten_samples_beyond_the_rank() {
    assert_eq!(samples_needed(0.5), 20);
    assert_eq!(samples_needed(0.9), 100);
    assert_eq!(samples_needed(0.99), 1000);

    let p90 = percentile(&ramp(100), 0.9).expect("100 samples carry a p90");
    assert_eq!(
        (p90.value, p90.samples, p90.beyond),
        (90.0, 100, MIN_BEYOND)
    );
    assert_eq!(
        percentile(&ramp(99), 0.9),
        Err(PercentileError::TooFewBeyond {
            samples: 99,
            beyond: 9,
            needed: 100
        })
    );
    let p99 = percentile(&ramp(1000), 0.99).expect("1000 samples carry a p99");
    assert_eq!((p99.value, p99.beyond), (990.0, 10));
    assert!(percentile(&ramp(999), 0.99).is_err());
    assert_eq!(percentile(&ramp(20), 0.5).map(|p| p.value), Ok(10.0));
    assert_eq!(percentile(&[], 0.5), Err(PercentileError::Empty));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert!(median(&[]).is_nan());
}

#[test]
fn statuses_map_to_outcome_classes() {
    assert_eq!(Outcome::from_status(200, false), Outcome::Ok);
    assert_eq!(Outcome::from_status(201, false), Outcome::Ok);
    assert_eq!(Outcome::from_status(203, false), Outcome::Degraded);
    assert_eq!(Outcome::from_status(429, true), Outcome::Shed);
    assert_eq!(Outcome::from_status(429, false), Outcome::Shed);
    assert_eq!(Outcome::from_status(503, true), Outcome::Shed);
    assert_eq!(Outcome::from_status(503, false), Outcome::Http(503));
    assert_eq!(Outcome::from_status(500, false), Outcome::Http(500));
    assert_eq!(Outcome::from_status(404, false), Outcome::Http(404));
    assert_eq!(Outcome::from_status(422, false), Outcome::Http(422));
}

#[test]
fn everything_but_ok_counts_as_failed() {
    let mut t = Tally::default();
    let outcomes = [
        Outcome::Ok,
        Outcome::Ok,
        Outcome::from_status(429, true),
        Outcome::from_status(500, false),
        Outcome::Degraded,
        Outcome::Mismatch("cold body differs".into()),
        Outcome::Error("panicked".into()),
        Outcome::Ok,
    ];
    for o in &outcomes {
        t.record("op", o);
    }
    assert_eq!(t.attempted, 8);
    assert_eq!(t.failed, 5);
    assert_eq!(t.error_rate(), 5.0 / 8.0);
    for (class, n) in [
        ("ok", 3),
        ("shed", 1),
        ("http", 1),
        ("degraded", 1),
        ("mismatch", 1),
        ("error", 1),
    ] {
        assert_eq!(t.by_class.get(class), Some(&n), "{class}");
    }
    assert_eq!(Tally::default().error_rate(), 0.0);
}

#[test]
fn output_check_tolerates_1e9_relative_and_nothing_more() {
    assert!(close(1_000_000.0, 1_000_000.000_9, REL_TOL));
    assert!(!close(1_000_000.0, 1_000_000.002, REL_TOL));
    assert!(close(0.0, 0.0, REL_TOL));
    let reference = parse(r#"{"models":["[12][34]"],"total":176389.25,"n":3}"#).unwrap();
    let same = parse(r#"{"models":["[12][34]"],"total":176389.2500000001,"n":3}"#).unwrap();
    assert!(diff(&reference, &same, REL_TOL).is_empty());
    let moved = parse(r#"{"models":["[12][34]"],"total":176390.0,"n":3}"#).unwrap();
    assert_eq!(diff(&reference, &moved, REL_TOL).len(), 1);
    let other_model = parse(r#"{"models":["[12][3]"],"total":176389.25,"n":3}"#).unwrap();
    let d = diff(&reference, &other_model, REL_TOL);
    assert_eq!(d.len(), 1);
    assert!(d[0].starts_with("$.models[0]"), "{d:?}");
    let missing = parse(r#"{"models":[],"total":176389.25,"n":3}"#).unwrap();
    assert_eq!(diff(&reference, &missing, REL_TOL).len(), 1);
}

#[test]
fn cpu_reader_parses_stat_after_the_command_name() {
    // utime = 250 ticks, stime = 75 ticks; the name has spaces and parens.
    let stat =
        "4242 (perf (bench) x) R 1 4242 4242 0 -1 4194304 1234 0 0 0 250 75 0 0 20 0 3 0 100 \
                1000000 500 18446744073709551615";
    assert_eq!(parse_cpu_s(stat), Some(3.25));
    assert_eq!(parse_cpu_s("garbage"), None);
    assert_eq!(parse_cpu_s("1 (x) R 1 2"), None);
}

#[test]
fn peak_rss_reader_parses_vmhwm() {
    let status =
        "Name:\tperfbench\nVmPeak:\t  999999 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n";
    assert_eq!(parse_peak_rss_mb(status), Some(50.0));
    assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    assert_eq!(parse_peak_rss_mb("VmHWM:\t12 MB\n"), None);
}

#[test]
#[allow(clippy::disallowed_methods)] // spins on the wall clock to burn CPU
fn live_readers_report_this_process() {
    let before = perfbench::measure::cpu_s();
    let mut x = 0u64;
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_millis() < 300 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
    }
    std::hint::black_box(x);
    let used = perfbench::measure::cpu_s() - before;
    assert!(
        (0.1..5.0).contains(&used),
        "a 300 ms spin used {used} CPU s"
    );
    let rss = perfbench::measure::peak_rss_mb();
    assert!(rss > 1.0 && rss < 65_536.0, "peak RSS {rss} MiB");
}

#[test]
fn spans_nest_and_unattributed_time_is_the_uncovered_share() {
    let tr = Tracer::new();
    tr.span("bench.experiments", || {
        let parent = Tracer::current();
        assert!(parent.is_some());
        std::thread::scope(|s| {
            s.spawn(|| tr.span_in(parent, "core.select", || ()));
        });
        tr.span("core.fit", || ());
    });
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    let outer = spans
        .iter()
        .find(|s| s.name == "bench.experiments")
        .unwrap();
    assert_eq!(outer.parent, None);
    for s in spans.iter().filter(|s| s.name != "bench.experiments") {
        assert_eq!(
            s.parent,
            Some(outer.id),
            "{} nests under the outer span",
            s.name
        );
    }

    let span = |id, parent, name, start_us, end_us| Span {
        id,
        parent,
        name,
        start_us,
        end_us,
    };
    // Layer spans cover [10,40] and [30,60] (overlapping, one of them a
    // child) and [80,90]; the `bench.*` span around everything never
    // counts. Window [0,100] → 40 of 100 uncovered.
    let fixture = [
        span(1, None, "bench.experiments", 0, 100),
        span(2, Some(1), "x", 10, 40),
        span(3, Some(1), "x", 30, 60),
        span(4, None, "x", 80, 90),
    ];
    assert!((unattributed_frac(&fixture, 0, 100) - 0.4).abs() < 1e-12);
    assert!((seconds_by_name(&fixture)["x"] - 70e-6).abs() < 1e-12);
}

#[test]
fn profiler_stages_become_spans_that_match_its_table() {
    let tr = std::sync::Arc::new(Tracer::new());
    let profile = stage_profiler(&tr).scoped("estimate");
    tr.span("bench.experiments", || {
        drop(profile.enter("select"));
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..3 {
                        let _g = profile.enter("fit");
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    }
                });
            }
        });
        drop(profile.enter("ci"));
    });
    let spans = tr.spans();
    let stages: Vec<&Span> = spans.iter().filter(|s| s.name == STAGE).collect();
    assert_eq!(stages.len(), 8);
    let outer = spans
        .iter()
        .find(|s| s.name == "bench.experiments")
        .unwrap();
    // Stages on the calling thread nest under its open span; worker
    // threads have none open.
    assert_eq!(
        stages.iter().filter(|s| s.parent == Some(outer.id)).count(),
        2
    );
    let table = profile.table();
    assert_eq!(table.rows.iter().map(|r| r.calls).sum::<u64>(), 8);
    check_stage_pairing(&spans, &table).expect("spans pair with the profiler's table");
    let short = &spans[..spans.len() - 1];
    assert!(check_stage_pairing(short, &table).is_err());
}

#[test]
fn schedule_is_seeded_and_well_formed() {
    let routed = (481_792, 1_882);
    for mix in [MIX, TRACE_MIX] {
        let a = schedule(7, mix, 11, routed);
        assert_eq!(a, schedule(7, mix, 11, routed), "same seed, same schedule");
        assert_ne!(
            a,
            schedule(8, mix, 11, routed),
            "another seed, another schedule"
        );
        let mut cold_bodies = Vec::new();
        for reqs in &a {
            let count = |f: fn(&Req) -> bool| reqs.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Req::Cold { .. })), mix.cold);
            assert_eq!(count(|r| matches!(r, Req::Cached { .. })), mix.cached);
            assert_eq!(count(|r| matches!(r, Req::Ingest { .. })), mix.ingest);
            assert_eq!(count(|r| matches!(r, Req::Live)), mix.live);
            // Four batches (one per source) open every client's sequence.
            assert!(reqs[..4].iter().all(|r| matches!(r, Req::Ingest { .. })));
            let mut colds = 0;
            for r in reqs {
                match r {
                    Req::Cold { body } => {
                        colds += 1;
                        cold_bodies.push(body.clone());
                    }
                    Req::Cached { nth } => assert!(*nth < colds, "re-post of a cold not yet sent"),
                    _ => {}
                }
            }
        }
        let n = cold_bodies.len();
        cold_bodies.sort();
        cold_bodies.dedup();
        assert_eq!(cold_bodies.len(), n, "every cold body is unique");
    }
    // The two clients of the untraced schedule cover every (window,
    // target) pair once between them.
    let pairs: std::collections::BTreeSet<String> = schedule(3, MIX, 11, routed)
        .iter()
        .flatten()
        .filter_map(|r| match r {
            Req::Cold { body } => Some(body.split(",\"limit\"").next().unwrap().to_string()),
            _ => None,
        })
        .collect();
    assert_eq!(pairs.len(), 22);
    let tiny = Mix {
        cold: 0,
        cached: 0,
        ingest: 2,
        live: 0,
    };
    assert_eq!(schedule(1, tiny, 11, routed)[0].len(), 2);
}

#[test]
fn metrics_scrape_reads_counter_lines() {
    let text = "# TYPE serve_cache_hit_mem counter\nserve_cache_hit_mem 41\nserve_cache_hit_mem_total 5\nserve_shed 0\n";
    assert_eq!(scrape(text, "serve_cache_hit_mem"), 41.0);
    assert_eq!(scrape(text, "serve_shed"), 0.0);
    assert_eq!(scrape(text, "serve_cache_miss"), 0.0);
}

#[test]
fn benchmark_json_lists_exactly_the_reported_per_layer_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let listed: Vec<(String, String)> = doc
        .get("per_layer")
        .and_then(|v| v.as_array())
        .expect("per_layer list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    let reported: Vec<(String, String)> = perfbench::layers::PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, reported);
    let e2e: Vec<String> = perfbench::e2e_metrics(
        &[1.0],
        &[perfbench::OpTiming {
            wall_s: 1.0,
            cpu_s: 1.0,
        }],
        1.0,
    )
    .into_iter()
    .map(|m| m.name)
    .collect();
    let listed_e2e: Vec<String> = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|v| v.as_str())
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    assert_eq!(listed_e2e, e2e);
}

#[test]
fn both_scenarios_have_committed_references() {
    for workload in ["census", "strata"] {
        for scenario in [perfbench::DEFAULT_SCENARIO, perfbench::HELD_OUT_SCENARIO] {
            let reference = perfbench::load_reference(workload, scenario).expect("reference");
            assert!(reference.get("models").is_some(), "{workload}-{scenario}");
        }
    }
}
