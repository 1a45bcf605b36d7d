//! `perfbench` — runs one benchmark workload and prints its result as the
//! last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload census --seed 0 --seconds 30 --trace 0
//! ```
//!
//! * `--workload census|strata|serve-mix`
//! * `--seed N` — drives the serve-mix request schedule; `census` and
//!   `strata` have one input each and do not depend on it.
//! * `--scenario-seed S` — the simulated Internet (default 2014; 2021 is
//!   the held-out scenario with a committed reference).
//! * `--seconds S` — measurement budget; operations repeat while another
//!   one is expected to fit (always at least one).
//! * `--trace 0|1` — `1` adds a traced operation and reports the
//!   per-layer metrics instead of the end-to-end ones.
//! * `--capture` — write `perfbench/reference/<workload>-<scenario
//!   seed>.json` from this run instead of checking against it.
//!
//! Exit code 0 when every output check passed, 1 when one failed, 2 on a
//! usage error.

use perfbench::{census, serve_mix, strata, RunOpts, DEFAULT_SCENARIO};

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: perfbench --workload census|strata|serve-mix --seed N \
         --seconds S --trace 0|1 [--scenario-seed S] [--capture]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        scenario_seed: DEFAULT_SCENARIO,
        seconds: 30.0,
        trace: false,
        capture: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                opts.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"))
            }
            "--scenario-seed" => {
                opts.scenario_seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--scenario-seed needs an integer"))
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds needs a positive number"));
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--capture" => opts.capture = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let report = match workload.as_deref() {
        Some("census") => census::run(&opts),
        Some("strata") => strata::run(&opts),
        Some("serve-mix") => serve_mix::run(&opts),
        Some(other) => usage(&format!("unknown workload {other:?}")),
        None => usage("--workload is required"),
    };
    for (class, n) in &report.tally.by_class {
        eprintln!("outcome {class}: {n}");
    }
    for e in &report.tally.examples {
        eprintln!("failure: {e}");
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.tally.attempted, report.tally.failed
    );
    if !report.correct {
        std::process::exit(1);
    }
}

/// A finite number in full precision; JSON has no NaN, so a metric that
/// could not be measured prints as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
