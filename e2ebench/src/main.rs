//! End-to-end benchmark of the wsnloc workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper_pk|city_scale> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, measures for about
//! `--seconds`, checks the outputs and prints one JSON object as the last
//! line of standard output. With `--trace 0` it carries the end-to-end
//! metrics, measured with no observer attached; with `--trace 1` the
//! per-layer metrics, each layer timed from outside through its public
//! functions on the same inputs. A failed output check prints the reason
//! to standard error, `"correct": false` with no metrics, and exits 1.
//! See `README.md` next to this crate for what every metric means on
//! every workload.

mod city_scale;
mod common;
mod layers;
mod paper_pk;
mod serve;

use common::{Checked, Report};
use layers::Layers;

/// End-to-end metrics, in the order and with the units of `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("solve_a_s", "s"),
    ("solve_b_s", "s"),
    ("solve_c_s", "s"),
    ("solve_d_s", "s"),
    ("rmse_a_m", "m"),
    ("rmse_b_m", "m"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, in the order and with the units of `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 40] = [
    ("net.build_s", "s"),
    ("net.measurements", "count"),
    ("geom.layout_build_s", "s"),
    ("geom.shards", "count"),
    ("geom.halo_ratio", "ratio"),
    ("core.model_build_s", "s"),
    ("core.edges", "count"),
    ("core.unspanned_s", "s"),
    ("core.crlb_efficiency", "ratio"),
    ("bayes.grid_run_s", "s"),
    ("bayes.particle_run_s", "s"),
    ("bayes.gaussian_run_s", "s"),
    ("bayes.prior_init_s", "s"),
    ("bayes.message_passing_s", "s"),
    ("bayes.prior_init_share", "ratio"),
    ("bayes.messages", "count"),
    ("bayes.iterations", "count"),
    ("bayes.converged_ratio", "ratio"),
    ("bayes.flat_peak_rss_mb", "MB"),
    ("sharded.run_s", "s"),
    ("sharded.compile_s", "s"),
    ("sharded.message_passing_s", "s"),
    ("sharded.message_overhead", "ratio"),
    ("sharded.over_flat", "ratio"),
    ("sharded.warm_over_cold", "ratio"),
    ("sharded.peak_rss_mb", "MB"),
    ("serve.tick_p50_s", "s"),
    ("serve.tick_p99_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.backlog_max", "count"),
    ("serve.gen_late_s", "s"),
    ("serve.solo_advance_s", "s"),
    ("serve.overhead_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("rayon.batches", "count"),
    ("rayon.jobs", "count"),
    ("rayon.inline_maps", "count"),
    ("rayon.speedup", "ratio"),
];

const USAGE: &str =
    "usage: e2ebench --workload <paper_pk|city_scale> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Moves the per-layer values into the report in `PER_LAYER` order;
/// fails on a missing, unknown or non-finite value.
pub fn emit_layers(report: &mut Report, mut layers: Layers) -> Checked<()> {
    for (name, unit) in PER_LAYER {
        let value = layers
            .remove(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        report.metric(name, value, unit);
    }
    match layers.keys().next() {
        Some(extra) => Err(format!("per-layer metric {extra} is not in the list")),
        None => Ok(()),
    }
}

/// Checks the report carries exactly the expected metrics, finite and
/// with the expected units, and renders the result line.
fn result_line(report: &Report, expected: &[(&str, &str)]) -> Checked<String> {
    let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    common::ensure(names == want, || {
        format!("metrics {names:?} differ from {want:?}")
    })?;
    let mut fields = Vec::new();
    for ((name, value, unit), (_, want_unit)) in report.metrics.iter().zip(expected) {
        common::ensure(value.is_finite(), || format!("{name} is {value}"))?;
        common::ensure(unit == want_unit, || format!("{name} has unit {unit}"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    ))
}

fn run(args: &Args) -> Checked<String> {
    let why = match args.workload.as_str() {
        "paper_pk" => paper_pk::WHY,
        "city_scale" => city_scale::WHY,
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    println!("# {}: {why}", args.workload);
    let report = match (args.workload.as_str(), args.trace) {
        ("paper_pk", false) => paper_pk::run(args.seed, args.seconds)?,
        ("paper_pk", true) => paper_pk::trace(args.seed, args.seconds)?,
        ("city_scale", false) => city_scale::run(args.seed, args.seconds)?,
        ("city_scale", true) => city_scale::trace(args.seed, args.seconds)?,
        (other, _) => unreachable!("workload {other} was matched above"),
    };
    for line in &report.notes {
        println!("# {line}");
    }
    result_line(&report, if args.trace { &PER_LAYER } else { &END_TO_END })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: output check failed: {e}");
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    }
}
