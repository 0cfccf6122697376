//! `paper_pk`: closed loop of back-to-back cold one-shot solves of the
//! paper's standard scenario with pre-knowledge, one per backend of the
//! accuracy-vs-time comparison.

use crate::common::{
    attempt, check_finite, ensure, median, same_bits, timed, Checked, EngineKind, Report, Rmse,
};
use crate::layers::{probe, serve_probe, Probe};
use std::time::Instant;
use wsnloc::prelude::*;

/// Why this workload exists (also in `BENCHMARK.json`).
pub const WHY: &str = "closed loop of cold solves of the paper's 225-node drop-point scenario: \
time is in the BP message kernels, nothing shards or serves";

/// Seeded trials per run; the loop cycles over them until time is up.
const TRIALS: u64 = 8;
/// Drop-point scatter of the scenario and sigma of the prior (meters).
const SIGMA: f64 = 100.0;
/// Convergence tolerance of every backend: 2% of the 150 m radio range.
const TOLERANCE: f64 = 3.0;
/// Gaussian solves take milliseconds, so each visit repeats them.
const GAUSSIAN_REPS: usize = 8;
/// Target nodes per shard when the sharded layer is probed on a trial.
const SHARD_TARGET: usize = 60;
/// Repetitions of the set-up; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// One backend of the comparison: label, localizer and solves per visit.
struct Row {
    label: &'static str,
    localizer: BnlLocalizer,
    reps: usize,
}

fn localizer(backend: Backend, iterations: usize) -> BnlLocalizer {
    BnlLocalizer::builder(backend)
        .prior(PriorModel::DropPoint { sigma: SIGMA })
        .max_iterations(iterations)
        .tolerance(TOLERANCE)
        .try_build()
        .expect("paper_pk localizer configuration is valid")
}

/// The four rows of the backend comparison (experiment F11): grid at
/// resolution 30 with 6 iterations, particle at 150 and 50 particles
/// with 8 iterations, Gaussian with 24.
fn backends() -> Vec<Row> {
    let grid = Backend::grid(30).expect("valid resolution");
    let p150 = Backend::particle(150).expect("valid particle count");
    let p50 = Backend::particle(50).expect("valid particle count");
    vec![
        Row {
            label: "grid",
            localizer: localizer(grid, 6),
            reps: 1,
        },
        Row {
            label: "particle",
            localizer: localizer(p150, 8),
            reps: 1,
        },
        Row {
            label: "particle50",
            localizer: localizer(p50, 8),
            reps: 1,
        },
        Row {
            label: "gaussian",
            localizer: localizer(Backend::gaussian(), 24),
            reps: GAUSSIAN_REPS,
        },
    ]
}

/// The run's inputs: trial ids and their networks with ground truth.
struct Inputs {
    ids: Vec<u64>,
    trials: Vec<(Network, GroundTruth)>,
    build_secs: Vec<f64>,
}

fn make_inputs(seed: u64) -> Inputs {
    let scenario = Scenario::standard_with_preknowledge(SIGMA);
    let ids: Vec<u64> = (0..TRIALS)
        .map(|i| seed.wrapping_mul(TRIALS).wrapping_add(i))
        .collect();
    let mut build_secs = Vec::new();
    let trials = ids
        .iter()
        .map(|&t| {
            let (trial, secs) = timed(|| scenario.build_trial(t));
            build_secs.push(secs);
            trial
        })
        .collect();
    Inputs {
        ids,
        trials,
        build_secs,
    }
}

/// Builds the inputs `SETUP_REPS` times, each followed by a warm-up grid
/// solve; returns the last inputs and the median set-up seconds.
fn setup(seed: u64) -> (Inputs, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let ((inputs, _), s) = timed(|| {
            let inputs = make_inputs(seed);
            let warm = backends()[0]
                .localizer
                .localize(&inputs.trials[0].0, inputs.ids[0]);
            (inputs, warm)
        });
        secs.push(s);
        last = Some(inputs);
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Checked<Report> {
    let (inputs, setup_s) = setup(seed);
    let backends = backends();
    let mut report = Report::default();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); backends.len()];
    let mut rmse = vec![Rmse::default(); backends.len()];
    let mut first: Vec<Vec<Option<LocalizationResult>>> =
        vec![vec![None; inputs.trials.len()]; backends.len()];
    let start = Instant::now();
    let mut visits = 0usize;
    'closed: loop {
        for (i, (net, truth)) in inputs.trials.iter().enumerate() {
            if visits >= inputs.trials.len() && start.elapsed().as_secs_f64() >= seconds {
                break 'closed;
            }
            for (b, backend) in backends.iter().enumerate() {
                for _ in 0..backend.reps {
                    let solve = || backend.localizer.localize(net, inputs.ids[i]);
                    let Some((result, secs)) = attempt(&mut report, solve) else {
                        continue;
                    };
                    check_finite(backend.label, &result)?;
                    samples[b].push(secs);
                    match &first[b][i] {
                        Some(earlier) => ensure(same_bits(earlier, &result), || {
                            format!(
                                "{} trial {}: repeated solve changed estimates",
                                backend.label, inputs.ids[i]
                            )
                        })?,
                        None => {
                            rmse[b].add(&result, truth);
                            first[b][i] = Some(result);
                        }
                    }
                }
            }
            visits += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    for (b, backend) in backends.iter().enumerate() {
        ensure(!samples[b].is_empty(), || {
            format!("{}: every solve failed", backend.label)
        })?;
        report.note(format!(
            "{}_solve_s {} s",
            backend.label,
            crate::common::describe(&samples[b])
        ));
        report.note(format!(
            "{}_rmse_m {:.4} m",
            backend.label,
            rmse[b].value()?
        ));
    }
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", crate::common::peak_rss_mb()?, "MB");
    report.metric(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.metric("solve_a_s", median(&samples[0]), "s");
    report.metric("solve_b_s", median(&samples[1]), "s");
    report.metric("solve_c_s", median(&samples[2]), "s");
    report.metric("solve_d_s", median(&samples[3]), "s");
    report.metric("rmse_a_m", rmse[0].value()?, "m");
    report.metric("rmse_b_m", rmse[1].value()?, "m");
    report.metric("throughput_per_s", visits as f64 / wall, "1/s");
    Ok(report)
}

/// The traced run: every per-layer metric, on the same inputs.
pub fn trace(seed: u64, _seconds: f64) -> Checked<Report> {
    let (inputs, _) = setup(seed);
    let grid = backends().swap_remove(0).localizer;
    let sharded = BnlLocalizer::builder(Backend::grid(30).expect("valid resolution"))
        .prior(PriorModel::DropPoint { sigma: SIGMA })
        .max_iterations(6)
        .tolerance(TOLERANCE)
        .shards(ShardPlan::target_nodes(SHARD_TARGET).expect("valid shard plan"))
        .try_build()
        .expect("paper_pk sharded configuration is valid");
    let mut layers = probe(&Probe {
        nets: &inputs.trials,
        flat: grid.clone(),
        sharded,
        shard_target: SHARD_TARGET,
        engine: EngineKind::Grid(30),
        iterations: 6,
        tolerance: TOLERANCE,
        prior: PriorModel::DropPoint { sigma: SIGMA },
        prior_sigma: Some(SIGMA),
        engines: [
            (EngineKind::Grid(30), 6),
            (EngineKind::Particle(150), 8),
            (EngineKind::Gaussian, 24),
        ],
        small_nets: &inputs.trials[..2],
        seed: inputs.ids[0],
    })?;
    layers.insert("net.build_s", median(&inputs.build_secs));

    // Serve layer on the same trials: one static tenant per trial.
    let tenants: Vec<Network> = inputs.trials.iter().map(|(n, _)| n.clone()).collect();
    let serve = serve_probe(&grid, &tenants, 2)?;
    layers.extend(serve);
    let mut report = Report {
        attempted: layers.len() as u64,
        ..Report::default()
    };
    crate::emit_layers(&mut report, layers)?;
    Ok(report)
}
