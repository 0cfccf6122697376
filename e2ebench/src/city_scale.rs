//! `city_scale`: closed loop over (a) a planned-drop deployment of about
//! 10^5 nodes, solved cold flat, cold sharded and as warm epochs of one
//! sharded session, and (b) an unplanned uniform deployment of 2×10^4
//! nodes solved sharded with the same plan.

use crate::common::{
    attempt, check_finite, ensure, max_gap, median, same_bits, timed, Checked, EngineKind, Report,
    Rmse,
};
use crate::layers::{probe, serve_probe, Probe};
use std::time::Instant;
use wsnloc::prelude::*;
use wsnloc_net::network::NetworkBuilder;

/// Why this workload exists (also in `BENCHMARK.json`).
pub const WHY: &str = "closed loop over a 1e5-node planned deployment (cold flat, cold sharded, \
warm epochs) and a 2e4-node unplanned one: set-up, compile, halo and memory dominate";

/// Nodes of the planned deployment (a).
const PLANNED_NODES: usize = 100_000;
/// Nodes per planned drop point.
const NODES_PER_DROP: usize = 16;
/// Side of the square field of (a), meters: mean degree about 5.7 at
/// the radio range below.
const PLANNED_SIDE: f64 = 7_500.0;
/// Drop scatter of (a) and sigma of its drop-point prior (meters).
const DROP_SIGMA: f64 = 24.0;
/// Nodes of the unplanned deployment (b).
const UNPLANNED_NODES: usize = 20_000;
/// Unit-disk radio range of both deployments (meters).
const RADIUS: f64 = 30.0;
/// Expected neighbours per node in (b), as in the `BENCH_scale` lane.
const UNPLANNED_DEGREE: f64 = 5.0;
/// One anchor per this many nodes (2.5%).
const ANCHOR_EVERY: usize = 40;
/// Fixed Gaussian BP iteration budget of every solve.
const ITERATIONS: usize = 4;
/// Target nodes per shard.
const SHARD_TARGET: usize = 500;
/// Warm session epochs timed per round.
const WARM_EPOCHS: u64 = 3;
/// Largest relative difference allowed between the RMSE of the flat and
/// of the sharded solve of (a). Per node the two differ by metres: each
/// shard draws its own Monte-Carlo prior moments, so the check is on
/// accuracy, not on bits.
const AGREE_RMSE: f64 = 0.02;
/// Repetitions of the set-up; `setup_s` is their median.
const SETUP_REPS: usize = 3;

fn drops_per_side(nodes: usize) -> usize {
    ((nodes / NODES_PER_DROP) as f64).sqrt().round() as usize
}

/// Deployment (a): drops on a square grid, 2.5% random anchors.
pub fn planned(nodes: usize, side: f64, seed: u64) -> (Network, GroundTruth) {
    NetworkBuilder {
        deployment: Deployment::planned_square_drop(side, drops_per_side(nodes), DROP_SIGMA),
        node_count: nodes,
        anchors: AnchorStrategy::Random {
            count: nodes / ANCHOR_EVERY,
        },
        radio: RadioModel::UnitDisk { range: RADIUS },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
    }
    .build(seed)
}

/// Seed of deployment (b), the same in every run. Whether a solve of
/// (b) takes about 2 s or about 8 s on the reference machine depends on
/// where its anchors fall around the field centre, where every free node
/// of an unplanned deployment is laid out (see README, "Unplanned
/// deployments"). A per-run seed would make the metric bimodal; this
/// seed lands in the slow case, so the worst case stays visible.
const UNPLANNED_SEED: u64 = 0xB0E;

/// Deployment (b): uniform, no plan, at the `BENCH_scale` density.
fn unplanned() -> (Network, GroundTruth) {
    let density = UNPLANNED_DEGREE / (std::f64::consts::PI * RADIUS * RADIUS);
    let side = (UNPLANNED_NODES as f64 / density).sqrt();
    NetworkBuilder {
        deployment: Deployment::uniform_square(side),
        node_count: UNPLANNED_NODES,
        anchors: AnchorStrategy::Random {
            count: UNPLANNED_NODES / ANCHOR_EVERY,
        },
        radio: RadioModel::UnitDisk { range: RADIUS },
        ranging: RangingModel::Multiplicative { factor: 0.1 },
    }
    .build(UNPLANNED_SEED)
}

fn localizer(prior: PriorModel, shards: bool) -> BnlLocalizer {
    let mut b = BnlLocalizer::builder(Backend::gaussian())
        .prior(prior)
        .max_iterations(ITERATIONS)
        .tolerance(0.0);
    if shards {
        b = b.shards(ShardPlan::target_nodes(SHARD_TARGET).expect("valid shard plan"));
    }
    b.try_build()
        .expect("city_scale localizer configuration is valid")
}

fn drop_prior() -> PriorModel {
    PriorModel::DropPoint { sigma: DROP_SIGMA }
}

/// The run's inputs.
struct Inputs {
    a: (Network, GroundTruth),
    b: (Network, GroundTruth),
    build_secs: Vec<f64>,
}

/// Builds both deployments `SETUP_REPS` times, each followed by a
/// warm-up flat solve of (b); returns the last inputs and the median
/// set-up seconds.
fn setup(seed: u64) -> (Inputs, f64) {
    let mut secs = Vec::new();
    let mut build_secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Free the previous inputs first, so peak memory holds one copy.
        drop(last.take());
        let (inputs, s) = timed(|| {
            let (a, a_secs) = timed(|| planned(PLANNED_NODES, PLANNED_SIDE, seed));
            build_secs.push(a_secs);
            let b = unplanned();
            localizer(PriorModel::Uninformative, false).localize(&b.0, seed);
            (a, b)
        });
        secs.push(s);
        last = Some(inputs);
    }
    let (a, b) = last.expect("at least one set-up");
    (Inputs { a, b, build_secs }, median(&secs))
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, seconds: f64) -> Checked<Report> {
    let (inputs, setup_s) = setup(seed);
    let (a, truth_a) = &inputs.a;
    let (b, _) = &inputs.b;
    let flat = localizer(drop_prior(), false);
    let sharded = localizer(drop_prior(), true);
    let unplanned_sharded = localizer(PriorModel::Uninformative, true);
    let mut report = Report::default();
    let kinds = [
        (&flat, a, "flat (a)"),
        (&sharded, a, "sharded (a)"),
        (&unplanned_sharded, b, "sharded (b)"),
    ];
    let mut cold_s: [Vec<f64>; 3] = Default::default();
    let mut first: [Option<LocalizationResult>; 3] = Default::default();
    let mut cold = |slot: usize, report: &mut Report| -> Checked<()> {
        let (loc, net, what) = kinds[slot];
        let Some((result, secs)) = attempt(report, || loc.localize(net, seed)) else {
            return Ok(());
        };
        check_finite(what, &result)?;
        cold_s[slot].push(secs);
        match &first[slot] {
            Some(earlier) => ensure(same_bits(earlier, &result), || {
                format!("{what}: repeated cold solve changed estimates")
            }),
            None => {
                first[slot] = Some(result);
                Ok(())
            }
        }
    };
    let mut warm_s = Vec::new();
    let mut session = LocalizationSession::new(sharded.clone());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        cold(0, &mut report)?;
        cold(1, &mut report)?;
        if !session.is_warm() {
            // The session's first epoch is cold; it primes, untimed.
            session.advance(a, seed);
        }
        for _ in 0..WARM_EPOCHS {
            let epoch = session.epoch();
            if let Some((result, secs)) = attempt(&mut report, || session.advance(a, seed + epoch))
            {
                check_finite("warm epoch (a)", &result)?;
                warm_s.push(secs);
            }
        }
        // The unplanned solve runs last, so its large allocations do not
        // precede the timed solves of (a).
        cold(2, &mut report)?;
    }
    let [flat_s, sharded_s, unplanned_s] = &cold_s;
    let [Some(flat_r), Some(sharded_r), Some(_)] = &first else {
        return Err("every solve of one kind failed".into());
    };
    ensure(!warm_s.is_empty(), || "every warm epoch failed".into())?;
    let mut sharded_rmse = Rmse::default();
    sharded_rmse.add(sharded_r, truth_a);
    let mut flat_rmse = Rmse::default();
    flat_rmse.add(flat_r, truth_a);
    let (s_rmse, f_rmse) = (sharded_rmse.value()?, flat_rmse.value()?);
    ensure((s_rmse - f_rmse).abs() <= AGREE_RMSE * f_rmse, || {
        format!("RMSE of (a): sharded {s_rmse} m vs flat {f_rmse} m, beyond {AGREE_RMSE} relative")
    })?;
    let gap = max_gap(flat_r, sharded_r);

    for (name, xs) in [
        ("flat_solve_s", flat_s),
        ("sharded_solve_s", sharded_s),
        ("sharded_epoch_s", &warm_s),
        ("unplanned_sharded_solve_s", unplanned_s),
    ] {
        report.note(format!("{name} {} s", crate::common::describe(xs)));
    }
    report.note(format!("rmse_m {s_rmse:.4} m (sharded, a)"));
    report.note(format!(
        "flat_rmse_m {f_rmse:.4} m (flat, a); largest per-node flat-sharded gap {gap:.2} m"
    ));
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", crate::common::peak_rss_mb()?, "MB");
    report.metric(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.metric("solve_a_s", median(flat_s), "s");
    report.metric("solve_b_s", median(sharded_s), "s");
    report.metric("solve_c_s", median(&warm_s), "s");
    report.metric("solve_d_s", median(unplanned_s), "s");
    report.metric("rmse_a_m", s_rmse, "m");
    report.metric("rmse_b_m", f_rmse, "m");
    let a_solves = flat_s.len() + sharded_s.len() + warm_s.len();
    let a_secs: f64 = flat_s.iter().chain(sharded_s).chain(&warm_s).sum();
    report.metric(
        "throughput_per_s",
        (a_solves * a.len()) as f64 / a_secs,
        "1/s",
    );
    Ok(report)
}

/// The traced run: every per-layer metric, on the same inputs.
pub fn trace(seed: u64, _seconds: f64) -> Checked<Report> {
    let (inputs, _) = setup(seed);
    // Shard-sized planned deployments at the density of (a), for the
    // engines that cannot run on 10^5 nodes and for the CRLB.
    let tile_nodes = SHARD_TARGET;
    let tile_side = PLANNED_SIDE * (tile_nodes as f64 / PLANNED_NODES as f64).sqrt();
    let tiles: Vec<_> = (0..2)
        .map(|k| planned(tile_nodes, tile_side, seed.wrapping_add(k)))
        .collect();
    let flat = localizer(drop_prior(), false);
    let mut layers = probe(&Probe {
        nets: std::slice::from_ref(&inputs.a),
        flat: flat.clone(),
        sharded: localizer(drop_prior(), true),
        shard_target: SHARD_TARGET,
        engine: EngineKind::Gaussian,
        iterations: ITERATIONS,
        tolerance: 0.0,
        prior: drop_prior(),
        prior_sigma: Some(DROP_SIGMA),
        engines: [
            (EngineKind::Grid(30), ITERATIONS),
            (EngineKind::Particle(150), ITERATIONS),
            (EngineKind::Gaussian, ITERATIONS),
        ],
        small_nets: &tiles[..1],
        seed,
    })?;
    layers.insert("net.build_s", median(&inputs.build_secs));

    // The unplanned sharded solve: wall time the observer's spans miss.
    let (result, wall, snap) = crate::common::observed(
        &localizer(PriorModel::Uninformative, true),
        &inputs.b.0,
        seed,
    );
    check_finite("sharded (b)", &result)?;
    let unspanned = wall - crate::common::span_total(&snap);
    let note = format!(
        "unplanned sharded solve (b): wall {wall:.3} s, unspanned {unspanned:.3} s ({:.0}%)",
        100.0 * unspanned / wall
    );
    layers.insert("core.unspanned_s", unspanned);

    // Serve layer: two static tenants on shard-sized deployments.
    let tenants: Vec<Network> = tiles.iter().map(|(n, _)| n.clone()).collect();
    let serve = serve_probe(&flat, &tenants, 3)?;
    layers.extend(serve);
    let mut report = Report {
        attempted: layers.len() as u64,
        ..Report::default()
    };
    report.note(note);
    crate::emit_layers(&mut report, layers)?;
    Ok(report)
}
