//! Per-layer metrics of the traced run. Every layer is timed from
//! outside, by calling its public functions on the workload's own inputs;
//! the observer spans come from `MetricsObserver` attached through the
//! public entry points.

use crate::common::{
    bp_options, check_finite, default_halo_radius, engine_run, ensure, median, median_time,
    model_seed, observed, phase_peak_mb, pool_delta, quantile, same_bits, shard_positions,
    single_threaded, span, span_total, timed, Checked, EngineKind, Rmse,
};
use crate::serve::{run_load, Load};
use std::collections::BTreeMap;
use std::sync::Arc;
use wsnloc::model::{build_mrf, ModelOptions};
use wsnloc::prelude::*;
use wsnloc_bayes::{
    BpOutcome, GaussianBp, GridBp, ParticleBp, ShardedEngine, SpatialMrf, TemperBelief,
};
use wsnloc_geom::ShardLayout;
use wsnloc_obs::{MetricsObserver, MetricsSnapshot};
use wsnloc_serve::SessionConfig;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What the layers are timed on, and with which settings.
pub struct Probe<'a> {
    /// Networks (with truth) the layers run on.
    pub nets: &'a [(Network, GroundTruth)],
    /// The workload's flat localizer.
    pub flat: BnlLocalizer,
    /// The same localizer with the workload's shard plan.
    pub sharded: BnlLocalizer,
    /// Target nodes per shard of that plan.
    pub shard_target: usize,
    /// Engine behind `flat`, with its iteration budget and tolerance.
    pub engine: EngineKind,
    /// Iteration budget of `flat`.
    pub iterations: usize,
    /// Convergence tolerance of `flat`.
    pub tolerance: f64,
    /// Prior of `flat`.
    pub prior: PriorModel,
    /// Gaussian prior sigma for the CRLB (`None`: no pre-knowledge).
    pub prior_sigma: Option<f64>,
    /// Grid, particle and Gaussian engines (with iteration budgets) timed
    /// on `small_nets` through `BpEngine::run`.
    pub engines: [(EngineKind, usize); 3],
    /// Networks small enough for every engine and for the CRLB.
    pub small_nets: &'a [(Network, GroundTruth)],
    /// Base solve seed.
    pub seed: u64,
}

/// The layout `BnlLocalizer` builds for `network` under a shard target.
pub fn layout_for(network: &Network, target: usize) -> ShardLayout {
    let (tx, ty) = ShardLayout::tiles_for_target(network.len(), target);
    ShardLayout::build(
        network.field_bounds(),
        tx,
        ty,
        &shard_positions(network),
        default_halo_radius(network),
    )
}

fn model(network: &Network, prior: &PriorModel, seed: u64) -> SpatialMrf {
    build_mrf(
        network,
        prior,
        &ModelOptions {
            negative_constraints_per_node: 0,
            seed: model_seed(seed),
        },
    )
}

/// `ShardedEngine::run` timed directly, then once more with an observer
/// for its compile and message-passing spans.
fn sharded_engine<E>(
    inner: E,
    layout: &Arc<ShardLayout>,
    mrf: &SpatialMrf,
    opts: &BpOptions,
) -> Checked<(f64, BpOutcome, MetricsSnapshot)>
where
    E: wsnloc_bayes::BpEngine + Sync,
    E::Belief: TemperBelief,
{
    use wsnloc_bayes::BpEngine as _;
    let engine = ShardedEngine::new(inner, Arc::clone(layout), 1).map_err(|e| e.to_string())?;
    let ((_, outcome), secs) = timed(|| engine.run(mrf, opts));
    let obs = MetricsObserver::new();
    let (_, traced) = engine.run_with(mrf, opts, &obs);
    ensure(traced.messages == outcome.messages, || {
        "sharded engine: traced and untraced runs sent different message counts".into()
    })?;
    Ok((secs, outcome, obs.snapshot()))
}

fn sharded_kind(
    kind: EngineKind,
    layout: &Arc<ShardLayout>,
    mrf: &SpatialMrf,
    opts: &BpOptions,
) -> Checked<(f64, BpOutcome, MetricsSnapshot)> {
    match kind {
        EngineKind::Grid(res) => sharded_engine(GridBp::with_resolution(res), layout, mrf, opts),
        EngineKind::Particle(n) => sharded_engine(ParticleBp::with_particles(n), layout, mrf, opts),
        EngineKind::Gaussian => sharded_engine(GaussianBp::default(), layout, mrf, opts),
    }
}

/// Root of the mean per-node CRLB (the bound on the RMSE) over the nodes
/// of every network whose Fisher information is invertible.
fn rms_crlb(nets: &[(Network, GroundTruth)], prior_sigma: Option<f64>) -> Option<f64> {
    let (mut sum, mut count) = (0.0, 0usize);
    for (net, truth) in nets {
        let Some(bounds) = crlb_per_node(net, truth, prior_sigma) else {
            continue;
        };
        for b in bounds.into_iter().flatten() {
            sum += b * b;
            count += 1;
        }
    }
    (count > 0).then(|| (sum / count as f64).sqrt())
}

/// Times every layer on the probe's inputs.
pub fn probe(p: &Probe<'_>) -> Checked<Layers> {
    let mut out = Layers::new();
    let seed_of = |i: usize| p.seed.wrapping_add(i as u64);

    // net: exact sizes of the inputs.
    let measurements: usize = p.nets.iter().map(|(n, _)| n.measurements().len()).sum();
    out.insert("net.measurements", measurements as f64);

    // geom: the shard layout on the positions the localizer uses.
    let mut layout_secs = Vec::new();
    let (mut shards, mut covered, mut nodes) = (0usize, 0usize, 0usize);
    let mut layouts = Vec::new();
    for (net, _) in p.nets {
        layout_secs.push(median_time(3, || {
            layout_for(net, p.shard_target);
        }));
        let layout = layout_for(net, p.shard_target);
        shards += layout.occupied_shards();
        covered += layout
            .shards()
            .iter()
            .map(|s| s.members.len() + s.halo.len())
            .sum::<usize>();
        nodes += net.len();
        layouts.push(Arc::new(layout));
    }
    out.insert("geom.layout_build_s", median(&layout_secs));
    out.insert("geom.shards", shards as f64);
    out.insert("geom.halo_ratio", covered as f64 / nodes as f64);

    // core: model build, then the public localize with and without an
    // observer on the same inputs.
    let mut build_secs = Vec::new();
    let mut edges = 0usize;
    for (i, (net, _)) in p.nets.iter().enumerate() {
        build_secs.push(median_time(3, || {
            model(net, &p.prior, seed_of(i));
        }));
        edges += model(net, &p.prior, seed_of(i)).edges().len();
    }
    out.insert("core.model_build_s", median(&build_secs));
    out.insert("core.edges", edges as f64);

    let (mut plain_wall, mut traced_wall) = (0.0, 0.0);
    let (mut unspanned, mut prior_init, mut passing) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prior_sum, mut messages, mut iterations, mut converged) = (0.0, 0u64, 0u64, 0u64);
    for (i, (net, _)) in p.nets.iter().enumerate() {
        let (plain, secs) = timed(|| p.flat.localize(net, seed_of(i)));
        check_finite("flat localize", &plain)?;
        let (traced, wall, snap) = observed(&p.flat, net, seed_of(i));
        ensure(same_bits(&plain, &traced), || {
            format!("net {i}: traced and untraced estimates differ")
        })?;
        plain_wall += secs;
        traced_wall += wall;
        unspanned.push(wall - span_total(&snap));
        prior_init.push(span(&snap, "prior_init"));
        passing.push(span(&snap, "message_passing"));
        prior_sum += span(&snap, "prior_init");
        messages += plain.comm.messages;
        iterations += plain.iterations as u64;
        converged += u64::from(plain.converged);
    }
    let runs = p.nets.len() as f64;
    out.insert("core.unspanned_s", median(&unspanned));
    out.insert("bayes.prior_init_s", median(&prior_init));
    out.insert("bayes.message_passing_s", median(&passing));
    out.insert("bayes.prior_init_share", prior_sum / traced_wall);
    out.insert("bayes.messages", messages as f64);
    out.insert("bayes.iterations", iterations as f64);
    out.insert("bayes.converged_ratio", converged as f64 / runs);
    out.insert("obs.trace_overhead", traced_wall / plain_wall);

    // Accuracy against the lower bound, on the small networks.
    let mut rmse = Rmse::default();
    for (i, (net, truth)) in p.small_nets.iter().enumerate() {
        rmse.add(&p.flat.localize(net, seed_of(i)), truth);
    }
    let bound = rms_crlb(p.small_nets, p.prior_sigma).ok_or("CRLB: singular Fisher information")?;
    out.insert("core.crlb_efficiency", rmse.value()? / bound);

    // bayes: each engine on the build_mrf output, through BpEngine::run.
    let names = [
        "bayes.grid_run_s",
        "bayes.particle_run_s",
        "bayes.gaussian_run_s",
    ];
    for (name, (kind, iters)) in names.into_iter().zip(p.engines) {
        let secs: Vec<f64> = p
            .small_nets
            .iter()
            .enumerate()
            .map(|(i, (net, _))| {
                let mrf = model(net, &p.prior, seed_of(i));
                engine_run(kind, &mrf, &bp_options(iters, p.tolerance, seed_of(i))).0
            })
            .collect();
        out.insert(name, median(&secs));
    }

    // sharded: the engine run directly over the localizer's layout, its
    // spans, and the public sharded localize against the flat one.
    let (mut run_secs, mut compile, mut sharded_passing) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sharded_msgs, mut flat_msgs) = (0u64, 0u64);
    let (mut flat_wall, mut sharded_wall, mut cold_wall, mut warm_wall) = (0.0, 0.0, 0.0, 0.0);
    for (i, ((net, _), layout)) in p.nets.iter().zip(&layouts).enumerate() {
        let mrf = model(net, &p.prior, seed_of(i));
        let opts = bp_options(p.iterations, p.tolerance, seed_of(i));
        let (secs, outcome, snap) = sharded_kind(p.engine, layout, &mrf, &opts)?;
        run_secs.push(secs);
        compile.push(span(&snap, "model_build"));
        sharded_passing.push(span(&snap, "message_passing"));
        sharded_msgs += outcome.messages;
        flat_msgs += engine_run(p.engine, &mrf, &opts).1.messages;

        let (flat, f_secs) = timed(|| p.flat.localize(net, seed_of(i)));
        let (sharded, s_secs) = timed(|| p.sharded.localize(net, seed_of(i)));
        check_finite("flat localize", &flat)?;
        check_finite("sharded localize", &sharded)?;
        flat_wall += f_secs;
        sharded_wall += s_secs;

        let mut session = LocalizationSession::new(p.sharded.clone());
        let (_, cold) = timed(|| session.advance(net, seed_of(i)));
        let (_, warm) = timed(|| session.advance(net, seed_of(i) + 1));
        cold_wall += cold;
        warm_wall += warm;
    }
    out.insert("sharded.run_s", median(&run_secs));
    out.insert("sharded.compile_s", median(&compile));
    out.insert("sharded.message_passing_s", median(&sharded_passing));
    out.insert(
        "sharded.message_overhead",
        sharded_msgs as f64 / flat_msgs as f64,
    );
    out.insert("sharded.over_flat", sharded_wall / flat_wall);
    out.insert("sharded.warm_over_cold", warm_wall / cold_wall);

    // Peak memory of the flat and the sharded phase on the largest input.
    let (big, _) = p
        .nets
        .iter()
        .max_by_key(|(n, _)| n.len())
        .ok_or("no probe networks")?;
    let (_, flat_peak) = phase_peak_mb(|| p.flat.localize(big, p.seed))?;
    let (_, sharded_peak) = phase_peak_mb(|| p.sharded.localize(big, p.seed))?;
    out.insert("bayes.flat_peak_rss_mb", flat_peak);
    out.insert("sharded.peak_rss_mb", sharded_peak);

    // rayon: pool work per flat solve (exact, so it must repeat) and the
    // speed-up of the default pool over one thread.
    let (first_net, _) = &p.nets[0];
    let (_, first) = pool_delta(|| p.flat.localize(first_net, p.seed));
    let (_, again) = pool_delta(|| p.flat.localize(first_net, p.seed));
    ensure(
        first.batches == again.batches
            && first.jobs == again.jobs
            && first.inline_maps == again.inline_maps,
        || format!("pool counters differ between identical solves: {first:?} vs {again:?}"),
    )?;
    out.insert("rayon.batches", first.batches as f64);
    out.insert("rayon.jobs", first.jobs as f64);
    out.insert("rayon.inline_maps", first.inline_maps as f64);
    let pooled = median_time(2, || {
        p.flat.localize(first_net, p.seed);
    });
    let one = single_threaded(|| {
        median_time(2, || {
            p.flat.localize(first_net, p.seed);
        })
    });
    out.insert("rayon.speedup", one / pooled);
    Ok(out)
}

/// Serve-layer metrics with one static tenant per network: bare
/// `LocalizationSession::advance` over `epochs` epochs each as the solo
/// baseline, whole ticks over the same epochs against it, and one traced
/// open-loop phase at half the solo capacity of the pool, with
/// `capacity_per_tick` one below the tenant count.
pub fn serve_probe(localizer: &BnlLocalizer, tenants: &[Network], epochs: u64) -> Checked<Layers> {
    use wsnloc_serve::{EngineConfig, MeasurementEpoch, StreamingEngine};
    /// Seconds of the traced open-loop phase.
    const LOAD_SECONDS: f64 = 2.0;
    let mut out = Layers::new();
    let epoch_seed = |i: usize, k: u64| (i as u64) << 32 | k;

    let mut solo_secs = Vec::new();
    for (i, net) in tenants.iter().enumerate() {
        let mut session = LocalizationSession::new(localizer.clone());
        for k in 0..epochs {
            solo_secs.push(timed(|| session.advance(net, epoch_seed(i, k))).1);
        }
    }
    out.insert("serve.solo_advance_s", median(&solo_secs));

    let session = SessionConfig::new(localizer.clone());
    let mut engine = StreamingEngine::new(EngineConfig::default());
    let ids: Vec<_> = tenants
        .iter()
        .map(|_| engine.open_session(session.clone()))
        .collect();
    let mut tick_secs = 0.0;
    for k in 0..epochs {
        for (i, (id, net)) in ids.iter().zip(tenants).enumerate() {
            engine.submit(*id, MeasurementEpoch::new(net.clone(), epoch_seed(i, k)));
        }
        tick_secs += timed(|| engine.tick()).1;
    }
    out.insert(
        "serve.overhead_ratio",
        tick_secs / solo_secs.iter().sum::<f64>(),
    );

    let obs = Arc::new(MetricsObserver::new());
    let load = Load {
        rate: 0.5 * crate::common::pool_threads() as f64 / median(&solo_secs),
        seconds: LOAD_SECONDS,
        capacity_per_tick: tenants.len() - 1,
    };
    let stats = run_load(&session, tenants, &load, obs.clone())?;
    let runs = obs.snapshot().runs;
    ensure(runs == stats.admitted, || {
        format!(
            "traced load: observer saw {runs} runs for {} solved epochs",
            stats.admitted
        )
    })?;
    out.insert("serve.tick_p50_s", median(&stats.tick));
    out.insert("serve.tick_p99_s", quantile(&stats.tick, 0.99));
    out.insert("serve.submit_s", median(&stats.submit));
    out.insert("serve.admitted", stats.admitted as f64);
    out.insert("serve.shed", stats.shed as f64);
    out.insert(
        "serve.backlog_max",
        stats.backlog.iter().copied().max().unwrap_or(0) as f64,
    );
    out.insert("serve.gen_late_s", median(&stats.late));
    Ok(out)
}
