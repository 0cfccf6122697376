//! Shared plumbing: timing, order statistics, accuracy, process memory,
//! pool counters and the report every workload returns.

use std::time::Instant;
use wsnloc::prelude::*;
use wsnloc_bayes::{BpEngine, BpOutcome, GaussianBp, GridBp, ParticleBp, SpatialMrf};
use wsnloc_obs::{MetricsObserver, MetricsSnapshot};

/// A failed output check. The run stops and prints no metrics.
pub type Checked<T> = Result<T, String>;

/// Fails the run with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Checked<()> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Wall seconds of one call of `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// Times one solve, counting a panic as a failed operation.
pub fn attempt(
    report: &mut Report,
    f: impl FnOnce() -> LocalizationResult,
) -> Option<(LocalizationResult, f64)> {
    report.attempted += 1;
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| timed(f))).ok();
    if out.is_none() {
        report.failed += 1;
    }
    out
}

/// Median wall seconds over `reps` calls of `f`.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank `q`-quantile of `xs` (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile with at least ten samples above it, and
/// its nearest-rank value; `None` below eleven samples.
pub fn tail(xs: &[f64]) -> Option<(usize, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let pct = (100 * (n - 10)) / n;
    Some((pct, quantile(xs, pct as f64 / 100.0)))
}

/// One timing series described as the benchmark prints it: median, the
/// tail percentile when there is one, and the sample count.
pub fn describe(xs: &[f64]) -> String {
    let t = match tail(xs) {
        Some((p, v)) => format!(" p{p}={v:.6}"),
        None => String::from(" (no tail: fewer than 11 samples)"),
    };
    format!("p50={:.6}{t} n={}", median(xs), xs.len())
}

/// Pooled squared-error accumulator over unknown nodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rmse {
    sum_sq: f64,
    count: u64,
}

impl Rmse {
    /// Adds every unknown node's error of `result` against `truth`.
    pub fn add(&mut self, result: &LocalizationResult, truth: &GroundTruth) {
        for e in result.errors(truth).into_iter().flatten() {
            self.sum_sq += e * e;
            self.count += 1;
        }
    }

    /// Root mean squared error; fails when nothing was added.
    pub fn value(&self) -> Checked<f64> {
        ensure(self.count > 0, || "RMSE over zero nodes".into())?;
        Ok((self.sum_sq / self.count as f64).sqrt())
    }
}

/// Fails the run unless every estimate and uncertainty is finite.
pub fn check_finite(what: &str, result: &LocalizationResult) -> Checked<()> {
    for (id, e) in result.estimates.iter().enumerate() {
        let ok = e.is_some_and(|p| p.x.is_finite() && p.y.is_finite());
        ensure(ok, || format!("{what}: node {id} has estimate {e:?}"))?;
    }
    Ok(())
}

/// `true` when the two results hold bit-identical estimates.
pub fn same_bits(a: &LocalizationResult, b: &LocalizationResult) -> bool {
    a.estimates.len() == b.estimates.len()
        && a.estimates
            .iter()
            .zip(&b.estimates)
            .all(|(x, y)| match (x, y) {
                (Some(p), Some(q)) => {
                    p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits()
                }
                (None, None) => true,
                _ => false,
            })
}

/// Largest per-node distance between the estimates of two results.
pub fn max_gap(a: &LocalizationResult, b: &LocalizationResult) -> f64 {
    a.estimates
        .iter()
        .zip(&b.estimates)
        .filter_map(|(x, y)| Some(x.as_ref()?.dist(*y.as_ref()?)))
        .fold(0.0, f64::max)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Checked<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Resets the peak resident set size to the current one.
pub fn reset_peak_rss() -> Checked<()> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Peak memory of one phase: resets the high-water mark, runs `f`, and
/// reads the mark again.
pub fn phase_peak_mb<R>(f: impl FnOnce() -> R) -> Checked<(R, f64)> {
    reset_peak_rss()?;
    let out = f();
    Ok((out, peak_rss_mb()?))
}

/// Pool counters spent by one call of `f`.
pub fn pool_delta<R>(f: impl FnOnce() -> R) -> (R, rayon::PoolStats) {
    let before = rayon::pool_stats();
    let out = f();
    (out, rayon::pool_stats().since(&before))
}

/// Runs `f` with the engine pool capped at one thread.
pub fn single_threaded<R>(f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("the pool shim builds infallibly")
        .install(f)
}

/// Threads the engine pool uses by default.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Seconds the observer attributed to the span labelled `label`.
pub fn span(snapshot: &MetricsSnapshot, label: &str) -> f64 {
    snapshot
        .span_secs
        .iter()
        .filter(|(l, _, _)| l == label)
        .map(|(_, secs, _)| secs)
        .sum()
}

/// Sum of every span the observer reported.
pub fn span_total(snapshot: &MetricsSnapshot) -> f64 {
    snapshot.span_secs.iter().map(|(_, secs, _)| secs).sum()
}

/// One localize through the public observer entry point: result, wall
/// seconds and the observer's fold.
pub fn observed(
    localizer: &BnlLocalizer,
    network: &Network,
    seed: u64,
) -> (LocalizationResult, f64, MetricsSnapshot) {
    let obs = MetricsObserver::new();
    let (result, secs) = timed(|| localizer.localize_with_observer(network, seed, &obs));
    (result, secs, obs.snapshot())
}

/// Node positions the way `BnlLocalizer` lays out shards: the anchor
/// position, else the planned position, else the field centre.
pub fn shard_positions(network: &Network) -> Vec<Vec2> {
    let center = network.field_bounds().center();
    (0..network.len())
        .map(|id| {
            network
                .anchor_position(id)
                .or_else(|| network.planned_position(id))
                .unwrap_or(center)
        })
        .collect()
}

/// The halo radius `BnlLocalizer` uses when the plan sets none: twice the
/// mean node spacing.
pub fn default_halo_radius(network: &Network) -> f64 {
    let b = network.field_bounds();
    (2.0 * (b.width() * b.height() / network.len() as f64).sqrt()).max(1e-6)
}

/// Which BP engine a probe drives directly.
#[derive(Debug, Clone, Copy)]
pub enum EngineKind {
    /// Grid engine at this resolution.
    Grid(usize),
    /// Particle engine with this many particles.
    Particle(usize),
    /// Gaussian engine.
    Gaussian,
}

/// Runs one engine on a model with `BpEngine::run`, returning wall
/// seconds and the outcome.
pub fn engine_run(kind: EngineKind, mrf: &SpatialMrf, opts: &BpOptions) -> (f64, BpOutcome) {
    match kind {
        EngineKind::Grid(res) => {
            let e = GridBp::with_resolution(res);
            let ((_, out), secs) = timed(|| e.run(mrf, opts));
            (secs, out)
        }
        EngineKind::Particle(n) => {
            let e = ParticleBp::with_particles(n);
            let ((_, out), secs) = timed(|| e.run(mrf, opts));
            (secs, out)
        }
        EngineKind::Gaussian => {
            let e = GaussianBp::default();
            let ((_, out), secs) = timed(|| e.run(mrf, opts));
            (secs, out)
        }
    }
}

/// BP options matching a localizer built with these knobs, for driving
/// the engine directly on the same model.
pub fn bp_options(iterations: usize, tolerance: f64, seed: u64) -> BpOptions {
    BpOptions::builder()
        .max_iterations(iterations)
        .tolerance(tolerance)
        .seed(seed)
        .try_build()
        .expect("benchmark BP options are valid")
}

/// The model seed `BnlLocalizer` derives from a solve seed.
pub fn model_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted.
    pub attempted: u64,
    /// Operations that panicked or returned a non-finite estimate.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records one human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}
