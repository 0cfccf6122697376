//! The unified BP-engine abstraction and the one BP iteration loop.
//!
//! Each backend (grid, particle, Gaussian) implements exactly one
//! required method, [`BpEngine::run_warm`]: the superset entry point
//! taking a [`Transport`] and a [`WarmStart`] describing how beliefs are
//! seeded (cold, epoch carry-over, or mid-run state resume). Streaming
//! and tracking callers thread last epoch's posterior (motion-convolved)
//! back in through [`WarmStart::carried`]. Two shorthands are provided
//! on top of it: [`BpEngine::run`] and [`BpEngine::run_with`] run a cold
//! start on the perfect transport and return `(beliefs, outcome)`,
//! without and with a telemetry observer.
//!
//! All three backends share one loopy-BP driver, `Driver`. A backend's
//! `run_warm` opens a driver with `Driver::start`, builds its initial
//! beliefs and per-node priors, and hands `Driver::run` one per-node
//! update closure `(iteration, node, &beliefs, session) -> belief` that
//! also applies the backend's damping and RNG stream. The driver owns
//! everything else: run telemetry (`RunInfo`, `IterationRecord`,
//! `RunSummary` and the prior-init / message-passing spans), the
//! transport session's per-iteration roll and live-node filter, the
//! synchronous/sweep dispatch, message counting, the per-iteration
//! distribution audit, residuals and the mean-shift convergence test.
//! The driver is generic over the belief type, so each backend gets its
//! own monomorphised loop with no dynamic dispatch per node.
//!
//! [`Belief`] is the read surface the driver and the core localizer need
//! without knowing which backend produced a belief: point estimates,
//! spread, the per-node residual and the distribution audit.

use crate::mrf::{BpOptions, BpOutcome, Schedule, SpatialMrf};
use crate::transport::{Transport, TransportSession};
use crate::validate::{self, DistributionAudit, GraphAudit, ValidationError};
use rayon::prelude::*;
use wsnloc_geom::Vec2;
use wsnloc_obs::{
    CommStats, InferenceObserver, IterationRecord, NodeResidual, NullObserver, RunInfo, RunSummary,
    SpanKind, Stopwatch,
};

/// Backend-agnostic read access to a posterior position belief.
pub trait Belief {
    /// Whether [`Belief::map_estimate`] can return `Some` for this
    /// representation (only the grid backend has a mode extractor).
    const SUPPORTS_MAP: bool;

    /// MMSE point estimate: the posterior mean.
    fn mean(&self) -> Vec2;

    /// Scalar positional uncertainty (RMS spread, meters).
    fn spread(&self) -> f64;

    /// MAP point estimate, for representations that support one.
    fn map_estimate(&self) -> Option<Vec2>;

    /// Whether [`Belief::residual`] compares whole distributions. When it
    /// does (grid beliefs), the BP driver copies each free node's belief
    /// before every iteration, and only while the observer wants
    /// residuals.
    const DISTRIBUTION_RESIDUAL: bool = false;

    /// One node's residual across an iteration as `(residual, kl)`:
    /// `prev_mean` is the node's mean before the iteration and `prev` its
    /// whole previous belief, supplied iff
    /// [`Belief::DISTRIBUTION_RESIDUAL`]. The default is the mean
    /// displacement in meters, with no KL divergence.
    fn residual(&self, prev_mean: Vec2, _prev: Option<&Self>) -> (f64, Option<f64>) {
        (self.mean().dist(prev_mean), None)
    }

    /// Checks that this belief is a well-formed distribution; the BP
    /// driver runs it on every belief after every iteration in audited
    /// builds.
    fn audit(&self, audit: &DistributionAudit, context: &str) -> Result<(), ValidationError>;
}

/// Everything one BP run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome<B> {
    /// Final beliefs, indexed by MRF variable.
    pub beliefs: Vec<B>,
    /// Iteration/convergence/message counters.
    pub bp: BpOutcome,
}

/// How a run seeds its beliefs relative to the model's priors.
///
/// The two slices answer two different questions:
///
/// - `prior` — *what does each free node believe before this epoch's
///   measurements?* When supplied, it replaces the unary-derived base
///   in every update product (epoch carry-over: a posterior carried in
///   from a previous epoch must not be re-multiplied by the
///   pre-knowledge unary it already absorbed).
/// - `state` — *where does the message-passing state start?* When
///   supplied, it seeds the initial belief vector only; the update base
///   stays whatever `prior` (or, absent one, the unary) says. This is
///   the resume semantics sharded execution needs: an outer round
///   continues a run mid-flight without double-counting measurements.
///
/// [`WarmStart::carried`] sets both to the same slice (epoch
/// carry-over); a sharded outer round sets only `state`. Both slices,
/// when present, must hold one belief per MRF variable; entries for
/// fixed (anchor) variables are ignored.
#[derive(Debug)]
pub struct WarmStart<'a, B> {
    /// Epoch prior shadowing each free node's unary in updates.
    pub prior: Option<&'a [B]>,
    /// Initial belief state (message sources at iteration 0).
    pub state: Option<&'a [B]>,
}

impl<B> Clone for WarmStart<'_, B> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<B> Copy for WarmStart<'_, B> {}

impl<'a, B> WarmStart<'a, B> {
    /// A cold start: priors from the model, state from the priors.
    #[must_use]
    pub fn cold() -> Self {
        WarmStart {
            prior: None,
            state: None,
        }
    }

    /// Epoch carry-over: `beliefs` replace both the prior-derived
    /// initial state *and* the unary in every update, so a posterior
    /// carried over from a previous epoch is not double-counted against
    /// the pre-knowledge unary it already absorbed.
    #[must_use]
    pub fn carried(beliefs: &'a [B]) -> Self {
        WarmStart {
            prior: Some(beliefs),
            state: Some(beliefs),
        }
    }

    /// True when neither slice is supplied (the historical cold path).
    #[must_use]
    pub fn is_cold(&self) -> bool {
        self.prior.is_none() && self.state.is_none()
    }
}

/// A loopy-BP inference engine over a [`SpatialMrf`].
///
/// One required method; the two cold-start shorthands are provided. All
/// engines are deterministic in (`mrf`, `opts`, transport plan, warm
/// beliefs): the same inputs give bit-identical beliefs.
pub trait BpEngine {
    /// The belief representation this engine produces.
    type Belief: Belief + Clone + Send + Sync;

    /// Stable backend name, as reported in run telemetry ("grid",
    /// "particle", "gaussian").
    fn backend_name(&self) -> &'static str;

    /// The superset entry point: runs BP with every inter-node message
    /// routed through `transport`, seeding beliefs per `warm` (epoch
    /// prior and/or resumed state — see [`WarmStart`]), reporting
    /// structured telemetry into `obs` and invoking
    /// `on_iter(iteration, beliefs)` after every iteration.
    ///
    /// With [`WarmStart::cold`] this is exactly the historical
    /// cold-start path, bit for bit — per-node RNG streams are split,
    /// not advanced, so skipping a node's initial sampling cannot
    /// perturb any other node.
    fn run_warm<F>(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        transport: &Transport,
        warm: WarmStart<'_, Self::Belief>,
        obs: &dyn InferenceObserver,
        on_iter: F,
    ) -> RunOutcome<Self::Belief>
    where
        F: FnMut(usize, &[Self::Belief]);

    /// Runs BP to convergence or `opts.max_iterations`.
    fn run(&self, mrf: &SpatialMrf, opts: &BpOptions) -> (Vec<Self::Belief>, BpOutcome) {
        self.run_with(mrf, opts, &NullObserver)
    }

    /// Runs BP, reporting telemetry into `obs` (run metadata, spans,
    /// per-iteration residuals and communication counts).
    fn run_with(
        &self,
        mrf: &SpatialMrf,
        opts: &BpOptions,
        obs: &dyn InferenceObserver,
    ) -> (Vec<Self::Belief>, BpOutcome) {
        let out = self.run_warm(
            mrf,
            opts,
            &Transport::perfect(),
            WarmStart::cold(),
            obs,
            |_, _| {},
        );
        (out.beliefs, out.bp)
    }
}

/// The telemetry header of one run.
pub(crate) fn run_info(
    backend: &'static str,
    mrf: &SpatialMrf,
    free: usize,
    opts: &BpOptions,
) -> RunInfo {
    RunInfo {
        backend,
        nodes: mrf.len(),
        free,
        edges: mrf.edges().len(),
        max_iterations: opts.max_iterations,
        tolerance: opts.tolerance,
        damping: opts.damping,
        schedule: opts.schedule.name(),
        message_bytes: opts.message_bytes,
        seed: opts.seed,
    }
}

/// The telemetry record of one iteration (or one sharded outer round)
/// that sent `messages` belief broadcasts.
pub(crate) fn iteration_record(
    iteration: usize,
    max_shift: f64,
    messages: u64,
    opts: &BpOptions,
    secs: f64,
    residuals: Vec<NodeResidual>,
) -> IterationRecord {
    IterationRecord {
        iteration,
        max_shift,
        comm: CommStats {
            messages,
            bytes: messages * opts.message_bytes,
        },
        damping: opts.damping,
        schedule: opts.schedule.name(),
        secs,
        residuals,
    }
}

/// The telemetry summary of a finished run.
pub(crate) fn run_summary(outcome: &BpOutcome, opts: &BpOptions) -> RunSummary {
    RunSummary {
        iterations: outcome.iterations,
        converged: outcome.converged,
        comm: CommStats {
            messages: outcome.messages,
            bytes: outcome.messages * opts.message_bytes,
        },
    }
}

/// The one loopy-BP iteration loop, shared by every flat backend.
///
/// [`Driver::start`] opens the run; the backend then builds its initial
/// beliefs and per-node priors (timed as the prior-init span) and passes
/// them to [`Driver::run`] with its per-node update.
pub(crate) struct Driver<'a, B> {
    backend: &'static str,
    opts: &'a BpOptions,
    obs: &'a dyn InferenceObserver,
    /// Fault state for this run; `None` on the perfect transport, which
    /// compiles every session touchpoint down to the fault-free path.
    session: Option<TransportSession<B>>,
    free: Vec<usize>,
    wants_residuals: bool,
    init_start: Stopwatch,
}

impl<'a, B> Driver<'a, B>
where
    B: Belief + Clone + Send + Sync,
{
    /// Opens a run: audits the graph, reports the run header, builds the
    /// transport session and starts the prior-init span.
    pub(crate) fn start(
        backend: &'static str,
        mrf: &SpatialMrf,
        opts: &'a BpOptions,
        transport: &Transport,
        obs: &'a dyn InferenceObserver,
    ) -> Self {
        validate::enforce(backend, || GraphAudit.check_mrf(mrf));
        let free = mrf.free_vars();
        obs.on_run_start(&run_info(backend, mrf, free.len(), opts));
        let wants_residuals = obs.wants_residuals();
        let session = transport.session::<B>(mrf, opts.seed);
        Driver {
            backend,
            opts,
            obs,
            session,
            free,
            wants_residuals,
            init_start: Stopwatch::start(),
        }
    }

    /// Runs BP from `beliefs` (one per MRF variable) to convergence or
    /// `opts.max_iterations`. Each iteration replaces every live free
    /// node's belief with `update(iteration, node, &beliefs, session)`:
    /// all from the same snapshot under the synchronous schedule, in
    /// node order under the sweep schedule. `pre_messages` seeds the
    /// broadcast count; `on_iter(iteration, beliefs)` runs after every
    /// iteration.
    pub(crate) fn run<U, F>(
        self,
        mut beliefs: Vec<B>,
        pre_messages: u64,
        update: U,
        mut on_iter: F,
    ) -> RunOutcome<B>
    where
        U: Fn(usize, usize, &[B], Option<&TransportSession<B>>) -> B + Sync,
        F: FnMut(usize, &[B]),
    {
        let Driver {
            backend,
            opts,
            obs,
            mut session,
            free,
            wants_residuals,
            init_start,
        } = self;
        obs.on_span(SpanKind::PriorInit, init_start.elapsed_secs());
        let mut outcome = BpOutcome {
            iterations: 0,
            converged: false,
            messages: pre_messages,
        };

        let loop_start = Stopwatch::start();
        for iter in 0..opts.max_iterations {
            let iter_start = Stopwatch::start();
            // Roll this iteration's link fates and deaths (sequentially,
            // before the parallel updates); dead nodes stop updating.
            if let Some(s) = session.as_mut() {
                s.begin_iteration(iter, &beliefs, obs);
            }
            let active_owned: Option<Vec<usize>> = session
                .as_ref()
                .map(|s| free.iter().copied().filter(|&u| s.node_alive(u)).collect());
            let active: &[usize] = active_owned.as_deref().unwrap_or(&free);
            let prev_means: Vec<Vec2> = free.iter().map(|&u| beliefs[u].mean()).collect();
            // Residuals are computed only when the observer asks — the
            // zero-cost contract — and whole previous beliefs are kept
            // only for representations whose residual compares them.
            if wants_residuals {
                wsnloc_obs::accounting::note_residual_buffer();
            }
            let prev_beliefs: Option<Vec<B>> = (wants_residuals && B::DISTRIBUTION_RESIDUAL)
                .then(|| free.iter().map(|&u| beliefs[u].clone()).collect());

            let session_ref = session.as_ref();
            match opts.schedule {
                Schedule::Synchronous => {
                    let new: Vec<(usize, B)> = active
                        .par_iter()
                        .map(|&u| (u, update(iter, u, &beliefs, session_ref)))
                        .collect();
                    for (u, b) in new {
                        beliefs[u] = b;
                    }
                }
                Schedule::Sweep => {
                    for &u in active {
                        beliefs[u] = update(iter, u, &beliefs, session_ref);
                    }
                }
            }

            outcome.iterations = iter + 1;
            outcome.messages += active.len() as u64;
            validate::enforce(backend, || {
                let audit = DistributionAudit::default();
                for (u, b) in beliefs.iter().enumerate() {
                    b.audit(&audit, &format!("belief[{u}] at iteration {iter}"))?;
                }
                Ok(())
            });
            on_iter(iter, &beliefs);

            let max_shift = free
                .iter()
                .zip(&prev_means)
                .map(|(&u, &prev)| beliefs[u].mean().dist(prev))
                .fold(0.0, f64::max);
            let residuals: Vec<NodeResidual> = if wants_residuals {
                free.iter()
                    .enumerate()
                    .map(|(i, &u)| {
                        let prev = prev_beliefs.as_ref().map(|p| &p[i]);
                        let (residual, kl) = beliefs[u].residual(prev_means[i], prev);
                        NodeResidual {
                            node: u,
                            residual,
                            kl,
                        }
                    })
                    .collect()
            } else {
                Vec::new()
            };
            obs.on_iteration(&iteration_record(
                iter,
                max_shift,
                active.len() as u64,
                opts,
                iter_start.elapsed_secs(),
                residuals,
            ));
            if max_shift < opts.tolerance {
                outcome.converged = true;
                break;
            }
        }
        obs.on_span(SpanKind::MessagePassing, loop_start.elapsed_secs());
        obs.on_run_end(&run_summary(&outcome, opts));
        RunOutcome {
            beliefs,
            bp: outcome,
        }
    }
}
