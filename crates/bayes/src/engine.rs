//! The unified BP-engine abstraction.
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
//! [`Belief`] is the minimal read surface the core localizer needs to
//! turn a backend's belief into a point estimate without knowing which
//! backend produced it.

use crate::mrf::{BpOptions, BpOutcome, SpatialMrf};
use crate::transport::Transport;
use wsnloc_geom::Vec2;
use wsnloc_obs::{InferenceObserver, NullObserver};

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
