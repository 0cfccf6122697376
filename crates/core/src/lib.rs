//! # wsnloc
//!
//! Cooperative localization with pre-knowledge using Bayesian networks for
//! wireless sensor networks — a from-scratch Rust reproduction of the system
//! described by Lo, Wu & Chung (ICPP 2007).
//!
//! ## The algorithm (BNL-PK)
//!
//! Each unknown node's position is a variable in a Bayesian network whose
//! factors are (a) *pre-knowledge priors* — what is known about a node's
//! position before any measurement (planned drop points, deployment zones) —
//! and (b) pairwise *measurement likelihoods* between radio neighbors (noisy
//! ranges). Anchors enter as observed variables. Localization is loopy
//! belief propagation on this network, run with either a discretized-grid or
//! a particle (nonparametric) belief representation, both provided by
//! [`wsnloc_bayes`].
//!
//! ## Quick start
//!
//! ```
//! use wsnloc::prelude::*;
//!
//! // Simulate a standard network with drop-point pre-knowledge.
//! let scenario = Scenario::standard_with_preknowledge(100.0);
//! let (network, truth) = scenario.build_trial(0);
//!
//! // Localize with the particle backend and drop-point priors.
//! let localizer = BnlLocalizer::builder(Backend::particle(150).expect("valid backend"))
//!     .prior(PriorModel::DropPoint { sigma: 100.0 })
//!     .max_iterations(8)
//!     .try_build()
//!     .expect("valid configuration");
//! let result = localizer.localize(&network, 0);
//!
//! // Mean error, normalized by the radio range.
//! let errors = result.errors(&truth);
//! let mean: f64 = errors.iter().flatten().sum::<f64>() / errors.iter().flatten().count() as f64;
//! assert!(mean / scenario.nominal_range() < 1.0);
//! ```
//!
//! Modules:
//! - [`prior`] — pre-knowledge models mapped onto unary potentials.
//! - [`adapter`] — measurement/radio models adapted to BP potentials.
//! - [`model`] — [`model::build_mrf`]: network → Bayesian network.
//! - [`localizer`] — the [`BnlLocalizer`] engine and the
//!   [`Localizer`] trait every algorithm in the workspace implements.
//! - [`session`] — [`session::LocalizationSession`]: the streaming
//!   entry point; one BP solve per measurement epoch with posterior
//!   beliefs motion-predicted and carried into the next epoch.
//!   One-shot [`Localizer::localize`] is the single-epoch case.
//! - [`result`] — [`LocalizationResult`] and error computation.
//! - [`crlb`] — the Cramér–Rao lower bound for range-based cooperative
//!   localization with Gaussian priors.
//! - [`obs`] (re-export of `wsnloc_obs`) — convergence telemetry: attach an
//!   [`obs::TraceObserver`] via [`Localizer::localize_with_observer`] to
//!   record per-iteration residuals, communication, timing spans, and
//!   structured events, or stream them to JSONL with [`obs::JsonlSink`].

#![warn(missing_docs)]

pub mod adapter;
pub mod crlb;
pub mod localizer;
pub mod model;
pub mod options;
pub mod prior;
pub mod result;
pub mod session;
pub mod tracking;

pub use localizer::{Backend, BnlLocalizer, BnlLocalizerBuilder, Estimator};
pub use options::{GridOptions, ParticleOptions, ShardPlan};
pub use prior::PriorModel;
pub use result::{LocalizationResult, Localizer};
pub use session::{CarriedBeliefs, LocalizationSession};
pub use tracking::{TrackingLocalizer, TrackingLocalizerBuilder};
pub use wsnloc_bayes::{CoarseToFine, MotionModel};
pub use wsnloc_obs as obs;

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::crlb::crlb_per_node;
    pub use crate::localizer::{Backend, BnlLocalizer, BnlLocalizerBuilder, Estimator};
    pub use crate::options::{GridOptions, ParticleOptions, ShardPlan};
    pub use crate::prior::PriorModel;
    pub use crate::result::{LocalizationResult, Localizer};
    pub use crate::session::{CarriedBeliefs, LocalizationSession};
    pub use crate::tracking::{TrackingLocalizer, TrackingLocalizerBuilder};
    pub use wsnloc_bayes::{
        BpEngine, BpOptions, CoarseToFine, MotionModel, Schedule, Transport, ValidationError,
    };
    pub use wsnloc_geom::{Aabb, Shape, Vec2};
    pub use wsnloc_net::{
        AnchorStrategy, DeathModel, Deployment, DropPolicy, FaultPlan, GroundTruth, LossModel,
        Network, NodeDeath, RadioModel, RangingModel, Scenario,
    };
    pub use wsnloc_obs::{InferenceObserver, JsonlSink, NullObserver, TraceObserver};
}
