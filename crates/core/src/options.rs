//! Typed, construction-validated option bundles for the localizer.
//!
//! Every knob that used to ride on `BnlLocalizer` as a loose setter now
//! lives in a typed bundle that is *impossible to construct invalid*:
//! [`ParticleOptions`]/[`GridOptions`] parameterize their
//! [`Backend`](crate::localizer::Backend) variants, and [`ShardPlan`]
//! opts a localizer into sharded BP execution. Constructors return
//! [`ValidationError`] at the point of construction — a bad particle
//! count or halo radius fails where it is written, not iterations later
//! inside `try_build` (or worse, inside a run).

use wsnloc_bayes::{CoarseToFine, ValidationError};

/// Options for the nonparametric (particle) backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParticleOptions {
    pub(crate) particles: usize,
}

impl ParticleOptions {
    /// `particles` per unknown node; must be at least 1.
    pub fn new(particles: usize) -> Result<Self, ValidationError> {
        if particles == 0 {
            return Err(ValidationError::InvalidOption {
                option: "particles",
                value: 0.0,
                requirement: "must be at least 1 particle per node",
            });
        }
        Ok(ParticleOptions { particles })
    }

    /// Particles per unknown node.
    #[must_use]
    pub fn particles(&self) -> usize {
        self.particles
    }
}

/// Options for the grid (discrete Bayesian-network) backend: resolution
/// plus the coarse-to-fine knob. The knob is meaningless on any other
/// backend, which is why it lives here and not on the localizer builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOptions {
    pub(crate) resolution: usize,
    pub(crate) refine: Option<CoarseToFine>,
}

impl GridOptions {
    /// `resolution` cells along each axis of the field bounding box;
    /// must be at least 2. Coarse-to-fine refinement defaults to off.
    pub fn new(resolution: usize) -> Result<Self, ValidationError> {
        if resolution < 2 {
            return Err(ValidationError::InvalidOption {
                option: "resolution",
                value: resolution as f64,
                requirement: "must be at least 2 cells per side",
            });
        }
        Ok(GridOptions {
            resolution,
            refine: None,
        })
    }

    /// Enables the coarse-to-fine schedule, validated here.
    pub fn refine(mut self, refine: CoarseToFine) -> Result<Self, ValidationError> {
        self.refine = Some(refine.validated()?);
        Ok(self)
    }

    /// Cells along each axis.
    #[must_use]
    pub fn resolution(&self) -> usize {
        self.resolution
    }
}

/// Opt-in sharded BP execution: the deployment is cut into spatial
/// tiles (`wsnloc-geom`'s [`ShardLayout`](wsnloc_geom::ShardLayout)),
/// each tile sweeps its interior independently on the worker pool, and
/// tiles reconcile through halo exchange each outer round. Meant for
/// deployments from the tens of thousands of nodes up; on a layout that
/// resolves to a single tile the localizer runs the flat engine,
/// bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPlan {
    pub(crate) target_shard_nodes: usize,
    pub(crate) interior_iterations: usize,
    pub(crate) halo_radius: Option<f64>,
}

impl ShardPlan {
    /// Shards sized to roughly `target_shard_nodes` nodes each (at
    /// least 1); the tile grid is derived per network via
    /// [`ShardLayout::tiles_for_target`](wsnloc_geom::ShardLayout::tiles_for_target).
    /// Interior iterations default to 1 (tightest flat-equivalence),
    /// the halo radius to twice the network's mean node spacing.
    pub fn target_nodes(target_shard_nodes: usize) -> Result<Self, ValidationError> {
        if target_shard_nodes == 0 {
            return Err(ValidationError::InvalidOption {
                option: "target_shard_nodes",
                value: 0.0,
                requirement: "must be at least 1 node per shard",
            });
        }
        Ok(ShardPlan {
            target_shard_nodes,
            interior_iterations: 1,
            halo_radius: None,
        })
    }

    /// BP iterations each shard runs between boundary exchanges (at
    /// least 1). Larger values cut synchronization overhead at the cost
    /// of boundary staleness.
    pub fn interior_iterations(mut self, k: usize) -> Result<Self, ValidationError> {
        if k == 0 {
            return Err(ValidationError::InvalidOption {
                option: "interior_iterations",
                value: 0.0,
                requirement: "must be at least 1 interior iteration per round",
            });
        }
        self.interior_iterations = k;
        Ok(self)
    }

    /// Geometric halo radius in meters (positive, finite). Purely a
    /// padding knob: the sharded engine always closes halos over the
    /// factor-graph adjacency, so correctness never depends on this
    /// bounding the longest edge.
    pub fn halo_radius(mut self, radius: f64) -> Result<Self, ValidationError> {
        if !(radius > 0.0 && radius.is_finite()) {
            return Err(ValidationError::InvalidOption {
                option: "halo_radius",
                value: radius,
                requirement: "must be positive and finite",
            });
        }
        self.halo_radius = Some(radius);
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_options_validate_at_construction() {
        assert!(ParticleOptions::new(0).is_err());
        assert_eq!(ParticleOptions::new(300).expect("valid").particles(), 300);
    }

    #[test]
    fn grid_options_validate_at_construction() {
        assert!(GridOptions::new(0).is_err());
        assert!(GridOptions::new(1).is_err());
        assert_eq!(GridOptions::new(25).expect("valid").resolution(), 25);
        // Refinement parameters are checked when attached.
        let bad = CoarseToFine {
            factor: 1,
            ..CoarseToFine::default()
        };
        assert!(GridOptions::new(25).expect("valid").refine(bad).is_err());
        let ok = GridOptions::new(25)
            .expect("valid")
            .refine(CoarseToFine::default())
            .expect("default schedule is valid");
        assert!(ok.refine.is_some());
    }

    #[test]
    fn shard_plan_validates_at_construction() {
        assert!(ShardPlan::target_nodes(0).is_err());
        let plan = ShardPlan::target_nodes(5000).expect("valid");
        assert_eq!(plan.interior_iterations, 1);
        assert!(plan.interior_iterations(0).is_err());
        assert!(plan.halo_radius(0.0).is_err());
        assert!(plan.halo_radius(f64::NAN).is_err());
        assert!(plan.halo_radius(f64::INFINITY).is_err());
        let tuned = plan
            .interior_iterations(3)
            .expect("valid")
            .halo_radius(120.0)
            .expect("valid");
        assert_eq!(tuned.interior_iterations, 3);
        assert_eq!(tuned.halo_radius, Some(120.0));
    }
}
