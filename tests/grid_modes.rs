//! Accuracy contract of the grid backend's opt-in throughput mode: the
//! coarse-to-fine resolution schedule must track the default dense run
//! on a realistic localization scenario (the F4 convergence-experiment
//! shape), and the knob must be rejected with typed errors on backends
//! or parameters where it makes no sense.

use wsnloc::prelude::*;

fn f4_style_scenario() -> Scenario {
    Scenario {
        name: "grid-modes".into(),
        deployment: Deployment::planned_square_drop(400.0, 3, 35.0),
        node_count: 45,
        anchors: AnchorStrategy::Grid { count: 9 },
        radio: RadioModel::UnitDisk { range: 140.0 },
        ranging: RangingModel::Multiplicative { factor: 0.05 },
        seed: 0xF4,
    }
}

fn grid_opts(resolution: usize) -> GridOptions {
    GridOptions::new(resolution).expect("valid grid resolution")
}

fn grid_builder_with(opts: GridOptions) -> BnlLocalizerBuilder {
    BnlLocalizer::builder(Backend::Grid(opts))
        .prior(PriorModel::DropPoint { sigma: 35.0 })
        .max_iterations(8)
        .tolerance(1.0)
}

fn grid_builder(resolution: usize) -> BnlLocalizerBuilder {
    grid_builder_with(grid_opts(resolution))
}

fn rmse(result: &LocalizationResult, truth: &GroundTruth, net: &Network) -> f64 {
    let errs: Vec<f64> = result
        .errors_for(truth, Some(net))
        .into_iter()
        .flatten()
        .collect();
    (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt()
}

/// The coarse-to-fine schedule trades a cheap low-resolution pre-solve
/// for full-resolution iterations; its final accuracy must stay within
/// a cell of the flat dense run.
#[test]
fn coarse_to_fine_rmse_stays_within_a_cell_of_dense() {
    let (net, truth) = f4_style_scenario().build_trial(1);
    let dense = grid_builder(40)
        .try_build()
        .expect("valid dense configuration")
        .localize(&net, 0);
    let refined = grid_builder_with(
        grid_opts(40)
            .refine(CoarseToFine::default())
            .expect("default schedule is valid"),
    )
    .try_build()
    .expect("valid refined configuration")
    .localize(&net, 0);
    let (rd, rr) = (rmse(&dense, &truth, &net), rmse(&refined, &truth, &net));
    let cell = 400.0 / 40.0;
    assert!(
        (rd - rr).abs() < cell,
        "refined RMSE {rr:.3} vs dense RMSE {rd:.3} (cell {cell})"
    );
}

/// The fastest grid configuration still tracks the dense baseline on an
/// independent trial. The grid runs in f64 only, so the fast
/// configuration is the coarse-to-fine schedule on its own.
#[test]
fn combined_f32_and_refinement_track_dense() {
    let (net, truth) = f4_style_scenario().build_trial(2);
    let dense = grid_builder(40)
        .try_build()
        .expect("valid dense configuration")
        .localize(&net, 0);
    let fast = grid_builder_with(
        grid_opts(40)
            .refine(CoarseToFine::default())
            .expect("default schedule is valid"),
    )
    .try_build()
    .expect("valid combined configuration")
    .localize(&net, 0);
    let (rd, rf) = (rmse(&dense, &truth, &net), rmse(&fast, &truth, &net));
    assert!(
        (rd - rf).abs() < 400.0 / 40.0,
        "combined RMSE {rf:.3} vs dense RMSE {rd:.3}"
    );
}

/// The knob is grid-only *by type* — it lives on [`GridOptions`], so
/// attaching it to another backend does not even compile — and its
/// parameters are validated where the options are constructed.
#[test]
fn mode_knobs_are_validated_at_construction_time() {
    // Degenerate resolutions are rejected before a backend exists.
    assert!(Backend::grid(0).is_err());
    assert!(Backend::grid(1).is_err());
    // Degenerate schedule parameters are rejected when attached.
    assert!(grid_opts(40)
        .refine(CoarseToFine {
            factor: 1,
            ..CoarseToFine::default()
        })
        .is_err());
    assert!(grid_opts(40)
        .refine(CoarseToFine {
            concentration: 1.5,
            ..CoarseToFine::default()
        })
        .is_err());
    // The default dense configuration stays valid.
    assert!(grid_builder(40).try_build().is_ok());
}
