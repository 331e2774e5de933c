//! Differential checks for the `rip-obs` counter mirror: the registry
//! attached to a simulator or a `Predicted<K>` kernel must be an exact
//! copy of the report/stats the component returns — no field missing,
//! none double-counted.

use rip_bvh::{
    Bvh, RayBatch, StacklessKernel, TraversalKernel, TraversalKind, WhileWhileKernel, WideBvh,
    WideKernel,
};
use rip_core::{Predicted, PredictionStats, PredictorConfig};
use rip_gpusim::{GpuConfig, Simulator};
use rip_obs::{ClockMode, Obs};
use rip_testkit::gen;
use rip_testkit::obs::{
    prediction_counters, prediction_registry_mismatches, registered_prediction_counters,
    report_registry_mismatches,
};
use std::collections::BTreeMap;
use std::sync::Arc;

fn test_scene() -> (Vec<rip_math::Triangle>, Bvh) {
    let tris = gen::SceneRecipe::Clustered.triangles(600, 0xA11CE);
    let bvh = Bvh::build(&tris);
    (tris, bvh)
}

#[test]
fn sim_report_mirrors_into_registry_exactly() {
    let (tris, bvh) = test_scene();
    let rays = gen::hitting_rays(&tris, 512, 7);

    for config in [GpuConfig::baseline(), GpuConfig::with_predictor()] {
        let obs = Arc::new(Obs::new(ClockMode::Logical));
        let report = Simulator::new(config)
            .with_obs(Arc::clone(&obs))
            .run(&bvh, &rays);
        assert!(report.completed_rays > 0, "simulation did no work");
        let mismatches = report_registry_mismatches(&report, &obs);
        assert!(
            mismatches.is_empty(),
            "registry is not a faithful mirror of the report:\n{}",
            mismatches.join("\n")
        );
    }
}

#[test]
fn sim_report_mirror_accumulates_across_runs() {
    let (tris, bvh) = test_scene();
    let rays = gen::hitting_rays(&tris, 256, 11);
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    let sim = Simulator::new(GpuConfig::with_predictor()).with_obs(Arc::clone(&obs));
    let a = sim.run(&bvh, &rays);
    let b = sim.run(&bvh, &rays);
    assert_eq!(
        obs.get("gpusim.rays.completed"),
        a.completed_rays + b.completed_rays,
        "two runs must mirror the sum of both reports"
    );
    assert_eq!(obs.get("gpusim.cycles"), a.cycles + b.cycles);
}

#[test]
fn predicted_kernel_mirrors_prediction_stats_exactly() {
    let (tris, bvh) = test_scene();
    let rays = gen::hitting_rays(&tris, 200, 3);
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    let config = PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    };
    let mut kernel =
        Predicted::new(&bvh, config, WhileWhileKernel::new(&bvh)).with_obs(Arc::clone(&obs));

    // Two passes so the second verifies predictions made by the first;
    // check the mirror after every single trace, not just at the end.
    for _ in 0..2 {
        for ray in &rays {
            kernel.trace_detailed(ray, TraversalKind::AnyHit);
            let mismatches = prediction_registry_mismatches(&kernel.predictor().stats(), &obs);
            assert!(
                mismatches.is_empty(),
                "registry drifted from PredictionStats:\n{}",
                mismatches.join("\n")
            );
        }
    }
    let stats = kernel.predictor().stats();
    assert!(
        stats.rays > 0 && stats.verified > 0,
        "predictor never engaged"
    );
}

#[test]
fn predicted_mirror_rebaselines_after_stat_reset() {
    let (tris, bvh) = test_scene();
    let rays = gen::hitting_rays(&tris, 64, 5);
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    let config = PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    };
    let mut kernel =
        Predicted::new(&bvh, config, StacklessKernel::new(&bvh)).with_obs(Arc::clone(&obs));
    for ray in &rays {
        kernel.trace_detailed(ray, TraversalKind::AnyHit);
    }
    let before_reset = obs.get("predictor.rays");
    assert_eq!(before_reset, rays.len() as u64);

    // A caller resetting stats must re-baseline the mirror, not panic
    // or double-count: the registry keeps its history and grows by the
    // post-reset deltas. The single trace that spans the reset is
    // swallowed (its saturating delta is 0, after which the baseline
    // snaps to the new stats), so exactly rays.len() - 1 accrue.
    *kernel.predictor_mut().stats_mut() = rip_core::PredictionStats::default();
    for ray in &rays {
        kernel.trace_detailed(ray, TraversalKind::AnyHit);
    }
    assert_eq!(
        obs.get("predictor.rays"),
        before_reset + rays.len() as u64 - 1
    );
    let mismatches = prediction_registry_mismatches(&kernel.predictor().stats(), &obs);
    assert!(
        !mismatches.is_empty(),
        "after a reset the registry intentionally retains pre-reset history"
    );
}

fn eager() -> PredictorConfig {
    PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    }
}

/// Runs cold and warm batches of both query kinds through `kernel` and
/// asserts the registry equals the predictor's stats after every batch.
fn assert_mirrored_after_every_batch<K: TraversalKernel>(
    kernel: Predicted<'_, K>,
    batch: &RayBatch,
) {
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    let mut kernel = kernel.with_obs(Arc::clone(&obs));
    let name = kernel.name();
    for pass in ["cold", "warm"] {
        for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
            kernel.trace_batch(batch, kind);
            let mismatches = prediction_registry_mismatches(&kernel.predictor().stats(), &obs);
            assert!(
                mismatches.is_empty(),
                "{name} {pass} ({kind:?}): registry drifted from PredictionStats:\n{}",
                mismatches.join("\n")
            );
        }
    }
    assert!(
        kernel.predictor().stats().verified > 0,
        "{name}: predictor never verified"
    );
}

#[test]
fn predicted_batch_mirrors_prediction_stats_after_every_batch() {
    let (tris, bvh) = test_scene();
    let wide = WideBvh::from_binary(&bvh);
    let batch = RayBatch::from_rays(&gen::hitting_rays(&tris, 160, 13));
    assert_mirrored_after_every_batch(
        Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh)),
        &batch,
    );
    assert_mirrored_after_every_batch(
        Predicted::new(&bvh, eager(), StacklessKernel::new(&bvh)),
        &batch,
    );
    assert_mirrored_after_every_batch(
        Predicted::new(&bvh, eager(), WideKernel::new(&wide, &bvh)),
        &batch,
    );
}

#[test]
fn predicted_batch_mirror_rebaselines_after_stat_reset() {
    let (tris, bvh) = test_scene();
    let batch = RayBatch::from_rays(&gen::hitting_rays(&tris, 64, 5));
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    let mut kernel =
        Predicted::new(&bvh, eager(), StacklessKernel::new(&bvh)).with_obs(Arc::clone(&obs));
    kernel.any_hit_batch(&batch);
    assert!(prediction_registry_mismatches(&kernel.predictor().stats(), &obs).is_empty());

    // The batch spanning the reset adds each field's saturating delta
    // against the pre-reset baseline — the per-ray mirror's semantics,
    // flushed once — and never panics.
    let before = registered_prediction_counters(&obs);
    let last = prediction_counters(&kernel.predictor().stats());
    *kernel.predictor_mut().stats_mut() = PredictionStats::default();
    kernel.any_hit_batch(&batch);
    let now = prediction_counters(&kernel.predictor().stats());
    let spanning: BTreeMap<String, u64> = before
        .iter()
        .map(|(path, v)| (path.clone(), v + now[path].saturating_sub(last[path])))
        .collect();
    assert_eq!(registered_prediction_counters(&obs), spanning);

    // From the snapped baseline on, every batch adds exactly its own
    // stats delta: registry − stats stays constant.
    let offset = |obs: &Obs, stats: &PredictionStats| -> BTreeMap<String, i128> {
        let stats = prediction_counters(stats);
        registered_prediction_counters(obs)
            .into_iter()
            .map(|(path, v)| {
                let delta = i128::from(v) - i128::from(stats[&path]);
                (path, delta)
            })
            .collect()
    };
    let baseline = offset(&obs, &kernel.predictor().stats());
    for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
        kernel.trace_batch(&batch, kind);
        assert_eq!(offset(&obs, &kernel.predictor().stats()), baseline);
    }
}

#[test]
fn rerouted_predictor_counters_register_only_in_the_final_obs() {
    let (tris, bvh) = test_scene();
    let rays = gen::hitting_rays(&tris, 48, 17);
    let batch = RayBatch::from_rays(&rays);
    let (a, b) = (
        Arc::new(Obs::new(ClockMode::Logical)),
        Arc::new(Obs::new(ClockMode::Logical)),
    );
    let mut kernel = Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh))
        .with_obs(Arc::clone(&a))
        .with_obs(Arc::clone(&b));
    kernel.any_hit_batch(&batch);
    kernel.trace(&rays[0], TraversalKind::ClosestHit);
    kernel.trace_detailed(&rays[1], TraversalKind::AnyHit);
    assert!(
        a.registry().snapshot().is_empty(),
        "the replaced Obs must hold no counters: {:?}",
        a.registry().snapshot()
    );
    assert_eq!(
        b.get("predictor.rays"),
        batch.len() as u64 + 2,
        "every count goes to the final Obs"
    );
    assert!(prediction_registry_mismatches(&kernel.predictor().stats(), &b).is_empty());
}
