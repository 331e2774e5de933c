//! Batched ray-stream oracles: the SoA batch layer must be invisible.
//!
//! Three properties over every generated scene family:
//!
//! 1. Each kernel's batch entry points are bit-exact (hits *and*
//!    statistics) with its own per-ray calls.
//! 2. Morton-sorting a stream and un-sorting the results reproduces the
//!    unsorted run bit for bit — the §5.2 sorted-ray configuration can
//!    only change throughput, never an answer.
//! 3. The predictor wrapper composes with all three BVH kernels without
//!    changing any answer, cold or warm, sorted or not — and its batch
//!    entry point is bit-exact with its own per-ray calls.

use rip_bvh::{
    Bvh, RayBatch, StacklessKernel, TraversalKernel, TraversalKind, WhileWhileKernel, WideBvh,
    WideKernel,
};
use rip_core::{Predicted, PredictorConfig};
use rip_math::{Ray, Triangle};
use rip_obs::{ClockMode, Obs};
use rip_testkit::{diff, gen};
use std::sync::Arc;

/// A mixed workload over one recipe: guaranteed hits, box-sampled rays
/// (hit/miss blend) and grazing edge rays.
fn workload(recipe: gen::SceneRecipe, seed: u64) -> (Vec<Triangle>, Vec<Ray>) {
    let tris = recipe.triangles(150, seed);
    let bounds = Bvh::build(&tris).bounds();
    let mut rays = gen::hitting_rays(&tris, 90, seed ^ 0x11);
    rays.extend(gen::ray_batch(&bounds, 60, seed ^ 0x22));
    rays.extend(gen::edge_rays(&tris, 30, seed ^ 0x33));
    (tris, rays)
}

fn eager() -> PredictorConfig {
    PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    }
}

#[test]
fn batch_paths_are_bit_exact_with_scalar_for_all_kernels() {
    for recipe in gen::ALL_RECIPES {
        for seed in 0..2 {
            let (tris, rays) = workload(recipe, seed);
            diff::assert_batch_matches_scalar(recipe.name(), &tris, &rays);
        }
    }
}

#[test]
fn morton_sorted_stream_unsorts_to_the_original_run() {
    for recipe in gen::ALL_RECIPES {
        for seed in 0..2 {
            let (tris, rays) = workload(recipe, seed);
            diff::assert_batch_morton_exact(recipe.name(), &tris, &rays);
        }
    }
}

#[test]
fn predicted_wrapper_is_transparent_over_all_three_kernels() {
    let (tris, rays) = workload(gen::SceneRecipe::Walls, 5);
    let bvh = Bvh::build(&tris);
    let wide = WideBvh::from_binary(&bvh);
    let batch = RayBatch::from_rays(&rays);

    let occlusion = WhileWhileKernel::new(&bvh).any_hit_batch(&batch);
    let closest = WhileWhileKernel::new(&bvh).closest_hit_batch(&batch);

    let mut ww = Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh));
    let mut sl = Predicted::new(&bvh, eager(), StacklessKernel::new(&bvh));
    let mut wd = Predicted::new(&bvh, eager(), WideKernel::new(&wide, &bvh));
    for kernel in [&mut ww as &mut dyn TraversalKernel, &mut sl, &mut wd] {
        // Two passes: cold (training) and warm (verifying). The occlusion
        // answer and the exact closest hit must match the bare kernel on
        // both.
        for pass in 0..2 {
            let occ = kernel.any_hit_batch(&batch);
            let clo = kernel.closest_hit_batch(&batch);
            for i in 0..batch.len() {
                assert_eq!(
                    occ[i].hit.is_some(),
                    occlusion[i].hit.is_some(),
                    "{} pass {pass} ray {i}: occlusion answer changed",
                    kernel.name()
                );
                assert_eq!(
                    clo[i].hit.map(|h| (h.tri_index, h.t.to_bits())),
                    closest[i].hit.map(|h| (h.tri_index, h.t.to_bits())),
                    "{} pass {pass} ray {i}: closest hit drifted",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn predicted_wrapper_answers_survive_morton_sorting() {
    let (tris, rays) = workload(gen::SceneRecipe::Clustered, 9);
    let bvh = Bvh::build(&tris);
    let batch = RayBatch::from_rays(&rays);
    let (sorted, perm) = batch.morton_sorted(&bvh.bounds());

    // The sort completely reshapes the predictor's training history, so
    // run a fresh predictor on each ordering and compare answers only.
    let base = Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh)).closest_hit_batch(&batch);
    let unsorted = perm.unsort(
        &Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh)).closest_hit_batch(&sorted),
    );
    for (i, (b, u)) in base.iter().zip(&unsorted).enumerate() {
        assert_eq!(
            b.hit.map(|h| (h.tri_index, h.t.to_bits())),
            u.hit.map(|h| (h.tri_index, h.t.to_bits())),
            "ray {i}: closest hit changed under Morton sorting with a live predictor"
        );
    }
}

/// Drives two identically built predictors through the same cold and
/// warm passes of both query kinds — one through `trace_batch`, one ray
/// by ray through `trace` — and asserts every result and the predictor
/// stats stay bit-identical.
fn assert_predicted_batch_matches_per_ray<'a, K: TraversalKernel>(
    make: impl Fn() -> Predicted<'a, K>,
    batch: &RayBatch,
) {
    let mut batched = make().with_obs(Arc::new(Obs::new(ClockMode::Logical)));
    let mut per_ray = make().with_obs(Arc::new(Obs::new(ClockMode::Logical)));
    let name = batched.name();
    for pass in ["cold", "warm"] {
        for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
            let got = batched.trace_batch(batch, kind);
            assert_eq!(got.len(), batch.len(), "one result per ray");
            for (i, result) in got.iter().enumerate() {
                let want = per_ray.trace(&batch.ray(i), kind);
                diff::assert_results_bit_exact(
                    &format!("{name} {pass} ray {i} ({kind:?}) batch-vs-per-ray"),
                    result,
                    &want,
                );
            }
            assert_eq!(
                batched.predictor().stats(),
                per_ray.predictor().stats(),
                "{name} {pass} ({kind:?}): predictor stats diverged"
            );
        }
    }
    assert!(
        batched.predictor().stats().verified > 0,
        "{name}: the warm pass should verify rays"
    );
}

#[test]
fn predicted_batch_is_bit_exact_with_per_ray_trace() {
    for (recipe, seed) in [
        (gen::SceneRecipe::Walls, 7),
        (gen::SceneRecipe::Clustered, 8),
    ] {
        let (tris, rays) = workload(recipe, seed);
        let bvh = Bvh::build(&tris);
        let wide = WideBvh::from_binary(&bvh);
        let batch = RayBatch::from_rays(&rays);
        assert_predicted_batch_matches_per_ray(
            || Predicted::new(&bvh, eager(), WhileWhileKernel::new(&bvh)),
            &batch,
        );
        assert_predicted_batch_matches_per_ray(
            || Predicted::new(&bvh, eager(), StacklessKernel::new(&bvh)),
            &batch,
        );
        assert_predicted_batch_matches_per_ray(
            || Predicted::new(&bvh, eager(), WideKernel::new(&wide, &bvh)),
            &batch,
        );
    }
}
