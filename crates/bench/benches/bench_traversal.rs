//! Traversal-kernel throughput microbench and perf-gate artifact
//! (rays/sec per kernel × scene).
//!
//! Compares the per-ray steppable baseline (`Bvh::intersect`) against the
//! batched ray-stream entry points of every [`TraversalKernel`] on the
//! suite's AO workloads, then writes machine-readable results:
//!
//! * `--mode full` (default) — 15 timed samples per cell, rewrites the
//!   committed baseline `BENCH_traversal.json` at the repository root.
//! * `--mode smoke` — identical scenes and workloads but 3 samples,
//!   written to `BENCH_traversal.smoke.json` so a CI run never dirties
//!   the committed baseline. The `perf-gate` CI job diffs the smoke
//!   numbers against the baseline after normalizing each kernel column
//!   to the in-run `while_while_scalar` throughput, which cancels
//!   machine-speed differences between the baseline host and the runner.
//!
//! Two more columns time the warm predictor over wide4: `predicted_wide4`
//! is `Predicted<WideKernel>::trace_batch` with an `Obs` attached, and
//! `predicted_wide4_flow` is the same flow through
//! `trace_occlusion_with_hash` with no counter mirror. Their samples
//! alternate, and `perf-gate` fails when the smoke run's geomean of
//! `predicted_wide4 / predicted_wide4_flow` drops below 0.95 — counters
//! left on must cost under 5%, measured within one run.
//!
//! Run it with:
//!
//! ```text
//! cargo bench -p rip-bench --features simd --bench bench_traversal                 # full
//! cargo bench -p rip-bench --features simd --bench bench_traversal -- --mode smoke
//! ```
//!
//! The committed baseline is generated with `--features simd`; the JSON
//! records the compiled lane backend so the gate can refuse to compare
//! mismatched configurations.

use std::sync::Arc;
use std::time::Instant;

use criterion::{BenchmarkId, Criterion, Throughput};
use rip_bvh::{
    simd, Bvh, RayBatch, StacklessKernel, TraversalKernel, TraversalKind, TraversalResult,
    WhileWhileKernel, WideBvh, WideKernel,
};
use rip_core::{trace_occlusion_with_hash, Predicted, Predictor, PredictorConfig};
use rip_math::Triangle;
use rip_obs::{ClockMode, Obs};
use rip_render::{AoConfig, AoWorkload};
use rip_scene::{SceneId, SceneScale};

/// One prepared scene: geometry, both acceleration structures, AO rays.
struct Prepared {
    code: &'static str,
    bvh: Bvh,
    wide: WideBvh,
    batch: RayBatch,
}

/// Timed samples per kernel (median reported).
const SAMPLES_FULL: usize = 15;
const SAMPLES_SMOKE: usize = 3;
/// Timed samples per predicted column (fastest reported), in both
/// modes: one pass is a few milliseconds, and the mirror gate compares
/// two columns within one run, so it needs more than three samples to
/// ride out a slow stretch of the host.
const PAIRED_SAMPLES: usize = 31;
/// The workload is identical in both modes so normalized columns are
/// comparable between a smoke run and the committed full baseline.
const VIEWPORT: u32 = 48;
const MAX_RAYS: usize = 4096;

fn prepare(id: SceneId, code: &'static str) -> Prepared {
    let scene = id.build_with_viewport(SceneScale::Tiny, VIEWPORT, VIEWPORT);
    let tris: Vec<Triangle> = scene.mesh.triangles().collect();
    let bvh = Bvh::build(&tris);
    let wide = WideBvh::from_binary(&bvh);
    let rays = AoWorkload::generate(&scene, &bvh, &AoConfig::default()).rays;
    let batch = RayBatch::from_rays(&rays[..rays.len().min(MAX_RAYS)]);
    Prepared {
        code,
        bvh,
        wide,
        batch,
    }
}

/// Median wall-clock seconds for one full-batch trace.
fn median_secs(samples: usize, mut trace: impl FnMut() -> usize) -> f64 {
    // One warm-up pass populates caches and checks the workload is sane.
    assert!(trace() > 0, "benchmark batch traced zero rays");
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(trace());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The predicted any-hit flow through the free `trace_*_with_hash`
/// functions: `Predicted::trace_batch` minus the counter mirror.
fn predicted_flow(
    predictor: &mut Predictor,
    bvh: &Bvh,
    kernel: &mut WideKernel,
    batch: &RayBatch,
) -> Vec<TraversalResult> {
    (0..batch.len())
        .map(|i| {
            let ray = batch.ray(i);
            let hash = predictor.hash_ray(&ray);
            let trace = trace_occlusion_with_hash(predictor, bvh, kernel, &ray, hash);
            let mut stats = trace.prediction_stats;
            stats += trace.fallback_stats;
            TraversalResult {
                hit: trace.hit,
                stats,
            }
        })
        .collect()
}

/// Fastest wall-clock seconds of a warm `Predicted<WideKernel>` batch
/// with an `Obs` attached, and of the same flow with no mirror.
///
/// Two predictors with identical training histories trade places between
/// the variants, and the variants alternate which runs first, so table
/// placement and host load fall on both alike. Load from other tenants
/// only ever slows a pass down, so the fastest of many samples is the
/// steadiest in-run reading.
fn predicted_fastest_secs(p: &Prepared, samples: usize) -> (f64, f64) {
    let config = PredictorConfig::paper_default();
    let obs = Arc::new(Obs::new(ClockMode::Wall));
    let mut predictors = [(); 2].map(|_| Some(Predictor::new(config, p.bvh.bounds())));
    let mirrored = |slot: &mut Option<Predictor>| {
        let predictor = slot.take().expect("predictor in its slot");
        let mut kernel =
            Predicted::with_predictor(&p.bvh, predictor, WideKernel::new(&p.wide, &p.bvh))
                .with_obs(Arc::clone(&obs));
        let start = Instant::now();
        let results = std::hint::black_box(kernel.any_hit_batch(&p.batch));
        let secs = start.elapsed().as_secs_f64();
        *slot = Some(kernel.into_predictor());
        (results, secs)
    };
    let unmirrored = |slot: &mut Option<Predictor>| {
        let predictor = slot.as_mut().expect("predictor in its slot");
        let mut kernel = WideKernel::new(&p.wide, &p.bvh);
        let start = Instant::now();
        let results =
            std::hint::black_box(predicted_flow(predictor, &p.bvh, &mut kernel, &p.batch));
        (results, start.elapsed().as_secs_f64())
    };
    let (mut fastest_mirrored, mut fastest_flow) = (f64::INFINITY, f64::INFINITY);
    // Two untimed passes (cold, then warm-up) before the timed ones.
    for i in 0..samples + 2 {
        let [first, second] = &mut predictors;
        let (a, b) = if (i / 2) % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        let ((with, t_with), (without, t_without)) = if i % 2 == 0 {
            (mirrored(a), unmirrored(b))
        } else {
            let flow = unmirrored(b);
            (mirrored(a), flow)
        };
        assert!(
            with.iter().zip(&without).all(|(x, y)| x.hit == y.hit),
            "{}: the mirror changed a predicted answer",
            p.code
        );
        if i >= 2 {
            fastest_mirrored = fastest_mirrored.min(t_with);
            fastest_flow = fastest_flow.min(t_without);
        }
    }
    (fastest_mirrored, fastest_flow)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--quick")
        || args.windows(2).any(|w| w[0] == "--mode" && w[1] == "smoke");
    let samples = if smoke { SAMPLES_SMOKE } else { SAMPLES_FULL };
    // Table-1 order, smallest to largest triangle budget; the last entry
    // is the suite's largest scene and anchors the headline speedup.
    let scene_list: &[(SceneId, &'static str)] = &[
        (SceneId::Sibenik, "SB"),
        (SceneId::CrytekSponza, "SP"),
        (SceneId::LostEmpire, "LE"),
    ];
    let prepared: Vec<Prepared> = scene_list
        .iter()
        .map(|&(id, code)| prepare(id, code))
        .collect();

    // Criterion console output: any-hit throughput per kernel × scene.
    let mut criterion = Criterion::default().configure_from_args();
    let mut scene_rows = Vec::new();
    let mut speedups = Vec::new();
    for p in &prepared {
        let n = p.batch.len();
        let mut group = criterion.benchmark_group("bench_traversal");
        group.throughput(Throughput::Elements(n as u64));
        group.sample_size(samples.max(5));

        let scalar = |batch: &RayBatch| {
            let mut hits = 0usize;
            for i in 0..batch.len() {
                let ray = batch.ray(i);
                if p.bvh.intersect(&ray, TraversalKind::AnyHit).hit.is_some() {
                    hits += 1;
                }
            }
            hits
        };
        let batched = |kernel: &mut dyn TraversalKernel, batch: &RayBatch| {
            kernel
                .any_hit_batch(batch)
                .iter()
                .filter(|r| r.hit.is_some())
                .count()
        };

        group.bench_with_input(
            BenchmarkId::new("while_while_scalar", p.code),
            &p.batch,
            |b, batch| b.iter(|| scalar(batch)),
        );
        group.bench_with_input(
            BenchmarkId::new("while_while_batched", p.code),
            &p.batch,
            |b, batch| b.iter(|| batched(&mut WhileWhileKernel::new(&p.bvh), batch)),
        );
        group.bench_with_input(
            BenchmarkId::new("stackless_batched", p.code),
            &p.batch,
            |b, batch| b.iter(|| batched(&mut StacklessKernel::new(&p.bvh), batch)),
        );
        group.bench_with_input(
            BenchmarkId::new("wide4_batched", p.code),
            &p.batch,
            |b, batch| b.iter(|| batched(&mut WideKernel::new(&p.wide, &p.bvh), batch)),
        );
        group.finish();

        // Explicit median timing for the JSON artifact.
        let t_scalar = median_secs(samples, || scalar(&p.batch));
        let t_ww = median_secs(samples, || {
            batched(&mut WhileWhileKernel::new(&p.bvh), &p.batch)
        });
        let t_sl = median_secs(samples, || {
            batched(&mut StacklessKernel::new(&p.bvh), &p.batch)
        });
        let t_wide = median_secs(samples, || {
            batched(&mut WideKernel::new(&p.wide, &p.bvh), &p.batch)
        });
        let (t_pred, t_flow) = predicted_fastest_secs(p, PAIRED_SAMPLES);
        let rps = |t: f64| n as f64 / t.max(1e-12);
        let speedup = t_scalar / t_ww.max(1e-12);
        println!(
            "{}: batched while-while {:.2}x over per-ray baseline ({:.2} vs {:.2} Mrays/s); \
             wide4 {:.2} Mrays/s ({:.2}x over batched while-while); \
             warm predicted wide4 {:.2} Mrays/s ({:.3}x its unmirrored flow)",
            p.code,
            speedup,
            rps(t_ww) / 1e6,
            rps(t_scalar) / 1e6,
            rps(t_wide) / 1e6,
            t_ww / t_wide.max(1e-12),
            rps(t_pred) / 1e6,
            t_flow / t_pred.max(1e-12),
        );
        scene_rows.push(format!(
            "    {{\"scene\": \"{}\", \"triangles\": {}, \"rays\": {}, \
             \"rays_per_sec\": {{\
             \"while_while_scalar\": {:.0}, \
             \"while_while_batched\": {:.0}, \
             \"stackless_batched\": {:.0}, \
             \"wide4_batched\": {:.0}, \
             \"predicted_wide4\": {:.0}, \
             \"predicted_wide4_flow\": {:.0}}}, \
             \"batched_over_scalar_speedup\": {:.4}}}",
            p.code,
            p.bvh.triangle_count(),
            n,
            rps(t_scalar),
            rps(t_ww),
            rps(t_sl),
            rps(t_wide),
            rps(t_pred),
            rps(t_flow),
            speedup
        ));
        speedups.push(speedup);
    }
    criterion.final_summary();

    // The last prepared scene is the largest in the suite.
    let largest = prepared.last().expect("at least one scene");
    let largest_speedup = *speedups.last().expect("one speedup per scene");
    let json = format!(
        "{{\n  \"bench\": \"bench_traversal\",\n  \"mode\": \"{}\",\n  \"backend\": \"{}\",\n  \
         \"scenes\": [\n{}\n  ],\n  \
         \"largest_scene\": \"{}\",\n  \"largest_scene_batched_speedup\": {:.4}\n}}\n",
        if smoke { "smoke" } else { "full" },
        simd::backend_name(),
        scene_rows.join(",\n"),
        largest.code,
        largest_speedup
    );
    let file = if smoke {
        "BENCH_traversal.smoke.json"
    } else {
        "BENCH_traversal.json"
    };
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}");
}
