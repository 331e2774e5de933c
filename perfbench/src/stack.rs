//! The set-up every phase shares: SB, SP and LE built through a
//! `CaseCache` rooted at a private directory and leased from a
//! `SceneRegistry`, their wide BVHs, the workload's rays on each scene,
//! and the service's request pool over LE.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rip_bvh::{Bvh, RayBatch, TraversalKind, WideBvh};
use rip_exec::{CaseCache, CaseKey};
use rip_math::Triangle;
use rip_obs::{ClockMode, Obs};
use rip_render::{AoConfig, AoWorkload, GiConfig, GiWorkload};
use rip_scene::{SceneId, SceneScale};
use rip_serve::{RequestClass, SceneLease, SceneRegistry};

use crate::{dir_mb, median, ms_since, scene_seed, serve, Ledger, Options, Phase, SpanLog};

/// The three Table-1 scenes, in the order every phase visits them. The
/// service leases the last one, LE.
const SCENES: [SceneId; 3] = [SceneId::Sibenik, SceneId::CrytekSponza, SceneId::LostEmpire];

/// One scene ready to trace: its case, its wide BVH and its rays.
pub(crate) struct Rig {
    pub(crate) code: &'static str,
    pub(crate) lease: SceneLease,
    pub(crate) wide: WideBvh,
    /// The workload's rays: AO rays, or GI bounce segments.
    pub(crate) rays: RayBatch,
}

impl Rig {
    pub(crate) fn bvh(&self) -> &Bvh {
        &self.lease.case.bvh
    }
}

/// Everything one set-up builds.
pub(crate) struct Stack {
    pub(crate) rigs: Vec<Rig>,
    /// The service's request pool over [`Stack::served`].
    pub(crate) requests: Vec<(RequestClass, RayBatch)>,
}

impl Stack {
    /// The scene the service leases: LE.
    pub(crate) fn served(&self) -> &Rig {
        self.rigs.last().expect("a set-up builds every scene")
    }
}

/// Viewport edge of every case: 128² pixels give ~65k AO rays (4 per
/// hit) and ~40k GI bounce segments per scene.
fn viewport(scale: SceneScale) -> u32 {
    match scale {
        SceneScale::Paper => 128,
        _ => 24,
    }
}

fn key(id: SceneId, scale: SceneScale) -> CaseKey {
    CaseKey::square(id, scale, viewport(scale))
}

/// Cold set-ups per run: `setup_s` is their median.
fn reps(scale: SceneScale) -> usize {
    match scale {
        SceneScale::Paper => 5,
        _ => 2,
    }
}

/// Stage times of one cold set-up, milliseconds.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    total_ms: f64,
    case_ms: f64,
    wide_ms: f64,
    rays_ms: f64,
}

/// The workload's rays on one scene, generated from the seed.
fn rays(opts: &Options, lease: &SceneLease, seed: u64) -> RayBatch {
    let case = &lease.case;
    match opts.workload.kind() {
        TraversalKind::AnyHit => {
            let config = AoConfig {
                seed,
                ..AoConfig::default()
            };
            AoWorkload::generate(&case.scene, &case.bvh, &config).batch()
        }
        TraversalKind::ClosestHit => {
            let config = GiConfig { bounces: 3, seed };
            let gi = GiWorkload::generate(&case.scene, &case.bvh, &config);
            // Bounce generations 1-3 only: the incoherent segments.
            RayBatch::from_rays(&gi.rays[gi.primary_rays as usize..])
        }
    }
}

/// One cold set-up into the fresh artifact directory `dir`.
fn build(opts: &Options, dir: &Path, spans: &mut SpanLog) -> (Stack, SetupTimes) {
    let start = Instant::now();
    let setup_span = spans.open("setup", None);
    let cache = CaseCache::with_disk_dir(Some(dir.to_path_buf()))
        .with_obs(Arc::new(Obs::new(ClockMode::Wall)));
    let registry = SceneRegistry::new(Arc::new(cache));
    let mut times = SetupTimes::default();
    let mut rigs = Vec::new();
    for (index, id) in SCENES.into_iter().enumerate() {
        let t0 = Instant::now();
        let lease = registry.get(key(id, opts.scale));
        let t1 = Instant::now();
        let wide = WideBvh::from_binary(&lease.case.bvh);
        let t2 = Instant::now();
        let rays = rays(opts, &lease, scene_seed(opts.seed, index));
        let t3 = Instant::now();
        spans.record("exec.case_build", setup_span, None, t0, t1);
        spans.record("bvh.wide", setup_span, None, t1, t2);
        spans.record("render.rays", setup_span, None, t2, t3);
        times.case_ms += (t1 - t0).as_secs_f64() * 1e3;
        times.wide_ms += (t2 - t1).as_secs_f64() * 1e3;
        times.rays_ms += (t3 - t2).as_secs_f64() * 1e3;
        rigs.push(Rig {
            code: id.code(),
            lease,
            wide,
            rays,
        });
    }
    let served = &rigs.last().expect("three scenes").lease;
    let t0 = Instant::now();
    let requests = serve::request_pool(opts, served);
    let t1 = Instant::now();
    spans.record("render.requests", setup_span, None, t0, t1);
    times.rays_ms += (t1 - t0).as_secs_f64() * 1e3;
    spans.close(setup_span);
    times.total_ms = ms_since(start);
    (Stack { rigs, requests }, times)
}

/// Sets the stack up from cold several times, each into a fresh private
/// artifact directory under `work_dir`, and records the medians of the
/// set-up stages. Returns the last stack and its artifact directory.
pub(crate) fn set_up(
    opts: &Options,
    work_dir: &Path,
    spans: &mut SpanLog,
    ledger: &mut Ledger,
) -> (Stack, PathBuf) {
    let mut times = Vec::new();
    let mut built = None;
    let mut dir = work_dir.to_path_buf();
    for rep in 0..reps(opts.scale) {
        // Drop the previous set-up first, so peak RSS holds one.
        drop(built.take());
        dir = work_dir.join(format!("setup{rep}"));
        let (stack, t) = build(opts, &dir, spans);
        times.push(t);
        built = Some(stack);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    ledger.set("setup_s", med(|t| t.total_ms) / 1e3);
    ledger.set("exec.case_build_ms", med(|t| t.case_ms));
    ledger.set("bvh.wide_ms", med(|t| t.wide_ms));
    ledger.set("render.rays_ms", med(|t| t.rays_ms));
    (built.expect("at least one set-up"), dir)
}

/// Traced runs: the stages the cache performs in one call when it builds
/// a case (scene, binary BVH), timed on their own, and a reload of every
/// case through a fresh `CaseCache` on the warm private `store`, which
/// must be served from disk.
pub(crate) fn stages(
    opts: &Options,
    store: &Path,
    ledger: &mut Ledger,
    spans: &mut SpanLog,
) -> Phase {
    let span = spans.open("setup.stages", None);
    let (mut scene_ms, mut bvh_ms, mut load_ms) = (0.0, 0.0, 0.0);
    let cache = CaseCache::with_disk_dir(Some(store.to_path_buf()))
        .with_obs(Arc::new(Obs::new(ClockMode::Wall)));
    for id in SCENES {
        let edge = viewport(opts.scale);
        let t0 = Instant::now();
        let scene = id.build_with_viewport(opts.scale, edge, edge);
        let t1 = Instant::now();
        let tris: Vec<Triangle> = scene.mesh.triangles().collect();
        let t2 = Instant::now();
        let bvh = Bvh::build(&tris);
        let t3 = Instant::now();
        let case = cache.get_or_build(key(id, opts.scale));
        let t4 = Instant::now();
        drop((bvh, case));
        spans.record("scene.build", span, None, t0, t1);
        spans.record("bvh.build", span, None, t2, t3);
        spans.record("exec.case_load", span, None, t3, t4);
        scene_ms += (t1 - t0).as_secs_f64() * 1e3;
        bvh_ms += (t3 - t2).as_secs_f64() * 1e3;
        load_ms += (t4 - t3).as_secs_f64() * 1e3;
    }
    spans.close(span);
    ledger.set("scene.build_ms", scene_ms);
    ledger.set("bvh.build_ms", bvh_ms);
    ledger.set("exec.case_load_ms", load_ms);
    ledger.set("exec.artifact_mb", dir_mb(store));
    let cases = SCENES.len() as u64;
    let missed = cases - cache.stats().disk_hits.min(cases);
    Phase {
        attempted: cases,
        failed: missed,
        wrong: missed,
        overhead_pct: 0.0,
    }
}
