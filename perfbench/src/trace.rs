//! The trace phase: warm and cold `Predicted<WideKernel>` against bare
//! `WideKernel` on the workload's rays over SB, SP and LE,
//! single-threaded, one round per cycle of the run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rip_bvh::{Hit, NodeId, TraversalKernel, TraversalKind, TraversalResult, WideKernel};
use rip_core::{
    eval_probe, trace_closest_with_hash, trace_closest_with_probe, trace_occlusion_with_hash,
    trace_occlusion_with_probe, Predicted, PredictedTrace, PredictionStats, Predictor,
    PredictorConfig,
};
use rip_math::Ray;
use rip_obs::{ClockMode, Obs};

use crate::stack::{Rig, Stack};
use crate::{median, ms_since, overhead_pct, same_hit, timed, Ledger, Options, Phase, SpanLog};

/// A kernel wrapper that accumulates the time spent in its traversals —
/// the fallback stage of the predictor flow.
struct TimedKernel<K> {
    inner: K,
    ns: u64,
}

impl<K: TraversalKernel> TraversalKernel for TimedKernel<K> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn trace(&mut self, ray: &Ray, kind: TraversalKind) -> TraversalResult {
        let start = Instant::now();
        let result = self.inner.trace(ray, kind);
        self.ns += start.elapsed().as_nanos() as u64;
        result
    }
}

/// Per-stage totals of an instrumented warm pass.
#[derive(Default)]
struct StageTotals {
    rays: u64,
    hash_ns: u64,
    flow_ns: u64,
    probe_ns: u64,
    fallback_ns: u64,
    probe_nodes: u64,
    total_nodes: u64,
    stats: PredictionStats,
}

/// One pass of the predictor flow driven ray by ray through
/// `trace_*_with_probe`, timing the hash, the probe closure and the
/// fallback kernel. Returns the hits.
fn stage_pass(
    rig: &Rig,
    kind: TraversalKind,
    predictor: &mut Predictor,
    totals: &mut StageTotals,
) -> Vec<Option<Hit>> {
    let before = predictor.stats();
    let mut kernel = TimedKernel {
        inner: WideKernel::new(&rig.wide, rig.bvh()),
        ns: 0,
    };
    let mut probe_ns = 0u64;
    let mut hits = Vec::with_capacity(rig.rays.len());
    for i in 0..rig.rays.len() {
        let ray = rig.rays.ray(i);
        let t0 = Instant::now();
        let hash = predictor.hash_ray(&ray);
        let t1 = Instant::now();
        let mut probe = |nodes: &[NodeId]| {
            let start = Instant::now();
            let result = eval_probe(rig.bvh(), &ray, nodes);
            probe_ns += start.elapsed().as_nanos() as u64;
            result
        };
        let trace: PredictedTrace = match kind {
            TraversalKind::AnyHit => trace_occlusion_with_probe(
                predictor,
                rig.bvh(),
                &mut kernel,
                &ray,
                hash,
                &mut probe,
            ),
            TraversalKind::ClosestHit => {
                trace_closest_with_probe(predictor, rig.bvh(), &mut kernel, &ray, hash, &mut probe)
            }
        };
        let t2 = Instant::now();
        totals.hash_ns += (t1 - t0).as_nanos() as u64;
        totals.flow_ns += (t2 - t1).as_nanos() as u64;
        totals.probe_nodes += trace.prediction_stats.node_fetches();
        totals.total_nodes += trace.total_node_fetches();
        hits.push(trace.hit);
    }
    totals.rays += rig.rays.len() as u64;
    totals.probe_ns += probe_ns;
    totals.fallback_ns += kernel.ns;
    let after = predictor.stats();
    totals.stats.rays += after.rays - before.rays;
    totals.stats.predicted += after.predicted - before.predicted;
    totals.stats.verified += after.verified - before.verified;
    totals.stats.predicted_nodes_evaluated +=
        after.predicted_nodes_evaluated - before.predicted_nodes_evaluated;
    hits
}

/// One pass of the same flow through the untimed `trace_*_with_hash`
/// free functions: `Predicted::trace_batch` minus the counter mirror.
fn flow_pass(rig: &Rig, kind: TraversalKind, predictor: &mut Predictor) -> Vec<TraversalResult> {
    let mut kernel = WideKernel::new(&rig.wide, rig.bvh());
    (0..rig.rays.len())
        .map(|i| {
            let ray = rig.rays.ray(i);
            let hash = predictor.hash_ray(&ray);
            let trace = match kind {
                TraversalKind::AnyHit => {
                    trace_occlusion_with_hash(predictor, rig.bvh(), &mut kernel, &ray, hash)
                }
                TraversalKind::ClosestHit => {
                    trace_closest_with_hash(predictor, rig.bvh(), &mut kernel, &ray, hash)
                }
            };
            let mut stats = trace.prediction_stats;
            stats += trace.fallback_stats;
            TraversalResult {
                hit: trace.hit,
                stats,
            }
        })
        .collect()
}

/// Counts the rays whose answer differs from the bare reference.
fn mismatches<'a>(
    kind: TraversalKind,
    reference: &[Option<Hit>],
    got: impl Iterator<Item = &'a Option<Hit>>,
) -> u64 {
    let mut count = reference.len() as u64;
    for (want, have) in reference.iter().zip(got) {
        if same_hit(kind, *want, *have) {
            count -= 1;
        }
    }
    count
}

/// Seconds of the timed passes of one scene in one round.
#[derive(Clone, Copy, Default)]
struct PassTimes {
    cold: f64,
    warm: f64,
    bare: f64,
}

/// The trace phase's state across the run's cycles.
pub(crate) struct TracePhase<'a> {
    kind: TraversalKind,
    trace: bool,
    rigs: &'a [Rig],
    /// The bare kernel's answers: the reference every pass must match.
    references: Vec<Vec<Option<Hit>>>,
    bare_nodes: u64,
    bare_tris: u64,
    total_rays: f64,
    config: PredictorConfig,
    obs: Arc<Obs>,
    totals: Phase,
    rounds: Vec<Vec<PassTimes>>,
    round_ms_on: Vec<f64>,
    round_ms_off: Vec<f64>,
    mirror_ns: Vec<f64>,
    stages: StageTotals,
}

impl<'a> TracePhase<'a> {
    pub(crate) fn new(opts: &Options, stack: &'a Stack) -> Self {
        let kind = opts.workload.kind();
        let mut references = Vec::new();
        let (mut bare_nodes, mut bare_tris, mut total_rays) = (0u64, 0u64, 0u64);
        for rig in &stack.rigs {
            let results = WideKernel::new(&rig.wide, rig.bvh()).trace_batch(&rig.rays, kind);
            for r in &results {
                bare_nodes += r.stats.node_fetches();
                bare_tris += r.stats.tri_fetches;
            }
            total_rays += rig.rays.len() as u64;
            references.push(results.into_iter().map(|r| r.hit).collect());
        }
        TracePhase {
            kind,
            trace: opts.trace,
            rigs: &stack.rigs,
            references,
            bare_nodes,
            bare_tris,
            total_rays: total_rays.max(1) as f64,
            config: PredictorConfig::paper_default(),
            obs: Arc::new(Obs::new(ClockMode::Wall)),
            totals: Phase::default(),
            rounds: Vec::new(),
            round_ms_on: Vec::new(),
            round_ms_off: Vec::new(),
            mirror_ns: Vec::new(),
            stages: StageTotals::default(),
        }
    }

    fn check<'h>(&mut self, scene: usize, hits: impl Iterator<Item = &'h Option<Hit>>) {
        let reference = &self.references[scene];
        self.totals.attempted += reference.len() as u64;
        let wrong = mismatches(self.kind, reference, hits);
        self.totals.failed += wrong;
        self.totals.wrong += wrong;
    }

    /// One round: every scene traced cold, warm and bare; in traced runs
    /// also the instrumented stage passes. `spans_on` says whether the
    /// round's own spans are recorded (traced runs alternate).
    pub(crate) fn step(&mut self, spans: &mut SpanLog, spans_on: bool) {
        let kind = self.kind;
        let rigs = self.rigs;
        spans.set_enabled(spans_on);
        let round_start = Instant::now();
        let mut check_ms = 0.0;
        let round_span = spans.open("trace.round", None);
        let mut times = Vec::with_capacity(rigs.len());
        for (scene, rig) in rigs.iter().enumerate() {
            let scene_span = spans.open(scene_span_name(rig.code), round_span);
            let mut kernel = Predicted::new(
                rig.bvh(),
                self.config,
                WideKernel::new(&rig.wide, rig.bvh()),
            )
            .with_obs(Arc::clone(&self.obs));
            let mut bare_kernel = WideKernel::new(&rig.wide, rig.bvh());
            let t0 = Instant::now();
            let cold = black_box(kernel.trace_batch(black_box(&rig.rays), kind));
            let t1 = Instant::now();
            let warm = black_box(kernel.trace_batch(black_box(&rig.rays), kind));
            let t2 = Instant::now();
            let bare = black_box(bare_kernel.trace_batch(black_box(&rig.rays), kind));
            let t3 = Instant::now();
            spans.record("core.predicted_cold", scene_span, None, t0, t1);
            spans.record("core.predicted_warm", scene_span, None, t1, t2);
            spans.record("bvh.wide4", scene_span, None, t2, t3);
            spans.close(scene_span);
            times.push(PassTimes {
                cold: (t1 - t0).as_secs_f64(),
                warm: (t2 - t1).as_secs_f64(),
                bare: (t3 - t2).as_secs_f64(),
            });
            let check_start = Instant::now();
            for results in [&cold, &warm, &bare] {
                self.check(scene, results.iter().map(|r| &r.hit));
            }
            check_ms += ms_since(check_start);
        }
        spans.close(round_span);
        let round_ms = ms_since(round_start) - check_ms;
        if spans_on {
            self.round_ms_on.push(round_ms);
        } else {
            self.round_ms_off.push(round_ms);
        }
        if self.trace {
            spans.set_enabled(true);
            let mut flow_s = 0.0;
            for (scene, rig) in rigs.iter().enumerate() {
                // Stage timings: a fresh predictor trained by one
                // instrumented pass, then the measured warm pass.
                let stage_span = spans.open("core.stage_pass", round_span);
                let mut predictor = Predictor::new(self.config, rig.bvh().bounds());
                let mut cold_totals = StageTotals::default();
                let cold = stage_pass(rig, kind, &mut predictor, &mut cold_totals);
                let warm = stage_pass(rig, kind, &mut predictor, &mut self.stages);
                spans.close(stage_span);
                // The same flow without the counter mirror.
                let flow_span = spans.open("core.flow_pass", round_span);
                let mut predictor = Predictor::new(self.config, rig.bvh().bounds());
                let flow_cold = flow_pass(rig, kind, &mut predictor);
                let (flow_warm, ms) = timed(|| black_box(flow_pass(rig, kind, &mut predictor)));
                flow_s += ms / 1e3;
                spans.close(flow_span);
                for hits in [&cold, &warm] {
                    self.check(scene, hits.iter());
                }
                for results in [&flow_cold, &flow_warm] {
                    self.check(scene, results.iter().map(|r| &r.hit));
                }
            }
            let warm_s: f64 = times.iter().map(|t| t.warm).sum();
            self.mirror_ns
                .push((warm_s - flow_s) * 1e9 / self.total_rays);
        }
        self.rounds.push(times);
    }

    /// Records the phase's metrics.
    pub(crate) fn finish(self, ledger: &mut Ledger) -> Phase {
        let rigs = self.rigs;
        let rounds = &self.rounds;
        // Each scene's fastest pass of a kind: load from other tenants of
        // the host only ever slows a pass down, so the fastest of many is
        // the steadiest reading of the code's own speed.
        let fastest = |pick: fn(&PassTimes) -> f64, scene: usize| -> f64 {
            rounds
                .iter()
                .map(|round| pick(&round[scene]))
                .fold(f64::INFINITY, f64::min)
        };
        let mrays = |pick: fn(&PassTimes) -> f64, scene: Option<usize>| -> f64 {
            let (rays, secs) = match scene {
                Some(s) => (rigs[s].rays.len() as f64, fastest(pick, s)),
                None => (
                    self.total_rays,
                    (0..rigs.len()).map(|s| fastest(pick, s)).sum(),
                ),
            };
            rays / secs.max(1e-12) / 1e6
        };
        ledger.set("pred_mrays_per_s", mrays(|t| t.warm, None));
        ledger.set("cold_mrays_per_s", mrays(|t| t.cold, None));
        ledger.set("bare_mrays_per_s", mrays(|t| t.bare, None));
        for (s, rig) in rigs.iter().enumerate() {
            ledger.set(
                format!("trace.{}.pred_mrays_per_s", rig.code),
                mrays(|t| t.warm, Some(s)),
            );
            ledger.set(
                format!("trace.{}.bare_mrays_per_s", rig.code),
                mrays(|t| t.bare, Some(s)),
            );
        }
        ledger.set("bvh.wide4_ns_per_ray", 1e3 / mrays(|t| t.bare, None));
        ledger.set(
            "bvh.nodes_per_ray",
            self.bare_nodes as f64 / self.total_rays,
        );
        ledger.set("bvh.tris_per_ray", self.bare_tris as f64 / self.total_rays);
        let stages = &self.stages;
        let per_ray = |v: u64| v as f64 / stages.rays.max(1) as f64;
        let lookup_train = stages
            .flow_ns
            .saturating_sub(stages.probe_ns + stages.fallback_ns);
        ledger.set("core.hash_ns", per_ray(stages.hash_ns));
        ledger.set("core.lookup_train_ns", per_ray(lookup_train));
        ledger.set("core.probe_ns", per_ray(stages.probe_ns));
        ledger.set("core.fallback_ns", per_ray(stages.fallback_ns));
        ledger.set("core.predicted_rate", stages.stats.predicted_rate());
        ledger.set("core.verified_rate", stages.stats.verified_rate());
        ledger.set("core.mean_k", stages.stats.mean_k());
        ledger.set("core.probe_nodes_per_ray", per_ray(stages.probe_nodes));
        ledger.set(
            "core.nodes_saved_per_ray",
            self.bare_nodes as f64 / self.total_rays - per_ray(stages.total_nodes),
        );
        ledger.set("obs.mirror_ns", median(&self.mirror_ns));
        Phase {
            overhead_pct: overhead_pct(&self.round_ms_on, &self.round_ms_off),
            ..self.totals
        }
    }
}

/// Span name of one scene's passes.
fn scene_span_name(code: &str) -> &'static str {
    match code {
        "SB" => "scene.SB",
        "SP" => "scene.SP",
        _ => "scene.LE",
    }
}
