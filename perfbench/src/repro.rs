//! The repro phase: the reproduction path over a subset of the
//! workload's rays on SB, SP and LE, one pass per cycle of the run — `FunctionalSim::run_batch`, then
//! `Simulator::run_batch` under the baseline and the predictor GPU
//! configurations. The simulators model occlusion (any-hit) traversal
//! only, so the `gi` workload's bounce segments run as occlusion
//! queries.

use std::sync::Arc;
use std::time::Instant;

use rip_bvh::{Bvh, RayBatch, TraversalKernel, WideKernel};
use rip_core::{FunctionalSim, PredictorConfig, SimOptions};
use rip_gpusim::{GpuConfig, Simulator};
use rip_obs::{ClockMode, Obs};
use rip_scene::SceneScale;

use crate::stack::Stack;
use crate::{jobs, ms_since, overhead_pct, Ledger, Options, Phase, SpanLog};

/// Rays per scene in the subset: ~8k keeps one single-worker
/// reproduction pass near two seconds.
fn subset_rays(scale: SceneScale) -> usize {
    match scale {
        SceneScale::Paper => 8192,
        _ => 256,
    }
}

/// Every `stride`-th ray of `rays`, the stride chosen so that about
/// `target` rays remain: the subset spans the whole image.
fn subset(rays: &RayBatch, target: usize) -> RayBatch {
    let stride = rays.len().div_ceil(target.max(1)).max(1);
    let picked: Vec<_> = (0..rays.len())
        .step_by(stride)
        .map(|i| rays.ray(i))
        .collect();
    RayBatch::from_rays(&picked)
}

/// The exact simulated counts of one scene, which must repeat.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Counts {
    cycles_base: u64,
    cycles_pred: u64,
    memory_savings_bits: u64,
}

/// Host milliseconds of one pass, per stage.
#[derive(Clone, Copy, Default)]
struct PassMs {
    functional: f64,
    base: f64,
    pred: f64,
}

/// The repro phase's state across the run's cycles.
pub(crate) struct ReproPhase<'a> {
    /// Each scene's tree, ray subset and bare-kernel hit count.
    cases: Vec<(&'a Bvh, RayBatch, u64)>,
    obs: Arc<Obs>,
    functional: FunctionalSim,
    totals: Phase,
    /// The first pass's counts, which every later pass must repeat.
    first: Option<Vec<Counts>>,
    memory_savings: Vec<f64>,
    passes: Vec<Vec<PassMs>>,
    pass_ms_on: Vec<f64>,
    pass_ms_off: Vec<f64>,
}

impl<'a> ReproPhase<'a> {
    pub(crate) fn new(opts: &Options, stack: &'a Stack) -> Self {
        let cases = stack
            .rigs
            .iter()
            .map(|rig| {
                let rays = subset(&rig.rays, subset_rays(opts.scale));
                let hits = WideKernel::new(&rig.wide, rig.bvh())
                    .any_hit_batch(&rays)
                    .iter()
                    .filter(|r| r.hit.is_some())
                    .count() as u64;
                (rig.bvh(), rays, hits)
            })
            .collect();
        ReproPhase {
            cases,
            obs: Arc::new(Obs::new(ClockMode::Wall)),
            functional: FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default()),
            totals: Phase::default(),
            first: None,
            memory_savings: Vec::new(),
            passes: Vec::new(),
            pass_ms_on: Vec::new(),
            pass_ms_off: Vec::new(),
        }
    }

    fn simulator(&self, config: GpuConfig) -> Simulator {
        Simulator::new(config)
            .with_obs(Arc::clone(&self.obs))
            .with_jobs(jobs())
    }

    /// One reproduction pass over the three scenes. `spans_on` says
    /// whether its spans are recorded (traced runs alternate).
    pub(crate) fn step(&mut self, spans: &mut SpanLog, spans_on: bool) {
        spans.set_enabled(spans_on);
        let pass_start = Instant::now();
        let pass_span = spans.open("repro.pass", None);
        let mut counts = Vec::new();
        let mut times = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        self.memory_savings.clear();
        for &(bvh, ref rays, reference) in &self.cases {
            let t0 = Instant::now();
            let report = self.functional.run_batch(bvh, rays);
            let t1 = Instant::now();
            let base = self.simulator(GpuConfig::baseline()).run_batch(bvh, rays);
            let t2 = Instant::now();
            let pred = self
                .simulator(GpuConfig::with_predictor())
                .run_batch(bvh, rays);
            let t3 = Instant::now();
            spans.record("core.functional", pass_span, None, t0, t1);
            spans.record("gpusim.base", pass_span, None, t1, t2);
            spans.record("gpusim.pred", pass_span, None, t2, t3);
            times.push(PassMs {
                functional: (t1 - t0).as_secs_f64() * 1e3,
                base: (t2 - t1).as_secs_f64() * 1e3,
                pred: (t3 - t2).as_secs_f64() * 1e3,
            });
            let n = rays.len() as u64;
            attempted += 3;
            failed += u64::from(report.rays != n || report.prediction.hits != reference);
            failed += u64::from(base.completed_rays != n || base.hits != reference);
            failed += u64::from(pred.completed_rays != n || pred.hits != reference);
            self.memory_savings.push(report.memory_savings());
            counts.push(Counts {
                cycles_base: base.cycles,
                cycles_pred: pred.cycles,
                memory_savings_bits: report.memory_savings().to_bits(),
            });
        }
        spans.close(pass_span);
        let pass_ms = ms_since(pass_start);
        if spans_on {
            self.pass_ms_on.push(pass_ms);
        } else {
            self.pass_ms_off.push(pass_ms);
        }
        // The simulators are deterministic: every pass must reproduce the
        // first pass's counts exactly.
        match &self.first {
            None => self.first = Some(counts),
            Some(expected) => {
                attempted += 1;
                failed += u64::from(*expected != counts);
            }
        }
        self.totals.attempted += attempted;
        self.totals.failed += failed;
        self.totals.wrong += failed;
        self.passes.push(times);
    }

    /// Records the phase's metrics.
    pub(crate) fn finish(self, ledger: &mut Ledger) -> Phase {
        let passes = &self.passes;
        // Each scene's fastest pass of each stage: load from other tenants
        // of the host only ever slows a pass down.
        let total = |pick: fn(&PassMs) -> f64| -> f64 {
            (0..self.cases.len())
                .map(|scene| {
                    passes
                        .iter()
                        .map(|pass| pick(&pass[scene]))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum()
        };
        ledger.set("repro_s", total(|t| t.functional + t.base + t.pred) / 1e3);
        let counts = self.first.as_deref().unwrap_or_default();
        let cycles_base: u64 = counts.iter().map(|c| c.cycles_base).sum();
        let cycles_pred: u64 = counts.iter().map(|c| c.cycles_pred).sum();
        let base_ms = total(|t| t.base);
        let pred_ms = total(|t| t.pred);
        ledger.set("core.functional_ms", total(|t| t.functional));
        ledger.set("gpusim.base_ms", base_ms);
        ledger.set("gpusim.pred_ms", pred_ms);
        ledger.set(
            "gpusim.host_ns_per_cycle",
            (base_ms + pred_ms) * 1e6 / (cycles_base + cycles_pred).max(1) as f64,
        );
        ledger.set("gpusim.cycles_base", cycles_base as f64);
        ledger.set("gpusim.cycles_pred", cycles_pred as f64);
        let log_sum: f64 = counts
            .iter()
            .map(|c| (c.cycles_base as f64 / c.cycles_pred.max(1) as f64).ln())
            .sum();
        ledger.set(
            "gpusim.speedup_geomean",
            (log_sum / counts.len().max(1) as f64).exp(),
        );
        ledger.set(
            "core.memory_savings",
            self.memory_savings.iter().sum::<f64>() / self.memory_savings.len().max(1) as f64,
        );
        Phase {
            overhead_pct: overhead_pct(&self.pass_ms_on, &self.pass_ms_off),
            ..self.totals
        }
    }
}
