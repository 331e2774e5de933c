//! Paper-scale benchmark of the ray intersection predictor stack.
//!
//! One process runs one workload: a ray class driven through the whole
//! stack. `ao` uses ambient-occlusion any-hit rays, `gi` GI
//! diffuse-bounce closest-hit segments. Every run sets SB, SP and LE up
//! at the Table-1 budgets through a private `CaseCache` ([`stack`]),
//! then cycles through three phases until `--seconds` has passed, each
//! on the workload's rays:
//!
//! - trace: `Predicted<WideKernel>` (cold and warm) against bare
//!   `WideKernel`, single-threaded;
//! - serve: a `RayService` over LE, open-loop at a fixed reference rate
//!   and closed-loop at saturation;
//! - repro: the functional simulator and the cycle-level GPU simulator
//!   (baseline and predictor) over a subset of the rays.
//!
//! See `README.md` in this directory for why each part exists and which
//! layer each metric belongs to. Untraced runs (`trace = false`) report
//! the end-to-end metrics; traced runs report the per-layer metrics,
//! record spans around every layer call made here, and write them to
//! `.perfbench/spans/` when the run ends. Every run checks its outputs
//! against a bare wide-BVH traversal.

mod repro;
mod serve;
mod stack;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rip_bvh::{Hit, TraversalKind};
use rip_scene::SceneScale;

/// The workloads, in the order `--workload all` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Ambient-occlusion any-hit rays: the predictor's home ground.
    Ao,
    /// GI diffuse-bounce closest-hit segments: incoherent rays.
    Gi,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::Ao, Workload::Gi];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ao => "ao",
            Workload::Gi => "gi",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The traversal the workload's rays ask for.
    pub fn kind(self) -> TraversalKind {
        match self {
            Workload::Ao => TraversalKind::AnyHit,
            Workload::Gi => TraversalKind::ClosestHit,
        }
    }
}

/// Cycles every run makes at least, so that traced runs time each phase
/// with and without spans at least twice.
const MIN_CYCLES: usize = 4;

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same rays and requests.
    pub seed: u64,
    /// Measurement budget in seconds (set-up is not counted).
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans instead of end-to-end.
    pub trace: bool,
    /// Scene scale: `Paper` for measurements, `Tiny` for the smoke test.
    pub scale: SceneScale,
    /// Directory for private artifact stores and span files.
    pub out_dir: PathBuf,
}

/// Which list of `BENCHMARK.json` a metric belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Reported by untraced runs.
    EndToEnd,
    /// Reported by traced runs.
    PerLayer,
}

use Kind::{EndToEnd, PerLayer};

/// Every metric the benchmark emits: name, unit and list. Every
/// workload emits every metric of its list. `BENCHMARK.json` lists the
/// same names and units; the smoke test keeps the two in step.
pub const CATALOGUE: &[(&str, &str, Kind)] = &[
    ("setup_s", "s", EndToEnd),
    ("peak_rss_mb", "MB", EndToEnd),
    ("pred_mrays_per_s", "Mrays/s", EndToEnd),
    ("cold_mrays_per_s", "Mrays/s", EndToEnd),
    ("bare_mrays_per_s", "Mrays/s", EndToEnd),
    ("serve_capacity_rays_per_s", "rays/s", EndToEnd),
    ("serve_p50_ms", "ms", EndToEnd),
    ("repro_s", "s", EndToEnd),
    ("failed_frac", "ratio", PerLayer),
    ("scene.build_ms", "ms", PerLayer),
    ("bvh.build_ms", "ms", PerLayer),
    ("bvh.wide_ms", "ms", PerLayer),
    ("render.rays_ms", "ms", PerLayer),
    ("obs.trace_overhead_pct", "%", PerLayer),
    ("obs.spans", "count", PerLayer),
    ("exec.case_build_ms", "ms", PerLayer),
    ("exec.case_load_ms", "ms", PerLayer),
    ("exec.artifact_mb", "MB", PerLayer),
    ("bvh.wide4_ns_per_ray", "ns/ray", PerLayer),
    ("bvh.nodes_per_ray", "nodes/ray", PerLayer),
    ("bvh.tris_per_ray", "tris/ray", PerLayer),
    ("core.hash_ns", "ns/ray", PerLayer),
    ("core.lookup_train_ns", "ns/ray", PerLayer),
    ("core.probe_ns", "ns/ray", PerLayer),
    ("core.fallback_ns", "ns/ray", PerLayer),
    ("core.predicted_rate", "ratio", PerLayer),
    ("core.verified_rate", "ratio", PerLayer),
    ("core.mean_k", "nodes", PerLayer),
    ("core.probe_nodes_per_ray", "nodes/ray", PerLayer),
    ("core.nodes_saved_per_ray", "nodes/ray", PerLayer),
    ("obs.mirror_ns", "ns/ray", PerLayer),
    ("trace.SB.pred_mrays_per_s", "Mrays/s", PerLayer),
    ("trace.SP.pred_mrays_per_s", "Mrays/s", PerLayer),
    ("trace.LE.pred_mrays_per_s", "Mrays/s", PerLayer),
    ("trace.SB.bare_mrays_per_s", "Mrays/s", PerLayer),
    ("trace.SP.bare_mrays_per_s", "Mrays/s", PerLayer),
    ("trace.LE.bare_mrays_per_s", "Mrays/s", PerLayer),
    ("serve_p99_ms", "ms", PerLayer),
    ("serve.admit_us", "us", PerLayer),
    ("serve.queue_wait_ms_p50", "ms", PerLayer),
    ("serve.queue_wait_ms_p99", "ms", PerLayer),
    ("serve.generator_late_ms_p99", "ms", PerLayer),
    ("serve.round_ms_p50", "ms", PerLayer),
    ("serve.round_ms_p99", "ms", PerLayer),
    ("serve.rays_per_round", "rays", PerLayer),
    ("serve.sort_us_per_round", "us", PerLayer),
    ("serve.table_hit_rate", "ratio", PerLayer),
    ("serve.shed", "count", PerLayer),
    ("serve.expired", "count", PerLayer),
    ("core.functional_ms", "ms", PerLayer),
    ("gpusim.base_ms", "ms", PerLayer),
    ("gpusim.pred_ms", "ms", PerLayer),
    ("gpusim.host_ns_per_cycle", "ns/cycle", PerLayer),
    ("gpusim.cycles_base", "cycles", PerLayer),
    ("gpusim.cycles_pred", "cycles", PerLayer),
    ("gpusim.speedup_geomean", "ratio", PerLayer),
    ("core.memory_savings", "ratio", PerLayer),
];

/// The catalogue entries one run must emit.
pub fn expected_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    let kind = if trace { PerLayer } else { EndToEnd };
    CATALOGUE
        .iter()
        .filter(|(_, _, k)| *k == kind)
        .map(|&(name, unit, _)| (name, unit))
        .collect()
}

/// Named measurements of one run.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    values: BTreeMap<String, f64>,
}

impl Ledger {
    /// Records `name`; a later record of the same name replaces it.
    pub(crate) fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed (a refused or late request is a failed
    /// operation, not a wrong output).
    pub correct: bool,
    /// Operations attempted (rays, requests or simulator runs).
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// What one phase of a run hands back; its metrics go to the ledger.
#[derive(Debug, Default)]
pub(crate) struct Phase {
    pub(crate) attempted: u64,
    /// Operations that failed: wrong answers plus, for the service,
    /// requests refused, shed, expired or failed.
    pub(crate) failed: u64,
    /// Operations whose output disagreed with the reference.
    pub(crate) wrong: u64,
    /// Tracing overhead of the phase, percent (traced runs only).
    pub(crate) overhead_pct: f64,
}

/// Runs one workload and returns its checked outcome.
///
/// # Panics
///
/// Panics when the run forgets a catalogue metric or records a
/// non-finite value: both are defects of this benchmark.
pub fn run(opts: &Options) -> Outcome {
    let work_dir =
        opts.out_dir
            .join("work")
            .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    let mut spans = SpanLog::new(opts.trace);
    let mut ledger = Ledger::default();

    let (stack, store) = stack::set_up(opts, &work_dir, &mut spans, &mut ledger);
    let mut phases = Vec::new();
    if opts.trace {
        phases.push(stack::stages(opts, &store, &mut ledger, &mut spans));
    }
    let mut trace = trace::TracePhase::new(opts, &stack);
    let mut serve = serve::ServePhase::new(opts, &stack);
    let mut repro = repro::ReproPhase::new(opts, &stack);
    // The run cycles through the phases until its time is up, so a slow
    // stretch of a shared host falls on every phase alike, and each
    // phase reports its best units.
    let mut busy_ms = [0.0; 3];
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || start.elapsed() < budget {
        // Traced runs alternate cycles with and without spans, so the
        // cost of recording them is measured on the same work.
        let spans_on = opts.trace && cycle % 2 == 0;
        busy_ms[0] += timed(|| trace.step(&mut spans, spans_on)).1;
        busy_ms[1] += timed(|| serve.step(&mut spans, spans_on)).1;
        busy_ms[2] += timed(|| repro.step(&mut spans, spans_on)).1;
        cycle += 1;
    }
    spans.set_enabled(opts.trace);
    let timed_phases = [
        trace.finish(&mut ledger),
        serve.finish(&mut ledger),
        repro.finish(&mut ledger),
    ];
    // Tracing overhead of the run: each phase's, weighted by its time.
    let weighted: f64 = timed_phases
        .iter()
        .zip(busy_ms)
        .map(|(phase, ms)| phase.overhead_pct * ms)
        .sum();
    ledger.set(
        "obs.trace_overhead_pct",
        weighted / busy_ms.iter().sum::<f64>().max(1e-9),
    );
    phases.extend(timed_phases);
    drop(stack);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(opts.out_dir.join("work"));

    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let wrong: u64 = phases.iter().map(|p| p.wrong).sum();
    ledger.set("peak_rss_mb", peak_rss_mb());
    ledger.set("failed_frac", failed as f64 / attempted.max(1) as f64);
    if opts.trace {
        ledger.set("obs.spans", spans.len() as f64);
        let path = opts.out_dir.join("spans").join(format!(
            "{}-seed{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        if let Err(e) = spans.write(&path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    let metrics = expected_metrics(opts.trace)
        .into_iter()
        .map(|(name, unit)| {
            let value = *ledger
                .values
                .get(name)
                .unwrap_or_else(|| panic!("{} did not measure {name}", opts.workload.name()));
            assert!(value.is_finite(), "{name} is not finite: {value}");
            (name, value, unit)
        })
        .collect();
    Outcome {
        correct: wrong == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (mean of the middle two for an even count).
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Exact nearest-rank percentile (`q` in `(0, 1]`) of `values`.
pub(crate) fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds elapsed since `start`.
pub(crate) fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Whether two kernels gave the same answer for one ray: the occlusion
/// bit for any-hit, the exact `(triangle, t)` for closest-hit.
pub(crate) fn same_hit(kind: TraversalKind, a: Option<Hit>, b: Option<Hit>) -> bool {
    match kind {
        TraversalKind::AnyHit => a.is_some() == b.is_some(),
        TraversalKind::ClosestHit => {
            a.map(|h| (h.tri_index, h.t.to_bits())) == b.map(|h| (h.tri_index, h.t.to_bits()))
        }
    }
}

/// Seed for one scene's ray generator, derived from the run seed.
pub(crate) fn scene_seed(seed: u64, scene_index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(scene_index as u64 + 1)
}

/// Worker threads for the service and the simulators. With one, their
/// work runs on the calling thread and the process keeps one core busy,
/// so a stall of another core on a shared machine cannot hold up a
/// parallel round or a simulator's epoch barrier.
pub(crate) fn jobs() -> usize {
    1
}

/// Times `f` in milliseconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, ms_since(start))
}

/// Handle of a recorded span.
pub(crate) type SpanId = usize;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    request: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Spans are recorded around the layer calls
/// made by this benchmark and written out once, when the run ends. A
/// disabled log records nothing.
#[derive(Debug)]
pub(crate) struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub(crate) fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id, or `None` when the log
    /// is disabled.
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span that [`SpanLog::close`] ends.
    pub(crate) fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, None, now, now)
    }

    /// Sets the end of an opened span to now.
    pub(crate) fn close(&mut self, id: Option<SpanId>) {
        let end = self.ns(Instant::now());
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id)) {
            span.end_ns = end;
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(out, "{{\"id\": {id}, \"name\": \"{}\"", s.name);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ", \"parent\": {p}");
                }
                None => out.push_str(", \"parent\": null"),
            }
            if let Some(r) = s.request {
                let _ = write!(out, ", \"request\": {r}");
            }
            let _ = writeln!(
                out,
                ", \"start_ns\": {}, \"end_ns\": {}}}",
                s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Relative change of `on` over `off`, in percent.
pub(crate) fn overhead_pct(on: &[f64], off: &[f64]) -> f64 {
    let off = median(off);
    if off > 0.0 {
        (median(on) / off - 1.0) * 100.0
    } else {
        0.0
    }
}

/// Total size of the regular files directly in `dir`, MB.
pub(crate) fn dir_mb(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len() as f64)
                .sum::<f64>()
        })
        .unwrap_or(0.0)
        / (1024.0 * 1024.0)
}
