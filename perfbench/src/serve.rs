//! The serve phase: a `RayService` over LE, driven by one thread that is
//! both the load generator and the dispatcher.
//!
//! - Open loop, at a fixed reference rate: the thread submits every
//!   request that is due on a fixed absolute schedule, then runs a
//!   dispatch round, and sleeps only when nothing is queued. Each request
//!   is timed from when it was due, so a slow round delays the requests
//!   that arrive during it. Refused, expired and failed requests count as
//!   missing every latency limit.
//! - Closed loop, at saturation: each tenant's queue is topped up to two
//!   rounds' quota before every round, and rounds run back to back. The
//!   rays drained per second are the service's capacity.
//!
//! Each cycle of the run runs one segment of each loop.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rip_bvh::{RayBatch, TraversalKernel, WideKernel};
use rip_obs::{ClockMode, Obs};
use rip_scene::SceneScale;
use rip_serve::loadgen::synthesize_rays;
use rip_serve::{RayService, Rejection, RequestClass, SceneLease, ServiceConfig, ServiceMode};

use crate::stack::Stack;
use crate::{jobs, median, overhead_pct, percentile, Ledger, Options, Phase, SpanLog, Workload};

/// Logical clients.
const TENANTS: usize = 2;
/// Rays per request.
const REQUEST_RAYS: usize = 256;
/// Deadline attached to every open-loop request, relative to when it was
/// due. The admission estimate (service-time EWMA times queue depth)
/// grows with the square of a stall's length: with a 1 s deadline, a
/// host stall of about a tenth of a second made it refuse requests far
/// below the service's capacity. Latencies are judged from the
/// benchmark's own timestamps, not against this deadline.
const DEADLINE_MS: u64 = 10_000;
/// The fixed reference rate, well under the capacity of either
/// workload's request mix on a 2-core machine; `serve_p50_ms` and the
/// per-layer serve metrics are taken here.
const REFERENCE_RAYS_PER_S: f64 = 80_000.0;
/// Length of each open-loop and closed-loop segment, as a share of the
/// run's `--seconds`: 1.125 s each at `--seconds 45`.
const SEGMENT_SHARE: f64 = 1.0 / 40.0;

/// The request classes of a workload: the any-hit classes for `ao`, the
/// closest-hit class for `gi`.
fn classes(workload: Workload) -> &'static [RequestClass] {
    match workload {
        Workload::Ao => &[RequestClass::AmbientOcclusion, RequestClass::Shadow],
        Workload::Gi => &[RequestClass::Primary],
    }
}

/// Distinct requests the schedule cycles through.
fn pool_size(scale: SceneScale) -> usize {
    match scale {
        SceneScale::Paper => 3072,
        _ => 96,
    }
}

/// The request pool over `lease`, synthesized from the seed. Both
/// tenants see every class of the workload in turn.
pub(crate) fn request_pool(opts: &Options, lease: &SceneLease) -> Vec<(RequestClass, RayBatch)> {
    let classes = classes(opts.workload);
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    (0..pool_size(opts.scale))
        .map(|i| {
            let class = classes[(i / TENANTS) % classes.len()];
            (
                class,
                synthesize_rays(&lease.case, class, REQUEST_RAYS, &mut rng),
            )
        })
        .collect()
}

/// One request of the pool, with the hits a bare traversal finds.
struct PoolItem<'a> {
    class: RequestClass,
    rays: &'a RayBatch,
    hits: u64,
}

struct Ctx<'a> {
    lease: SceneLease,
    pool: Vec<PoolItem<'a>>,
    config: ServiceConfig,
}

/// How requests are offered.
#[derive(Clone, Copy)]
enum Load {
    /// On a fixed absolute schedule at this many rays/s.
    Open(f64),
    /// Each tenant's queue topped up before every round.
    Closed,
}

/// Timestamps of one scheduled request.
#[derive(Clone, Copy)]
struct Sample {
    due: Instant,
    submitted: Instant,
    admitted: Instant,
    end: Option<Instant>,
}

/// What one schedule measured.
#[derive(Default)]
struct Schedule {
    /// Latency of every scheduled request, ms from when it was due; a
    /// miss is infinite, so it is over every limit.
    latency_ms: Vec<f64>,
    /// Wall time from the first due request to the end of the drain, ms.
    span_ms: f64,
    misses: u64,
    shed: u64,
    refused: u64,
    expired: u64,
    /// Requests whose class totals disagreed with the bare traversal,
    /// or whose outcome the bookkeeping could not attribute.
    mismatched: u64,
    admit_us: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    late_ms: Vec<f64>,
    round_ms: Vec<f64>,
    rays_per_round: Vec<f64>,
    /// End of each round, ms from the start of the schedule.
    round_end_ms: Vec<f64>,
    /// Rounds that started while requests were still being offered.
    loaded_rounds: usize,
    /// Pool indices completed by each round.
    round_items: Vec<Vec<usize>>,
    lookups: u64,
    tag_hits: u64,
}

impl Schedule {
    /// Percentile `q` for reporting: a miss reads as the whole schedule.
    fn reported_ms(&self, q: f64) -> f64 {
        percentile(&self.latency_ms, q).min(self.span_ms)
    }

    /// Rays drained per second by the rounds that started while load
    /// was offered.
    fn drain_rays_per_s(&self) -> f64 {
        let rounds = self.loaded_rounds;
        if rounds == 0 {
            return 0.0;
        }
        let rays: f64 = self.rays_per_round[..rounds].iter().sum();
        rays * 1e3 / self.round_end_ms[rounds - 1].max(1e-9)
    }
}

/// Offers `load` to `service` for `seconds`, taking requests from the
/// pool from index `first` on (span request ids count from `first` too,
/// so they stay unique across a loop's segments), then drains what is
/// queued. Spans of
/// each request are recorded inside the loop, when its admission is
/// refused or when the round that drained it ends, so their cost lands
/// in the latencies measured.
fn run_schedule(
    ctx: &Ctx,
    service: &RayService,
    first: usize,
    load: Load,
    seconds: f64,
    spans: &mut SpanLog,
) -> Schedule {
    // The service's counters run across segments: compare differences.
    let before = service.stats();
    let table_before = service.table_stats();
    let pool_index = |j: usize| (first + j) % ctx.pool.len();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let (interval, count) = match load {
        Load::Open(rays_per_s) => {
            let interval = REQUEST_RAYS as f64 / rays_per_s;
            (interval, ((seconds / interval) as usize).max(TENANTS))
        }
        Load::Closed => (0.0, usize::MAX),
    };
    let due_at = |j: usize| start + Duration::from_secs_f64(j as f64 * interval);
    // Two rounds' quota per tenant keeps every closed-loop round full.
    let depth = TENANTS * 2 * ctx.config.fairness_quota;

    let mut out = Schedule::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut queues: [VecDeque<usize>; TENANTS] = Default::default();
    let mut expected_hits = [0u64; 3];
    let mut completed = [0u64; 3];
    let mut uncertain = [false; 3];
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        let pending: usize = queues.iter().map(VecDeque::len).sum();
        let mut offered = Vec::new();
        let offering = match load {
            Load::Open(_) => {
                while next + offered.len() < count && due_at(next + offered.len()) <= now {
                    offered.push(due_at(next + offered.len()));
                }
                next + offered.len() < count
            }
            Load::Closed => {
                if now < stop {
                    offered.resize(depth.saturating_sub(pending), now);
                }
                now < stop
            }
        };
        for due in offered {
            let item = &ctx.pool[pool_index(next)];
            let submitted = Instant::now();
            let deadline_us = match load {
                Load::Open(_) => {
                    let budget = (due + Duration::from_millis(DEADLINE_MS))
                        .saturating_duration_since(submitted);
                    Some(service.now_us() + budget.as_micros() as u64)
                }
                Load::Closed => None,
            };
            let result = service.submit_with_deadline(
                next % TENANTS,
                item.class,
                item.rays.clone(),
                deadline_us,
            );
            let admitted = Instant::now();
            samples.push(Sample {
                due,
                submitted,
                admitted,
                end: None,
            });
            match result {
                Ok(_) => queues[next % TENANTS].push_back(next),
                Err(rejection) => {
                    match rejection {
                        Rejection::Backpressure(_) => out.shed += 1,
                        Rejection::RateLimited { .. } | Rejection::DeadlineUnmeetable { .. } => {
                            out.refused += 1
                        }
                    }
                    let id = Some((first + next) as u64);
                    let request = spans.record("serve.request", None, id, due, admitted);
                    spans.record("serve.admit", request, id, submitted, admitted);
                }
            }
            next += 1;
        }
        let pending: usize = queues.iter().map(VecDeque::len).sum();
        if pending == 0 {
            if !offering {
                break;
            }
            if let Load::Open(_) = load {
                wait_until(due_at(next));
            }
            continue;
        }
        // The service drains each tenant's queue front, up to the quota
        // of its current mode; mirror that to know which requests ran.
        let quota = match service.mode() {
            ServiceMode::Survival => ctx.config.degrade.survival_quota,
            _ => ctx.config.fairness_quota,
        }
        .max(1);
        let mut drained: Vec<usize> = Vec::new();
        for queue in &mut queues {
            let take = quota.min(queue.len());
            drained.extend(queue.drain(..take));
        }
        drained.sort_unstable();
        let t0 = Instant::now();
        let report = service.run_round();
        let t1 = Instant::now();
        let round_span = spans.record("serve.round", None, None, t0, t1);
        out.round_ms.push((t1 - t0).as_secs_f64() * 1e3);
        out.round_end_ms.push((t1 - start).as_secs_f64() * 1e3);
        out.rays_per_round.push(report.rays as f64);
        if offering {
            out.loaded_rounds += 1;
        }
        let accounted = report.requests + report.expired + report.failed == drained.len();
        // Deadlines grow with the schedule, so the expired requests are
        // the earliest-due ones drained.
        let mut items = Vec::new();
        for (k, &j) in drained.iter().enumerate() {
            let s = samples[j];
            out.queue_wait_ms
                .push(t0.saturating_duration_since(s.admitted).as_secs_f64() * 1e3);
            // Spans of one request share its id; the queue span ends when
            // the round that drained it started.
            let id = Some((first + j) as u64);
            let request = spans.record("serve.request", None, id, s.due, t1);
            spans.record("serve.admit", request, id, s.submitted, s.admitted);
            spans.record("serve.queue", request, id, s.admitted, t0);
            spans.record("serve.traced_in_round", round_span, id, t0, t1);
            let item = &ctx.pool[pool_index(j)];
            let class = item.class.index();
            if k < report.expired {
                continue;
            }
            if !accounted || report.failed > 0 {
                uncertain[class] = true;
                continue;
            }
            samples[j].end = Some(t1);
            expected_hits[class] += item.hits;
            completed[class] += 1;
            items.push(pool_index(j));
        }
        if !accounted {
            out.mismatched += drained.len() as u64;
        }
        out.round_items.push(items);
    }
    let end = Instant::now();

    let stats = service.stats();
    for (class, (slot, was)) in stats.classes.iter().zip(&before.classes).enumerate() {
        if uncertain[class]
            || slot.hits - was.hits != expected_hits[class]
            || slot.requests - was.requests != completed[class]
        {
            out.mismatched += completed[class];
        }
    }
    out.expired = stats.expired_requests - before.expired_requests;
    let table = service.table_stats();
    out.lookups = table.lookups - table_before.lookups;
    out.tag_hits = table.tag_hits - table_before.tag_hits;
    out.span_ms = (end - start).as_secs_f64() * 1e3;
    for s in &samples {
        out.latency_ms.push(match s.end {
            Some(done) => done.saturating_duration_since(s.due).as_secs_f64() * 1e3,
            None => f64::INFINITY,
        });
        out.admit_us
            .push((s.admitted - s.submitted).as_secs_f64() * 1e6);
        out.late_ms
            .push(s.submitted.saturating_duration_since(s.due).as_secs_f64() * 1e3);
        if s.end.is_none() {
            out.misses += 1;
        }
    }
    out
}

/// Waits for `at`: sleeps until a millisecond before it, then spins, so
/// the generator's own wake-up delay stays out of request latencies. The
/// service's workers are idle while the generator waits.
fn wait_until(at: Instant) {
    let early = Duration::from_millis(1);
    if let Some(sleep) = at
        .saturating_duration_since(Instant::now())
        .checked_sub(early)
    {
        std::thread::sleep(sleep);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Median time to coalesce and Morton-sort each round's completed
/// requests per class, as the service does before tracing, µs.
fn sort_us_per_round(ctx: &Ctx, schedules: &[Schedule]) -> f64 {
    let bounds = ctx.lease.case.bvh.bounds();
    let mut per_round = Vec::new();
    for round in schedules.iter().flat_map(|s| &s.round_items) {
        if round.is_empty() {
            continue;
        }
        let start = Instant::now();
        for class in RequestClass::ALL {
            let mut coalesced = RayBatch::default();
            for &i in round.iter().filter(|&&i| ctx.pool[i].class == class) {
                coalesced.append(ctx.pool[i].rays);
            }
            if !coalesced.is_empty() {
                std::hint::black_box(coalesced.morton_sorted(&bounds));
            }
        }
        per_round.push(start.elapsed().as_secs_f64() * 1e6);
    }
    median(&per_round)
}

/// The serve phase's state across the run's cycles.
pub(crate) struct ServePhase<'a> {
    ctx: Ctx<'a>,
    /// One service per loop, kept across the run's segments, so every
    /// segment after the first meets a warm predictor table.
    open_service: RayService,
    closed_service: RayService,
    /// Pool index each loop's next segment starts from.
    open_next: usize,
    closed_next: usize,
    trace: bool,
    segment_s: f64,
    totals: Phase,
    /// Every open-loop segment, in order.
    open: Vec<Schedule>,
    p50_on: Vec<f64>,
    p50_off: Vec<f64>,
    /// Drain rate of every closed-loop segment, rays/s.
    capacity: Vec<f64>,
    /// Requests that did not complete: all, then refused and expired.
    missed: [u64; 3],
}

impl<'a> ServePhase<'a> {
    pub(crate) fn new(opts: &Options, stack: &'a Stack) -> Self {
        // Reference answers: a bare wide-BVH traversal of every pooled
        // request.
        let served = stack.served();
        let mut bare = WideKernel::new(&served.wide, served.bvh());
        let pool = stack
            .requests
            .iter()
            .map(|(class, rays)| {
                let hits = bare
                    .trace_batch(rays, class.kind())
                    .iter()
                    .filter(|r| r.hit.is_some())
                    .count() as u64;
                PoolItem {
                    class: *class,
                    rays,
                    hits,
                }
            })
            .collect();
        let ctx = Ctx {
            lease: served.lease.clone(),
            pool,
            config: ServiceConfig {
                jobs: jobs(),
                ..ServiceConfig::default()
            },
        };
        let service = || {
            RayService::with_obs(
                ctx.lease.clone(),
                TENANTS,
                ctx.config,
                Arc::new(Obs::new(ClockMode::Wall)),
            )
        };
        ServePhase {
            open_service: service(),
            closed_service: service(),
            open_next: 0,
            closed_next: 0,
            ctx,
            trace: opts.trace,
            segment_s: opts.seconds * SEGMENT_SHARE,
            totals: Phase::default(),
            open: Vec::new(),
            p50_on: Vec::new(),
            p50_off: Vec::new(),
            capacity: Vec::new(),
            missed: [0; 3],
        }
    }

    fn account(&mut self, schedule: &Schedule) {
        self.totals.attempted += schedule.latency_ms.len() as u64;
        self.totals.failed += schedule.misses + schedule.mismatched;
        self.totals.wrong += schedule.mismatched;
        self.missed[0] += schedule.misses;
        self.missed[1] += schedule.refused;
        self.missed[2] += schedule.expired;
    }

    /// One open-loop segment at the reference rate, then, in untraced
    /// runs, one closed-loop segment. `spans_on` says whether spans are
    /// recorded (traced runs alternate).
    pub(crate) fn step(&mut self, spans: &mut SpanLog, spans_on: bool) {
        spans.set_enabled(spans_on);
        let open = run_schedule(
            &self.ctx,
            &self.open_service,
            self.open_next,
            Load::Open(REFERENCE_RAYS_PER_S),
            self.segment_s,
            spans,
        );
        self.open_next += open.latency_ms.len();
        self.account(&open);
        let p50 = open.reported_ms(0.5);
        if spans_on {
            self.p50_on.push(p50);
        } else {
            self.p50_off.push(p50);
        }
        self.open.push(open);
        if !self.trace {
            let closed = run_schedule(
                &self.ctx,
                &self.closed_service,
                self.closed_next,
                Load::Closed,
                self.segment_s,
                spans,
            );
            self.closed_next += closed.latency_ms.len();
            self.account(&closed);
            self.capacity.push(closed.drain_rays_per_s());
        }
    }

    /// Records the phase's metrics.
    pub(crate) fn finish(self, ledger: &mut Ledger) -> Phase {
        if !self.trace {
            // The best segment of each loop: load from other tenants of
            // the host only ever slows the service down.
            let p50 = self.p50_off.iter().copied().fold(f64::INFINITY, f64::min);
            let capacity = self.capacity.iter().copied().fold(0.0, f64::max);
            let [missed, refused, expired] = self.missed;
            eprintln!(
                "perfbench: serve p50 {p50:.3} ms (median {:.3}), capacity {capacity:.0} rays/s \
                 (median {:.0}), {missed} requests missed ({refused} refused, {expired} expired)",
                median(&self.p50_off),
                median(&self.capacity)
            );
            ledger.set("serve_p50_ms", p50);
            ledger.set("serve_capacity_rays_per_s", capacity);
            return self.totals;
        }
        let schedules = &self.open;
        let pooled = |f: fn(&Schedule) -> &Vec<f64>| -> Vec<f64> {
            schedules
                .iter()
                .flat_map(|s| f(s).iter().copied())
                .collect()
        };
        let non_empty: Vec<f64> = pooled(|s| &s.rays_per_round)
            .into_iter()
            .filter(|&r| r > 0.0)
            .collect();
        let lookups: u64 = schedules.iter().map(|s| s.lookups).sum();
        let tag_hits: u64 = schedules.iter().map(|s| s.tag_hits).sum();
        // The median of the segments' p99s: one stall of the host moves
        // one segment's tail rather than the reported value.
        let p99s: Vec<f64> = schedules.iter().map(|s| s.reported_ms(0.99)).collect();
        ledger.set("serve_p99_ms", median(&p99s));
        ledger.set("serve.admit_us", median(&pooled(|s| &s.admit_us)));
        ledger.set(
            "serve.queue_wait_ms_p50",
            percentile(&pooled(|s| &s.queue_wait_ms), 0.5),
        );
        ledger.set(
            "serve.queue_wait_ms_p99",
            percentile(&pooled(|s| &s.queue_wait_ms), 0.99),
        );
        ledger.set(
            "serve.generator_late_ms_p99",
            percentile(&pooled(|s| &s.late_ms), 0.99),
        );
        ledger.set(
            "serve.round_ms_p50",
            percentile(&pooled(|s| &s.round_ms), 0.5),
        );
        ledger.set(
            "serve.round_ms_p99",
            percentile(&pooled(|s| &s.round_ms), 0.99),
        );
        ledger.set(
            "serve.rays_per_round",
            non_empty.iter().sum::<f64>() / non_empty.len().max(1) as f64,
        );
        ledger.set(
            "serve.sort_us_per_round",
            sort_us_per_round(&self.ctx, schedules),
        );
        ledger.set(
            "serve.table_hit_rate",
            tag_hits as f64 / lookups.max(1) as f64,
        );
        ledger.set("serve.shed", schedules.iter().map(|s| s.shed as f64).sum());
        ledger.set(
            "serve.expired",
            schedules.iter().map(|s| s.expired as f64).sum(),
        );
        Phase {
            overhead_pct: overhead_pct(&self.p50_on, &self.p50_off),
            ..self.totals
        }
    }
}
