//! Capture-then-replay sweep bench and its JSON artifact.
//!
//! Times the §6.2.5 per-SM predictor sweep (`sec625_sm_sweep`) two
//! ways over identical scoped contexts:
//!
//! * **live** — every sweep configuration re-traverses the BVH
//!   functionally (`TraceMode::Off`), the pre-RIPT cost.
//! * **capture+replay** — `TraceMode::Replay`: the first configuration
//!   to touch each scene's AO workload captures its RIPT trace once
//!   (a single traversal pass), and every configuration after that
//!   replays recorded node visits instead of re-traversing. The timing
//!   includes the capture, so this is the honest cold-store cost of
//!   `run_all --replay`.
//!
//! Before timing, both paths are checked for byte-identical experiment
//! reports — a replay that drifted from live would make the speedup
//! meaningless. Scene and BVH construction is pre-warmed into each
//! context's case cache so the measurement isolates the sweep itself.
//!
//! Results land in machine-readable JSON at the repository root:
//!
//! * `--mode full` (default) — rewrites the committed
//!   `BENCH_replay.json`.
//! * `--mode smoke` — written to `BENCH_replay.smoke.json` so CI never
//!   dirties the committed baseline (the `replay-smoke` job asserts the
//!   ≥2x capture+replay speedup floor).
//!
//! Run it with:
//!
//! ```text
//! cargo bench -p rip-bench --bench replay_bench                 # full
//! cargo bench -p rip-bench --bench replay_bench -- --mode smoke
//! ```

use std::sync::Arc;
use std::time::Instant;

use rip_bench::experiments;
use rip_bench::{Context, Report, SceneSelection, TraceMode};
use rip_obs::{ClockMode, Obs};
use rip_scene::SceneScale;

/// Timed samples per mode (median reported).
const SAMPLES_FULL: usize = 5;
const SAMPLES_SMOKE: usize = 2;
/// The acceptance floor: capture+replay must beat live by at least
/// this factor (the sweep runs five configurations per scene, so one
/// capture amortized over five replays has plenty of headroom).
const SPEEDUP_FLOOR: f64 = 2.0;
/// Worker threads — the acceptance criterion is measured at 8 jobs.
const JOBS: usize = 8;

fn fresh_context(scale: SceneScale, scenes: usize, mode: TraceMode) -> Context {
    let obs = Arc::new(Obs::new(ClockMode::Logical));
    let mut ctx = Context::scoped(scale, SceneSelection::Subset(scenes), JOBS, obs);
    ctx.set_trace_mode(mode);
    // Pre-warm scene synthesis and BVH builds so the timed region is
    // the sweep itself, not case construction.
    for id in ctx.scene_ids() {
        ctx.build_case(id);
    }
    ctx
}

fn run_sweep(ctx: &Context) -> Report {
    experiments::sec625_sm_sweep::run(ctx)
}

/// Median wall-clock seconds for one full sweep under `mode`. Each
/// sample uses a fresh context: replay samples re-capture into an empty
/// in-memory trace store, so nothing leaks between samples.
fn median_secs(samples: usize, scale: SceneScale, scenes: usize, mode: TraceMode) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let ctx = fresh_context(scale, scenes, mode);
            let start = Instant::now();
            std::hint::black_box(run_sweep(&ctx));
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--quick")
        || args.windows(2).any(|w| w[0] == "--mode" && w[1] == "smoke");
    let samples = if smoke { SAMPLES_SMOKE } else { SAMPLES_FULL };
    let (scale, scale_name, scenes) = if smoke {
        (SceneScale::Tiny, "tiny", 2)
    } else {
        (SceneScale::Quick, "quick", 3)
    };

    // Equivalence first: the replayed sweep must reproduce the live
    // report byte for byte before its speed means anything.
    let live_report = run_sweep(&fresh_context(scale, scenes, TraceMode::Off));
    let replay_ctx = fresh_context(scale, scenes, TraceMode::Replay);
    let replay_report = run_sweep(&replay_ctx);
    assert_eq!(
        format!("{live_report:?}"),
        format!("{replay_report:?}"),
        "replayed sweep report diverged from live"
    );
    assert_eq!(
        replay_ctx.obs().get("bench.trace.replay_fallback"),
        0,
        "replay fell back to live traversal"
    );
    let captures = replay_ctx.trace_store().stats().builds;
    assert_eq!(
        captures, scenes as u64,
        "expected exactly one capture per scene"
    );

    let t_live = median_secs(samples, scale, scenes, TraceMode::Off);
    let t_replay = median_secs(samples, scale, scenes, TraceMode::Replay);
    let speedup = t_live / t_replay.max(1e-12);
    println!(
        "sec625_sm_sweep ({scale_name}, {scenes} scenes, {JOBS} jobs): \
         live {:.1} ms vs capture+replay {:.1} ms — {speedup:.2}x",
        t_live * 1e3,
        t_replay * 1e3,
    );

    let json = format!(
        "{{\n  \"bench\": \"replay_bench\",\n  \"mode\": \"{}\",\n  \
         \"experiment\": \"sec625_sm_sweep\",\n  \"scale\": \"{scale_name}\",\n  \
         \"scenes\": {scenes},\n  \"jobs\": {JOBS},\n  \"sweep_configs\": 5,\n  \
         \"captures\": {captures},\n  \"reports_identical\": true,\n  \
         \"live_ms\": {:.4},\n  \"capture_replay_ms\": {:.4},\n  \
         \"replay_speedup\": {speedup:.4},\n  \"speedup_floor\": {SPEEDUP_FLOOR}\n}}\n",
        if smoke { "smoke" } else { "full" },
        t_live * 1e3,
        t_replay * 1e3,
    );
    let file = if smoke {
        "BENCH_replay.smoke.json"
    } else {
        "BENCH_replay.json"
    };
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}");

    assert!(
        speedup >= SPEEDUP_FLOOR,
        "capture+replay speedup {speedup:.2}x is below the {SPEEDUP_FLOOR}x floor"
    );
}
