//! Multi-tenant open-loop load benchmark for the `rip-serve` layer.
//!
//! Usage: `cargo run --release -p rip-bench --bin serve_bench -- [OPTIONS]`
//!
//! Spins up a [`rip_serve::RayService`] over one cached scene, drives it
//! with `--tenants` open-loop generators for `--duration` seconds, and
//! writes sustained throughput, p50/p95/p99 latency per request class,
//! and the SLO accounting (availability, deadline misses, typed faults,
//! mode history) to `BENCH_serve.json` (or `--out`). Timing-based by
//! nature — the JSON is a recorded baseline, not a deterministic
//! snapshot.
//!
//! Options:
//!
//! - `--tenants N`        logical clients (default 2)
//! - `--rate R`           requests/second per tenant (default 50)
//! - `--duration SECS`    submission window (default 2.0)
//! - `--duration-short`   CI smoke preset (0.3 s window)
//! - `--rays N`           rays per request (default 256)
//! - `--deadline-us N`    relative deadline per request, microseconds
//!   (default 0 = no deadlines)
//! - `--shards N`         predictor table lock stripes
//!   (default: `RIP_SERVE_SHARDS` env, else 4)
//! - `--seed N`           load-generator RNG seed (default 0x5EED)
//! - `--out PATH`         report path (default `BENCH_serve.json` at the
//!   repository root)
//!
//! Exit status: 0 on a healthy run, 1 when no rays completed, a class
//! with traffic reports degenerate percentiles, or any request failed
//! (this bench runs with injection off — failures here are real bugs).

use rip_bench::store_dirs_from_env;
use rip_exec::{CaseCache, CaseKey};
use rip_scene::{SceneId, SceneScale};
use rip_serve::{LoadGenConfig, LoadReport, RayService, SceneRegistry, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "serve_bench [--tenants N] [--rate R] [--duration SECS] \
                     [--duration-short] [--rays N] [--deadline-us N] [--shards N] \
                     [--seed N] [--out PATH]";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a valid value\nusage: {USAGE}"))
}

fn main() {
    let mut tenants = 2usize;
    let mut rate = 50.0f64;
    let mut duration = 2.0f64;
    let mut rays = 256usize;
    let mut deadline_us = 0u64;
    let mut seed = 0x5EEDu64;
    let mut shards: usize = std::env::var("RIP_SERVE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let mut out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tenants" => tenants = parse(&arg, args.next()),
            "--rate" => rate = parse(&arg, args.next()),
            "--duration" => duration = parse(&arg, args.next()),
            "--duration-short" => duration = 0.3,
            "--rays" => rays = parse(&arg, args.next()),
            "--deadline-us" => deadline_us = parse(&arg, args.next()),
            "--shards" => shards = parse(&arg, args.next()),
            "--seed" => seed = parse(&arg, args.next()),
            "--out" => out = parse(&arg, args.next()),
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                return;
            }
            other => {
                eprintln!("unknown option {other}\nusage: {USAGE}");
                std::process::exit(2);
            }
        }
    }

    let key = CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 64);
    let registry = SceneRegistry::new(Arc::new(CaseCache::with_disk_dir(store_dirs_from_env().0)));
    let lease = registry.get(key);
    let service = RayService::new(
        lease,
        tenants,
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
    );
    let config = LoadGenConfig {
        tenants,
        rate,
        rays_per_request: rays,
        duration: Duration::from_secs_f64(duration),
        deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
        seed,
    };
    eprintln!(
        "[serve_bench] {} tenant(s) x {rate} req/s x {rays} rays, {duration} s window, \
         {} shard(s), deadline {} us, scene {}",
        tenants,
        service.table().shard_count(),
        deadline_us,
        key.label(),
    );
    let report = rip_serve::loadgen::run(&service, &config);
    let table = service.table_stats();

    println!(
        "serve_bench: {:.2} s wall, {} requests ({} shed), {} rays, {:.0} rays/s",
        report.wall.as_secs_f64(),
        report.completed_requests,
        report.shed_requests,
        report.completed_rays,
        report.rays_per_sec,
    );
    println!(
        "  slo: {:.4} availability, {} deadline miss, {} expired, {} failed, \
         {} mode transition(s), final mode {}",
        report.availability,
        report.deadline_miss_requests,
        report.expired_requests,
        report.failed_requests,
        report.mode_transitions,
        report.final_mode.label(),
    );
    for class in &report.classes {
        println!(
            "  {:8} {:6} req {:8} rays  p50 {:6} us  p95 {:6} us  p99 {:6} us",
            class.class.label(),
            class.requests,
            class.rays,
            class.p50_us,
            class.p95_us,
            class.p99_us,
        );
    }
    let hit_rate = if table.lookups > 0 {
        table.tag_hits as f64 / table.lookups as f64
    } else {
        0.0
    };
    println!(
        "  table: {} lookups, {:.1}% tag hits, {} insertions",
        table.lookups,
        100.0 * hit_rate,
        table.insertions,
    );

    let json = rip_bench::serve_report_json(
        "serve",
        &report,
        &config,
        shards,
        &key.label(),
        Some(&table),
        &[],
    );
    std::fs::write(&out, &json).expect("write serve report");
    eprintln!("[serve_bench] report written to {out}");

    if !healthy(&report) {
        eprintln!("[serve_bench] FAILED: zero throughput, degenerate percentiles, or failures");
        std::process::exit(1);
    }
}

/// A run is healthy when rays completed, nothing failed, and every
/// class that saw traffic has ordered, non-degenerate percentiles.
fn healthy(report: &LoadReport) -> bool {
    report.completed_rays > 0
        && report.rays_per_sec > 0.0
        && report.failed_requests == 0
        && report
            .classes
            .iter()
            .filter(|c| c.requests > 0)
            .all(|c| c.p50_us <= c.p95_us && c.p95_us <= c.p99_us && c.p99_us <= c.max_us)
}
