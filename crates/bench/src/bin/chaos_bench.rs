//! Chaos harness: the serve_bench workload under deterministic fault
//! injection, gated on an availability floor.
//!
//! Usage: `cargo run --release -p rip-bench --bin chaos_bench -- [OPTIONS]`
//!
//! Drives a [`rip_serve::RayService`] with the open-loop load generator
//! while injecting panics, delays, and transient faults into a seeded
//! pseudo-random fraction of trace chunks
//! ([`rip_serve::ChaosConfig`]). The run passes when:
//!
//! 1. every offered request reaches exactly one typed outcome
//!    (completed / shed / rate-limited / unmeetable / expired / failed),
//! 2. every failure is attributed to a typed fault kind,
//! 3. availability (requests completed within deadline over offered)
//!    meets `--availability-floor`.
//!
//! A dispatch-round abort (worker panic escaping containment) crashes
//! the process — exit status 0 is itself the zero-aborts assertion.
//!
//! Options:
//!
//! - `--fault-rate R`          split evenly into panic + slow rates
//!   (default 0.2 → 10% panics, 10% slow chunks)
//! - `--panic-rate R`          override the panic fraction
//! - `--slow-rate R`           override the slow fraction
//! - `--slow-ms MS`            injected delay per slow chunk (default 2)
//! - `--flaky-rate R`          transient-fault fraction (default 0)
//! - `--panic-attempts N`      attempts on which panics fire (default 1
//!   = transient; set >= 3 for permanently poisoned chunks)
//! - `--deadline-us N`         relative deadline per request
//!   (default 250000)
//! - `--availability-floor F`  minimum passing availability
//!   (default 0.95)
//! - `--tenants N`             logical clients (default 2)
//! - `--rate R`                requests/second per tenant (default 50)
//! - `--duration SECS`         submission window (default 2.0)
//! - `--duration-short`        CI smoke preset (0.3 s window)
//! - `--rays N`                rays per request (default 256)
//! - `--seed N`                chaos + loadgen seed (default 0xC4A05)
//! - `--out PATH`              report path (default `BENCH_chaos.json`)
//!
//! `RIP_FAULT_INJECT` directives labelled `serve_chunk` /
//! `serve_reload` compose with the probabilistic plan (see
//! EXPERIMENTS.md).
//!
//! Exit status: 0 on pass, 1 on a floor/accounting violation.

use rip_bench::store_dirs_from_env;
use rip_exec::{CaseCache, CaseKey, FaultKind};
use rip_scene::{SceneId, SceneScale};
use rip_serve::{ChaosConfig, LoadGenConfig, RayService, SceneRegistry, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "chaos_bench [--fault-rate R] [--panic-rate R] [--slow-rate R] \
                     [--slow-ms MS] [--flaky-rate R] [--panic-attempts N] [--deadline-us N] \
                     [--availability-floor F] [--tenants N] [--rate R] [--duration SECS] \
                     [--duration-short] [--rays N] [--seed N] [--out PATH]";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a valid value\nusage: {USAGE}"))
}

fn main() {
    let mut fault_rate = 0.2f64;
    let mut panic_rate: Option<f64> = None;
    let mut slow_rate: Option<f64> = None;
    let mut slow_ms = 2u64;
    let mut flaky_rate = 0.0f64;
    let mut panic_attempts = 1u32;
    let mut deadline_us = 250_000u64;
    let mut availability_floor = 0.95f64;
    let mut tenants = 2usize;
    let mut rate = 50.0f64;
    let mut duration = 2.0f64;
    let mut rays = 256usize;
    let mut seed = 0xC4A05u64;
    let mut out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json").to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fault-rate" => fault_rate = parse(&arg, args.next()),
            "--panic-rate" => panic_rate = Some(parse(&arg, args.next())),
            "--slow-rate" => slow_rate = Some(parse(&arg, args.next())),
            "--slow-ms" => slow_ms = parse(&arg, args.next()),
            "--flaky-rate" => flaky_rate = parse(&arg, args.next()),
            "--panic-attempts" => panic_attempts = parse(&arg, args.next()),
            "--deadline-us" => deadline_us = parse(&arg, args.next()),
            "--availability-floor" => availability_floor = parse(&arg, args.next()),
            "--tenants" => tenants = parse(&arg, args.next()),
            "--rate" => rate = parse(&arg, args.next()),
            "--duration" => duration = parse(&arg, args.next()),
            "--duration-short" => duration = 0.3,
            "--rays" => rays = parse(&arg, args.next()),
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

    // Injected panics are caught by the service's fault isolation, but
    // the default panic hook would still print a backtrace for each one
    // — hundreds per run. Filter exactly those; real panics keep the
    // full report.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("chaos: injected panic") {
            default_hook(info);
        }
    }));

    let chaos = ChaosConfig {
        panic_rate: panic_rate.unwrap_or(fault_rate / 2.0),
        panic_attempts,
        slow_rate: slow_rate.unwrap_or(fault_rate / 2.0),
        slow_ms,
        flaky_rate,
        flaky_attempts: 1,
        seed,
    };
    let key = CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 64);
    let registry = SceneRegistry::new(Arc::new(CaseCache::with_disk_dir(store_dirs_from_env().0)));
    let lease = registry.get(key);
    let service = RayService::new(
        lease,
        tenants,
        ServiceConfig {
            chaos,
            ..ServiceConfig::default()
        },
    );
    let config = LoadGenConfig {
        tenants,
        rate,
        rays_per_request: rays,
        duration: Duration::from_secs_f64(duration),
        deadline: Some(Duration::from_micros(deadline_us)),
        seed,
    };
    eprintln!(
        "[chaos_bench] {tenants} tenant(s) x {rate} req/s x {rays} rays, {duration} s window, \
         deadline {deadline_us} us | inject: panic {:.0}% (x{panic_attempts}), slow {:.0}% \
         ({slow_ms} ms), flaky {:.0}%, seed {seed:#x}",
        100.0 * chaos.panic_rate,
        100.0 * chaos.slow_rate,
        100.0 * chaos.flaky_rate,
    );
    let report = rip_serve::loadgen::run(&service, &config);

    println!(
        "chaos_bench: {:.2} s wall, {} offered, {} completed, {} deadline miss, \
         {} expired, {} failed, {} retried chunk(s)",
        report.wall.as_secs_f64(),
        report.offered_requests,
        report.completed_requests,
        report.deadline_miss_requests,
        report.expired_requests,
        report.failed_requests,
        report.retried_chunks,
    );
    println!(
        "  availability {:.4} (floor {availability_floor}), {} mode transition(s), final mode {}",
        report.availability,
        report.mode_transitions,
        report.final_mode.label(),
    );
    let attributed: u64 = report.faults_by_kind.iter().sum();
    for kind in FaultKind::ALL {
        let count = report.faults_by_kind[kind.index()];
        if count > 0 {
            println!("  fault {:18} {count}", kind.slug());
        }
    }

    let extras = [
        ("panic_rate", format!("{:.4}", chaos.panic_rate)),
        ("panic_attempts", format!("{panic_attempts}")),
        ("slow_rate", format!("{:.4}", chaos.slow_rate)),
        ("slow_ms", format!("{slow_ms}")),
        ("flaky_rate", format!("{:.4}", chaos.flaky_rate)),
        ("availability_floor", format!("{availability_floor}")),
    ];
    let json =
        rip_bench::serve_report_json("chaos", &report, &config, 4, &key.label(), None, &extras);
    std::fs::write(&out, &json).expect("write chaos report");
    eprintln!("[chaos_bench] report written to {out}");

    let mut failures = Vec::new();
    let outcomes = report.completed_requests
        + report.shed_requests
        + report.rate_limited
        + report.rejected_unmeetable
        + report.expired_requests
        + report.failed_requests;
    if outcomes != report.offered_requests {
        failures.push(format!(
            "accounting leak: {} offered vs {outcomes} outcomes",
            report.offered_requests
        ));
    }
    if attributed != report.failed_requests + report.expired_requests {
        failures.push(format!(
            "unattributed failures: {} typed faults vs {} failed + {} expired",
            attributed, report.failed_requests, report.expired_requests
        ));
    }
    if report.availability < availability_floor {
        failures.push(format!(
            "availability {:.4} below floor {availability_floor}",
            report.availability
        ));
    }
    if report.offered_requests == 0 {
        failures.push("no requests offered".to_string());
    }
    if failures.is_empty() {
        println!("  PASS");
    } else {
        for failure in &failures {
            eprintln!("[chaos_bench] FAILED: {failure}");
        }
        std::process::exit(1);
    }
}
