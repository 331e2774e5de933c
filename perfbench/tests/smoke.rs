//! Tiny-scale smoke run of every workload, traced and untraced, on two
//! seeds: each run must pass its output checks and emit every metric of
//! its list with its unit, and `BENCHMARK.json` must list the same
//! metrics as the catalogue.

use std::path::PathBuf;

use perfbench::{expected_metrics, run, Options, Workload, CATALOGUE};
use rip_scene::SceneScale;

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in Workload::ALL {
        for trace in [false, true] {
            for seed in [1, 2] {
                let opts = Options {
                    workload,
                    seed,
                    seconds: 0.3,
                    trace,
                    scale: SceneScale::Tiny,
                    out_dir: out_dir.clone(),
                };
                let outcome = run(&opts);
                let label = format!("{} seed {seed} trace {trace}", workload.name());
                assert!(outcome.correct, "{label}: output checks failed");
                assert_eq!(outcome.failed, 0, "{label}");
                assert!(outcome.attempted > 0, "{label}");
                let emitted: Vec<(&str, &str)> = outcome
                    .metrics
                    .iter()
                    .map(|&(name, _, unit)| (name, unit))
                    .collect();
                assert_eq!(emitted, expected_metrics(trace), "{label}");
                assert!(!emitted.is_empty(), "{label}");
                let line = outcome.to_json();
                for (name, unit) in emitted {
                    let entry = format!("\"{name}\": {{\"value\": ");
                    assert!(line.contains(&entry), "{label}: {name} missing in {line}");
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{label}");
                }
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for (name, unit, _) in CATALOGUE {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
        assert!(
            text.contains(&entry),
            "BENCHMARK.json lacks {name} [{unit}]"
        );
    }
    assert_eq!(
        text.matches("\"unit\": ").count(),
        CATALOGUE.len(),
        "BENCHMARK.json lists metrics the catalogue does not"
    );
}
