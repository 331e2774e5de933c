//! Command-line entry of the benchmark:
//!
//! ```text
//! perfbench --workload <ao|gi|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the result as the last line of standard output: one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`
//! (`--workload all` prints one such line per workload). Exits 1 when an
//! output check failed and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Options, Workload};
use rip_scene::SceneScale;

const USAGE: &str = "usage: perfbench --workload <ao|gi|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(Vec<Workload>, Options), String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                });
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    let options = Options {
        workload: workloads[0],
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: SceneScale::Paper,
        out_dir: PathBuf::from(".perfbench"),
    };
    Ok((workloads, options))
}

fn main() -> ExitCode {
    // Library code reads these knobs from the environment (fault
    // injection every dispatch round, shared artifact and trace
    // directories); the benchmark runs with all of them unset.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("RIP_") {
            std::env::remove_var(&name);
        }
    }
    let (workloads, options) = match parse() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let all = workloads.len() > 1;
    let mut correct = true;
    for workload in workloads {
        let opts = Options {
            workload,
            ..options.clone()
        };
        eprintln!(
            "perfbench: {} seed {} for {} s (trace {})",
            workload.name(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let outcome = run(&opts);
        correct &= outcome.correct;
        let line = outcome.to_json();
        if all {
            // Tag each line with its workload; single-workload runs print
            // exactly the four result keys.
            println!("{{\"workload\": \"{}\", {}", workload.name(), &line[1..]);
        } else {
            println!("{line}");
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
