//! perfbench — the end-to-end and per-layer benchmark of the AutoType
//! workspace.
//!
//! ```text
//! perfbench --workload <synth|serve_cold|serve_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (it reads `.git` for the revision and
//! writes scratch files under `.perfbench/`). With `--trace 0` the last
//! line of standard output is a JSON object holding every end-to-end
//! metric; with `--trace 1` it holds every per-layer metric instead. The
//! lines before it are the run record, one `# key: value` per line. The
//! exit code is 0 when every output check passed, 3 when one failed, and
//! 1 when the workload could not run.

mod client;
mod layers;
mod replay;
mod report;
mod serve;
mod spans;
mod stream;
mod synth;

use std::process::ExitCode;

use report::{Metrics, Outcome};

const USAGE: &str =
    "usage: perfbench --workload <synth|serve_cold|serve_hot> --seed <n> --seconds <s> --trace <0|1>";

pub const WORKLOADS: [&str; 3] = ["synth", "serve_cold", "serve_hot"];

/// Every end-to-end metric with its unit. Each workload reports all of
/// them (see `perfbench/LAYERS.md` for what each means per workload).
/// `BENCHMARK.json` lists `synth` and `serve_cold`; `serve_hot` runs the
/// same way but is left out of that list to keep the full set of runs
/// within its time budget.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("synth_s", "s"),
    ("detect_values_per_s", "values/s"),
    ("detect_p50_ms", "ms"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Everything a workload produces.
#[derive(Default)]
pub struct Run {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub outcome: Outcome,
    pub record: Vec<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut run = Run {
        layers: layers::zeroed(),
        ..Run::default()
    };
    let result = match args.workload.as_str() {
        "synth" => synth::run(&args, &mut run),
        "serve_cold" => serve::run(&args, false, &mut run),
        _ => serve::run(&args, true, &mut run),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    // The printed set is exactly the declared set, every value finite.
    let (declared, source) = if args.trace {
        (layers::LAYER_METRICS, &run.layers)
    } else {
        (E2E_METRICS, &run.e2e)
    };
    let mut printed = Metrics::default();
    for &(name, unit) in declared {
        let value = source.get(name).filter(|v| v.is_finite());
        run.outcome.check(value.is_some(), || {
            format!("metric {name} is missing or not finite")
        });
        printed.set(name, value.unwrap_or(0.0), unit);
    }

    println!("# workload: {}", args.workload);
    println!("# seed: {}", args.seed);
    println!("# run_seconds: {}", args.seconds);
    println!("# trace: {}", u8::from(args.trace));
    println!(
        "# available_parallelism: {}",
        report::available_parallelism()
    );
    println!("# git_revision: {}", report::git_revision());
    println!("# attempted: {}", run.outcome.attempted);
    println!("# failed: {}", run.outcome.failed);
    for (key, value) in &run.record {
        println!("# {key}: {value}");
    }
    for problem in &run.outcome.problems {
        println!("# problem: {problem}");
        eprintln!("perfbench: {problem}");
    }
    println!("{}", report::result_line(&run.outcome, &printed));
    if run.outcome.problems.is_empty() && run.outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve_hot --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_hot", 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload synth --seed x --seconds 1 --trace 0",
            "--workload synth --seed 1 --seconds 0 --trace 0",
            "--workload synth --seed 1 --seconds 1 --trace 2",
            "--workload synth --seed 1 --seconds 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let names: Vec<&str> = E2E_METRICS
            .iter()
            .chain(layers::LAYER_METRICS)
            .map(|(n, _)| *n)
            .collect();
        let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
