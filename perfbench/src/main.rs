//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <serve-session|serve-poll|sim-fleet> --seed <n>
//!           --seconds <s> --trace <0|1> --server <path to ftts-serve>
//! ```
//!
//! Human-readable lines start with `#`; the last line of standard
//! output is the JSON result. Any failure to run exits non-zero
//! without a result.

mod fleet;
mod layers;
mod report;
mod seed;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{END_TO_END, PER_LAYER};

/// The workload names `--workload` accepts.
const WORKLOADS: [&str; 3] = ["serve-session", "serve-poll", "sim-fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            "--server" => server = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        server,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let (outcome, metrics, info) = match args.workload.as_str() {
        "sim-fleet" => fleet::run(args.seed, args.seconds, args.trace)?,
        name => {
            let kind = if name == "serve-session" {
                serve::Kind::Session
            } else {
                serve::Kind::Poll
            };
            let server = args.server.clone().ok_or("serve workloads need --server")?;
            serve::run(
                kind,
                args.seed,
                args.seconds,
                args.trace,
                &serve::Target::Binary(server),
            )?
        }
    };
    for line in info {
        println!("# {}: {line}", args.workload);
    }
    println!(
        "# {}: attempted {}, failed {}, failed_frac {}",
        args.workload,
        outcome.attempted,
        outcome.failed,
        outcome.failed_frac()
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    report::result_line(outcome, &metrics, declared)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftts_serve::Json;

    fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Array(rows)) = json.at(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        rows.iter()
            .map(|r| {
                let field = |k| r.str_at(k).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_the_declared_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
        let Some(Json::Array(workloads)) = json.at("workloads") else {
            panic!("BENCHMARK.json lacks workloads");
        };
        let names: Vec<_> = workloads.iter().filter_map(|w| w.str_at("name")).collect();
        assert_eq!(names, WORKLOADS);
    }

    /// A short traced run prints every metric of both lists and fails
    /// no operation.
    fn runs_clean(result: Result<(report::Outcome, report::Metrics, Vec<String>), String>) {
        let (outcome, metrics, _) = result.expect("workload runs");
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0, "failed_frac must be 0");
        for list in [END_TO_END, PER_LAYER] {
            report::result_line(outcome, &metrics, list).expect("every metric printed");
        }
    }

    #[test]
    fn serve_session_runs_clean() {
        runs_clean(serve::run(
            serve::Kind::Session,
            1,
            1e-3,
            true,
            &serve::Target::InProcess,
        ));
    }

    #[test]
    fn serve_poll_runs_clean() {
        runs_clean(serve::run(
            serve::Kind::Poll,
            1,
            1e-3,
            true,
            &serve::Target::InProcess,
        ));
    }

    #[test]
    fn sim_fleet_runs_clean() {
        runs_clean(fleet::run(1, 1e-3, true));
    }
}
