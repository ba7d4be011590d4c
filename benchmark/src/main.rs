//! The repo's benchmark: four workloads over the program's default public
//! entry points, gated end-to-end metrics, and a per-layer traced run.
//!
//! ```text
//! ucnn-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ucnn-benchmark --aa [--runs N] [--seed N] [--seconds S]
//! ```
//!
//! The last line of stdout is the result the driver reads; the lines before
//! it are the provenance block and every metric by name with its unit.
//! README.md explains the workloads, the metrics and how to read a trace.

mod aa;
mod adapter;
mod gen;
mod layers;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use measure::{Outcome, Settings, WINDOWS};
use workloads::Workload;

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xC0FFEE;
/// Measured seconds when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: ucnn-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       ucnn-benchmark --aa [--runs N] [--seed N] [--seconds S]
workloads: serve_closed_c2 serve_pipelined_w32 serve_open_r500 offline_b32";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: bool,
    runs: usize,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        aa: false,
        runs: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--aa" {
            args.aa = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value '{value}' for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                args.runs = value
                    .parse()
                    .ok()
                    .filter(|n| (1..=50).contains(n))
                    .ok_or_else(bad)?;
            }
            _ => return Err(format!("unknown argument '{flag}'\n{USAGE}")),
        }
    }
    if args.aa == args.workload.is_some() {
        return Err(format!("give exactly one of --workload and --aa\n{USAGE}"));
    }
    Ok(args)
}

/// Conditions under which a run would not measure the default path.
fn refuse_to_run(generator_threads: usize) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "built with debug assertions: measure optimized builds only (cargo run --release)"
                .to_string(),
        );
    }
    let knobs = adapter::env_knobs_set();
    if !knobs.is_empty() {
        return Err(format!(
            "{} set in the environment: the benchmark measures the program's defaults, unset it",
            knobs.join(" and ")
        ));
    }
    let cores = cores();
    if cores < generator_threads {
        return Err(format!(
            "{cores} core(s) available, the workload's generator needs {generator_threads}"
        ));
    }
    Ok(())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The package directory: where `cargo run` says it is, else where it was
/// when this was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn first_line_of(mut command: Command) -> Option<String> {
    let output = command.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(output.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

/// The commit of the checkout, when it is one. The search stops at the
/// repo root so a parent directory's repository is never reported.
fn git_commit() -> String {
    let package = package_dir();
    let Some(root) = package.parent() else {
        return "unknown".to_string();
    };
    let mut git = Command::new("git");
    git.arg("-C").arg(root).args(["rev-parse", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    first_line_of(git).unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    let mut rustc = Command::new("rustc");
    rustc.arg("-V");
    first_line_of(rustc).unwrap_or_else(|| "unknown".to_string())
}

fn print_provenance(settings: &Settings, traced: bool, outcome: &Outcome) {
    let info = adapter::program_info();
    println!(
        "# ucnn-benchmark workload={} trace={} seed={} seconds={}",
        settings.workload.name(),
        u8::from(traced),
        settings.seed,
        settings.seconds
    );
    println!("provenance commit={}", git_commit());
    println!("provenance rustc={}", rustc_version());
    println!("provenance simd_best={}", info.simd_best);
    println!("provenance available_parallelism={}", cores());
    println!("provenance engine_config={}", info.engine_config);
    println!("provenance default_backend={}", info.default_backend);
    if traced {
        println!(
            "provenance stretches=untraced {:.3}s + traced {:.3}s",
            settings.seconds / 4.0,
            settings.seconds / 2.0
        );
    } else {
        println!(
            "provenance windows={WINDOWS} x {:.3}s, a dense-reference reading before, between and after",
            settings.seconds / WINDOWS as f64
        );
    }
    println!(
        "provenance samples={} attempted={} mismatched={} errored={} refused={} waited={}",
        outcome.samples,
        outcome.tally.attempted,
        outcome.tally.mismatched,
        outcome.tally.errored,
        outcome.tally.refused,
        outcome.tally.waited
    );
}

fn run_one(settings: &Settings, traced: bool) -> Result<(), String> {
    refuse_to_run(settings.workload.generator_threads())?;
    let outcome = if traced {
        layers::run_traced(settings, &package_dir().join("out"))?
    } else {
        measure::run_untraced(settings)?
    };
    let metrics = if traced {
        outcome.values.per_layer()
    } else {
        outcome.values.end_to_end()
    };
    print_provenance(settings, traced, &outcome);
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in &outcome.extras {
        println!("extra {name} {value} {unit}");
    }
    let tally = &outcome.tally;
    if tally.attempted == 0 {
        return Err("nothing was attempted".to_string());
    }
    println!(
        "{}",
        metrics::result_line(
            tally.outputs_correct(),
            tally.attempted,
            tally.failed(),
            &metrics
        )
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.workload {
        Some(workload) => run_one(
            &Settings {
                workload,
                seed: args.seed,
                seconds: args.seconds,
            },
            args.traced,
        ),
        None => {
            refuse_to_run(1)?;
            aa::run(args.seed, args.seconds, args.runs)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ucnn-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse_args(&argv(&[
            "--workload",
            "serve_open_r500",
            "--seed",
            "17",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some(Workload::ServeOpenR500));
        assert_eq!((args.seed, args.seconds, args.traced), (17, 20.0, true));
        let defaults = parse_args(&argv(&["--workload", "offline_b32"])).unwrap();
        assert_eq!(defaults.seed, 0xC0FFEE);
        assert!(!defaults.traced);
        assert_eq!(parse_seed("0xC0FFEE"), Some(0xC0FFEE));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--seconds", "0", "--workload", "offline_b32"],
            &["--trace", "2", "--workload", "offline_b32"],
            &["--frobnicate", "1"],
            &[],
            &["--aa", "--workload", "offline_b32"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
        assert!(parse_args(&argv(&["--aa", "--runs", "3"])).is_ok());
    }
}
