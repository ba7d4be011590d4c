//! `repro` — regenerates every table and figure of the UCNN evaluation.
//!
//! ```text
//! repro <experiment>... [--quick] [--batch] [--backend NAME] [--out DIR]
//!       [--workload NAME] [--mix NAME] [--model NAME]... [--seed N]
//!       [--requests N] [--duration SECS] [--rate HZ] [--shards N]
//!       [--deadline-ms N]
//!
//! experiments: fig1 fig3 table2 fig7 fig9 fig10 fig11 fig12 fig13 fig14
//!              table3 ablations serve batch backends all
//! ```
//!
//! `--quick` shrinks networks/sweeps (used by CI and Criterion); the default
//! runs the full configuration recorded in EXPERIMENTS.md. `--batch` appends
//! the batch-major executor comparison (`repro serve --batch` prints the
//! serving tables plus the per-request vs batch-major throughput table).
//! `--backend NAME` selects the executor backend the `serve` experiment
//! drives the engine with (any `BackendKind::ALL` name — an unknown one
//! prints the list; absent, the engine's own `EngineConfig::default()`
//! backend); the `backends` experiment prints the all-backends comparison
//! table **and writes it as machine-readable `BENCH_backends.json`** (into
//! `--out DIR` when given, the working directory otherwise) so the perf
//! trajectory of the executor backends is tracked across commits. With
//! `--out DIR` every table is also written as `DIR/<experiment>.csv`.
//!
//! The `serve` experiment is the load-harness front door and **always
//! writes `BENCH_serve.json`** the same way. By default it sweeps the full
//! workload matrix (closed at 1 and 8 generator shards, a `closed-1q`
//! single-central-queue baseline at the same eight workers, then open/
//! bursty/ramp arrivals, closing with a deadline-bounded `overload` run
//! at 2× measured capacity) over the whole model zoo; `--workload` restricts to
//! one arrival process, `--mix` picks the model-population distribution,
//! `--model` (repeatable) restricts the zoo, `--seed` makes two runs
//! generate bit-identical request streams, `--requests`/`--duration`/
//! `--rate`/`--shards` size the run, and `--deadline-ms` pins the
//! per-request deadline (always in force for `overload`, opt-in for the
//! other workloads).

use std::path::PathBuf;
use std::process::ExitCode;

use ucnn_bench::cli;
use ucnn_bench::experiments::{self, ServeOpts};
use ucnn_bench::TableOut;

const ALL: &[&str] = &[
    "fig1",
    "fig3",
    "table2",
    "fig7",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "table3",
    "ablations",
    "serve",
    "batch",
    "backends",
];

fn run_one(name: &str, quick: bool, serve_opts: &ServeOpts) -> Option<Vec<TableOut>> {
    let tables = match name {
        "fig1" => vec![experiments::fig1()],
        "fig3" => vec![experiments::fig3(quick)],
        "table2" => vec![experiments::table2()],
        "fig7" => vec![experiments::fig7()],
        "fig9" => vec![experiments::fig9(quick)],
        "fig10" => vec![experiments::fig10(quick)],
        "fig11" => vec![experiments::fig11()],
        "fig12" => vec![experiments::fig12(quick)],
        "fig13" => vec![experiments::fig13(quick)],
        "fig14" => vec![experiments::fig14(quick)],
        "table3" => vec![experiments::table3()],
        "ablations" => vec![
            experiments::ablate_g(quick),
            experiments::ablate_group_cap(quick),
            experiments::ablate_ppr(),
            experiments::ablate_multipliers(),
        ],
        "serve" => vec![
            experiments::serve_load(quick, serve_opts),
            experiments::compile_amortization(quick),
        ],
        "batch" => vec![experiments::batch_exec(quick)],
        "backends" => vec![experiments::backend_table(quick)],
        _ => return None,
    };
    Some(tables)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir: Option<PathBuf> = cli::arg_value(&args, "--out").map(PathBuf::from);
    let backend = match cli::backend_arg(&args) {
        Ok(kind) => kind,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };

    // The serve load-harness knobs. Parse failures on numeric flags are
    // hard errors, not silent fallbacks.
    macro_rules! parse_flag {
        ($flag:literal, $ty:ty) => {
            match cli::arg_value(&args, $flag).map(|v| v.parse::<$ty>()) {
                None => None,
                Some(Ok(v)) => Some(v),
                Some(Err(_)) => {
                    eprintln!("invalid value for {}", $flag);
                    return ExitCode::FAILURE;
                }
            }
        };
    }
    let serve_opts = ServeOpts {
        backend,
        seed: parse_flag!("--seed", u64).unwrap_or(experiments::SEED),
        requests: parse_flag!("--requests", usize),
        duration_s: parse_flag!("--duration", f64),
        shards: parse_flag!("--shards", usize),
        rate_hz: parse_flag!("--rate", f64),
        workload: cli::arg_value(&args, "--workload").cloned(),
        mix: cli::arg_value(&args, "--mix").cloned(),
        models: cli::arg_values(&args, "--model")
            .into_iter()
            .cloned()
            .collect(),
        deadline_ms: parse_flag!("--deadline-ms", u64),
        // Observability artifacts (interval JSONL, Prometheus exposition,
        // JSON metrics snapshot) ride along with the tables under --out.
        metrics_dir: out_dir.clone(),
    };

    // Flag *values* are excluded by position, not by string value, so an
    // experiment name that happens to equal a flag value (e.g. the 'batch'
    // experiment with `--backend batch`) still selects normally.
    let flag_value_positions = cli::flag_value_positions(
        &args,
        &[
            "--out",
            "--backend",
            "--seed",
            "--requests",
            "--duration",
            "--shards",
            "--rate",
            "--workload",
            "--mix",
            "--model",
            "--deadline-ms",
        ],
    );
    let mut selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !flag_value_positions.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = ALL.iter().map(|s| (*s).to_string()).collect();
    }
    // `repro serve --batch` appends the batch-major executor comparison.
    if args.iter().any(|a| a == "--batch") && !selected.iter().any(|s| s == "batch") {
        selected.push("batch".to_string());
    }

    if let Some(dir) = &out_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for name in &selected {
        let Some(tables) = run_one(name, quick, &serve_opts) else {
            eprintln!("unknown experiment '{name}'; choose from {ALL:?} or 'all'");
            return ExitCode::FAILURE;
        };
        for (i, table) in tables.iter().enumerate() {
            println!("{table}");
            if let Some(dir) = &out_dir {
                let suffix = if tables.len() > 1 {
                    format!("{name}_{i}")
                } else {
                    name.clone()
                };
                let path = dir.join(format!("{suffix}.csv"));
                if let Err(err) = table.write_csv(&path) {
                    eprintln!("cannot write {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            // The backend comparison and the serve harness double as perf
            // trajectories: always emit them machine-readable alongside the
            // pretty tables.
            let bench_json = match (name.as_str(), i) {
                ("backends", _) => Some("BENCH_backends.json"),
                ("serve", 0) => Some("BENCH_serve.json"),
                _ => None,
            };
            if let Some(file) = bench_json {
                let dir = out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
                let path = dir.join(file);
                if let Err(err) = table.write_json(&path) {
                    eprintln!("cannot write {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", path.display());
            }
        }
    }
    ExitCode::SUCCESS
}
