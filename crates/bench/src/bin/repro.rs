//! `repro` — regenerates every table and figure of the UCNN evaluation.
//!
//! ```text
//! repro <experiment>... [--quick] [--out DIR]
//!
//! experiments: fig1 fig3 table2 fig7 fig9 fig10 fig11 fig12 fig13 fig14
//!              table3 ablations backends all
//! ```
//!
//! `--quick` shrinks networks/sweeps (used by CI and Criterion); the default
//! runs the full configuration recorded in EXPERIMENTS.md. With `--out DIR`
//! every table is also written as `DIR/<experiment>.csv`. The `backends`
//! experiment prints the all-backends comparison table **and writes it as
//! machine-readable `BENCH_backends.json`** (into `--out DIR` when given,
//! the working directory otherwise) so the perf trajectory of the executor
//! backends is tracked across commits.
//!
//! Numbers about the serving engine come from the repository benchmark
//! (`benchmark/`, see its README), not from here.

use std::path::PathBuf;
use std::process::ExitCode;

use ucnn_bench::cli;
use ucnn_bench::experiments;
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
    "backends",
];

fn run_one(name: &str, quick: bool) -> Option<Vec<TableOut>> {
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
        "backends" => vec![experiments::backend_table(quick)],
        _ => return None,
    };
    Some(tables)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir: Option<PathBuf> = cli::arg_value(&args, "--out").map(PathBuf::from);
    // The value of `--out` is excluded by position, not by string, so an
    // experiment name that happens to equal the directory still selects.
    let flag_value_positions = cli::flag_value_positions(&args, &["--out"]);
    let mut selected: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !flag_value_positions.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = ALL.iter().map(|s| (*s).to_string()).collect();
    }

    if let Some(dir) = &out_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    for name in &selected {
        let Some(tables) = run_one(name, quick) else {
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
            // The backend comparison doubles as a perf trajectory: always
            // emit it machine-readable alongside the pretty table.
            if name == "backends" {
                let dir = out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
                let path = dir.join("BENCH_backends.json");
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
