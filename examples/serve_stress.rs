//! Serving stress test: compile the tiny network once, then drive the
//! batched inference engine through the workload zoo — deterministic,
//! seed-replayable schedules executed by sharded generator threads — and
//! verify every response bit for bit against the dense reference.
//!
//! ```sh
//! cargo run --release --example serve_stress -- \
//!     [--quick] [--workers N] [--rate HZ] [--batch N] [--threads N] \
//!     [--workload NAME] [--mix NAME] [--seed N] [--shards N] [--requests N]
//! ```
//!
//! * `--quick` — small request counts (CI smoke configuration).
//! * `--workers N` — worker thread count (default 4).
//! * `--rate HZ` — offered rate for scheduled arrivals (default 200).
//! * `--batch N` — max requests per batched forward (default 8).
//! * `--threads N` — scoped exec threads inside each batched forward
//!   (default 1).
//! * `--workload NAME` — run one arrival process (`closed`, `open`,
//!   `bursty`, `ramp`) instead of the default closed + open + bursty sweep.
//! * `--mix NAME` — model mix (`uniform`, `hotcold`, `sequential`;
//!   default sequential — one model here, so the mix only shapes draws).
//! * `--seed N` — schedule seed; the same seed replays the identical
//!   request stream (default 7).
//! * `--shards N` — generator threads for scheduled workloads (default 2).
//! * `--requests N` — total requests per run.
//!
//! This example is a thin front-end over `ucnn_serve::harness` — the
//! machinery `tests/serve_load.rs` and `tests/chaos.rs` drive — on the
//! engine's default executor backend. It is a correctness smoke, not an
//! instrument: numbers about the engine come from `benchmark/`. Open-loop
//! latency is coordinated-omission-aware (charged from the intended send
//! time; a full queue sheds instead of stalling).
//!
//! Exits non-zero if any response mismatches the dense reference or if a
//! run completes zero requests.

use std::process::ExitCode;
use std::sync::Arc;

use ucnn::core::compile::UcnnConfig;
use ucnn::model::{forward, networks, ActivationGen, QuantScheme};
use ucnn::serve::harness::{self, Case, HarnessReport, ModelCases, RunConfig};
use ucnn::serve::workload::{Arrival, Mix, StandardWorkload};
use ucnn::serve::{Engine, EngineConfig, ModelRegistry};

use ucnn_bench::cli::arg_value as arg_str;

fn arg_value(args: &[String], flag: &str) -> Option<usize> {
    arg_str(args, flag).and_then(|v| v.parse().ok())
}

fn print_report(report: &HarnessReport) {
    println!(
        "  {:<28} {:>7} ok  {:>4} bad  {:>4} shed  {:>9.0} req/s  \
         p50 {:>8.0} us  p95 {:>8.0} us  p99 {:>8.0} us  \
         batch mean {:.2} max {}",
        report.label,
        report.completed,
        report.mismatches,
        report.shed(),
        report.throughput_rps(),
        report.percentile_us(0.50),
        report.percentile_us(0.95),
        report.percentile_us(0.99),
        report.mean_batch(),
        report.max_batch(),
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let workers = arg_value(&args, "--workers").unwrap_or(4);
    let rate = arg_value(&args, "--rate").unwrap_or(200) as f64;
    let max_batch = arg_value(&args, "--batch").unwrap_or(8);
    let exec_threads = arg_value(&args, "--threads").unwrap_or(1);
    let seed = arg_str(&args, "--seed")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(7);
    let shards = arg_value(&args, "--shards").unwrap_or(2);
    let requests = arg_value(&args, "--requests").unwrap_or(if quick { 40 } else { 400 });
    let mix_name = arg_str(&args, "--mix").map_or("sequential", String::as_str);
    let Some(mix) = Mix::parse(mix_name) else {
        eprintln!("unknown mix '{mix_name}'; choose uniform, hotcold, or sequential");
        return ExitCode::FAILURE;
    };

    // The runs: one named workload, or the default closed + open + bursty
    // sweep. Each entry is (arrival, shards) — closed loops use one shard
    // per concurrent client.
    let closed_shards = if quick { 2 } else { 8 };
    let runs: Vec<(Arrival, usize)> = match arg_str(&args, "--workload") {
        Some(name) => match Arrival::parse(name, rate) {
            Some(arrival) => {
                let s = if matches!(arrival, Arrival::Closed) {
                    arg_value(&args, "--shards").unwrap_or(closed_shards)
                } else {
                    shards
                };
                vec![(arrival, s)]
            }
            None => {
                eprintln!("unknown workload '{name}'; choose closed, open, bursty, or ramp");
                return ExitCode::FAILURE;
            }
        },
        None => vec![
            (Arrival::Closed, closed_shards),
            (Arrival::parse("open", rate).unwrap(), shards),
            (Arrival::parse("bursty", rate).unwrap(), shards),
        ],
    };

    // Compile once: the registry holds the immutable plan workers share.
    let net = networks::tiny();
    let weights = forward::generate_network_weights(&net, QuantScheme::inq(), 0xC0FFEE, 0.9);
    let registry = Arc::new(ModelRegistry::new());
    let plan = registry.compile_and_insert(&net, &weights, &UcnnConfig::with_g(2));
    println!(
        "compiled '{}' once: {} stages, {} retained stream entries",
        plan.name(),
        plan.stages().len(),
        plan.total_entries()
    );

    // Precompute dense-reference outputs so every response is verifiable.
    let mut agen = ActivationGen::new(7);
    let cases: Vec<Case> = (0..8)
        .map(|_| {
            let input = agen.generate_for(&net.conv_layers()[0]);
            let expected = forward::dense_forward(&net, &weights, &input);
            (input, expected)
        })
        .collect();
    let models = vec![ModelCases {
        name: "tiny".to_string(),
        cases,
    }];

    let engine = Engine::start(
        Arc::clone(&registry),
        EngineConfig {
            workers,
            max_batch,
            exec_threads,
            ..EngineConfig::default()
        },
    );
    println!(
        "engine up: {workers} workers, max batch {max_batch}, \
         {exec_threads} exec thread(s) per batch, '{}' backend, \
         seed {seed}\n",
        engine.backend()
    );

    let mut bad = 0u64;
    let mut zero_runs = 0u64;
    for (arrival, run_shards) in runs {
        let workload = StandardWorkload { arrival, mix };
        let report = harness::run(
            &engine,
            &models,
            &workload,
            RunConfig {
                requests,
                shards: run_shards,
                seed,
                ..RunConfig::default()
            },
        );
        print_report(&report);
        bad += report.mismatches + report.errors;
        if report.completed == 0 {
            zero_runs += 1;
        }
    }

    let stats = engine.shutdown();
    println!(
        "\nengine served {} requests in {} batched forwards \
         (batch mean {:.2}, p50 {}, p90 {}, max {})",
        stats.served,
        stats.batches,
        stats.mean_batch(),
        stats.batch_percentile(0.5),
        stats.batch_percentile(0.9),
        stats.max_batch(),
    );
    let formed: Vec<String> = stats
        .batch_size_counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(size, &count)| format!("{size}x{count}"))
        .collect();
    println!(
        "batch size distribution (size x batches): {}",
        formed.join("  ")
    );

    if bad > 0 {
        eprintln!("FAIL: {bad} mismatched or failed responses");
        return ExitCode::FAILURE;
    }
    if zero_runs > 0 {
        eprintln!("FAIL: a run completed zero requests");
        return ExitCode::FAILURE;
    }
    println!("PASS: every response bit-identical to the dense reference");
    ExitCode::SUCCESS
}
