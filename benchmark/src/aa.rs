//! `--aa`: the whole suite twice, back to back, on the same code. Each run
//! is a child process of this executable (one process per workload, so peak
//! memory is the workload's own). Prints, per end-to-end metric × workload,
//! both medians, how much worse the second is, the bound, and the spread of
//! the runs; exits non-zero when the benchmark disagrees with itself by
//! more than its own bounds.

use std::process::Command;

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{breaches, iqr_share, median, worsening};
use crate::workloads::Workload;

/// A run whose generator was later than this at p99, or whose windows
/// disagree by more than this, is flagged `noisy` (not failed).
const NOISY_LATE_US_P99: f64 = 1000.0;
const NOISY_WINDOW_SPREAD: f64 = 0.3;

/// What one child run printed: `metric` and `extra` lines by name.
struct ChildRun {
    values: Vec<(String, f64)>,
}

impl ChildRun {
    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn noisy(&self) -> bool {
        self.get("gen_late_us_p99").unwrap_or(0.0) > NOISY_LATE_US_P99
            || self.get("window_spread").unwrap_or(0.0) > NOISY_WINDOW_SPREAD
    }
}

/// Parses the `metric <name> <value> <unit>` / `extra ...` lines.
fn parse_child(stdout: &str) -> ChildRun {
    let values = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            match words.next()? {
                "metric" | "extra" => {}
                _ => return None,
            }
            let name = words.next()?.to_string();
            let value = words.next()?.parse().ok()?;
            Some((name, value))
        })
        .collect();
    ChildRun { values }
}

fn run_child(workload: Workload, seed: u64, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run of {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "run of {} (seed {seed}) failed: {}",
            workload.name(),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let run = parse_child(&stdout);
    if !stdout
        .lines()
        .last()
        .is_some_and(|l| l.contains("\"correct\": true"))
    {
        return Err(format!(
            "run of {} (seed {seed}) reported wrong outputs",
            workload.name()
        ));
    }
    Ok(run)
}

/// One row of the comparison.
struct Row {
    workload: &'static str,
    metric: &'static EndToEnd,
    first: Vec<f64>,
    second: Vec<f64>,
}

impl Row {
    fn worse_by(&self) -> f64 {
        worsening(
            median(&self.first),
            median(&self.second),
            self.metric.better,
        )
    }

    fn breached(&self) -> bool {
        breaches(
            median(&self.first),
            median(&self.second),
            self.metric.better,
            self.metric.bound,
        )
    }

    /// Widest quartile spread of the two sets, when there are enough runs
    /// to take quartiles from.
    fn spread(&self) -> Option<f64> {
        (self.first.len() >= 4).then(|| iqr_share(&self.first).max(iqr_share(&self.second)))
    }

    /// Set-up time is exempt from the spread rule: it is gated on its
    /// medians only.
    fn too_wide(&self) -> bool {
        self.metric.name != "setup_s" && self.spread().is_some_and(|s| s > self.metric.bound)
    }
}

pub fn run(seed: u64, seconds: f64, runs: usize) -> Result<(), String> {
    let mut sets: Vec<Vec<Vec<ChildRun>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for workload in Workload::ALL {
            let mut children = Vec::new();
            for i in 0..runs {
                let child = run_child(workload, seed + i as u64, seconds)?;
                // Each run's numbers as it ends, so a long session that is
                // cut short still leaves its measurements behind.
                let numbers: Vec<String> = END_TO_END
                    .iter()
                    .filter_map(|m| Some(format!("{}={}", m.name, child.get(m.name)?)))
                    .collect();
                eprintln!(
                    "aa: set {} {} run {}/{runs}{}: {}",
                    set + 1,
                    workload.name(),
                    i + 1,
                    if child.noisy() { " (noisy)" } else { "" },
                    numbers.join(" ")
                );
                children.push(child);
            }
            per_workload.push(children);
        }
        sets.push(per_workload);
    }

    println!(
        "# --aa: 2 sets x {runs} run(s) x {} workloads, {seconds} s each, seeds {seed}..{}",
        Workload::ALL.len(),
        seed + runs as u64 - 1
    );
    println!(
        "{:<20} {:<17} {:>13} {:>13} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "median_1", "median_2", "worse_by", "bound", "spread"
    );
    let mut failures = 0;
    for (w, workload) in Workload::ALL.iter().enumerate() {
        for metric in END_TO_END {
            let column = |set: usize| -> Result<Vec<f64>, String> {
                sets[set][w]
                    .iter()
                    .map(|run| {
                        run.get(metric.name).ok_or_else(|| {
                            format!("a run of {} printed no {}", workload.name(), metric.name)
                        })
                    })
                    .collect()
            };
            let row = Row {
                workload: workload.name(),
                metric,
                first: column(0)?,
                second: column(1)?,
            };
            let verdict = if row.breached() {
                failures += 1;
                "BREACH"
            } else if row.too_wide() {
                failures += 1;
                "WIDE"
            } else {
                "ok"
            };
            println!(
                "{:<20} {:<17} {:>13.4} {:>13.4} {:>+8.2}% {:>6.0}% {:>8}  {verdict}",
                row.workload,
                row.metric.name,
                median(&row.first),
                median(&row.second),
                100.0 * row.worse_by(),
                100.0 * row.metric.bound,
                row.spread()
                    .map_or("-".to_string(), |s| format!("{:.2}%", 100.0 * s)),
            );
        }
        let noisy = sets
            .iter()
            .flat_map(|set| &set[w])
            .filter(|run| run.noisy())
            .count();
        if noisy > 0 {
            println!(
                "{:<20} noisy: {noisy} of {} runs (generator late or windows disagree)",
                workload.name(),
                2 * runs
            );
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} metric x workload pair(s) disagree beyond their bound"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_is_read_by_name() {
        let run = parse_child(
            "# ucnn-benchmark workload=x\nprovenance commit=abc\n\
             metric throughput_vs_dense 1.105 ratio\nmetric setup_s 0.0123 s\n\
             extra window_spread 0.35 share\nextra gen_late_us_p99 80 us\n{\"correct\": true}\n",
        );
        assert_eq!(run.get("throughput_vs_dense"), Some(1.105));
        assert_eq!(run.get("setup_s"), Some(0.0123));
        assert_eq!(run.get("lat_p50_vs_dense"), None);
        assert!(run.noisy(), "window spread above 0.3");
        let calm = parse_child("extra window_spread 0.05 share\nextra gen_late_us_p99 80 us\n");
        assert!(!calm.noisy());
    }

    #[test]
    fn rows_apply_the_bound_and_the_spread_rule() {
        let throughput = &END_TO_END[0];
        assert_eq!(throughput.name, "throughput_vs_dense");
        let steady = Row {
            workload: "w",
            metric: throughput,
            first: vec![2000.0, 2010.0, 1990.0, 2005.0],
            second: vec![1900.0, 1910.0, 1890.0, 1905.0],
        };
        assert!(!steady.breached(), "5% worse is inside the bound");
        assert!(!steady.too_wide());
        let slower = Row {
            second: vec![2000.0 * (1.0 - throughput.bound) - 50.0; 4],
            ..steady
        };
        assert!(slower.breached());
        let wide = Row {
            workload: "w",
            metric: throughput,
            first: vec![1000.0, 2000.0, 3000.0, 4000.0],
            second: vec![1000.0, 2000.0, 3000.0, 4000.0],
        };
        assert!(!wide.breached() && wide.too_wide());
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        let wide_setup = Row {
            metric: setup,
            ..wide
        };
        assert!(!wide_setup.too_wide(), "set-up is gated on medians only");
        let single = Row {
            workload: "w",
            metric: throughput,
            first: vec![2000.0],
            second: vec![2000.0],
        };
        assert_eq!(single.spread(), None);
    }
}
