//! The metric tables — every name, unit, direction and regression bound the
//! benchmark reports — and the result line the driver reads. `BENCHMARK.json`
//! at the repo root lists the same metrics; a unit test keeps the two in step.

use std::fmt::Write as _;

use crate::stats::Better::{self, Higher, Lower};

/// A gated end-to-end metric. `bound` is the share of the baseline's median
/// by which it may get worse before that counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Reported by every workload with tracing off.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_vs_dense",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_vs_dense",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

/// An ungated metric of one layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Nothing is gated on it; kept so `BENCHMARK.json` is checked whole.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by every workload's traced run. A metric whose layer the
/// workload does not exercise reads 0 there (see README.md).
pub const PER_LAYER: &[PerLayer] = &[
    layer("model.dense_forward_us", "us", Lower),
    layer("core.compile_ms", "ms", Lower),
    layer("core.warm_ms", "ms", Lower),
    layer("core.plan_entries", "count", Lower),
    layer("core.forward_b1_us", "us", Lower),
    layer("core.forward_b2_us", "us", Lower),
    layer("core.forward_b4_us", "us", Lower),
    layer("core.forward_b8_us", "us", Lower),
    layer("core.forward_b32_us", "us", Lower),
    layer("core.layer.conv1_b32_us", "us", Lower),
    layer("core.layer.conv2_b32_us", "us", Lower),
    layer("core.layer.conv3_b32_us", "us", Lower),
    layer("core.layer.ip1_b32_us", "us", Lower),
    layer("core.layer.ip2_b32_us", "us", Lower),
    layer("core.layer.other_share", "share", Lower),
    layer("core.counters.dense_mults", "count", Lower),
    layer("core.counters.issued_mults", "count", Lower),
    layer("core.counters.gather_entries", "count", Lower),
    layer("core.counters.reuse_ratio", "ratio", Lower),
    layer("core.ns_per_issued_mult", "ns", Lower),
    layer("serve.registry.insert_ms", "ms", Lower),
    layer("serve.registry.resolve_ns", "ns", Lower),
    layer("serve.queue.push_pop_ns", "ns", Lower),
    layer("serve.engine.start_ms", "ms", Lower),
    layer("serve.engine.shutdown_ms", "ms", Lower),
    layer("serve.engine.submit_us_p50", "us", Lower),
    layer("serve.engine.submit_us_p90", "us", Lower),
    layer("serve.engine.queue_wait_us_p50", "us", Lower),
    layer("serve.engine.queue_wait_us_p90", "us", Lower),
    layer("serve.engine.batch_form_us_p50", "us", Lower),
    layer("serve.engine.service_us_p50", "us", Lower),
    layer("serve.engine.service_us_p90", "us", Lower),
    layer("serve.engine.overhead_us_p50", "us", Lower),
    layer("serve.engine.overhead_us_p90", "us", Lower),
    layer("serve.engine.batch_mean", "count", Higher),
    layer("serve.engine.batch_p90", "count", Higher),
    layer("serve.engine.batches", "count", Lower),
    layer("serve.engine.steals", "count", Lower),
    layer("serve.engine.worker_share_max", "share", Lower),
    layer("serve.engine.service_per_req_us", "us", Lower),
    layer("serve.engine.exec_over_kernel", "ratio", Lower),
    layer("serve.engine.recv_skew_us_p90", "us", Lower),
    layer("serve.engine.lat_p90_ms", "ms", Lower),
    layer("serve.engine.lat_p99_ms", "ms", Lower),
    layer("serve.engine.lat_max_ms", "ms", Lower),
    layer("serve.engine.slo_ok_share", "share", Higher),
    layer("serve.engine.shed", "count", Lower),
    layer("serve.engine.max_ok_rate_rps", "1/s", Higher),
    layer("sim.simulate_ms", "ms", Lower),
    layer("sim.energy_u17_vs_dcnn_sp", "ratio", Lower),
    layer("sim.cycles_u17_vs_dcnn_sp", "ratio", Lower),
    layer("sim.bits_per_weight_u17", "bits", Lower),
    layer("bench.throughput_per_s", "1/s", Higher),
    layer("bench.lat_p50_ms", "ms", Lower),
    layer("bench.gen_late_us_p99", "us", Lower),
    layer("bench.gen_late_us_max", "us", Lower),
    layer("bench.window_spread", "share", Lower),
    layer("bench.trace_overhead_share", "share", Lower),
    layer("bench.failed_share", "share", Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Named values collected during a run, then laid out against a table.
#[derive(Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every end-to-end metric, in table order. All must have been set.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name.to_string(),
                value: self
                    .get(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name)),
                unit: m.unit,
            })
            .collect()
    }

    /// Every per-layer metric, in table order; one this workload does not
    /// exercise reads 0. A value set under a name the table lacks is a bug.
    pub fn per_layer(&self) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not in the per-layer table"
            );
        }
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name.to_string(),
                value: self.get(m.name).unwrap_or(0.0),
                unit: m.unit,
            })
            .collect()
    }
}

/// The driver's result line: one JSON object, the last line of stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` prints the shortest decimal that reads back as the same f64:
        // every measured digit, no rounding.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    /// The `{...}` entries of one top-level array of the manifest.
    fn entries(section: &str) -> Vec<&'static str> {
        let start = MANIFEST
            .find(&format!("\"{section}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &MANIFEST[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|e| &e[..e.find('}').unwrap()])
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_end_to_end_table() {
        let listed = entries("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, m) in listed.iter().zip(END_TO_END) {
            let want = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert_eq!(entry.trim(), want);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        // Set-up time carries the largest bound.
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn manifest_lists_exactly_the_per_layer_table() {
        let listed = entries("per_layer");
        assert_eq!(listed.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (entry, m) in listed.iter().zip(PER_LAYER) {
            let want = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert_eq!(entry.trim(), want);
        }
    }

    #[test]
    fn manifest_lists_the_four_workloads() {
        let listed = entries("workloads");
        let names: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(listed.len(), names.len());
        for (entry, name) in listed.iter().zip(names) {
            assert!(entry.contains(&format!("\"name\": \"{name}\"")), "{entry}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let metrics = [
            Metric {
                name: "lat_p50_vs_dense".into(),
                value: 1.2034567891,
                unit: "ratio",
            },
            Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            },
        ];
        assert_eq!(
            result_line(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"lat_p50_vs_dense\": {\"value\": 1.2034567891, \"unit\": \"ratio\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn unexercised_layers_read_zero_and_unknown_names_are_rejected() {
        let mut values = Values::default();
        values.set("core.plan_entries", 42.0);
        let laid_out = values.per_layer();
        assert_eq!(laid_out.len(), PER_LAYER.len());
        assert_eq!(laid_out[3].value, 42.0);
        assert_eq!(laid_out[0].value, 0.0);
        let mut bad = Values::default();
        bad.set("core.no_such_metric", 1.0);
        assert!(std::panic::catch_unwind(move || bad.per_layer()).is_err());
    }
}
