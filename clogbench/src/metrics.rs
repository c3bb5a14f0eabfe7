//! Metric names, units and the result line.
//!
//! Every workload reports every metric listed here, so one table of
//! names serves all three and `BENCHMARK.json` can be checked against it.

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("dr_gpu_speedup", "ratio"),
    ("dr_cpu_speedup", "ratio"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.new_ms", "ms"),
    ("core.run_ns_per_cycle", "ns"),
    ("core.ff_skipped_frac", "fraction"),
    ("core.report_ms", "ms"),
    ("core.self_ms_per_op", "ms"),
    ("noc.probe_ns_per_cycle", "ns"),
    ("noc.probe_share", "fraction"),
    ("noc.flit_hops", "count"),
    ("noc.reply_link_util", "fraction"),
    ("memnode.blocked_frac", "fraction"),
    ("memnode.delegations", "count"),
    ("memnode.delegation_hit_frac", "fraction"),
    ("memnode.llc_hit_rate", "fraction"),
    ("gpu.warp_insts", "count"),
    ("gpu.mem_stall_cycles", "count"),
    ("gpu.l1_miss_rate", "fraction"),
    ("cpu.mem_latency", "cycles"),
    ("dram.row_hit_rate", "fraction"),
    ("dram.probe_ns_per_cycle", "ns"),
    ("cache.probe_ns_per_access", "ns"),
    ("fabric.flits", "count"),
    ("fabric.blocked_cycles", "count"),
    ("fabric.run_ns_per_cycle", "ns"),
    ("snap.bytes", "bytes"),
    ("snap.save_ms", "ms"),
    ("snap.restore_ms", "ms"),
    ("snap.self_ms_per_op", "ms"),
    ("serve.result_hit_frac", "fraction"),
    ("serve.snapshot_hit_frac", "fraction"),
    ("serve.worker_util", "fraction"),
    ("serve.refused", "count"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_tail_ms", "ms"),
    ("serve.hit_tail_pct", "%"),
    ("serve.hit_samples", "count"),
    ("serve.resume_p50_ms", "ms"),
    ("serve.resume_tail_ms", "ms"),
    ("serve.resume_tail_pct", "%"),
    ("serve.resume_samples", "count"),
    ("serve.self_ms_per_op", "ms"),
    ("bench.self_ms_per_op", "ms"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// Whether `name` is a legal metric name: a letter or digit, then at
/// most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Metric values by name, filled in any order and printed in table order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `value` for `name` (a name from [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "{name} recorded twice"
        );
        self.values.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Record 0 for every name of `table` not recorded yet.
    pub fn fill_missing(&mut self, table: &[(&'static str, &str)]) {
        for &(name, _) in table {
            if self.get(name).is_none() {
                self.put(name, 0.0);
            }
        }
    }

    /// The result line. Every name of `table` must have been recorded,
    /// and nothing else.
    ///
    /// # Panics
    ///
    /// On a missing, extra or non-finite metric: a bug in a workload.
    pub fn result_line(
        &self,
        table: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let extra: Vec<_> = self
            .values
            .iter()
            .filter(|(n, _)| !table.iter().any(|(t, _)| t == n))
            .map(|(n, _)| *n)
            .collect();
        assert!(extra.is_empty(), "metrics outside the table: {extra:?}");
        let body: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                assert!(valid_name(name), "metric name {name}");
                let v = self
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} not recorded"));
                assert!(v.is_finite(), "metric {name} is {v}");
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            body.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        assert!(!valid_name("core/run"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("p50 ms"));
    }

    #[test]
    fn every_unit_is_legal() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok),
                "{name}: {unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = clognet_serve::json::Json::parse(&doc).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(|a| a.as_arr())
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
    }

    #[test]
    fn fill_missing_completes_a_table_with_zeros() {
        let mut m = Metrics::default();
        m.put("peak_rss_mb", 12.5);
        m.fill_missing(END_TO_END);
        assert_eq!(m.get("peak_rss_mb"), Some(12.5));
        assert_eq!(m.get("setup_s"), Some(0.0));
        // Every name is now recorded, so the line prints.
        assert!(m
            .result_line(END_TO_END, false, 3, 3)
            .starts_with("{\"correct\":false,\"attempted\":3,\"failed\":3,"));
    }

    #[test]
    fn result_line_prints_every_metric_in_table_order() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.25);
        m.put("sim_cycles_per_s", 1e6);
        let table = &END_TO_END[..2];
        assert_eq!(
            m.result_line(table, true, 3, 0),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"sim_cycles_per_s\":{\"value\":1000000.0,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
    }
}
