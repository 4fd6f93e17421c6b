//! The metric catalog and the per-run sheet of values.
//!
//! The catalog is the single list of metric names and units; a test
//! checks it against `BENCHMARK.json`. Every workload prints every
//! metric of the mode it runs in. A per-layer metric a workload does not
//! exercise reads 0.

use std::collections::BTreeMap;

use tdpipe_spans::{BubbleCause, SpanComponents};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_throughput_tok_s", "tok/s"),
    ("sim_ttft_p50_s", "s"),
    ("sim_ttft_p99_s", "s"),
    ("sim_tpot_p50_s", "s"),
    ("sim_tpot_p95_s", "s"),
    ("sim_goodput_req_s", "req/s"),
    ("sim_slo_attainment", "ratio"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics with a fixed name: `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 45] = [
    ("workload.generate_s", "s"),
    ("predictor.train_s", "s"),
    ("model.plan_s", "s"),
    ("sim.launches", "count"),
    ("sim.exec_s", "s"),
    ("predictor.predict_calls", "count"),
    ("predictor.predict_s", "s"),
    ("core.self_s", "s"),
    ("predictor.bucket_accuracy", "ratio"),
    ("core.phase_switches", "count"),
    ("core.prefill_phases", "count"),
    ("core.decode_steps", "count"),
    ("kvcache.recomputed_tokens", "tokens"),
    ("kvcache.peak_occupancy", "ratio"),
    ("kvcache.session_reused_tokens", "tokens"),
    ("metrics.overhead_s", "s"),
    ("metrics.snapshot_bytes", "bytes"),
    ("trace.journal_events", "count"),
    ("trace.journal_bytes", "bytes"),
    ("trace.to_json_s", "s"),
    ("trace.chrome_s", "s"),
    ("spans.analyze_s", "s"),
    ("spans.report_json_s", "s"),
    ("spans.validate_s", "s"),
    ("spans.identity_failures", "count"),
    ("fleet.serial_run_s", "s"),
    ("fleet.parallel_speedup", "ratio"),
    ("fleet.spills", "count"),
    ("fleet.assigned_max_share", "ratio"),
    ("fleet.replica_slo_min", "ratio"),
    ("baselines.tp_sb.run_s", "s"),
    ("baselines.tp_hb.run_s", "s"),
    ("baselines.pp_sb.run_s", "s"),
    ("baselines.pp_hb.run_s", "s"),
    ("baselines.td_pipe.run_s", "s"),
    ("fig11.speedup_vs.tp_sb", "ratio"),
    ("fig11.speedup_vs.tp_hb", "ratio"),
    ("fig11.speedup_vs.pp_sb", "ratio"),
    ("fig11.speedup_vs.pp_hb", "ratio"),
    ("fig11.paper_speedup_err", "ratio"),
    ("bench.report_s", "s"),
    ("bench.fail_share", "ratio"),
    ("bench.trace_overhead_s", "s"),
    ("bench.wall_run_s", "s"),
    ("bench.calibration_s", "s"),
];

/// Every per-layer metric: the fixed ones plus one bubble total per cause
/// and one span total per component.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    out.extend(
        BubbleCause::ALL
            .iter()
            .map(|c| (format!("spans.bubble_s.{}", c.label()), "s")),
    );
    out.extend(
        SpanComponents::NAMES
            .iter()
            .map(|c| (format!("spans.component_s.{c}"), "s")),
    );
    out
}

/// Values one workload measured, by metric name.
#[derive(Debug, Default)]
pub struct Sheet {
    values: BTreeMap<String, f64>,
}

impl Sheet {
    /// Set a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The metrics of one mode, in catalog order, as `(name, value, unit)`.
    /// End-to-end metrics must all be present; absent per-layer metrics
    /// read 0. Errors on a missing end-to-end metric, a name outside the
    /// catalog, or a value that is not finite.
    pub fn select(&self, traced: bool) -> Result<Vec<(String, f64, &'static str)>, String> {
        let end_to_end: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        let layer = per_layer();
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !end_to_end.iter().chain(&layer).any(|(n, _)| n == *k))
        {
            return Err(format!("metric {stray:?} is not in the catalog"));
        }
        let mut out = Vec::new();
        for (name, unit) in if traced { layer } else { end_to_end } {
            let value = match self.values.get(&name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name:?} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name:?} is not finite: {value}"));
            }
            out.push((name, value, unit));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'),
                "{n}"
            );
        }
    }

    #[test]
    fn select_fills_layers_and_requires_end_to_end() {
        let mut s = Sheet::default();
        s.set("sim.launches", 7.0);
        let layer = s.select(true).unwrap();
        assert_eq!(layer.len(), per_layer().len());
        assert!(layer
            .iter()
            .any(|(n, v, _)| n == "sim.launches" && *v == 7.0));
        assert!(layer
            .iter()
            .any(|(n, v, _)| n == "core.self_s" && *v == 0.0));
        assert!(s.select(false).unwrap_err().contains("setup_s"));
        s.set("no.such_metric", 1.0);
        assert!(s.select(true).unwrap_err().contains("catalog"));
    }

    #[test]
    fn select_rejects_non_finite_values() {
        let mut s = Sheet::default();
        s.set("core.self_s", f64::NAN);
        assert!(s.select(true).unwrap_err().contains("finite"));
    }
}
