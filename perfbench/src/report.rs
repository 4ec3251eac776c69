//! Metric catalogue, result records and output formatting.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, each with its unit. The first block is defined on
/// every workload and is what `BENCHMARK.json` gates; the rest are
/// defined only on the workloads that issue the matching kind of call,
/// and are printed in the report.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cal_goodput_ops_s", "ops/s"),
    ("cal_cpu_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("goodput_ops_s", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("setup_wall_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("sim_goodput_tps", "tx/s"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("failed_ratio", "ratio"),
    ("ledger_bytes_per_op", "B"),
];

/// The end-to-end metrics every workload defines (the gated set).
pub const GATED: &[&str] = &[
    "cal_goodput_ops_s",
    "cal_cpu_us_per_op",
    "setup_s",
    "peak_rss_mib",
];

/// Per-layer metrics of the traced run, each with its unit. Every
/// workload emits all of them; a layer the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.ed25519_sign_us", "us"),
    ("crypto.ed25519_verify_us", "us"),
    ("crypto.ed25519_batch_verify_us_per_sig", "us"),
    ("crypto.sha256_64b_ns", "ns"),
    ("crypto.aead_seal_us", "us"),
    ("crypto.hybrid_seal_us", "us"),
    ("crypto.hybrid_open_us", "us"),
    ("fabric.endorse_us", "us"),
    ("fabric.validate_us_per_tx", "us"),
    ("fabric.order_us_per_block", "us"),
    ("fabric.persist_us_per_block", "us"),
    ("fabric.commit_us_per_block", "us"),
    ("fabric.wire_encode_us_per_tx", "us"),
    ("fabric.wire_decode_us_per_tx", "us"),
    ("fabric.wire_bytes_per_tx", "B"),
    ("fabric.raft_us_per_batch", "us"),
    ("fabric.block_txs_mean", "count"),
    ("fabric.mvcc_invalid_per_commit", "ratio"),
    ("store.wal_append_us", "us"),
    ("store.fsyncs_per_block", "count"),
    ("statedb.get_us", "us"),
    ("statedb.put_us", "us"),
    ("statedb.write_amp", "ratio"),
    ("statedb.block_cache_hit_ratio", "ratio"),
    ("core.invoke_self_us", "us"),
    ("core.flush_us", "us"),
    ("core.grant_us", "us"),
    ("core.revoke_us", "us"),
    ("core.query_us", "us"),
    ("core.open_us", "us"),
    ("core.verify_soundness_us_per_tx", "us"),
    ("core.verify_completeness_us", "us"),
    ("core.refresh_ms", "ms"),
    ("datalog.edb_build_ms", "ms"),
    ("datalog.eval_ms", "ms"),
    ("cluster.host_us_per_commit", "us"),
    ("cluster.unattributed_us_per_commit", "us"),
    ("cluster.elections", "count"),
    ("cluster.resubmits", "count"),
    ("shard.redrives_per_op", "ratio"),
    ("shard.cross_fraction", "ratio"),
    ("shard.aborts_prepare_vote", "count"),
    ("shard.aborts_insufficient_funds", "count"),
    ("shard.aborts_admission", "count"),
    ("workload.invariant_check_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"))
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every oracle passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Errors + aborts + sheds + invalid commits + wrong answers.
    pub failed: u64,
    /// End-to-end metrics this workload defines.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Oracle failures, one line each.
    pub violations: Vec<String>,
    /// Self-time table of the traced run.
    pub profile: Option<String>,
    /// Chrome trace of the traced run, written out when the run ends.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// A fresh outcome for `workload`.
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            correct: true,
            ..Outcome::default()
        }
    }

    /// Record an oracle verdict; a failed oracle makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.violations.push(what());
        }
    }

    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.e2e.insert(name, value);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.layers
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The metrics object of the result line: the gated end-to-end set
    /// untraced, every per-layer metric traced.
    pub fn result_metrics(&self, trace: bool) -> Vec<(&'static str, f64)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|(n, _)| (*n, self.layers.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            GATED
                .iter()
                .map(|n| (*n, self.e2e.get(n).copied().unwrap_or(0.0)))
                .collect()
        }
    }

    /// The one-line JSON result.
    pub fn result_line(&self, trace: bool) -> String {
        let mut s = String::new();
        write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
        .expect("write to String");
        for (i, (name, value)) in self.result_metrics(trace).into_iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(value),
                unit_of(name)
            )
            .expect("write to String");
        }
        s.push_str("}}");
        s
    }

    /// Every metric this run produced, as one JSON object (written next
    /// to the trace for the A/A script and later comparisons).
    pub fn full_json(&self, seed: u64, trace: bool) -> String {
        let metrics = |m: &BTreeMap<&'static str, f64>| {
            m.iter()
                .map(|(n, v)| format!("\"{n}\": {}", json_number(*v)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {trace}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}\n",
            self.workload,
            self.correct,
            self.attempted,
            self.failed,
            metrics(&self.e2e),
            metrics(&self.layers)
        )
    }

    /// Human-readable report.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== {}: correct={} attempted={} failed={}",
            self.workload, self.correct, self.attempted, self.failed
        );
        for v in &self.violations {
            let _ = writeln!(s, "   ORACLE FAILED: {v}");
        }
        if !self.e2e.is_empty() {
            let _ = writeln!(s, "   end-to-end metric            value          unit");
            for (name, unit) in END_TO_END {
                match self.e2e.get(name) {
                    Some(v) => {
                        let _ = writeln!(s, "   {name:<28} {v:<14.4} {unit}");
                    }
                    None => {
                        let _ = writeln!(s, "   {name:<28} {:<14} {unit}", "n/a");
                    }
                }
            }
        }
        if !self.layers.is_empty() {
            let _ = writeln!(
                s,
                "   per-layer metric                          value          unit"
            );
            for (name, unit) in PER_LAYER {
                let v = self.layers.get(name).copied().unwrap_or(0.0);
                let _ = writeln!(s, "   {name:<41} {v:<14.4} {unit}");
            }
        }
        if let Some(p) = &self.profile {
            let _ = writeln!(
                s,
                "   self-time table of the traced run (benchmark and stack spans):"
            );
            for line in p.lines() {
                let _ = writeln!(s, "   {line}");
            }
        }
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Whether a metric name is one the result line may carry.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric name {name:?}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
        for name in GATED {
            unit_of(name);
        }
    }

    #[test]
    fn result_line_carries_every_gated_metric() {
        let mut o = Outcome::new("views");
        for name in GATED {
            o.e2e(name, 1.5);
        }
        let line = o.result_line(false);
        for name in GATED {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": 1.5")),
                "{line}"
            );
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.1234567891), "0.1234567891");
    }
}
