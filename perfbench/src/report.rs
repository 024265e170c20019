//! The benchmark's output: context lines first, then one JSON result object as the
//! last line of standard output.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports with `--trace 0`, with their units.
/// Each has a meaning on every workload (see `README.md`): cold work starts from scratch
/// (a whole synthesis pipeline, or a fresh measurement), warm work reuses state (a walk
/// step on the incremental dataflow, or a cached replay).
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_tail_ms", "ms"),
    ("quality_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`, with their units. A
/// layer a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("mcmc.propose_us", "us"),
    ("mcmc.apply_us", "us"),
    ("mcmc.undo_us", "us"),
    ("mcmc.unattributed_us", "us"),
    ("mcmc.accept_ratio", "ratio"),
    ("mcmc.no_proposal_frac", "ratio"),
    ("mcmc.scorer_drift", "energy"),
    ("mcmc.fit_energy_ratio", "ratio"),
    ("mcmc.seed_s", "s"),
    ("dataflow.lower_s", "s"),
    ("dataflow.bulk_load_s", "s"),
    ("shard.pool_dispatches_per_step", "count"),
    ("dataflow.exchanges_per_step", "count"),
    ("shard.walk_spawns", "count"),
    ("analyses.degree_measure_s", "s"),
    ("analyses.tbi_measure_s", "s"),
    ("synth.unattributed_s", "s"),
    ("service.parse_us", "us"),
    ("service.validate_us", "us"),
    ("service.bind_us", "us"),
    ("plan.optimize_us", "us"),
    ("budget.reserve_us", "us"),
    ("plan.execute_us", "us"),
    ("core.noise_us", "us"),
    ("budget.commit_us", "us"),
    ("plan.kernel_rows", "count"),
    ("service.encode_json_us", "us"),
    ("service.encode_columnar_us", "us"),
    ("release.bytes_json", "bytes"),
    ("release.bytes_columnar", "bytes"),
    ("cache.hit_ratio", "ratio"),
    ("client.encode_us", "us"),
    ("transport.roundtrip_us", "us"),
    ("client.decode_us", "us"),
    ("service.unattributed_us", "us"),
    ("telemetry.trace_overhead", "ratio"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds an ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics of `list`, in its order and with its units. A name missing from
    /// `self` reads 0 when `zero_missing`, and is an error otherwise; a name outside
    /// `list`, or a unit that differs from it, is always an error.
    pub fn complete(
        &self,
        list: &[(&'static str, &'static str)],
        zero_missing: bool,
    ) -> Result<Metrics, String> {
        if let Some(m) = self.0.iter().find(|m| !list.contains(&(m.name, m.unit))) {
            return Err(format!("metric {} [{}] is not in the list", m.name, m.unit));
        }
        let mut out = Metrics::default();
        for &(name, unit) in list {
            let value = match (self.get(name), zero_missing) {
                (Some(v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            out.push(name, value, unit);
        }
        Ok(out)
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (walk steps, or analyst requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    pub metrics: Metrics,
    /// Context printed before the result: configuration, sample counts, tail percentiles.
    pub context: Vec<(String, String)>,
}

/// A JSON number with every digit of the measurement (non-finite values become null).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The final result line. Every correctness check has passed by the time a run gets
/// here (a failed check ends the run with an error instead), so `correct` is true.
pub fn result_line(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The context line: `# key=value ...`, for the human reader and the run log.
pub fn context_line(outcome: &Outcome) -> String {
    let fields: Vec<String> = outcome
        .context
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    format!("# {}", fields.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_keeps_every_digit() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 0.812_734_5, "s");
        metrics.push("throughput_per_s", 265.0, "1/s");
        let line = result_line(&Outcome {
            attempted: 7,
            failed: 0,
            metrics,
            context: Vec::new(),
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}, \
             \"throughput_per_s\": {\"value\": 265.0, \"unit\": \"1/s\"}}}"
        );
    }
}
