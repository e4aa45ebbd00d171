//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit; `BENCHMARK.json` names the same end-to-end metrics, and the
//! self-test checks that a run prints exactly the declared set.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload bypasses reads 0. The first is the end-to-end tail latency,
/// measured with spans off: it is reported but carries no bound, because
/// its run-to-run spread on a shared 2-core host (0.14 to 0.49 of its
/// median over ten runs) is wider than any bound the benchmark may set.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("latency_tail_ms", "ms"),
    ("setup.world_ms", "ms"),
    ("setup.train_ms", "ms"),
    ("nn.autoencoder.fit_ms", "ms"),
    ("setup.open_ms", "ms"),
    ("spatial.candidates_ms", "ms"),
    ("attack.candidates.pairs", "count"),
    ("phase1.joc_ms", "ms"),
    ("core.features_ms", "ms"),
    ("core.pairs_evaluated", "count"),
    ("phase2.infer_ms", "ms"),
    ("phase2.self_ms", "ms"),
    ("phase2.iterations", "count"),
    ("graph.khop.extractions", "count"),
    ("ml.svm.kernel_evals", "count"),
    ("phase2.refine.dirty_pairs", "count"),
    ("par.items", "count"),
    ("par.chunks", "count"),
    ("par.workers", "count"),
    ("incremental.ingest_ms", "ms"),
    ("incremental.ingest_ms_per_flush", "ms"),
    ("incremental.ingest.dirty_pairs", "count"),
    ("incremental.dirty_pairs_per_flush", "count"),
    ("phase2.warm_dirty_frac", "ratio"),
    ("spatial.cell_index.apply_ms", "ms"),
    ("serve.flushes", "count"),
    ("serve.checkins_per_flush", "count"),
    ("serve.engine_busy_frac", "ratio"),
    ("serve.ack_p50_ms", "ms"),
    ("serve.query_engine_us", "us"),
    ("serve.query_transport_us", "us"),
    ("overhead.setup_s", "s"),
    ("overhead.latency_p50_ms", "ms"),
    ("overhead.latency_tail_ms", "ms"),
    ("overhead.throughput_per_s", "1/s"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Named values, kept in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Records (or overwrites) `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric { name, value }),
        }
    }

    /// The value of `name`, when recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The values of the declared `catalogue`, in catalogue order; a name
    /// not recorded reads 0 (a layer the workload never entered).
    pub fn select(&self, catalogue: &[(&'static str, &'static str)]) -> Metrics {
        Metrics(
            catalogue
                .iter()
                .map(|&(name, _)| Metric { name, value: self.get(name).unwrap_or(0.0) })
                .collect(),
        )
    }
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (timed operations plus checked answers).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
}

impl Outcome {
    /// The single-line JSON result. Non-finite values are printed as
    /// `null` (and mark the run incorrect): JSON has no NaN.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.0.iter().all(|m| m.value.is_finite());
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let unit = unit_of(m.name).unwrap_or("count");
            let value =
                if m.value.is_finite() { format!("{}", m.value) } else { "null".to_string() };
            let _ =
                write!(out, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}", m.name);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|&(n, _)| n).collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "duplicate metric {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    #[test]
    fn json_line_carries_every_selected_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        let line =
            Outcome { correct: true, attempted: 3, failed: 0, metrics: m.select(&END_TO_END) }
                .to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"throughput_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
    }
}
