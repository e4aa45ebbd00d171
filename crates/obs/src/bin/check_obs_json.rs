//! CI shape-check for `results/OBS_run.json`.
//!
//! Validates that the document a [`seeker_obs::JsonSink`] wrote during the
//! golden-trajectory test parses as JSON, carries the `seeker-obs/1` format
//! tag, has well-formed `events` / `spans` / `counters` sections, and
//! contains the per-stage span names and counters the instrumented attack
//! pipeline is contractually required to emit (quadtree build, JOC
//! batching, the `G⁰` head pass, encoder fit, SVM fit, each refinement
//! iteration and its four steps, and the k-hop walks with their paths and
//! the walks taken from the pair's `b` endpoint).
//!
//! Usage: `check_obs_json [path]` (default `results/OBS_run.json`).
//! Exits 0 when valid, 1 with a diagnostic on stderr otherwise.

#![deny(missing_docs, dead_code)]

use std::process::ExitCode;

use seeker_obs::json::{self, JsonValue};

/// Span names every instrumented attack run must have closed at least once.
const REQUIRED_SPANS: &[&str] = &[
    "attack.train",
    "attack.infer",
    "spatial.quadtree.build",
    "phase1.joc",
    "phase1.classify",
    "nn.autoencoder.fit",
    "ml.svm.fit",
    "phase2.infer.iter",
    "phase2.refine.dirty_rows",
    "phase2.refine.features",
    "phase2.refine.svm",
    "phase2.refine.graph",
];

/// Gauge event names the refinement loop must have emitted per iteration.
const REQUIRED_GAUGES: &[&str] = &["phase2.infer.iter.edges", "phase2.infer.iter.change_ratio"];

/// Counters the pipeline must have advanced past zero.
const REQUIRED_COUNTERS: &[&str] = &[
    "core.pairs_evaluated",
    "spatial.joc.cells",
    "ml.svm.kernel_evals",
    "graph.khop.extractions",
    "graph.khop.paths",
    "graph.khop.mirrored",
];

fn check(doc: &JsonValue) -> Result<(), String> {
    let obj = doc.as_object().ok_or("top level is not an object")?;
    let known_keys = ["format", "level", "events", "spans", "counters"];
    for (key, _) in obj {
        if !known_keys.contains(&key.as_str()) {
            return Err(format!("unknown top-level key {key:?}"));
        }
    }

    let format = doc.get("format").and_then(JsonValue::as_str).ok_or("missing format tag")?;
    if format != "seeker-obs/1" {
        return Err(format!("unexpected format tag {format:?}"));
    }
    let level = doc.get("level").and_then(JsonValue::as_str).ok_or("missing level")?;
    if seeker_obs::Level::parse(level).is_none() {
        return Err(format!("invalid level {level:?}"));
    }

    let events = doc.get("events").and_then(JsonValue::as_array).ok_or("missing events array")?;
    let mut gauges_seen: Vec<&str> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let ty = event
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i} has no type"))?;
        let name = || {
            event
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("event {i} ({ty}) has no name"))
        };
        match ty {
            "span_start" => {
                name()?;
                require_number(event, "depth", i)?;
            }
            "span_end" => {
                name()?;
                require_number(event, "depth", i)?;
                require_number(event, "nanos", i)?;
            }
            "gauge" => {
                gauges_seen.push(name()?);
                require_number(event, "value", i)?;
            }
            "message" => {
                event
                    .get("text")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("event {i} (message) has no text"))?;
            }
            other => return Err(format!("event {i} has unknown type {other:?}")),
        }
    }
    for required in REQUIRED_GAUGES {
        if !gauges_seen.contains(required) {
            return Err(format!("no {required:?} gauge event recorded"));
        }
    }

    let spans = doc.get("spans").and_then(JsonValue::as_array).ok_or("missing spans array")?;
    let mut span_names: Vec<&str> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let name = span
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("span {i} has no name"))?;
        span_names.push(name);
        for field in ["count", "total_nanos"] {
            let v = span
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("span {name:?} missing numeric {field}"))?;
            if v < 0.0 {
                return Err(format!("span {name:?} has negative {field}"));
            }
        }
    }
    for required in REQUIRED_SPANS {
        if !span_names.contains(required) {
            return Err(format!("no {required:?} span in summary"));
        }
    }

    let counters =
        doc.get("counters").and_then(JsonValue::as_object).ok_or("missing counters object")?;
    for (name, value) in counters {
        let v = value.as_f64().ok_or_else(|| format!("counter {name:?} is not a number"))?;
        if v < 0.0 {
            return Err(format!("counter {name:?} is negative"));
        }
    }
    for required in REQUIRED_COUNTERS {
        let total = doc
            .get("counters")
            .and_then(|c| c.get(required))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("no {required:?} counter recorded"))?;
        if total <= 0.0 {
            return Err(format!("counter {required:?} is zero"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| "results/OBS_run.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_obs_json: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("check_obs_json: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&doc) {
        Ok(()) => {
            println!("check_obs_json: {path} OK");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check_obs_json: {path} invalid: {e}");
            ExitCode::FAILURE
        }
    }
}

fn require_number(event: &JsonValue, field: &str, index: usize) -> Result<f64, String> {
    event
        .get(field)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("event {index} missing numeric {field}"))
}
