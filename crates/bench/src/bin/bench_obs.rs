//! Overhead benchmark for the `seeker-obs` instrumentation layer.
//!
//! Three measurements, written to `results/BENCH_obs.json`:
//!
//! 1. **Micro**: the per-operation cost of `span!`, `counter!`, and
//!    `gauge!` at `Level::Off` (the disabled fast path: one relaxed atomic
//!    load plus a branch, and for counters one relaxed `fetch_add`).
//! 2. **Macro**: wall time of a full small-world train + infer run at
//!    `Level::Off` versus `Level::Trace` (no sinks installed, so the trace
//!    cost is event construction + registry check only).
//! 3. **Estimated disabled overhead**: the number of instrumentation
//!    operations one pipeline run performs (span closures from the span
//!    table, counted over the `Level::Trace` runs because a disabled span
//!    records nothing, plus a generous bound on counter/gauge call sites)
//!    times the measured per-op disabled cost, relative to the disabled run
//!    time.
//!
//! The acceptance criterion is that the estimate in (3) stays below 2 % —
//! instrumentation must be near-free when `SEEKER_LOG=off`.

#![deny(missing_docs, dead_code)]

use std::hint::black_box;
use std::time::Instant;

use friendseeker::{pairs, FriendSeeker, FriendSeekerConfig};
use seeker_bench::harness::time_stats;
use seeker_bench::report;
use seeker_obs::json::JsonValue;
use seeker_obs::Level;
use seeker_trace::synth::{generate, SyntheticConfig};

/// Micro-benchmark iterations per op kind.
const MICRO_ITERS: u64 = 2_000_000;
/// Macro repetitions per level; the minimum is reported.
const MACRO_REPS: usize = 3;
/// Acceptance ceiling for the estimated disabled overhead.
const MAX_OFF_OVERHEAD_PCT: f64 = 2.0;

fn ns_per_op(iters: u64, f: impl Fn(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn macro_run() -> usize {
    let train = generate(&SyntheticConfig::small(61)).expect("synthesis").dataset;
    let target = generate(&SyntheticConfig::small(62)).expect("synthesis").dataset;
    let trained = FriendSeeker::new(FriendSeekerConfig::fast()).train(&train).expect("training");
    let lp = pairs::labeled_pairs(&target, 1.0, 777);
    let result = trained.infer_pairs(&target, lp.pairs);
    result.final_graph().n_edges()
}

fn main() {
    // The bench controls the level explicitly; the ambient SEEKER_LOG must
    // not leak into the measurements.
    let prev = seeker_obs::set_level(Level::Off);
    eprintln!("bench_obs: ambient level {prev:?}, measuring Off vs Trace");

    // -- 1. micro: disabled per-op cost ---------------------------------
    let span_off_ns = ns_per_op(MICRO_ITERS, |_| {
        let _span = seeker_obs::span!("bench.obs.micro.span");
    });
    let counter_off_ns = ns_per_op(MICRO_ITERS, |i| {
        seeker_obs::counter!("bench.obs.micro.counter", black_box(i) & 1);
    });
    let gauge_off_ns = ns_per_op(MICRO_ITERS, |i| {
        seeker_obs::gauge!("bench.obs.micro.gauge", black_box(i as usize));
    });

    // -- 2. macro: Off vs Trace (no sinks) ------------------------------
    let _warmup = macro_run();
    let khop_before = seeker_obs::counter_value("graph.khop.extractions");
    let (off_ms, _, edges_off) = time_stats(0, MACRO_REPS, macro_run);
    let khop_after = seeker_obs::counter_value("graph.khop.extractions");

    let span_count = || seeker_obs::span_stats().iter().map(|s| s.count).sum::<u64>();
    seeker_obs::set_level(Level::Trace);
    let spans_before = span_count();
    let (trace_ms, _, edges_trace) = time_stats(0, MACRO_REPS, macro_run);
    let spans_after = span_count();
    seeker_obs::set_level(Level::Off);
    assert_eq!(edges_off, edges_trace, "observability must not change results");
    assert!(spans_after > spans_before, "the traced runs recorded no span");

    // -- 3. estimated disabled overhead ---------------------------------
    // Ops per run: span enters+exits from the span table, plus counter and
    // gauge call sites. The k-hop extraction counter fires once per pair
    // per iteration and dominates every other counter site; gauges fire a
    // handful of times per iteration. A 4x multiplier on the dominant
    // count over-approximates all remaining sites.
    let span_ops = (spans_after - spans_before) as f64 / MACRO_REPS as f64;
    let khop_ops = (khop_after - khop_before) as f64 / MACRO_REPS as f64;
    let counter_ops = 4.0 * khop_ops + 1_000.0;
    let gauge_ops = 1_000.0;
    let est_overhead_ms =
        (span_ops * span_off_ns + counter_ops * counter_off_ns + gauge_ops * gauge_off_ns) / 1e6;
    let overhead_pct = 100.0 * est_overhead_ms / off_ms;

    eprintln!("  span(off)    {span_off_ns:.2} ns/op");
    eprintln!("  counter(off) {counter_off_ns:.2} ns/op");
    eprintln!("  gauge(off)   {gauge_off_ns:.2} ns/op");
    eprintln!("  pipeline off   {off_ms:.1} ms, trace {trace_ms:.1} ms");
    eprintln!(
        "  est. disabled overhead {est_overhead_ms:.3} ms of {off_ms:.1} ms = {overhead_pct:.3}%"
    );

    let doc = JsonValue::object([
        ("bench", "seeker-obs overhead".into()),
        ("micro_iters", MICRO_ITERS.into()),
        ("span_off_ns_per_op", JsonValue::rounded(span_off_ns, 3)),
        ("counter_off_ns_per_op", JsonValue::rounded(counter_off_ns, 3)),
        ("gauge_off_ns_per_op", JsonValue::rounded(gauge_off_ns, 3)),
        ("pipeline_off_ms", JsonValue::rounded(off_ms, 3)),
        ("pipeline_trace_ms", JsonValue::rounded(trace_ms, 3)),
        (
            "ops_per_run",
            JsonValue::object([
                ("spans", JsonValue::rounded(span_ops, 0)),
                ("counters_bound", JsonValue::rounded(counter_ops, 0)),
                ("gauges_bound", JsonValue::rounded(gauge_ops, 0)),
            ]),
        ),
        ("estimated_off_overhead_ms", JsonValue::rounded(est_overhead_ms, 4)),
        ("estimated_off_overhead_pct", JsonValue::rounded(overhead_pct, 4)),
        ("max_allowed_pct", MAX_OFF_OVERHEAD_PCT.into()),
    ]);
    report::save("BENCH_obs.json", &doc.to_pretty_string()).expect("write BENCH_obs.json");

    assert!(
        overhead_pct < MAX_OFF_OVERHEAD_PCT,
        "disabled-instrumentation overhead {overhead_pct:.3}% exceeds {MAX_OFF_OVERHEAD_PCT}%"
    );
}
