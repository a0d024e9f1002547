//! Metric names and units, the reduction of a run's samples to the
//! end-to-end metrics, and the result line the driver reads.

use crate::host;
use crate::replay::{Replay, Round};
use crate::stats::{best_per_cycle, median, percentile, ratio};
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`: printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("recover_events_per_s", "1/s"),
    ("cpu_s_per_mevent", "s/Mevent"),
    ("resync_ms_p50", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// What every untraced run measures and prints beside the gated metrics: the
/// reroute-latency percentiles (demoted from the end-to-end list by the A/A
/// procedure, see `README.md`, and reported in `BENCHMARK.json` among the
/// per-layer metrics) with their sample count, and the two host indicators.
pub const UNGATED: [(&str, &str); 5] = [
    ("reroute_ms_p50", "ms"),
    ("reroute_ms_p90", "ms"),
    ("reroute_samples", "count"),
    ("host.round_spread", "ratio"),
    ("host.steal_share", "ratio"),
];

/// Per-layer metrics `(name, unit)`: printed by every traced run. A metric
/// that does not exist on a workload (`runtime.*` inline, `core.*` sharded,
/// the session flap on `bigtable_inline`) reads 0 there.
pub const PER_LAYER: [(&str, &str); 44] = [
    // The two REROUTE metrics, from the traced invocation's untraced
    // reference run.
    ("reroute_ms_p50", "ms"),
    ("reroute_ms_p90", "ms"),
    ("traces.generate_s", "s"),
    ("core.pipeline.seed_s", "s"),
    ("core.encoding.build_s", "s"),
    ("core.inference.withdraw_ns", "ns"),
    ("core.inference.announce_ns", "ns"),
    ("core.inference.burst_start_us", "us"),
    ("core.inference.attempt_us", "us"),
    ("core.inference.attempts_per_reroute", "ratio"),
    ("core.inference.infer_links_us", "us"),
    ("core.inference.predict_us", "us"),
    ("core.inference.kernel.dense", "count"),
    ("core.inference.kernel.sparse", "count"),
    ("core.inference.kernel.mixed", "count"),
    ("core.inference.scratch.growth", "count"),
    ("core.pipeline.note_event_ns", "ns"),
    ("core.pipeline.apply_inference_us", "us"),
    ("core.encoding.rules_per_reroute", "count"),
    ("core.encoding.lookup_ns", "ns"),
    ("core.pipeline.resync_us", "us"),
    ("core.pipeline.resync_recover_us", "us"),
    ("core.pipeline.resync_dirty", "count"),
    ("core.pipeline.teardown_ms", "ms"),
    ("core.pipeline.register_ms", "ms"),
    ("runtime.ingest.call_ns", "ns"),
    ("runtime.flush_us", "us"),
    ("runtime.resync_us", "us"),
    ("runtime.shard.queue_high", "count"),
    ("runtime.applier.queue_high", "count"),
    ("runtime.applier.pending_high", "count"),
    ("runtime.applier.busy_share", "ratio"),
    ("runtime.events_dropped", "count"),
    ("runtime.stage.queue_wait_us", "us"),
    ("runtime.stage.inference_us", "us"),
    ("runtime.stage.applier_wait_us", "us"),
    ("runtime.stage.install_us", "us"),
    ("runtime.cpu_overhead_ratio", "ratio"),
    ("runtime.reroute_samples", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("host.steal_share", "ratio"),
    ("host.round_spread", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The [`END_TO_END`] and [`UNGATED`] metrics of one run, `host.steal_share`
/// excepted (the caller measures it over the whole invocation).
pub fn end_to_end(workload: &Workload, replay: &Replay) -> Metrics {
    let column = |pick: fn(&Round) -> &Vec<Option<u64>>| -> Vec<f64> {
        let rounds: Vec<&[Option<u64>]> = replay.rounds.iter().map(|r| &pick(r)[..]).collect();
        best_per_cycle(&rounds)
    };
    let burst_s = column(|r| &r.burst_ns).iter().sum::<f64>() / 1e9;
    let recover_s = column(|r| &r.recover_ns).iter().sum::<f64>() / 1e9;
    let per_round = (workload.burst_events() + workload.recovery_events()) as f64;
    let cheapest_cpu_s = replay
        .rounds
        .iter()
        .map(|r| r.cpu_ns as f64 / 1e9)
        .fold(f64::INFINITY, f64::min);

    // Inline, a reroute is installed inside the triggering `ingest` call, so
    // that call's wall is the latency; sharded, the install happens on the
    // applier thread and only the runtime's own histogram (ingest stamp →
    // installed) sees it.
    let reroute = column(|r| &r.reroute_ns);
    let histogram = &replay.report.metrics.reroute_histogram;
    let (p50, p90, samples) = if reroute.is_empty() {
        (
            histogram.percentile(50.0) as f64,
            histogram.percentile(90.0) as f64,
            histogram.count(),
        )
    } else {
        (
            percentile(&reroute, 0.5),
            percentile(&reroute, 0.9),
            reroute.len() as u64,
        )
    };

    Metrics::from([
        ("setup_s", median(&replay.setup_s)),
        (
            "events_per_s",
            ratio(workload.burst_events() as f64, burst_s),
        ),
        (
            "recover_events_per_s",
            ratio(workload.recovery_events() as f64, recover_s),
        ),
        ("cpu_s_per_mevent", ratio(cheapest_cpu_s, per_round / 1e6)),
        ("reroute_ms_p50", p50 / 1e6),
        ("reroute_ms_p90", p90 / 1e6),
        ("reroute_samples", samples as f64),
        ("host.round_spread", round_spread(replay)),
        ("resync_ms_p50", median(&column(|r| &r.resync_ns)) / 1e6),
        ("peak_rss_mb", host::peak_rss_mb()),
    ])
}

/// `(median − best) ÷ best` of the measured rounds' walls: how far a typical
/// round sat above the quietest one.
fn round_spread(replay: &Replay) -> f64 {
    let walls: Vec<f64> = replay.rounds.iter().map(|r| r.wall_ns as f64).collect();
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    ratio(median(&walls) - best, best)
}

/// Prints the metrics as an aligned table, in the order of `names`.
pub fn print_table(names: &[(&'static str, &'static str)], metrics: &Metrics) {
    for (name, unit) in names {
        println!("  {name:<38} {:>16.4} {unit}", metrics[name]);
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}` for `names`, in order.
fn values_json(names: &[(&'static str, &'static str)], metrics: &Metrics) -> String {
    let values: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics[name];
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", values.join(", "))
}

/// The [`UNGATED`] values as one JSON object, printed on the line before the
/// result line so that scripts need not parse the table.
pub fn ungated_line(metrics: &Metrics) -> String {
    format!("{{\"ungated\": {}}}", values_json(&UNGATED, metrics))
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(
    names: &[(&'static str, &'static str)],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {}}}",
        values_json(names, metrics)
    )
}
