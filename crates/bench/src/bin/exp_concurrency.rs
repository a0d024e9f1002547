//! `exp_concurrency` — scaling sweep of the sharded multi-session runtime.
//!
//! Generates a multi-session workload (every session streaming a concurrent
//! withdrawal burst, interleaved on the wire — see
//! `swift_traces::interleave`) and pushes it through:
//!
//! * the **single-threaded baseline** — the legacy `SwiftRouter`, one event
//!   at a time on one thread;
//! * the **deterministic runtime** — `ShardedRuntime` with zero shards, to
//!   show the shared pipeline adds no overhead and is bit-identical;
//! * the **sharded runtime** at each requested shard count — from one
//!   producer by default, or from `--ingest-threads N` concurrent producer
//!   threads (each owning a `swift_runtime::IngestHandle` fed one source of
//!   `MultiSessionTrace::partition_sources`, sessions disjoint across
//!   sources).
//!
//! Reported per configuration: pipeline wall time (ingest → all reroute rules
//! installed), events/s, speedup vs the baseline, reroute latency p50/p99,
//! queue high-water marks, and the post-convergence resync time (where the
//! sharded runtime pays for its deferred RIB maintenance, off the
//! reroute-critical path).
//!
//! Every run *asserts* that each mode reaches the single-threaded baseline's
//! per-session reroute decisions — the throughput numbers are only meaningful
//! because the work is provably the same.
//!
//! The ≥4× @ 8-shard target assumes ≥8 physical cores; the harness prints the
//! available parallelism so CI boxes with fewer cores read as what they are.
//!
//! With `--bench-out PATH` the run appends one record (config,
//! `git describe`, per-mode rows) to the trajectory file at `PATH`, which
//! accumulates a history of sweeps; without the flag nothing is written. With
//! `--metrics-out PATH` the sweep also streams JSON lines — a registry
//! snapshot and a per-stage latency summary per sharded mode — through the
//! same `swift_telemetry` exporter the soak harness uses, and re-validates
//! the emitted stream before exiting.
//!
//! Usage: `exp_concurrency [--smoke] [--shards 1,2,4,8] [--ingest-threads N]
//! [--bench-out PATH] [--metrics-out PATH]`
//!   `--smoke` runs a reduced sweep with scaled-down thresholds (used by CI).

#![expect(
    clippy::disallowed_methods,
    reason = "a harness times wall-clock phases and drives the runtime from producer threads"
)]

use std::path::Path;
use std::time::Instant;
use swift_bench::harness::{available_cores, git_describe, mode_line, secs, unix_time, ExpArgs};
use swift_bench::per_session_decisions;
use swift_bgp::{ElementaryEvent, PeerId};
use swift_core::encoding::ReroutingPolicy;
use swift_core::{InferenceConfig, SwiftConfig, SwiftRouter};
use swift_runtime::{RuntimeConfig, ShardedRuntime};
use swift_telemetry::{
    append_trajectory, json_array, summary_object, Json, JsonLinesWriter, JsonObject,
};
use swift_traces::interleave::{MultiSessionConfig, MultiSessionTrace};

/// One sweep point.
struct Sweep {
    sessions: usize,
    prefixes_per_session: usize,
    burst: usize,
}

/// The session peers of a sweep point (ids 1..=sessions).
fn session_peers(sessions: usize) -> impl Iterator<Item = PeerId> {
    (1..=sessions as u32).map(PeerId)
}

fn main() {
    let args = ExpArgs::parse();
    let smoke = args.flag("--smoke");
    let ingest_threads = args.usize_value("--ingest-threads", 1).max(1);
    let shard_counts: Vec<usize> = args.usize_list("--shards").unwrap_or_else(|| {
        if smoke {
            vec![1, 2]
        } else {
            vec![1, 2, 4, 8]
        }
    });
    let bench_out = args.value("--bench-out").map(str::to_string);
    let metrics_out = args.value("--metrics-out").map(str::to_string);
    let mut metrics = metrics_out.as_deref().map(|p| {
        JsonLinesWriter::create(Path::new(p)).unwrap_or_else(|e| panic!("creating {p}: {e}"))
    });
    let mut runs: Vec<String> = Vec::new();

    // Smoke scales the thresholds with the table so CI exercises the full
    // accept path; the full sweep uses the paper's defaults.
    let swift_config = if smoke {
        SwiftConfig {
            inference: InferenceConfig {
                burst_start_threshold: 200,
                burst_stop_threshold: 2,
                triggering_threshold: 500,
                use_history: false,
                ..Default::default()
            },
            ..Default::default()
        }
    } else {
        SwiftConfig::default()
    };

    let sweeps: Vec<Sweep> = if smoke {
        vec![Sweep {
            sessions: 4,
            prefixes_per_session: 10_000,
            burst: 2_000,
        }]
    } else {
        // 1M-prefix RIBs split across the sessions; burst sizes bounded by
        // each session's heaviest link (~23 % of its table).
        vec![
            Sweep {
                sessions: 8,
                prefixes_per_session: 125_000,
                burst: 20_000,
            },
            Sweep {
                sessions: 16,
                prefixes_per_session: 62_500,
                burst: 5_000,
            },
            Sweep {
                sessions: 16,
                prefixes_per_session: 62_500,
                burst: 12_000,
            },
        ]
    };

    let cores = available_cores();
    println!("exp_concurrency — sharded multi-session runtime vs single-threaded baseline");
    println!("available parallelism: {cores} core(s), ingest-threads: {ingest_threads}\n");

    for sweep in &sweeps {
        let trace_config = MultiSessionConfig {
            sessions: sweep.sessions,
            prefixes_per_session: sweep.prefixes_per_session,
            burst_size: sweep.burst,
            ..Default::default()
        };
        let trace = MultiSessionTrace::generate(&trace_config);
        let events: Vec<(PeerId, ElementaryEvent)> = trace.event_pairs().collect();
        println!(
            "sessions={} prefixes/session={} burst={} → {} events ({} total prefixes)",
            sweep.sessions,
            sweep.prefixes_per_session,
            sweep.burst,
            events.len(),
            sweep.sessions * sweep.prefixes_per_session,
        );

        // --- Single-threaded baseline -----------------------------------
        let mut router = SwiftRouter::new(
            swift_config.clone(),
            trace.table.clone(),
            ReroutingPolicy::allow_all(),
        );
        let t0 = Instant::now();
        for (peer, ev) in &events {
            router.handle_event(*peer, ev);
        }
        let base_pipeline = t0.elapsed();
        let t1 = Instant::now();
        router.resync_after_convergence();
        let base_resync = t1.elapsed();
        let base_rate = events.len() as f64 / secs(base_pipeline);
        let baseline = per_session_decisions(router.actions(), session_peers(sweep.sessions));
        let accepted: usize = baseline.values().map(|v| v.len()).sum();
        println!(
            "  baseline 1-thread : pipeline {:>8.3} s  {:>10.0} ev/s  (resync {:>6.3} s, {} reroutes)",
            secs(base_pipeline),
            base_rate,
            secs(base_resync),
            accepted,
        );
        let sweep_row = |label: &str, shards: usize, producers: usize| {
            JsonObject::new()
                .str("label", label)
                .u64("sessions", sweep.sessions as u64)
                .u64("prefixes_per_session", sweep.prefixes_per_session as u64)
                .u64("burst", sweep.burst as u64)
                .u64("events", events.len() as u64)
                .u64("shards", shards as u64)
                .u64("producers", producers as u64)
        };
        runs.push(
            sweep_row("baseline", 0, 1)
                .f64("pipeline_s", secs(base_pipeline))
                .f64("ev_per_s", base_rate)
                .f64("resync_s", secs(base_resync))
                .u64("reroutes", accepted as u64)
                .finish(),
        );

        // --- Deterministic inline runtime --------------------------------
        let mut det = ShardedRuntime::new(
            RuntimeConfig::deterministic(),
            swift_config.clone(),
            trace.table.clone(),
            ReroutingPolicy::allow_all(),
        );
        let t0 = Instant::now();
        det.ingest_stream(events.iter().cloned());
        let det_pipeline = t0.elapsed();
        let det_report = det.finish();
        assert_eq!(
            per_session_decisions(&det_report.actions, session_peers(sweep.sessions)),
            baseline,
            "deterministic runtime diverged from SwiftRouter"
        );
        println!(
            "  runtime det(0 sh) : pipeline {:>8.3} s  {:>10.0} ev/s  (decisions identical)",
            secs(det_pipeline),
            events.len() as f64 / secs(det_pipeline),
        );
        runs.push(
            sweep_row("det", 0, 1)
                .f64("pipeline_s", secs(det_pipeline))
                .f64("ev_per_s", events.len() as f64 / secs(det_pipeline))
                .finish(),
        );

        // --- Sharded runtime ---------------------------------------------
        // Pre-split the stream outside the timed window: the single-producer
        // leg streams pre-materialised `events` too, so both modes' timed
        // spans cover dispatch only, not corpus cloning.
        let sources = if ingest_threads > 1 {
            trace.partition_sources(ingest_threads)
        } else {
            Vec::new()
        };
        for &shards in &shard_counts {
            let mut runtime = ShardedRuntime::new(
                RuntimeConfig::sharded(shards),
                swift_config.clone(),
                trace.table.clone(),
                ReroutingPolicy::allow_all(),
            );
            let registry = runtime.registry();
            let t0 = Instant::now();
            if ingest_threads > 1 {
                // Each producer thread owns one handle and one disjoint
                // session partition — the pinning rule that keeps
                // per-session order (and therefore decisions) intact.
                std::thread::scope(|scope| {
                    for source in &sources {
                        let mut handle = runtime.handle();
                        scope.spawn(move || {
                            handle.ingest_stream(source.iter().cloned());
                            handle.finish();
                        });
                    }
                });
            } else {
                runtime.ingest_stream(events.iter().cloned());
            }
            runtime.flush();
            let pipeline = t0.elapsed();
            let t1 = Instant::now();
            runtime.resync_after_convergence();
            let resync = t1.elapsed();
            let report = runtime.finish();

            assert_eq!(report.metrics.dropped, 0, "lossless under Block policy");
            assert_eq!(report.metrics.events, events.len() as u64);
            assert_eq!(
                per_session_decisions(&report.actions, session_peers(sweep.sessions)),
                baseline,
                "sharded runtime ({shards} shards, {ingest_threads} producers) \
                 diverged from the baseline"
            );

            let label = format!("s={shards} p={}", report.metrics.producers);
            println!(
                "{}  (resync {:.3} s)",
                mode_line(
                    &label,
                    pipeline,
                    events.len() as u64,
                    base_rate,
                    &report.metrics
                ),
                secs(resync),
            );
            runs.push(
                sweep_row(&label, shards, report.metrics.producers)
                    .f64("pipeline_s", secs(pipeline))
                    .f64("ev_per_s", events.len() as f64 / secs(pipeline))
                    .f64("resync_s", secs(resync))
                    .u64("reroute_p50_us", report.metrics.reroute_latency.p50)
                    .u64("reroute_p99_us", report.metrics.reroute_latency.p99)
                    .finish(),
            );
            if let Some(metrics) = metrics.as_mut() {
                let m = &report.metrics;
                let counters = registry
                    .snapshot()
                    .iter()
                    .fold(JsonObject::new(), |o, (k, v)| o.u64(k, *v));
                let snapshot = JsonObject::new()
                    .str("kind", "snapshot")
                    .str("mode", &label)
                    .u64("sessions", sweep.sessions as u64)
                    .raw("counters", &counters.finish())
                    .finish();
                metrics.emit(&snapshot).expect("writing metrics line");
                let stages = json_array(m.stages.rows().iter().map(|(name, s)| {
                    JsonObject::new()
                        .str("stage", name)
                        .raw("us", &summary_object(&s.scaled_down(1_000)))
                        .finish()
                }));
                let summary = JsonObject::new()
                    .str("kind", "summary")
                    .str("mode", &label)
                    .u64("sessions", sweep.sessions as u64)
                    .f64("wall_s", secs(pipeline))
                    .f64("ev_per_s", events.len() as f64 / secs(pipeline))
                    .u64("events", events.len() as u64)
                    .u64("traced", m.stages.traced())
                    .raw(
                        "reroute_us",
                        &summary_object(&m.reroute_histogram.summary().scaled_down(1_000)),
                    )
                    .raw("stages", &stages)
                    .finish();
                metrics.emit(&summary).expect("writing metrics line");
            }
        }
        println!();
    }

    if let Some(mut metrics) = metrics.take() {
        metrics.flush().expect("flushing metrics stream");
        let lines = metrics.lines();
        let path = metrics_out.as_deref().expect("writer implies a path");
        let raw =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("re-reading {path}: {e}"));
        let mut summaries = 0usize;
        for line in raw.lines() {
            let obj = Json::parse(line).unwrap_or_else(|e| panic!("invalid metrics line: {e}"));
            let kind = obj.get("kind").and_then(Json::as_str).expect("kind field");
            assert!(obj.get("mode").is_some(), "metrics line without a mode");
            if kind == "summary" {
                assert!(obj.get("stages").is_some(), "summary without stages");
                summaries += 1;
            }
        }
        assert_eq!(
            summaries,
            shard_counts.len() * sweeps.len(),
            "one summary line per sharded mode per sweep"
        );
        println!("metrics stream: {lines} JSON lines written to {path} (validated)\n");
    }

    if let Some(bench_out) = bench_out {
        let record = JsonObject::new()
            .str("git", &git_describe())
            .u64("unix_time", unix_time())
            .str("tier", if smoke { "smoke" } else { "full" })
            .u64("cores", cores as u64)
            .u64("ingest_threads", ingest_threads as u64)
            .raw(
                "shards",
                &json_array(shard_counts.iter().map(|s| s.to_string())),
            )
            .raw("runs", &json_array(runs))
            .finish();
        let records = append_trajectory(Path::new(&bench_out), &record)
            .unwrap_or_else(|e| panic!("appending to {bench_out}: {e}"));
        println!("trajectory appended to {bench_out} ({records} run records)\n");
    }

    if smoke {
        println!("smoke sweep done: every mode reached the baseline's per-session decisions");
    } else if cores < 8 {
        println!(
            "note: the ≥4x @ 8-shard target assumes ≥8 cores; this box has {cores}, so the \
             sharded numbers above are bounded by time-sharing, not by the architecture"
        );
    }
}
