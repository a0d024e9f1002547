//! `exp_soak` — corpus-scale soak replay through the sharded runtime.
//!
//! Where `exp_concurrency` measures peak throughput on one synthetic
//! concurrent-burst volley, this harness answers the endurance question
//! behind the paper's headline claim (§6: a SWIFTED router keeps forwarding
//! across a *month* of real churn from 213 peering sessions): the whole
//! corpus — every session's bursts, noise and quiet stretches — is replayed
//! through the runtime **streamingly** (`swift_traces::soak`, a lazy k-way
//! merge that never materialises more than the currently-active burst
//! streams), with the lifecycle a long-running border router actually sees:
//!
//! * `resync_after_convergence` at every convergence point (quiet gap)
//!   between bursts, so SWIFT rules are installed *and* retired thousands of
//!   times per run;
//! * at least one session torn down mid-run and re-registered before its
//!   next burst (`teardown_session` / `register_session`), exercising the
//!   applier's rule + RIB-mirror cleanup;
//! * with `--ingest-threads N`, the corpus arrives from **N concurrent
//!   producer threads**, each owning a `swift_runtime::IngestHandle` fed by
//!   one source of `SoakReplay::partition_sources` (sessions disjoint across
//!   sources, lifecycle calls in-band per source). Producers rendezvous at
//!   each broadcast convergence marker so the resync happens at the same
//!   logical point as in the single-producer replay.
//!
//! Every mode (inline, each sharded configuration, each producer count) must
//! reach identical per-session reroute decisions — the soak's numbers are
//! only trustworthy because the work is provably the same. Reported per
//! mode: wall time, events/s, resyncs and rules removed, reroute latency
//! p50/p99, per-shard and applier queue high-waters, the applier's line
//! (installs, deferred-RIB high-water and events folded at resync), and the
//! sampled per-stage reroute breakdown (queue wait vs inference vs applier
//! wait vs install, p50/p99 from the runtime's merged `swift_telemetry`
//! histograms).
//!
//! Observability plumbing exercised every run:
//!
//! * `--bench-out PATH` **appends** one record (config + `git describe` + all
//!   mode rows) to the trajectory file at `PATH` — history accumulates across
//!   runs instead of being overwritten; without the flag nothing is written;
//! * `--metrics-out PATH` streams JSON-lines telemetry: live registry
//!   snapshots at logarithmically-spaced resync points plus one summary
//!   line per mode (wall, ev/s, per-shard events, per-applier installs,
//!   stage histograms), then re-parses the file with the crate's own JSON
//!   reader to prove the schema round-trips;
//! * a `swift_telemetry::DumpOnPanic` guard arms the runtime's flight
//!   recorder, so a panic or equivalence-assert failure dumps the recent
//!   lifecycle history (registers, teardowns, barriers, resyncs, sheds).
//!
//! What 1-in-1024 sampled tracing costs is `bench_telemetry`'s traced vs
//! untraced dispatch comparison, not a wall-clock assert here.
//!
//! Tiers: `--smoke` (6 sessions × 4k prefixes, CI-sized) vs the default full
//! tier (213 sessions × 10k prefixes, ~2.1M-prefix vantage table — run it on
//! a multi-core box with a few GB of memory).
//!
//! Usage: `exp_soak [--smoke] [--shards 2,4] [--ingest-threads N]
//! [--no-churn] [--bench-out PATH] [--metrics-out PATH]`

#![expect(
    clippy::disallowed_methods,
    reason = "a harness times wall-clock phases and drives the runtime from producer threads"
)]

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use swift_bench::harness::{git_describe, mode_line, secs, unix_time, ExpArgs};
use swift_bench::per_session_decisions;
use swift_bgp::{Asn, PeerId, Prefix, Route};
use swift_core::encoding::ReroutingPolicy;
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig};
use swift_runtime::{RuntimeConfig, RuntimeMetrics, ShardedRuntime};
use swift_telemetry::{
    append_trajectory, json_array, summary_object, DumpOnPanic, Json, JsonLinesWriter, JsonObject,
    Registry,
};
use swift_traces::corpus::{Corpus, TraceConfig};
use swift_traces::soak::{pick_feasible_flaps, ReplayItem, SoakConfig, SoakReplay};

/// A flapped session's re-registration payload: its AS number and primary
/// routes.
type FlapRoutes = BTreeMap<PeerId, (Asn, Vec<(Prefix, Route)>)>;

/// What one full soak pass produced.
struct SoakOutcome {
    report: swift_runtime::RuntimeReport,
    pipeline: Duration,
    producers: usize,
    resyncs: usize,
    rules_removed: usize,
    downs: usize,
    ups: usize,
    flaps_skipped: usize,
    /// The runtime's flight recorder, kept alive past `finish()` so the
    /// harness can arm a [`DumpOnPanic`] guard around the equivalence
    /// assertions too.
    flight: swift_telemetry::FlightRecorder,
}

/// Streams registry snapshots and per-mode summaries as JSON lines
/// (`--metrics-out`).
struct MetricsExporter {
    writer: JsonLinesWriter,
}

impl MetricsExporter {
    fn create(path: &str) -> Self {
        MetricsExporter {
            writer: JsonLinesWriter::create(Path::new(path))
                .unwrap_or_else(|e| panic!("creating {path}: {e}")),
        }
    }

    /// True for resync counts worth a live snapshot: logarithmic spacing
    /// (0, 1, 2, 4, 8, ...) bounds the stream to O(log resyncs) lines per
    /// mode while still covering the run's start, ramp and steady state.
    fn due(resyncs: usize) -> bool {
        resyncs == 0 || resyncs.is_power_of_two()
    }

    /// One live registry snapshot: every named counter/gauge, mid-run,
    /// without stopping the pipeline.
    fn snapshot(&mut self, mode: &str, registry: &Registry, resyncs: usize, rules_removed: usize) {
        let counters = registry
            .snapshot()
            .iter()
            .fold(JsonObject::new(), |o, (k, v)| o.u64(k, *v));
        let line = JsonObject::new()
            .str("kind", "snapshot")
            .str("mode", mode)
            .u64("resyncs", resyncs as u64)
            .u64("rules_removed", rules_removed as u64)
            .raw("counters", &counters.finish())
            .finish();
        self.writer.emit(&line).expect("writing metrics line");
    }

    /// The per-mode summary line: wall, rates, per-shard events, per-applier
    /// installs and the merged stage histograms (µs).
    fn mode_summary(&mut self, mode: &str, outcome: &SoakOutcome, events: u64) {
        let m = &outcome.report.metrics;
        let per_shard = json_array(m.per_shard.iter().map(|s| {
            JsonObject::new()
                .u64("shard", s.shard as u64)
                .u64("events", s.events)
                .u64("queue_hw", s.max_queue_depth as u64)
                .finish()
        }));
        let per_applier = json_array(m.per_applier.iter().map(|a| {
            JsonObject::new()
                .u64("applier", a.shard as u64)
                .u64("events", a.events)
                .u64("installs", a.installs)
                .u64("rib_pending_hw", a.pending_high_water as u64)
                .finish()
        }));
        let stages = json_array(m.stages.rows().iter().map(|(name, s)| {
            JsonObject::new()
                .str("stage", name)
                .raw("us", &summary_object(&s.scaled_down(1_000)))
                .finish()
        }));
        let line = JsonObject::new()
            .str("kind", "summary")
            .str("mode", mode)
            .f64("wall_s", secs(outcome.pipeline))
            .f64("ev_per_s", events as f64 / secs(outcome.pipeline))
            .u64("events", events)
            .u64("producers", outcome.producers as u64)
            .u64("resyncs", outcome.resyncs as u64)
            .u64("rules_removed", outcome.rules_removed as u64)
            .u64("traced", m.stages.traced())
            .raw(
                "reroute_us",
                &summary_object(&m.reroute_histogram.summary().scaled_down(1_000)),
            )
            .raw("stages", &stages)
            .raw("per_shard", &per_shard)
            .raw("per_applier", &per_applier)
            .finish();
        self.writer.emit(&line).expect("writing metrics line");
    }

    fn finish(mut self) -> usize {
        self.writer.flush().expect("flushing metrics stream");
        self.writer.lines()
    }
}

/// Re-parses the emitted JSON-lines stream with the telemetry crate's own
/// reader and checks the closed schema: every line parses, snapshots carry
/// live counters, and every mode contributed one summary with all four
/// pipeline stages.
fn validate_metrics_stream(path: &str, modes: usize) {
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading back {path}: {e}"));
    let mut summaries = 0usize;
    for (i, line) in content.lines().enumerate() {
        let v = Json::parse(line)
            .unwrap_or_else(|e| panic!("{path}:{}: invalid JSON line: {e}", i + 1));
        let kind = v
            .get("kind")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{path}:{}: missing kind", i + 1));
        assert!(
            v.get("mode").and_then(Json::as_str).is_some(),
            "{path}:{}: missing mode",
            i + 1
        );
        match kind {
            "snapshot" => {
                let counters = v.get("counters").expect("snapshot carries counters");
                assert!(
                    counters
                        .get("ingest.events")
                        .and_then(Json::as_u64)
                        .is_some(),
                    "{path}:{}: snapshot lacks ingest.events",
                    i + 1
                );
            }
            "summary" => {
                summaries += 1;
                for key in ["wall_s", "ev_per_s", "events", "reroute_us"] {
                    assert!(v.get(key).is_some(), "{path}:{}: missing {key}", i + 1);
                }
                let stages = v
                    .get("stages")
                    .and_then(Json::as_array)
                    .expect("summary carries stages");
                let names: Vec<&str> = stages
                    .iter()
                    .filter_map(|s| s.get("stage").and_then(Json::as_str))
                    .collect();
                assert_eq!(
                    names,
                    ["queue_wait", "inference", "applier_wait", "install"],
                    "{path}:{}: stage rows out of shape",
                    i + 1
                );
            }
            other => panic!("{path}:{}: unknown line kind {other:?}", i + 1),
        }
    }
    assert_eq!(
        summaries, modes,
        "{path}: expected one summary line per runtime mode"
    );
}

/// Replays the whole corpus through one runtime configuration from a single
/// producer (the runtime's default handle), honouring the stream's lifecycle
/// markers and convergence points.
fn drive(
    label: &str,
    shards: usize,
    template: &SoakReplay<'_>,
    table: &swift_bgp::RoutingTable,
    swift: &SwiftConfig,
    flap_routes: &FlapRoutes,
    exporter: &mut Option<MetricsExporter>,
) -> SoakOutcome {
    let mut runtime = ShardedRuntime::new(
        RuntimeConfig::sharded(shards),
        swift.clone(),
        table.clone(),
        ReroutingPolicy::allow_all(),
    );
    let flight = runtime.flight();
    let registry = runtime.registry();
    let guard = DumpOnPanic::arm(&flight, format!("soak replay [{label}]"));
    let mut replay = template.clone();
    let (mut resyncs, mut rules_removed, mut downs, mut ups) = (0usize, 0usize, 0usize, 0usize);
    let t0 = Instant::now();
    for item in replay.by_ref() {
        match item {
            ReplayItem::Event { peer, event } => runtime.ingest(peer, event),
            ReplayItem::Converged { .. } => {
                rules_removed += runtime.resync_after_convergence();
                resyncs += 1;
                if let Some(exporter) = exporter.as_mut() {
                    if MetricsExporter::due(resyncs) {
                        exporter.snapshot(label, &registry, resyncs, rules_removed);
                    }
                }
            }
            ReplayItem::SessionDown { peer, .. } => {
                runtime.teardown_session(peer);
                downs += 1;
            }
            ReplayItem::SessionUp { peer, .. } => {
                let (asn, routes) = &flap_routes[&peer];
                runtime.register_session(peer, *asn, routes.clone());
                ups += 1;
            }
        }
    }
    runtime.flush();
    let pipeline = t0.elapsed();
    // The trailing resync after the corpus's last burst.
    rules_removed += runtime.resync_after_convergence();
    resyncs += 1;
    drop(guard);
    SoakOutcome {
        report: runtime.finish(),
        pipeline,
        producers: 1,
        resyncs,
        rules_removed,
        downs,
        ups,
        flaps_skipped: replay.flaps_skipped(),
        flight,
    }
}

/// Replays the corpus from `producers` concurrent producer threads, each
/// owning one `IngestHandle` fed by one source of
/// [`SoakReplay::partition_sources`]. The main thread coordinates: at every
/// (broadcast) convergence marker all producers flush their handles and park
/// on a barrier, the coordinator resyncs, and a second barrier releases them
/// — so rules are retired at the same logical point as in the
/// single-producer replay. The coordinator only needs the marker *count*
/// (`convergence_markers`, known from the baseline pass) — the producers'
/// own streams gate the timing, so no extra merge pass runs on the main
/// thread.
#[allow(
    clippy::too_many_arguments,
    reason = "the multi-producer replay's knobs, each passed once from `main`"
)]
fn drive_multi(
    label: &str,
    shards: usize,
    producers: usize,
    convergence_markers: usize,
    template: &SoakReplay<'_>,
    table: &swift_bgp::RoutingTable,
    swift: &SwiftConfig,
    flap_routes: &FlapRoutes,
    exporter: &mut Option<MetricsExporter>,
) -> SoakOutcome {
    assert!(shards > 0, "multi-producer ingest needs a sharded runtime");
    let mut runtime = ShardedRuntime::new(
        RuntimeConfig::sharded(shards),
        swift.clone(),
        table.clone(),
        ReroutingPolicy::allow_all(),
    );
    let flight = runtime.flight();
    let registry = runtime.registry();
    let guard = DumpOnPanic::arm(&flight, format!("soak replay [{label}]"));
    let sources = template.partition_sources(producers);
    let rendezvous = Barrier::new(producers + 1);
    // (downs, ups, flaps skipped) across producers; every fully-consumed
    // source reports the corpus-wide skip count, hence the max.
    let churn = Mutex::new((0usize, 0usize, 0usize));
    let (mut resyncs, mut rules_removed) = (0usize, 0usize);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for source in sources {
            let mut handle = runtime.handle();
            let rendezvous = &rendezvous;
            let churn = &churn;
            scope.spawn(move || {
                let mut source = source;
                // Set while a consumed Converged marker's rendezvous is
                // still owed — so a panic inside flush/wait cannot lose it.
                let owed = std::cell::Cell::new(false);
                let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let (mut downs, mut ups) = (0usize, 0usize);
                    for item in source.by_ref() {
                        match item {
                            ReplayItem::Event { peer, event } => handle.ingest(peer, event),
                            ReplayItem::Converged { .. } => {
                                owed.set(true);
                                handle.flush();
                                rendezvous.wait(); // everyone flushed and parked
                                rendezvous.wait(); // coordinator resynced
                                owed.set(false);
                            }
                            ReplayItem::SessionDown { peer, .. } => {
                                handle.teardown_session(peer);
                                downs += 1;
                            }
                            ReplayItem::SessionUp { peer, .. } => {
                                let (asn, routes) = &flap_routes[&peer];
                                handle.register_session(peer, *asn, routes.clone());
                                ups += 1;
                            }
                        }
                    }
                    handle.finish();
                    let skipped = source.flaps_skipped();
                    let mut totals = churn.lock().expect("churn totals lock");
                    totals.0 += downs;
                    totals.1 += ups;
                    totals.2 = totals.2.max(skipped);
                }));
                if let Err(payload) = replay {
                    // std::sync::Barrier has no poisoning: a producer that
                    // died mid-replay must keep honouring the remaining
                    // rendezvous points (its source knows the convergence
                    // schedule) or the coordinator and siblings deadlock.
                    // Re-panic afterwards so the scope still reports it.
                    if owed.get() {
                        rendezvous.wait();
                        rendezvous.wait();
                    }
                    for item in source {
                        if matches!(item, ReplayItem::Converged { .. }) {
                            rendezvous.wait();
                            rendezvous.wait();
                        }
                    }
                    std::panic::resume_unwind(payload);
                }
            });
        }
        // The coordinator serves `convergence_markers` rendezvous rounds;
        // the producers' streams (which all broadcast the same marker
        // sequence) gate when each round fires.
        let completed = std::cell::Cell::new(0usize);
        // Set between the park rendezvous and the release rendezvous, so a
        // resync panic cannot leave the producers parked forever.
        let owed_release = std::cell::Cell::new(false);
        let coord = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for _ in 0..convergence_markers {
                rendezvous.wait();
                owed_release.set(true);
                rules_removed += runtime.resync_after_convergence();
                resyncs += 1;
                if let Some(exporter) = exporter.as_mut() {
                    if MetricsExporter::due(resyncs) {
                        exporter.snapshot(label, &registry, resyncs, rules_removed);
                    }
                }
                rendezvous.wait();
                owed_release.set(false);
                completed.set(completed.get() + 1);
            }
        }));
        if let Err(payload) = coord {
            // Mirror of the producer-side recovery: the barrier has no
            // poisoning, so a coordinator that died (e.g. a resync panic
            // because a runtime thread is gone) must keep honouring the
            // remaining rendezvous schedule — the producers drain their
            // sources, the scope joins, and the panic surfaces instead of
            // hanging the harness.
            if owed_release.get() {
                rendezvous.wait();
                completed.set(completed.get() + 1);
            }
            for _ in completed.get()..convergence_markers {
                rendezvous.wait();
                rendezvous.wait();
            }
            std::panic::resume_unwind(payload);
        }
    });
    runtime.flush();
    let pipeline = t0.elapsed();
    rules_removed += runtime.resync_after_convergence();
    resyncs += 1;
    drop(guard);
    let (downs, ups, flaps_skipped) = *churn.lock().expect("churn totals lock");
    SoakOutcome {
        report: runtime.finish(),
        pipeline,
        producers,
        resyncs,
        rules_removed,
        downs,
        ups,
        flaps_skipped,
        flight,
    }
}

/// The applier's line: installs, how deep its queue and deferred-RIB buffer
/// got, and how long it was actually busy.
fn print_per_applier(metrics: &swift_runtime::RuntimeMetrics) {
    for a in &metrics.per_applier {
        println!(
            "      applier {}: {:>8} ev  {:>6} installs  queue hw {:<3}  rib pending hw {:<6} ({} folded over {} resyncs)  busy {:.3} s",
            a.shard,
            a.events,
            a.installs,
            a.max_queue_depth,
            a.pending_high_water,
            a.pending_folded,
            a.resyncs,
            secs(a.busy),
        );
    }
}

/// The sampled per-stage reroute breakdown: where the pipeline spends its
/// time between ingest and rule install, from the merged
/// `swift_telemetry::StageHistograms` (recorded in ns, reported in µs).
fn print_stage_breakdown(metrics: &RuntimeMetrics) {
    if metrics.stages.is_empty() {
        return;
    }
    println!(
        "      stage breakdown ({} traced, 1-in-{} sampling):",
        metrics.stages.traced(),
        RuntimeConfig::sharded(1).trace_sample_interval,
    );
    for (name, summary) in metrics.stages.rows() {
        let s = summary.scaled_down(1_000);
        println!(
            "        {name:<12} p50 {:>7} µs  p99 {:>7} µs  max {:>8} µs  (n={})",
            s.p50, s.p99, s.max, s.count,
        );
    }
}

/// One `--bench-out` trajectory entry, hand-rolled (no JSON dependency).
fn bench_row(label: &str, shards: usize, outcome: &SoakOutcome, rate: f64) -> String {
    let m = &outcome.report.metrics;
    let pending_hw = m
        .per_applier
        .iter()
        .map(|a| a.pending_high_water)
        .max()
        .unwrap_or(0);
    let installs: u64 = outcome
        .report
        .actions
        .iter()
        .map(|a| a.rules_installed as u64)
        .sum();
    format!(
        concat!(
            "{{\"label\":\"{}\",\"shards\":{},\"producers\":{},",
            "\"wall_s\":{:.6},\"ev_per_s\":{:.1},\"reroute_p50_us\":{},\"reroute_p99_us\":{},",
            "\"shard_queue_hw\":{},\"applier_queue_hw\":{},\"rib_pending_hw\":{},",
            "\"installs\":{},\"resyncs\":{},\"rules_removed\":{}}}"
        ),
        label,
        shards,
        outcome.producers,
        secs(outcome.pipeline),
        rate,
        m.reroute_latency.p50,
        m.reroute_latency.p99,
        swift_bench::harness::max_queue_depth(m),
        swift_bench::harness::max_applier_depth(m),
        pending_hw,
        installs,
        outcome.resyncs,
        outcome.rules_removed,
    )
}

fn main() {
    let args = ExpArgs::parse();
    let smoke = args.flag("--smoke");
    let churn = !args.flag("--no-churn");
    let ingest_threads = args.usize_value("--ingest-threads", 1).max(1);
    let bench_out = args.value("--bench-out").map(str::to_string);
    let metrics_out = args.value("--metrics-out").map(str::to_string);
    let shard_counts: Vec<usize> =
        args.usize_list("--shards")
            .unwrap_or_else(|| if smoke { vec![1, 2] } else { vec![2, 4, 8] });

    // Smoke scales tables and thresholds down so CI exercises the full
    // accept → install → resync → teardown path in seconds; the full tier
    // keeps the paper's 213 sessions and default thresholds.
    let (trace_config, swift_config) = if smoke {
        (
            TraceConfig {
                num_peers: 6,
                table_size: 4_000,
                bursts_per_peer_mean: 3.0,
                ..TraceConfig::small()
            },
            SwiftConfig {
                inference: InferenceConfig {
                    burst_start_threshold: 200,
                    burst_stop_threshold: 2,
                    triggering_threshold: 400,
                    use_history: false,
                    ..Default::default()
                },
                encoding: EncodingConfig {
                    min_prefixes_per_link: 200,
                    ..Default::default()
                },
            },
        )
    } else {
        (
            TraceConfig {
                num_peers: 213,
                table_size: 10_000,
                bursts_per_peer_mean: 15.7,
                ..TraceConfig::default()
            },
            SwiftConfig::default(),
        )
    };

    let corpus = Corpus::generate(trace_config);
    let flaps = if churn {
        pick_feasible_flaps(&corpus, 2)
    } else {
        Vec::new()
    };
    let soak_config = SoakConfig {
        flaps: flaps.clone(),
        ..SoakConfig::default()
    };
    let template = SoakReplay::new(&corpus, soak_config);
    let table = template.vantage_table();
    let flap_routes: FlapRoutes = flaps
        .iter()
        .map(|&(session, _)| {
            let (peer, asn) = template.session_peers().nth(session).expect("session");
            let routes = template.session_routes(peer).expect("session routes");
            (peer, (asn, routes))
        })
        .collect();

    println!("exp_soak — corpus soak replay through the sharded runtime");
    println!(
        "tier: {} | sessions={} table={}/session bursts={} flaps scheduled={} ingest-threads={} | {} core(s)\n",
        if smoke { "smoke" } else { "full" },
        corpus.num_sessions(),
        corpus.config().table_size,
        corpus.total_bursts(),
        flaps.len(),
        ingest_threads,
        swift_bench::harness::available_cores(),
    );

    let mut exporter = metrics_out.as_deref().map(MetricsExporter::create);

    // --- Inline baseline --------------------------------------------------
    let baseline = drive(
        "inline",
        0,
        &template,
        &table,
        &swift_config,
        &flap_routes,
        &mut exporter,
    );
    let session_peers: Vec<PeerId> = template.session_peers().map(|(p, _)| p).collect();
    let base_decisions =
        per_session_decisions(&baseline.report.actions, session_peers.iter().copied());
    let events = baseline.report.metrics.events;
    let base_rate = events as f64 / secs(baseline.pipeline);
    let reroutes: usize = base_decisions.values().map(|v| v.len()).sum();
    println!(
        "  inline (0 shards) : {:>8.3} s  {:>10.0} ev/s  | {} events, {} reroutes, {} resyncs ({} rules removed), churn {} down / {} up ({} skipped)",
        secs(baseline.pipeline),
        base_rate,
        events,
        reroutes,
        baseline.resyncs,
        baseline.rules_removed,
        baseline.downs,
        baseline.ups,
        baseline.flaps_skipped,
    );
    if churn {
        assert!(
            baseline.downs >= 1 && baseline.ups >= 1,
            "the soak must exercise at least one mid-run teardown + re-register \
             (downs={}, ups={}, skipped={})",
            baseline.downs,
            baseline.ups,
            baseline.flaps_skipped,
        );
    }

    if let Some(exporter) = exporter.as_mut() {
        exporter.mode_summary("inline", &baseline, events);
    }
    let mut bench_rows = vec![bench_row("inline", 0, &baseline, base_rate)];

    // --- Sharded modes ----------------------------------------------------
    for &shards in &shard_counts {
        let label = format!("s={shards} p={ingest_threads}");
        let outcome = if ingest_threads > 1 {
            // The baseline counted one trailing resync beyond the stream's
            // markers; the coordinator serves exactly the in-stream ones.
            drive_multi(
                &label,
                shards,
                ingest_threads,
                baseline.resyncs - 1,
                &template,
                &table,
                &swift_config,
                &flap_routes,
                &mut exporter,
            )
        } else {
            drive(
                &label,
                shards,
                &template,
                &table,
                &swift_config,
                &flap_routes,
                &mut exporter,
            )
        };
        // The equivalence assertions run under the flight-recorder guard:
        // a divergence dumps the run's recent lifecycle history.
        let post_mortem = DumpOnPanic::arm(&outcome.flight, format!("soak assertions [{label}]"));
        assert_eq!(outcome.report.metrics.dropped, 0, "lossless under Block");
        assert_eq!(
            outcome.report.metrics.events, events,
            "every producer's events are merged into the report"
        );
        assert_eq!(
            (outcome.downs, outcome.ups),
            (baseline.downs, baseline.ups),
            "lifecycle schedule is part of the replay, not the scheduling"
        );
        let decisions =
            per_session_decisions(&outcome.report.actions, session_peers.iter().copied());
        assert_eq!(
            decisions, base_decisions,
            "sharded soak ({shards} shards, {} producers) diverged from the inline baseline",
            outcome.producers,
        );
        drop(post_mortem);
        println!(
            "{}  resyncs {} ({} rules removed)",
            mode_line(
                &label,
                outcome.pipeline,
                events,
                base_rate,
                &outcome.report.metrics
            ),
            outcome.resyncs,
            outcome.rules_removed,
        );
        print_per_applier(&outcome.report.metrics);
        print_stage_breakdown(&outcome.report.metrics);
        if let Some(exporter) = exporter.as_mut() {
            exporter.mode_summary(&label, &outcome, events);
        }
        let rate = events as f64 / secs(outcome.pipeline);
        bench_rows.push(bench_row(&label, shards, &outcome, rate));
    }

    if let Some(exporter) = exporter.take() {
        let lines = exporter.finish();
        let path = metrics_out.as_deref().expect("exporter implies a path");
        validate_metrics_stream(path, 1 + shard_counts.len());
        println!("\nmetrics stream: {lines} JSON lines written to {path} (validated)");
    }

    // One trajectory record per run — the file accumulates history instead
    // of being overwritten (legacy single-run files are replaced).
    if let Some(bench_out) = bench_out {
        let record = JsonObject::new()
            .str("git", &git_describe())
            .u64("unix_time", unix_time())
            .str("tier", if smoke { "smoke" } else { "full" })
            .raw(
                "shards",
                &json_array(shard_counts.iter().map(|s| s.to_string())),
            )
            .u64("ingest_threads", ingest_threads as u64)
            .bool("churn", churn)
            .u64("events", events)
            .raw("runs", &json_array(bench_rows))
            .finish();
        let records = append_trajectory(Path::new(&bench_out), &record)
            .unwrap_or_else(|e| panic!("appending to {bench_out}: {e}"));
        println!("\ntrajectory appended to {bench_out} ({records} run records)");
    }

    println!(
        "soak done: every surviving session's reroute decisions are identical across all modes"
    );
    if smoke {
        println!("(smoke tier — run without --smoke on a multi-core box for the full 213-session corpus)");
    }
}
