//! The traced run: the same rounds, with a span around every call into a
//! layer.
//!
//! Inline workloads are replayed through the harness's own composition of
//! [`session_engines`] and [`Applier`] — the composition `ShardedRuntime`
//! runs inline, written out here so that each call can be timed on its own.
//! `corpus_sharded` is traced around the `ShardedRuntime` calls, and its
//! per-stage numbers come from the runtime's own sampled histograms.

use crate::replay::{materialise, RunPlan};
use crate::stats::ratio;
use crate::trace::{Aggregate, Recorder, ROOT};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use swift_bgp::{ElementaryEvent, InternedRib, PeerId, Prefix, Route};
use swift_core::encoding::ReroutingPolicy;
use swift_core::inference::{infer_links, predict, EngineStatus, KernelStats};
use swift_core::pipeline::{session_engines, Applier, SessionEngine};
use swift_core::{RerouteAction, TwoStageTable};
use swift_runtime::{RuntimeConfig, ShardedRuntime};

/// Forwarding lookups per `core.encoding.lookup` probe.
const LOOKUP_PROBE: usize = 4_096;

/// What a traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Spans and best-of-rounds samples.
    pub recorder: Recorder,
    /// Every reroute action of the run, warm-up round included.
    pub actions: Vec<RerouteAction>,
    /// Rounds replayed including the warm-up.
    pub rounds_replayed: usize,
    /// Per-layer values that are not span timings (set-up times, exact
    /// counts, fields of the runtime's report), by metric name.
    pub direct: BTreeMap<&'static str, f64>,
}

/// [`RunPlan::replay`] with `rec` sampling the measured rounds;
/// `round(rec, r, measured)` replays round `r`.
fn rounds(
    rec: &mut Recorder,
    plan: RunPlan,
    mut round: impl FnMut(&mut Recorder, usize, bool),
) -> usize {
    plan.replay(|r| {
        let measured = r > 0;
        if measured {
            rec.begin_round();
        }
        round(rec, r, measured);
        rec.end_round();
    })
}

/// Exact per-round counts of the layer-call driver.
#[derive(Default)]
struct Counts {
    kernels: KernelStats,
    attempts: u64,
    accepted: u64,
    rules: u64,
}

/// The harness's inline composition: one engine per session plus the applier.
struct Pipeline<'a> {
    workload: &'a Workload,
    engines: BTreeMap<PeerId, SessionEngine>,
    applier: Applier,
}

impl Pipeline<'_> {
    /// Feeds one phase's events through `note_event` → `process` (→
    /// `apply_inference`), chaining the clock reads so the phase's spans tile
    /// it without gaps.
    fn phase(
        &mut self,
        rec: &mut Recorder,
        parent: u32,
        cycle: i64,
        peer: PeerId,
        events: &[ElementaryEvent],
        counts: &mut Counts,
    ) {
        let engine = self
            .engines
            .get_mut(&peer)
            .expect("cycle session has an engine");
        let (mut note, mut withdraw, mut announce) = (
            Aggregate::default(),
            Aggregate::default(),
            Aggregate::default(),
        );
        let mut t = rec.now();
        for event in events {
            let was_in_burst = engine.engine().in_burst();
            self.applier.note_event(peer, event);
            let noted = rec.now();
            note.add(t, noted);
            let (status, result) = engine.process(event);
            t = rec.now();
            match status {
                EngineStatus::Accepted | EngineStatus::RejectedByHistory => {
                    counts.attempts += 1;
                    rec.call(parent, "core.inference.attempt", cycle, noted, t);
                }
                _ if !was_in_burst && engine.engine().in_burst() => {
                    rec.call(parent, "core.inference.burst_start", cycle, noted, t);
                }
                _ if event.is_withdraw() => withdraw.add(noted, t),
                _ => announce.add(noted, t),
            }
            let Some(result) = result else { continue };
            let action = self.applier.apply_inference(peer, &result);
            let installed = rec.now();
            rec.call(parent, "core.pipeline.apply_inference", cycle, t, installed);
            counts.accepted += 1;
            counts.rules += action.rules_installed as u64;
            // The engine's own kernel passes are counted; the probes' are not.
            counts.kernels.merge(&engine.take_kernel_stats());
            let counters = engine.engine().counters();
            let links = black_box(infer_links(counters, &self.workload.swift.inference));
            let inferred = rec.now();
            rec.call(
                parent,
                "core.inference.infer_links",
                cycle,
                installed,
                inferred,
            );
            black_box(predict(counters, &links));
            let predicted = rec.now();
            rec.call(parent, "core.inference.predict", cycle, inferred, predicted);
            let mut lookups = 0;
            for prefix in action.predicted.iter().take(LOOKUP_PROBE) {
                black_box(self.applier.forwarding_next_hop(prefix));
                lookups += 1;
            }
            t = rec.now();
            let lookups = Aggregate::batch(predicted, t, lookups);
            rec.aggregate(parent, "core.encoding.lookup", cycle, lookups);
            engine.take_kernel_stats();
        }
        counts.kernels.merge(&engine.take_kernel_stats());
        rec.aggregate(parent, "core.pipeline.note_event", cycle, note);
        rec.aggregate(parent, "core.inference.withdraw", cycle, withdraw);
        rec.aggregate(parent, "core.inference.announce", cycle, announce);
    }

    /// Replays one round, one span per call or per aggregated call name.
    fn round(
        &mut self,
        rec: &mut Recorder,
        run: u32,
        round: usize,
        flap: Option<&(PeerId, Vec<(Prefix, Route)>)>,
        counts: &mut Counts,
    ) {
        let events = materialise(self.workload, round);
        let span = rec.open(run, "round", -1);
        for (k, (cycle, [burst, recovery])) in self.workload.cycles.iter().zip(events).enumerate() {
            let global = (round * self.workload.cycles.len() + k) as i64;
            let cycle_span = rec.open(span, "cycle", global);
            let phase = rec.open(cycle_span, "burst", global);
            self.phase(rec, phase, global, cycle.peer, &burst, counts);
            rec.close(phase);
            let resync = rec.open(cycle_span, "core.pipeline.resync", global);
            self.applier.resync_after_convergence();
            rec.close(resync);
            let phase = rec.open(cycle_span, "recovery", global);
            self.phase(rec, phase, global, cycle.peer, &recovery, counts);
            rec.close(phase);
            let resync = rec.open(cycle_span, "core.pipeline.resync_recover", global);
            self.applier.resync_after_convergence();
            rec.close(resync);
            rec.close(cycle_span);
        }
        if let Some((peer, routes)) = flap {
            let teardown = rec.open(span, "core.pipeline.teardown", -1);
            self.engines.remove(peer);
            self.applier.teardown_session(*peer);
            rec.close(teardown);
            let register = rec.open(span, "core.pipeline.register", -1);
            let mut rib = InternedRib::new();
            for (prefix, route) in routes {
                rib.push(*prefix, route.as_path());
            }
            self.engines.insert(
                *peer,
                SessionEngine::from_interned(*peer, &self.workload.swift, &rib),
            );
            let asn = self
                .applier
                .table()
                .peer_asn(*peer)
                .expect("flapped peer stays known");
            self.applier
                .register_session(*peer, asn, routes.iter().cloned());
            rec.close(register);
        }
        rec.close(span);
    }
}

/// The layer-call driver (inline workloads).
pub fn run_layers(workload: &Workload, plan: RunPlan) -> Traced {
    let mut rec = Recorder::default();
    let mut direct = BTreeMap::new();
    let run = rec.open(ROOT, "run", -1);
    let policy = ReroutingPolicy::allow_all();
    let table = workload.table.clone();
    let flap = workload.flap.map(|peer| {
        let rib = table
            .adj_rib_in(peer)
            .expect("flapped session is in the table");
        (
            peer,
            rib.iter().map(|(p, r)| (*p, r.clone())).collect::<Vec<_>>(),
        )
    });

    let seed = rec.open(run, "core.pipeline.seed", -1);
    let engines = session_engines(&workload.swift, &table);
    direct.insert("core.pipeline.seed_s", rec.close(seed) as f64 / 1e9);
    let build = rec.open(run, "core.encoding.build", -1);
    let forwarding = TwoStageTable::build(&table, &workload.swift.encoding, &policy);
    direct.insert("core.encoding.build_s", rec.close(build) as f64 / 1e9);
    let mut pipeline = Pipeline {
        workload,
        engines,
        applier: Applier::from_parts(workload.swift.clone(), table, forwarding, policy),
    };

    // The warm-up round's counts differ (scratch buffers grow in it) and are
    // not reported.
    let (mut counts, mut warm_up) = (Counts::default(), Counts::default());
    let rounds_replayed = rounds(&mut rec, plan, |rec, round, measured| {
        let counts = if measured { &mut counts } else { &mut warm_up };
        pipeline.round(rec, run, round, flap.as_ref(), counts);
    });
    rec.close(run);

    let measured = (rounds_replayed - 1) as f64;
    let Counts {
        kernels,
        attempts,
        accepted,
        rules,
    } = counts;
    let (attempts, accepted, rules) = (attempts as f64, accepted as f64, rules as f64);
    direct.extend([
        (
            "core.inference.kernel.dense",
            kernels.dense as f64 / measured,
        ),
        (
            "core.inference.kernel.sparse",
            kernels.sparse as f64 / measured,
        ),
        (
            "core.inference.kernel.mixed",
            kernels.mixed as f64 / measured,
        ),
        (
            "core.inference.scratch.growth",
            kernels.scratch_growth as f64 / measured,
        ),
        (
            "core.inference.attempts_per_reroute",
            ratio(attempts, accepted),
        ),
        ("core.encoding.rules_per_reroute", ratio(rules, accepted)),
    ]);
    Traced {
        recorder: rec,
        actions: pipeline.applier.actions().to_vec(),
        rounds_replayed,
        direct,
    }
}

/// The traced `ShardedRuntime` run (`corpus_sharded`): spans around the
/// runtime's public calls, stage attribution from its own sampled histograms.
pub fn run_runtime_traced(workload: &Workload, plan: RunPlan) -> Traced {
    let mut rec = Recorder::default();
    let run = rec.open(ROOT, "run", -1);
    let config = RuntimeConfig {
        trace_sample_interval: 16,
        ..workload.runtime.clone()
    };
    let new = rec.open(run, "runtime.new", -1);
    let mut runtime = ShardedRuntime::new(
        config,
        workload.swift.clone(),
        workload.table.clone(),
        ReroutingPolicy::allow_all(),
    );
    rec.close(new);

    /// One phase through the runtime: every `ingest` call timed (chained
    /// clock reads), then the `flush` that drains the backlog.
    fn phase(
        rec: &mut Recorder,
        runtime: &mut ShardedRuntime,
        parent: u32,
        [name, flush_name]: [&'static str; 2],
        cycle: i64,
        peer: PeerId,
        events: Vec<ElementaryEvent>,
    ) {
        let span = rec.open(parent, name, cycle);
        let mut ingest = Aggregate::default();
        let mut t = rec.now();
        for event in events {
            runtime.ingest(peer, event);
            let done = rec.now();
            ingest.add(t, done);
            t = done;
        }
        rec.aggregate(span, "runtime.ingest.call", cycle, ingest);
        let flush = rec.open(span, flush_name, cycle);
        runtime.flush();
        rec.close(flush);
        rec.close(span);
    }
    let rounds_replayed = rounds(&mut rec, plan, |rec, round, _| {
        let events = materialise(workload, round);
        let span = rec.open(run, "round", -1);
        for (k, (cycle, [burst, recovery])) in workload.cycles.iter().zip(events).enumerate() {
            let global = (round * workload.cycles.len() + k) as i64;
            let cycle_span = rec.open(span, "cycle", global);
            let names = ["burst", "runtime.flush"];
            phase(
                rec,
                &mut runtime,
                cycle_span,
                names,
                global,
                cycle.peer,
                burst,
            );
            let resync = rec.open(cycle_span, "runtime.resync", global);
            runtime.resync_after_convergence();
            rec.close(resync);
            let names = ["recovery", "runtime.flush_recover"];
            phase(
                rec,
                &mut runtime,
                cycle_span,
                names,
                global,
                cycle.peer,
                recovery,
            );
            let resync = rec.open(cycle_span, "runtime.resync_recover", global);
            runtime.resync_after_convergence();
            rec.close(resync);
            rec.close(cycle_span);
        }
        rec.close(span);
    });
    let report = runtime.finish();
    rec.close(run);

    let metrics = &report.metrics;
    let max = |values: &mut dyn Iterator<Item = usize>| values.max().unwrap_or(0) as f64;
    let (shards, appliers) = (&metrics.per_shard, &metrics.per_applier);
    let busy: f64 = appliers.iter().map(|a| a.busy.as_secs_f64()).sum();
    let mut direct = BTreeMap::from([
        (
            "runtime.shard.queue_high",
            max(&mut shards.iter().map(|s| s.max_queue_depth)),
        ),
        (
            "runtime.applier.queue_high",
            max(&mut appliers.iter().map(|a| a.max_queue_depth)),
        ),
        (
            "runtime.applier.pending_high",
            max(&mut appliers.iter().map(|a| a.pending_high_water)),
        ),
        (
            "runtime.applier.busy_share",
            ratio(busy, metrics.wall.as_secs_f64()),
        ),
        ("runtime.events_dropped", metrics.dropped as f64),
    ]);
    // The runtime's own sampled stage histograms (ns), in pipeline order.
    let stages = [
        "runtime.stage.queue_wait_us",
        "runtime.stage.inference_us",
        "runtime.stage.applier_wait_us",
        "runtime.stage.install_us",
    ];
    for (name, (_, summary)) in stages.into_iter().zip(metrics.stages.rows()) {
        direct.insert(name, summary.p50 as f64 / 1e3);
    }
    Traced {
        recorder: rec,
        actions: report.actions,
        rounds_replayed,
        direct,
    }
}
