//! The end-to-end run: the workload's cycles replayed round after round on
//! one long-lived [`ShardedRuntime`], through its public API only.
//!
//! Closed loop, one producer thread. A round's events are materialised before
//! its clock starts, so the timed regions hold nothing but `ingest`, `flush`
//! and `resync_after_convergence` calls; the clock is read a handful of times
//! per cycle, never per event (inline, the one `ingest` call the oracle says
//! will reroute is timed on its own).

use crate::host;
use crate::oracle::Expected;
use crate::workloads::{shifted, Workload};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use swift_bgp::ElementaryEvent;
use swift_core::encoding::ReroutingPolicy;
use swift_core::RerouteAction;
use swift_runtime::{RuntimeConfig, RuntimeReport, ShardedRuntime};

/// Measured rounds replayed even when [`RunPlan::cap`] has passed.
pub const MIN_ROUNDS: usize = 5;

/// How long and how often to run.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Measured rounds to replay after the warm-up round. Every timing is a
    /// best-of-rounds, so the count is fixed by the workload, not by the
    /// clock: a slower build must not get fewer draws than a faster one.
    pub rounds: usize,
    /// Upper limit on the time since the warm-up round began. Once it has
    /// passed (a disturbed host) no further round starts, [`MIN_ROUNDS`]
    /// excepted.
    pub cap: Duration,
    /// Times `ShardedRuntime::new` is run and timed (the last one is kept).
    pub setups: usize,
}

impl RunPlan {
    /// Calls `round(0)` for the warm-up round, then `round(1)`, `round(2)`, …
    /// for the measured rounds. Returns the number of rounds replayed, the
    /// warm-up included.
    pub fn replay(self, mut round: impl FnMut(usize)) -> usize {
        let started = Instant::now();
        round(0);
        let mut measured = 0;
        while measured < self.rounds && (measured < MIN_ROUNDS || started.elapsed() < self.cap) {
            measured += 1;
            round(measured);
        }
        measured + 1
    }
}

/// One measured round: a sample per cycle, plus the round's totals.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// First burst `ingest` → `flush` return.
    pub burst_ns: Vec<Option<u64>>,
    /// The triggering `ingest` call (inline runs, rerouting cycles only).
    pub reroute_ns: Vec<Option<u64>>,
    /// The post-burst `resync_after_convergence` call.
    pub resync_ns: Vec<Option<u64>>,
    /// First recovery `ingest` → `flush` return.
    pub recover_ns: Vec<Option<u64>>,
    /// Wall time of the whole round.
    pub wall_ns: u64,
    /// Process CPU time of the whole round, all threads.
    pub cpu_ns: u64,
}

/// Everything the end-to-end run observed.
#[derive(Debug)]
pub struct Replay {
    /// Wall seconds of each `ShardedRuntime::new`.
    pub setup_s: Vec<f64>,
    /// The measured rounds (the warm-up round is not among them).
    pub rounds: Vec<Round>,
    /// Rounds replayed including the warm-up.
    pub rounds_replayed: usize,
    /// Events handed to `ingest` over all rounds.
    pub events_ingested: u64,
    /// The runtime's final report.
    pub report: RuntimeReport,
}

/// The events of round `round`: per cycle, its burst and its recovery.
pub fn materialise(workload: &Workload, round: usize) -> Vec<[Vec<ElementaryEvent>; 2]> {
    let dt = workload.round_shift(round);
    let shift = |events: &[ElementaryEvent]| events.iter().map(|e| shifted(e, dt)).collect();
    workload
        .cycles
        .iter()
        .map(|cycle| [shift(&cycle.burst), shift(&cycle.recovery)])
        .collect()
}

fn ns(from: Instant, to: Instant) -> Option<u64> {
    Some(to.duration_since(from).as_nanos() as u64)
}

/// Replays one round and returns its samples.
fn replay_round(
    runtime: &mut ShardedRuntime,
    workload: &Workload,
    expected: &Expected,
    round: usize,
) -> Round {
    let events = materialise(workload, round);
    let inline = runtime.is_deterministic();
    let mut samples = Round::default();
    let cpu_before = host::cpu_ns();
    let round_start = Instant::now();
    for ((cycle, [burst, recovery]), trigger) in
        workload.cycles.iter().zip(events).zip(&expected.cycles)
    {
        let peer = cycle.peer;
        let timed = trigger.as_ref().filter(|_| inline).map(|t| t.index);
        let mut burst = burst.into_iter();
        let burst_start = Instant::now();
        let mut reroute = None;
        if let Some(index) = timed {
            for event in burst.by_ref().take(index) {
                runtime.ingest(peer, event);
            }
            let event = burst.next().expect("trigger index is inside the burst");
            let before = Instant::now();
            runtime.ingest(peer, event);
            reroute = ns(before, Instant::now());
        }
        for event in burst {
            runtime.ingest(peer, event);
        }
        runtime.flush();
        let burst_end = Instant::now();
        runtime.resync_after_convergence();
        let resynced = Instant::now();
        for event in recovery {
            runtime.ingest(peer, event);
        }
        runtime.flush();
        let recovered = Instant::now();
        runtime.resync_after_convergence();

        samples.burst_ns.push(ns(burst_start, burst_end));
        samples.reroute_ns.push(reroute);
        samples.resync_ns.push(ns(burst_end, resynced));
        samples.recover_ns.push(ns(resynced, recovered));
    }
    samples.wall_ns = round_start.elapsed().as_nanos() as u64;
    samples.cpu_ns = host::cpu_ns() - cpu_before;
    samples
}

/// Builds the runtime `plan.setups` times (timing each build), then replays
/// one warm-up round and the plan's measured rounds.
pub fn run(
    workload: &Workload,
    config: RuntimeConfig,
    expected: &Expected,
    plan: RunPlan,
) -> Replay {
    let mut setup_s = Vec::with_capacity(plan.setups);
    let mut build = || {
        let table = workload.table.clone();
        let start = Instant::now();
        let runtime = ShardedRuntime::new(
            config.clone(),
            workload.swift.clone(),
            table,
            ReroutingPolicy::allow_all(),
        );
        setup_s.push(start.elapsed().as_secs_f64());
        runtime
    };
    for _ in 1..plan.setups {
        drop(build());
    }
    let mut runtime = build();

    let mut rounds = Vec::with_capacity(plan.rounds);
    let rounds_replayed = plan.replay(|r| {
        let samples = replay_round(&mut runtime, workload, expected, r);
        if r > 0 {
            rounds.push(samples);
        }
    });
    let per_round = (workload.burst_events() + workload.recovery_events()) as u64;
    Replay {
        setup_s,
        rounds,
        rounds_replayed,
        events_ingested: per_round * rounds_replayed as u64,
        report: runtime.finish(),
    }
}

/// The outcome of comparing a run's reroute actions with the oracle's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Decisions the oracle expects over all rounds.
    pub expected: u64,
    /// Decisions missing, extra or different.
    pub failed: u64,
}

/// Compares `actions` (any order) with what the oracle expects of `rounds`
/// rounds: each `(round, cycle)` must reroute exactly when the oracle says
/// so, with the same session, links and predicted-prefix count.
pub fn check(
    workload: &Workload,
    expected: &Expected,
    rounds: usize,
    actions: &[RerouteAction],
) -> Verdict {
    let mut matched = BTreeSet::new();
    let mut failed = 0u64;
    for action in actions {
        let (round, k) = workload.cycle_of(action.time);
        let agrees = round < rounds
            && expected.cycles[k].as_ref().is_some_and(|trigger| {
                trigger.decision.session == action.session
                    && trigger.decision.links == action.links
                    && trigger.decision.predicted == action.predicted.len()
            });
        // A second action for one cycle is as wrong as a differing one.
        if !agrees || !matched.insert((round, k)) {
            failed += 1;
        }
    }
    let expected_total = (expected.decisions() * rounds) as u64;
    Verdict {
        expected: expected_total,
        failed: failed + (expected_total - matched.len() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_round_count_is_the_plans_not_the_clocks() {
        let plan = |rounds, cap| RunPlan {
            rounds,
            cap,
            setups: 1,
        };
        let mut seen = Vec::new();
        assert_eq!(plan(3, Duration::MAX).replay(|r| seen.push(r)), 4);
        assert_eq!(seen, [0, 1, 2, 3]);
        // A cap that has passed cuts a long plan to the floor, no further.
        assert_eq!(plan(9, Duration::ZERO).replay(|_| {}), MIN_ROUNDS + 1);
        assert_eq!(plan(2, Duration::ZERO).replay(|_| {}), 3);
    }
}
