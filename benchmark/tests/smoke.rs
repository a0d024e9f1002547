//! Smoke-scale checks of the benchmark itself (tables and thresholds ÷ 50):
//! the rounds really are identical work, the three drivers agree, the trace
//! is well-formed, and the names match `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::time::Duration;
use swift_benchmark::layers;
use swift_benchmark::oracle::{self, Expected};
use swift_benchmark::replay::{self, RunPlan};
use swift_benchmark::report::{END_TO_END, PER_LAYER};
use swift_benchmark::workloads::{self, Scale, Workload, WORKLOADS};
use swift_core::RerouteAction;
use swift_runtime::RuntimeConfig;

const PLAN: RunPlan = RunPlan {
    rounds: 2,
    cap: Duration::ZERO,
    setups: 1,
};

fn smoke(name: &str) -> (Workload, Expected) {
    let workload = workloads::generate(name, 1, Scale::Smoke).expect("known workload");
    let expected = oracle::expect(&workload);
    assert!(
        expected.decisions() > 0,
        "{name}: the smoke scale never reroutes"
    );
    (workload, expected)
}

/// One round's decisions, `(cycle, session, links, predicted count)`.
fn round_decisions(
    workload: &Workload,
    actions: &[RerouteAction],
    round: usize,
) -> BTreeSet<String> {
    actions
        .iter()
        .filter(|a| workload.cycle_of(a.time).0 == round)
        .map(|a| {
            let cycle = workload.cycle_of(a.time).1;
            format!(
                "{cycle} {:?} {:?} {}",
                a.session,
                a.links,
                a.predicted.len()
            )
        })
        .collect()
}

#[test]
fn every_round_decides_what_round_zero_decided() {
    for name in WORKLOADS {
        let (workload, expected) = smoke(name);
        let replay = replay::run(&workload, workload.runtime.clone(), &expected, PLAN);
        assert_eq!(replay.rounds_replayed, 3);
        let actions = &replay.report.actions;
        let first = round_decisions(&workload, actions, 0);
        assert_eq!(first.len(), expected.decisions(), "{name}");
        for round in 1..replay.rounds_replayed {
            assert_eq!(
                round_decisions(&workload, actions, round),
                first,
                "{name} round {round}"
            );
        }
        let verdict = replay::check(&workload, &expected, replay.rounds_replayed, actions);
        assert_eq!(verdict.failed, 0, "{name}");
        assert_eq!(
            replay.report.metrics.events, replay.events_ingested,
            "{name}"
        );
    }
}

#[test]
fn layer_driver_inline_and_sharded_runtime_agree() {
    let (workload, expected) = smoke("corpus_inline");
    let layered = layers::run_layers(&workload, PLAN);
    let inline = replay::run(&workload, RuntimeConfig::deterministic(), &expected, PLAN);
    let sharded = replay::run(&workload, RuntimeConfig::sharded(1), &expected, PLAN);
    for round in 0..3 {
        let reference = round_decisions(&workload, &layered.actions, round);
        assert_eq!(reference.len(), expected.decisions());
        assert_eq!(
            round_decisions(&workload, &inline.report.actions, round),
            reference
        );
        assert_eq!(
            round_decisions(&workload, &sharded.report.actions, round),
            reference
        );
    }
}

#[test]
fn a_wrong_decision_is_counted() {
    let (workload, expected) = smoke("pathchange_inline");
    let replay = replay::run(&workload, workload.runtime.clone(), &expected, PLAN);
    let mut actions = replay.report.actions;
    let rounds = replay.rounds_replayed;
    assert_eq!(
        replay::check(&workload, &expected, rounds, &actions).failed,
        0
    );
    actions[0].links.clear();
    assert_eq!(
        replay::check(&workload, &expected, rounds, &actions).failed,
        2
    );
    actions.remove(0);
    assert_eq!(
        replay::check(&workload, &expected, rounds, &actions).failed,
        1
    );
}

#[test]
fn traces_cover_their_cycles_and_every_parent_exists() {
    for name in WORKLOADS {
        let (workload, expected) = smoke(name);
        let traced = if workload.runtime.shards == 0 {
            layers::run_layers(&workload, PLAN)
        } else {
            layers::run_runtime_traced(&workload, PLAN)
        };
        let verdict = replay::check(
            &workload,
            &expected,
            traced.rounds_replayed,
            &traced.actions,
        );
        assert_eq!(verdict.failed, 0, "{name}");
        let rec = &traced.recorder;
        assert_eq!(rec.rounds(), 2, "{name}");
        assert!(rec.coverage() >= 0.9, "{name}: coverage {}", rec.coverage());
        for span in rec.spans() {
            assert!(
                span.parent < span.id,
                "{name}: span {} before its parent",
                span.id
            );
            assert!(span.end_ns >= span.start_ns && span.busy_ns <= span.end_ns - span.start_ns);
        }
    }
}

/// The `"name"` / `"unit"` strings of `BENCHMARK.json`, in file order.
fn spec_strings(key: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let needle = format!("\"{key}\": \"");
    spec.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &spec[at + needle.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn names_and_units_match_benchmark_json() {
    let ours: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
    let mut names: Vec<&str> = WORKLOADS.to_vec();
    names.extend(ours.iter().map(|(name, _)| name));
    for name in &names {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(
            !name.is_empty() && name.len() <= 64 && name.chars().all(ok),
            "{name}"
        );
    }
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used twice"
    );
    assert_eq!(
        spec_strings("name"),
        names,
        "names of BENCHMARK.json, in order"
    );
    let units: Vec<&str> = ours.iter().map(|(_, unit)| *unit).collect();
    assert_eq!(
        spec_strings("unit"),
        units,
        "units of BENCHMARK.json, in order"
    );
}
