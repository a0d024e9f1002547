//! `swift-benchmark`: the repo benchmark's one command.
//!
//! ```text
//! swift-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--bless]
//! ```
//!
//! `--trace 0` (the default) prints every end-to-end metric, `--trace 1`
//! writes the span file and prints every per-layer metric. The last line of
//! standard output is the result object (with `--trace 0` the line before it
//! holds the values printed but not gated); the exit code is non-zero when
//! any reroute decision differs from the oracle's or the pinned digest.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use swift_benchmark::oracle::{self, Expected};
use swift_benchmark::replay::{self, RunPlan, Verdict};
use swift_benchmark::report::{self, Metrics, END_TO_END, PER_LAYER, UNGATED};
use swift_benchmark::workloads::{self, Scale, Workload, WORKLOADS};
use swift_benchmark::{host, layers, stats};
use swift_runtime::RuntimeConfig;

/// Times an untraced run builds the runtime (`setup_s` is their median).
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        scale: Scale::Full,
        bless: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.scale = Scale::Smoke,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

fn digest_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("expected/{workload}.digest"))
}

/// Whether this run has a pinned digest to meet (seed 1, reported scale) and
/// `digest` is not it.
fn misses_pinned_digest(args: &Args, workload: &str, digest: &str) -> bool {
    if args.seed != 1 || args.scale != Scale::Full {
        return false;
    }
    let path = digest_path(workload);
    match std::fs::read_to_string(&path) {
        Ok(pinned) if pinned.trim() == digest => false,
        Ok(pinned) => {
            println!(
                "  decisions differ from the pinned digest {}",
                pinned.trim()
            );
            true
        }
        Err(e) => {
            println!("  no pinned digest at {}: {e}", path.display());
            true
        }
    }
}

/// What the run's outputs were checked against, and how that went.
struct Outcome {
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn add(&mut self, verdict: Verdict, events: u64, dropped: u64) {
        self.attempted += verdict.expected + events;
        self.failed += verdict.failed + dropped;
    }
}

/// An untraced run through `ShardedRuntime`, checked against the oracle.
fn end_to_end(
    workload: &Workload,
    config: RuntimeConfig,
    expected: &Expected,
    plan: RunPlan,
    outcome: &mut Outcome,
) -> Metrics {
    let replay = replay::run(workload, config, expected, plan);
    let verdict = replay::check(
        workload,
        expected,
        replay.rounds_replayed,
        &replay.report.actions,
    );
    let metrics = &replay.report.metrics;
    // Events the runtime lost count as failed operations, like events it
    // never saw.
    let lost = metrics.dropped + replay.events_ingested.abs_diff(metrics.events);
    outcome.add(verdict, replay.events_ingested, lost);
    report::end_to_end(workload, &replay)
}

/// The traced run and the per-layer metrics.
fn per_layer(
    args: &Args,
    workload: &Workload,
    expected: &Expected,
    generate_s: f64,
    outcome: &mut Outcome,
) -> Metrics {
    let inline = workload.runtime.shards == 0;
    // The invocation's rounds are split between the untraced reference
    // run(s) and the traced run, at least two measured rounds each.
    let parts = if inline { 2 } else { 3 };
    let reference_plan = RunPlan {
        rounds: (workload.rounds / parts).max(2),
        cap: Duration::from_secs_f64(args.seconds / parts as f64),
        setups: 1,
    };
    let reference = end_to_end(
        workload,
        workload.runtime.clone(),
        expected,
        reference_plan,
        outcome,
    );

    let traced = if inline {
        layers::run_layers(workload, reference_plan)
    } else {
        layers::run_runtime_traced(workload, reference_plan)
    };
    let verdict = replay::check(workload, expected, traced.rounds_replayed, &traced.actions);
    outcome.add(verdict, 0, 0);

    let rec = &traced.recorder;
    let mut metrics: Metrics = PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect();
    metrics.extend(traced.direct.iter().map(|(name, value)| (*name, *value)));
    // A span-timed metric is named `<span>_<unit>`: `_ns` metrics are the
    // mean per call, `_us` and `_ms` metrics the median span.
    for (name, _) in PER_LAYER {
        let timed = name.rsplit_once('_').and_then(|(span, unit)| match unit {
            "ns" => rec.mean_ns(span),
            "us" => rec.p50_ns(span).map(|ns| ns / 1e3),
            "ms" => rec.p50_ns(span).map(|ns| ns / 1e6),
            _ => None,
        });
        if let Some(value) = timed {
            metrics.insert(name, value);
        }
    }
    let dirty: usize = workload.cycles.iter().map(|c| c.recovery.len()).sum();
    let burst_s = rec.best("burst").0.iter().sum::<f64>() / 1e9;
    let traced_events_per_s = stats::ratio(workload.burst_events() as f64, burst_s);
    metrics.extend([
        ("reroute_ms_p50", reference["reroute_ms_p50"]),
        ("reroute_ms_p90", reference["reroute_ms_p90"]),
        ("traces.generate_s", generate_s),
        ("trace.coverage", rec.coverage()),
        (
            "trace.overhead",
            stats::ratio(traced_events_per_s, reference["events_per_s"]),
        ),
        ("trace.spans", rec.spans().len() as f64),
        ("host.round_spread", reference["host.round_spread"]),
    ]);
    if inline {
        metrics.insert(
            "core.pipeline.resync_dirty",
            dirty as f64 / workload.cycles.len().max(1) as f64,
        );
    } else {
        // The same input through the inline runtime: what the runtime layer
        // costs in CPU per event, whatever it does to the wall clock.
        let inline_run = end_to_end(
            workload,
            RuntimeConfig::deterministic(),
            expected,
            reference_plan,
            outcome,
        );
        metrics.insert(
            "runtime.cpu_overhead_ratio",
            stats::ratio(
                reference["cpu_s_per_mevent"],
                inline_run["cpu_s_per_mevent"],
            ),
        );
        metrics.insert("runtime.reroute_samples", reference["reroute_samples"]);
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "target/swift-benchmark-out/trace_{}.jsonl",
        workload.name
    ));
    match rec.write_jsonl(&path) {
        Ok(()) => println!(
            "  {} spans written to {}",
            rec.spans().len(),
            path.display()
        ),
        Err(e) => {
            println!("  could not write {}: {e}", path.display());
            outcome.failed += 1;
        }
    }
    metrics
}

/// Runs one workload; returns whether its outputs were correct.
fn run_workload(args: &Args, name: &str) -> bool {
    let (steal_before, total_before) = host::host_jiffies();
    let started = Instant::now();
    let workload = workloads::generate(name, args.seed, args.scale).expect("name was validated");
    let generate_s = started.elapsed().as_secs_f64();
    let expected = oracle::expect(&workload);
    let digest = expected.digest();
    println!(
        "{name}: seed {} · {} cycles, {} burst + {} recovery events per round · {} reroutes per \
         round (digest {digest}) · localisation_hit_share {:.3} · {} cores",
        args.seed,
        workload.cycles.len(),
        workload.burst_events(),
        workload.recovery_events(),
        expected.decisions(),
        expected.localisation_hit_share(&workload),
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    if args.bless {
        std::fs::write(digest_path(name), format!("{digest}\n")).expect("writing the digest");
        println!("  pinned {}", digest_path(name).display());
        return true;
    }

    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
    };
    if misses_pinned_digest(args, name, &digest) {
        outcome.failed += expected.decisions().max(1) as u64;
    }

    let (names, mut metrics): (&[_], _) = if args.trace {
        let metrics = per_layer(args, &workload, &expected, generate_s, &mut outcome);
        (&PER_LAYER, metrics)
    } else {
        let run_plan = RunPlan {
            rounds: workload.rounds,
            cap: Duration::from_secs_f64(args.seconds),
            setups: SETUPS,
        };
        let metrics = end_to_end(
            &workload,
            workload.runtime.clone(),
            &expected,
            run_plan,
            &mut outcome,
        );
        (&END_TO_END, metrics)
    };
    let (steal, total) = host::host_jiffies();
    metrics.insert(
        "host.steal_share",
        stats::ratio((steal - steal_before) as f64, (total - total_before) as f64),
    );
    if !args.trace {
        println!("  not gated:");
        report::print_table(&UNGATED, &metrics);
        println!("  gated:");
    }
    report::print_table(names, &metrics);
    let correct = outcome.failed == 0;
    println!(
        "  ops_total {} · ops_failed {}",
        outcome.attempted, outcome.failed
    );
    if !args.trace {
        println!("{}", report::ungated_line(&metrics));
    }
    println!(
        "{}",
        report::result_line(
            names,
            &metrics,
            correct,
            outcome.attempted.max(1),
            outcome.failed
        )
    );
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("swift-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    // Every workload runs even after one fails, so a failure is seen whole.
    let failures = selected
        .iter()
        .filter(|name| !run_workload(&args, name))
        .count();
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
