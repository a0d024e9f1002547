//! The tier-1 pin of the paper artefacts: every artefact of
//! `swift_bench::eval` runs on scaled inputs and must reproduce
//! `expected/eval.json` exactly. On drift the test lists every differing
//! record, writes the full actual file next to the test binary and prints
//! the `cp` command that re-pins it. The paper-scale inputs are the CLI's
//! (`swift-bench eval`); only this file knows the scaled ones.

use std::path::Path;
use swift_bench::eval::{self, EvalInputs, EvalRecord, Tolerance, PAPER};
use swift_telemetry::{Json, JsonObject};
use swift_topology::TopologyConfig;
use swift_traces::TraceConfig;

const PINNED: &str = "expected/eval.json";

/// The paper's inputs scaled to run every artefact in a few seconds of a
/// debug build. The simulator's threshold scales down with its topology.
fn scaled() -> EvalInputs {
    let paper = EvalInputs::paper();
    EvalInputs {
        trace: TraceConfig {
            num_peers: 3,
            ..paper.trace
        },
        large_burst: 3_500,
        outages: vec![1_000, 10_000],
        topology: TopologyConfig {
            num_ases: 200,
            avg_degree: 2.6,
            ..paper.topology
        },
        sim_bursts: 10,
        sim_threshold: 50,
        sim_noise: 30,
    }
}

/// One record per line, values in Rust's shortest round-trip notation so
/// that reading them back is exact.
fn to_json(records: &[EvalRecord]) -> String {
    let lines: Vec<String> = (records.iter())
        .map(|r| {
            (JsonObject::new().str("artefact", r.artefact))
                .str("metric", &r.metric)
                .raw("value", &r.value.to_string())
                .finish()
        })
        .collect();
    format!("[\n{}\n]\n", lines.join(",\n"))
}

fn from_json(text: &str) -> Result<Vec<EvalRecord>, String> {
    let json = Json::parse(text)?;
    let items = json.as_array().ok_or("not an array")?;
    let field = |item: &Json, key: &str| item.get(key).cloned().ok_or(format!("no `{key}`"));
    (items.iter())
        .map(|item| {
            let name = field(item, "artefact")?;
            let name = name.as_str().ok_or("`artefact` is not a string")?;
            let artefact = eval::artefacts()
                .find(|a| *a == name)
                .ok_or(format!("unknown artefact `{name}`"))?;
            let metric = field(item, "metric")?;
            let metric = metric
                .as_str()
                .ok_or("`metric` is not a string")?
                .to_string();
            let value = field(item, "value")?
                .as_f64()
                .ok_or("`value` is not a number")?;
            Ok(EvalRecord {
                artefact,
                metric,
                value,
            })
        })
        .collect()
}

/// Every `(artefact, metric, pinned, actual)` that differs; `-` stands for
/// a record on one side only.
fn drift(pinned: &[EvalRecord], actual: &[EvalRecord]) -> Vec<String> {
    let find = |records: &[EvalRecord], r: &EvalRecord| {
        (records.iter())
            .find(|o| o.artefact == r.artefact && o.metric == r.metric)
            .map(|o| o.value)
    };
    let show = |v: Option<f64>| v.map_or("-".to_string(), |v| v.to_string());
    let mut keys: Vec<&EvalRecord> = pinned.iter().collect();
    keys.extend(actual.iter().filter(|r| find(pinned, r).is_none()));
    (keys.into_iter())
        .filter_map(|r| {
            let (p, a) = (find(pinned, r), find(actual, r));
            (p != a).then(|| {
                format!(
                    "{} {} pinned {} actual {}",
                    r.artefact,
                    r.metric,
                    show(p),
                    show(a)
                )
            })
        })
        .collect()
}

fn record(artefact: &'static str, metric: &str, value: f64) -> EvalRecord {
    EvalRecord {
        artefact,
        metric: metric.to_string(),
        value,
    }
}

#[test]
fn every_artefact_reproduces_its_pinned_values() {
    let actual = eval::run(&scaled(), &[]).expect("every artefact is known");
    let pinned = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(PINNED))
        .map_err(|e| e.to_string())
        .and_then(|text| from_json(&text));
    let drifted = match &pinned {
        Ok(pinned) => drift(pinned, &actual),
        Err(e) => vec![format!("{PINNED} is unreadable: {e}")],
    };
    if !drifted.is_empty() {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("eval.json");
        std::fs::write(&out, to_json(&actual)).expect("write the actual records");
        panic!(
            "{} records drifted from {PINNED}:\n  {}\nre-pin with: cp {} {}/{PINNED}",
            drifted.len(),
            drifted.join("\n  "),
            out.display(),
            env!("CARGO_MANIFEST_DIR"),
        );
    }
}

#[test]
fn records_survive_a_json_round_trip_exactly() {
    let records = vec![
        record("fig6", "b.good_share", 0.1 + 0.2),
        record("fig6", "b.inferred", 420.0),
        record("table1", "w10000.downtime_s", 3.800_127),
        record("sim", "clean.early.cpr.p50", 1.0 / 3.0),
        record("fig8", "links.p50", 1e-9),
    ];
    assert_eq!(from_json(&to_json(&records)), Ok(records));
    assert!(from_json(r#"[{"artefact": "exp_x", "metric": "m", "value": 1}]"#).is_err());
}

#[test]
fn the_drift_report_names_artefact_metric_pinned_and_actual() {
    let pinned = [
        record("fig9", "vanilla_s", 110.2),
        record("fig8", "links.p50", 1.0),
    ];
    let actual = [
        record("fig9", "vanilla_s", 110.25),
        record("fig7", "all.mean", 0.98),
    ];
    assert_eq!(
        drift(&pinned, &actual),
        [
            "fig9 vanilla_s pinned 110.2 actual 110.25",
            "fig8 links.p50 pinned 1 actual -",
            "fig7 all.mean pinned - actual 0.98",
        ]
    );
    assert!(drift(&actual, &actual).is_empty());
}

#[test]
fn a_paper_number_is_met_up_to_its_tolerance_and_missed_beyond() {
    assert!(Tolerance::Rel(0.03).admits(100.0, 103.0));
    assert!(!Tolerance::Rel(0.03).admits(100.0, 103.01));
    assert!(Tolerance::Abs(0.05).admits(0.5, 0.45));
    assert!(!Tolerance::Abs(0.05).admits(0.5, 0.4499));
    assert!(Tolerance::AtLeast.admits(0.98, 0.98) && !Tolerance::AtLeast.admits(0.98, 0.9799));
    assert!(Tolerance::AtMost.admits(2.0, 2.0) && !Tolerance::AtMost.admits(2.0, 2.0001));
    let row = PAPER
        .iter()
        .find(|r| r.1 == "vanilla_s")
        .expect("Fig. 9's row");
    let met = [record("fig9", "vanilla_s", 112.27)];
    assert_eq!(eval::verdict(row, &met), (Some(112.27), "met"));
    let missed = [record("fig9", "vanilla_s", 112.28)];
    assert_eq!(eval::verdict(row, &missed), (Some(112.28), "missed"));
    assert_eq!(eval::verdict(row, &[]), (None, "missed: no record"));
}

#[test]
fn paper_rows_name_known_artefacts_once() {
    for (i, row) in PAPER.iter().enumerate() {
        assert!(eval::artefacts().any(|a| a == row.0), "{row:?}");
        assert!(
            !PAPER[..i].iter().any(|o| (o.0, o.1) == (row.0, row.1)),
            "{row:?}"
        );
    }
    assert!(eval::run(&scaled(), &["fig10"]).is_err());
}
