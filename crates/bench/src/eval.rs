//! The paper's artefacts as records, behind `swift-bench eval [artefact…]`
//! and the tier-1 pin test (`tests/eval.rs`, `expected/eval.txt`). Counts
//! are integers, shares exact ratios of two counts; no statistic is recorded
//! over an empty sample. [`PAPER`] holds each number the paper reports and,
//! for each one missed at paper scale, its [`Cause`].
//!
//! **Scaling** ([`EvalInputs::paper`]): 60 trace sessions instead of 213,
//! 30k-prefix tables instead of full Internet tables and bursts capped at half
//! the table, with the paper's size, rate, shape and popularity distributions.
//! The tables are ~10× smaller, so Table 2's 15k size split is applied at 10k.
//! Fig. 2 reads only the catalog, which keeps all 213 sessions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;
use std::collections::HashSet;
use swift_bgp::{AsLink, Asn, ElementaryEvent, MessageStream, PeerId, Prefix, PrefixSet, SECOND};
use swift_core::encoding::{ReroutingPolicy, TwoStageTable};
use swift_core::inference::InferenceEngine;
use swift_core::metrics::Quadrant::{Bad, Good, Overestimate, Underestimate};
use swift_core::metrics::{percentile, Classification};
use swift_core::{EncodingConfig, InferenceConfig};
use swift_traces::dataplane::{
    pick_probes, swifted_convergence, vanilla_convergence, FibCostModel,
};
use swift_traces::sim::Engine;
use swift_traces::topology::{Topology, TopologyConfig};
use swift_traces::{Corpus, LabelledBurst, TraceConfig};
use Cause::{Generator, Model, Open, Scale};
use Tolerance::{Abs, AtLeast, AtMost, Rel};

use crate::{evaluate_burst, BurstEvaluation};

/// One number an artefact produces.
#[derive(Debug, PartialEq)]
pub struct EvalRecord {
    /// The artefact, one of [`artefacts`].
    pub artefact: &'static str,
    /// What the number measures, e.g. `b.good_share` or `bgp_s.p50`.
    pub metric: String,
    /// The value.
    pub value: f64,
}

/// The sizes the artefacts run at.
#[derive(Debug)]
pub struct EvalInputs {
    /// The trace corpus of Fig. 6, Table 2, Fig. 7 and Fig. 8.
    pub trace: TraceConfig,
    /// The burst size from which Table 2 and Fig. 7 count a burst as large.
    pub large_burst: usize,
    /// Table 1's outage sizes; Fig. 9 replays the last one.
    pub outages: Vec<u32>,
    /// The simulator validation's topology.
    pub topology: TopologyConfig,
    /// The bursts the simulator validation collects, in ≤ 10 attempts each.
    pub sim_bursts: usize,
    /// The fewest withdrawals a simulated burst has, and the number after
    /// which its early inference runs.
    pub sim_threshold: usize,
    /// Unrelated withdrawals merged into each noisy simulated burst.
    pub sim_noise: usize,
}

impl EvalInputs {
    /// The paper-scale inputs, the only ones the CLI runs.
    pub fn paper() -> Self {
        EvalInputs {
            trace: TraceConfig {
                num_peers: 60,
                table_size: 30_000,
                bursts_per_peer_mean: 12.0,
                seed: 0x51f7_2017,
                ..TraceConfig::default()
            },
            large_burst: 10_000,
            outages: vec![10_000, 50_000, 100_000, 290_000],
            topology: TopologyConfig {
                num_ases: 400,
                prefixes_per_as: 10,
                seed: 0x5117,
                ..Default::default()
            },
            sim_bursts: 60,
            sim_threshold: 200,
            sim_noise: 200,
        }
    }
}

/// How far a value may be from the paper's and still meet it.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// Within this fraction of the paper's value.
    Rel(f64),
    /// Within this distance of the paper's value.
    Abs(f64),
    /// At least the paper's value.
    AtLeast,
    /// At most the paper's value.
    AtMost,
}

impl Tolerance {
    /// Whether `value` meets `paper`.
    pub fn admits(self, paper: f64, value: f64) -> bool {
        match self {
            Rel(r) => (value - paper).abs() <= r * paper.abs(),
            Abs(a) => (value - paper).abs() <= a,
            AtLeast => value >= paper,
            AtMost => value <= paper,
        }
    }
}

/// Why this code misses a paper number, as far as it is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The artefact grades the trace generator's own catalog, not a
    /// measurement of the streams it produces.
    Generator,
    /// An input-model choice: one failed link per burst, the
    /// partial-withdrawal model or the noise draw.
    Model,
    /// No input at paper scale reaches the row's threshold.
    Scale,
    /// SWIFT's inference gets it wrong.
    Swift,
    /// Not known yet.
    Open,
}

/// A number the paper reports: `(artefact, metric, value, tolerance,
/// source, cause)`; a row met at paper scale has no cause.
pub type PaperRow = (
    &'static str,
    &'static str,
    f64,
    Tolerance,
    &'static str,
    Option<Cause>,
);

/// Every number the paper reports that an artefact measures.
#[rustfmt::skip]
pub const PAPER: &[PaperRow] = &[
    ("table1", "w10000.downtime_s", 3.8, Rel(0.03), "§2.1.2 Table 1", None),
    ("table1", "w50000.downtime_s", 19.0, Rel(0.03), "§2.1.2 Table 1", None),
    ("table1", "w100000.downtime_s", 37.9, Rel(0.03), "§2.1.2 Table 1", None),
    ("table1", "w290000.downtime_s", 109.0, Rel(0.03), "§2.1.2 Table 1", None),
    ("fig2a", "sessions30.min5000.p50", 104.0, Rel(0.1), "§2.2.1 Fig. 2(a)", Some(Generator)),
    ("fig2a", "sessions30.min25000.p50", 33.0, Rel(0.1), "§2.2.1 Fig. 2(a)", None),
    ("fig2b", "over_10s_share", 0.37, Abs(0.05), "§2.2.1 Fig. 2(b)", Some(Generator)),
    ("fig2b", "over_30s_share", 0.097, Abs(0.05), "§2.2.1 Fig. 2(b)", Some(Generator)),
    ("fig2b", "middle_ge26_share", 0.5, Abs(0.05), "§2.2.1", None),
    ("fig2b", "tail_ge10_share", 0.5, Abs(0.05), "§2.2.1", Some(Generator)),
    ("fig2b", "tail_ge32_share", 0.25, Abs(0.05), "§2.2.1", Some(Generator)),
    ("fig2b", "popular_share", 0.84, Abs(0.05), "§2.2.1", None),
    ("fig6", "a.good_share", 0.758, Abs(0.05), "§6.2.1 Fig. 6(a)", Some(Model)),
    ("fig6", "a.overestimate_share", 0.119, Abs(0.05), "§6.2.1 Fig. 6(a)", Some(Model)),
    ("fig6", "a.underestimate_share", 0.123, Abs(0.05), "§6.2.1 Fig. 6(a)", Some(Model)),
    ("fig6", "a.bad_share", 0.0, Abs(0.05), "§6.2.1 Fig. 6(a)", None),
    ("fig6", "b.good_share", 0.851, Abs(0.05), "§6.2.1 Fig. 6(b)", Some(Model)),
    ("fig6", "b.overestimate_share", 0.053, Abs(0.05), "§6.2.1 Fig. 6(b)", Some(Model)),
    ("fig6", "b.underestimate_share", 0.096, Abs(0.05), "§6.2.1 Fig. 6(b)", Some(Model)),
    ("fig6", "b.bad_share", 0.0, Abs(0.05), "§6.2.1 Fig. 6(b)", None),
    ("table2", "small.cpr.p50", 0.895, Abs(0.05), "§6.3.1 Table 2", Some(Model)),
    ("table2", "large.cpr.p50", 0.93, Abs(0.05), "§6.3.1 Table 2", Some(Scale)),
    ("table2", "small.fpr.p50", 0.0022, Abs(0.005), "§6.3.1 Table 2", Some(Model)),
    ("table2", "large.fpr.p50", 0.006, Abs(0.005), "§6.3.1 Table 2", Some(Scale)),
    ("fig7", "all.p50", 0.987, Abs(0.05), "§6.4 Fig. 7, 18 bits", None),
    ("fig7", "all.mean", 0.739, Abs(0.05), "§6.4 Fig. 7, 18 bits", Some(Open)),
    ("fig7", "large.mean", 0.84, Abs(0.05), "§6.4 Fig. 7, 18 bits", Some(Scale)),
    ("fig8", "swift_s.p50", 2.0, Rel(0.25), "§6.5 Fig. 8", Some(Open)),
    ("fig8", "swift_s.p75", 9.0, Rel(0.25), "§6.5 Fig. 8", Some(Open)),
    ("fig8", "bgp_s.p50", 13.0, Rel(0.25), "§6.5 Fig. 8", Some(Open)),
    ("fig8", "bgp_s.p75", 32.0, Rel(0.25), "§6.5 Fig. 8", Some(Open)),
    ("fig8", "links.p50", 4.0, Rel(0.25), "§6.5", Some(Model)),
    ("fig8", "links.p90", 29.0, Rel(0.25), "§6.5", Some(Model)),
    ("fig9", "vanilla_s", 109.0, Rel(0.03), "§7 Fig. 9(a)", None),
    ("fig9", "swifted_s", 2.0, AtMost, "§7 Fig. 9(a)", None),
    ("fig9", "reduction", 0.98, AtLeast, "§7", None),
    ("sim", "clean.end.contains_share", 1.0, AtLeast, "§6.2.2", None),
    ("sim", "noisy.end.exact_share", 0.91, Abs(0.05), "§6.2.2", Some(Model)),
    ("sim", "noisy.end.superset_share", 0.09, Abs(0.05), "§6.2.2", Some(Model)),
    ("sim", "clean.early.shares_endpoint_share", 1.0, Abs(0.05), "§6.3.2: all bursts but one", None),
    ("sim", "clean.early.cpr.p50", 0.88, Abs(0.05), "§6.3.2", Some(Open)),
];

/// `row`'s record value, if any, and verdict: `met`, `missed`, or
/// `missed: no record`.
pub fn verdict(row: &PaperRow, records: &[EvalRecord]) -> (Option<f64>, &'static str) {
    let (artefact, metric, paper, tolerance, ..) = *row;
    let found = records
        .iter()
        .find(|r| r.artefact == artefact && r.metric == metric);
    let value = found.map(|r| r.value);
    let verdict = match value {
        None => "missed: no record",
        Some(v) if tolerance.admits(paper, v) => "met",
        Some(_) => "missed",
    };
    (value, verdict)
}

type Artefact = (&'static str, fn(&Ctx<'_>, &mut Out));

const ARTEFACTS: [Artefact; 9] = [
    ("table1", table1),
    ("fig2a", fig2a),
    ("fig2b", fig2b),
    ("fig6", fig6),
    ("table2", table2),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("sim", sim),
];

/// The artefacts, in the order [`run`] evaluates them.
pub fn artefacts() -> impl Iterator<Item = &'static str> {
    ARTEFACTS.iter().map(|(name, _)| *name)
}

/// Evaluates the named artefacts, all of them when `names` is empty; fails
/// before evaluating anything if a name is unknown.
pub fn run(inputs: &EvalInputs, names: &[&str]) -> Result<Vec<EvalRecord>, String> {
    if let Some(bad) = names.iter().find(|n| !artefacts().any(|a| a == **n)) {
        let known = artefacts().collect::<Vec<_>>().join(", ");
        return Err(format!("unknown artefact `{bad}` (known: {known})"));
    }
    let ctx = Ctx {
        inputs,
        pass: OnceCell::new(),
    };
    let mut out = Out::default();
    for (name, artefact) in ARTEFACTS {
        if names.is_empty() || names.contains(&name) {
            out.artefact = name;
            artefact(&ctx, &mut out);
        }
    }
    Ok(out.records)
}

struct Ctx<'a> {
    inputs: &'a EvalInputs,
    pass: OnceCell<CorpusPass>,
}

impl Ctx<'_> {
    /// The corpus pass, computed on first use.
    fn pass(&self) -> &CorpusPass {
        self.pass.get_or_init(|| corpus_pass(self.inputs))
    }
}

/// Collects records under the current artefact's name.
#[derive(Default)]
struct Out {
    artefact: &'static str,
    records: Vec<EvalRecord>,
}

impl Out {
    fn put(&mut self, metric: impl Into<String>, value: f64) {
        let (artefact, metric) = (self.artefact, metric.into());
        self.records.push(EvalRecord {
            artefact,
            metric,
            value,
        });
    }

    fn share(&mut self, metric: &str, part: usize, whole: usize) {
        if whole > 0 {
            self.put(format!("{metric}_share"), part as f64 / whole as f64);
        }
    }

    fn mean(&mut self, metric: &str, values: &[f64]) {
        if !values.is_empty() {
            self.put(metric, values.iter().sum::<f64>() / values.len() as f64);
        }
    }

    fn percentiles(&mut self, metric: &str, values: &[f64], qs: &[f64]) {
        for &q in qs {
            if let Some(v) = percentile(values, q) {
                self.put(format!("{metric}.p{}", (q * 100.0).round()), v);
            }
        }
    }
}

fn seconds(t: u64) -> f64 {
    t as f64 / SECOND as f64
}

/// How many of `values` reach `min`.
fn at_least(values: impl Iterator<Item = f64>, min: f64) -> usize {
    values.filter(|v| *v >= min).count()
}

/// The catalog-only corpus of Fig. 2: cheap, since nothing is materialised.
fn catalog() -> Corpus {
    Corpus::generate(TraceConfig {
        seed: 0x51f7_2016,
        ..TraceConfig::default()
    })
}

/// Table 1 (§2.1.2): a vanilla router's downtime over 100 random probes.
fn table1(ctx: &Ctx<'_>, out: &mut Out) {
    for &n in &ctx.inputs.outages {
        let affected: Vec<Prefix> = (0..n).map(Prefix::nth_slash24).collect();
        let result = vanilla_convergence(&affected, &FibCostModel::default());
        let downtime = result.max_downtime(&pick_probes(&affected, 100, 0xbeef));
        out.put(format!("w{n}.downtime_s"), seconds(downtime));
    }
}

/// Fig. 2(a) (§2.2.1): bursts per month seen by a router with 1–30 sessions.
fn fig2a(_: &Ctx<'_>, out: &mut Out) {
    let corpus = catalog();
    let mut rng = StdRng::seed_from_u64(42);
    for sessions in [1usize, 5, 15, 30] {
        let mut counts = [5_000, 10_000, 25_000].map(|min| (min, Vec::new()));
        for _ in 0..500 {
            let mut chosen = HashSet::new();
            while chosen.len() < sessions {
                chosen.insert(rng.gen_range(0..corpus.num_sessions()));
            }
            let bursts = || chosen.iter().flat_map(|s| &corpus.session_meta(*s).bursts);
            for (min, c) in &mut counts {
                c.push(bursts().filter(|b| b.size >= *min).count() as f64);
            }
        }
        for (min, c) in counts {
            out.percentiles(&format!("sessions{sessions}.min{min}"), &c, &[0.5]);
        }
    }
}

/// Fig. 2(b) (§2.2.1): burst durations, shapes and popularity.
fn fig2b(_: &Ctx<'_>, out: &mut Out) {
    let corpus = catalog();
    let bursts: Vec<_> = corpus.all_bursts().collect();
    for (class, large) in [("small", false), ("large", true)] {
        let of_class = bursts.iter().filter(|b| (b.size >= 10_000) == large);
        let durations: Vec<f64> = of_class.map(|b| seconds(b.duration())).collect();
        let metric = format!("{class}.duration_s");
        out.percentiles(&metric, &durations, &[0.25, 0.5, 0.75, 0.9, 0.99]);
    }
    let n = bursts.len();
    let over = |s: u64| bursts.iter().filter(|b| b.duration() > s * SECOND).count();
    out.share("over_10s", over(10), n);
    out.share("over_30s", over(30), n);
    let middle = || bursts.iter().map(|b| b.shape.middle);
    let tail = || bursts.iter().map(|b| b.shape.tail);
    out.share("middle_ge26", at_least(middle(), 0.26), n);
    out.share("tail_ge10", at_least(tail(), 0.10), n);
    out.share("tail_ge32", at_least(tail(), 0.32), n);
    let popular = bursts.iter().filter(|b| b.includes_popular).count();
    out.share("popular", popular, n);
}

/// What the trace-driven artefacts read: one pass over the corpus that
/// materialises each session once and infers each burst once per config.
#[derive(Default)]
struct CorpusPass {
    /// The default configuration's evaluations.
    history: Vec<BurstEvaluation>,
    /// The evaluations with the history model off.
    no_history: Vec<BurstEvaluation>,
    /// `(burst size, encoding performance)` with the default 18-bit tags.
    encoding: Vec<(usize, f64)>,
    /// When SWIFT and BGP learn each withdrawal, in seconds into its burst.
    swift_s: Vec<f64>,
    bgp_s: Vec<f64>,
}

fn corpus_pass(inputs: &EvalInputs) -> CorpusPass {
    let corpus = Corpus::generate(inputs.trace.clone());
    let history = InferenceConfig::default();
    let no_history = InferenceConfig::without_history();
    let mut pass = CorpusPass::default();
    for s in 0..corpus.num_sessions() {
        let session = corpus.materialize_session(s);
        let table = session.routing_table();
        let policy = ReroutingPolicy::allow_all();
        let two_stage = TwoStageTable::build(&table, &EncodingConfig::default(), &policy);
        for burst in &session.bursts {
            let ungated = evaluate_burst(&session, burst, &no_history);
            pass.no_history.extend(ungated);
            let eval = evaluate_burst(&session, burst, &history);
            let start = burst.stream.start().unwrap_or(0);
            for ev in burst.stream.events() {
                if ev.is_withdraw() && burst.withdrawn.contains(&ev.prefix()) {
                    let bgp = seconds(ev.timestamp() - start);
                    let predicted = eval
                        .as_ref()
                        .filter(|e| e.predicted.prefixes().contains(&ev.prefix()));
                    let swift = predicted.map_or(bgp, |e| seconds(e.inference_delay).min(bgp));
                    pass.swift_s.push(swift);
                    pass.bgp_s.push(bgp);
                }
            }
            if let Some(e) = &eval {
                let perf = two_stage.encoding_performance(&table, e.predicted.prefixes(), &e.links);
                pass.encoding.push((e.burst_size, perf));
            }
            pass.history.extend(eval);
        }
    }
    pass
}

/// Fig. 6 (§6.2.1): localisation quadrants without (a) and with (b) the
/// history model.
fn fig6(ctx: &Ctx<'_>, out: &mut Out) {
    let pass = ctx.pass();
    for (label, evals) in [("a", &pass.no_history), ("b", &pass.history)] {
        out.put(format!("{label}.inferred"), evals.len() as f64);
        for q in [Good, Overestimate, Underestimate, Bad] {
            let n = evals.iter().filter(|e| e.localization.quadrant() == q);
            let name = format!("{label}.{q:?}").to_lowercase();
            out.share(&name, n.count(), evals.len());
        }
        let tpr: Vec<f64> = evals.iter().map(|e| e.localization.tpr()).collect();
        let fpr: Vec<f64> = evals.iter().map(|e| e.localization.fpr()).collect();
        out.percentiles(&format!("{label}.tpr"), &tpr, &[0.5]);
        out.percentiles(&format!("{label}.fpr"), &fpr, &[0.5]);
    }
}

/// Table 2 (§6.3.1): prediction accuracy by burst size, history model on.
fn table2(ctx: &Ctx<'_>, out: &mut Out) {
    let qs = [0.1, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9];
    type Column = fn(&BurstEvaluation) -> f64;
    let columns: [(&str, Column); 4] = [
        ("cpr", |e| e.prediction.tpr()),
        ("fpr", |e| e.prediction.fpr()),
        ("cp", |e| e.correctly_predicted as f64),
        ("fp", |e| e.falsely_predicted as f64),
    ];
    for (label, large) in [("small", false), ("large", true)] {
        let history = ctx.pass().history.iter();
        let evals: Vec<_> = history
            .filter(|e| (e.burst_size >= ctx.inputs.large_burst) == large)
            .collect();
        out.put(format!("{label}.bursts"), evals.len() as f64);
        for (name, column) in columns {
            let values: Vec<f64> = evals.iter().map(|e| column(e)).collect();
            out.percentiles(&format!("{label}.{name}"), &values, &qs);
        }
    }
}

/// Fig. 7 (§6.4): the share of predicted prefixes the 18-bit tags reroute.
fn fig7(ctx: &Ctx<'_>, out: &mut Out) {
    let encoding = &ctx.pass().encoding;
    let all: Vec<f64> = encoding.iter().map(|e| e.1).collect();
    let large = encoding.iter().filter(|e| e.0 >= ctx.inputs.large_burst);
    out.mean("all.mean", &all);
    out.percentiles("all", &all, &[0.5, 0.05, 0.95]);
    out.mean("large.mean", &large.map(|e| e.1).collect::<Vec<_>>());
}

/// Fig. 8 (§6.5): when SWIFT vs BGP learns each withdrawal, and the links an
/// inference names.
fn fig8(ctx: &Ctx<'_>, out: &mut Out) {
    let pass = ctx.pass();
    let qs = [0.25, 0.5, 0.75, 0.9, 0.99];
    out.percentiles("swift_s", &pass.swift_s, &qs);
    out.percentiles("bgp_s", &pass.bgp_s, &qs);
    let links: Vec<f64> = pass.history.iter().map(|e| e.links.len() as f64).collect();
    out.percentiles("links", &links, &[0.5, 0.9]);
}

/// Fig. 9 (§7): a vanilla vs a SWIFTED router on Table 1's largest outage.
fn fig9(ctx: &Ctx<'_>, out: &mut Out) {
    let cost = FibCostModel::default();
    let n = ctx.inputs.outages.last().copied().unwrap_or(0);
    let affected: Vec<Prefix> = (0..n).map(Prefix::nth_slash24).collect();
    let probes = pick_probes(&affected, 100, 0xcafe);
    let vanilla = vanilla_convergence(&affected, &cost);
    // SWIFT reroutes at its triggering threshold with one stage-2 rule per
    // backup next-hop (§6.5).
    let trigger = InferenceConfig::default().triggering_threshold;
    let rules = EncodingConfig::default().max_nexthops();
    let swifted = swifted_convergence(&affected, &[], trigger, rules, &cost);
    let (v, s) = (seconds(vanilla.completion), seconds(swifted.completion));
    out.put("vanilla_s", v);
    out.put("swifted_s", s);
    out.put("reduction", 1.0 - s / v);
    // Fig. 9(a)'s loss curves, read at each quarter of the vanilla time.
    for (router, result) in [("vanilla", &vanilla), ("swifted", &swifted)] {
        let series = result.loss_series(&probes);
        for quarter in 1..=4 {
            let t = vanilla.completion * quarter / 4;
            let before = series.iter().take_while(|p| p.0 <= t);
            out.put(
                format!("{router}.loss_q{quarter}"),
                before.last().map_or(1.0, |p| p.1),
            );
        }
    }
}

/// How inferred link sets relate to the failed link (§6.2.2, §6.3.2).
#[derive(Default)]
struct Tally {
    classes: Vec<&'static str>,
    shares_endpoint: usize,
    cpr: Vec<f64>,
    fpr: Vec<f64>,
}

impl Tally {
    fn add(&mut self, inferred: &[AsLink], failed: &AsLink) {
        let touches = |l: &AsLink| l.has_endpoint(failed.from) || l.has_endpoint(failed.to);
        let class = match inferred.iter().any(|l| l.same_undirected(failed)) {
            true if inferred.len() == 1 => "exact",
            true => "superset",
            false if !inferred.is_empty() && inferred.iter().all(touches) => "adjacent",
            false => "wrong",
        };
        self.classes.push(class);
        // Backups avoid every endpoint of every inferred link, so they avoid
        // the failed link when an inferred link shares one of its endpoints.
        self.shares_endpoint += usize::from(inferred.iter().any(touches));
    }

    fn record(&self, out: &mut Out, label: &str) {
        let n = self.classes.len();
        let count = |class| self.classes.iter().filter(|c| **c == class).count();
        for class in ["exact", "superset", "adjacent", "wrong"] {
            out.share(&format!("{label}.{class}"), count(class), n);
        }
        let contains = count("exact") + count("superset");
        out.share(&format!("{label}.contains"), contains, n);
        out.share(&format!("{label}.shares_endpoint"), self.shares_endpoint, n);
        out.percentiles(&format!("{label}.cpr"), &self.cpr, &[0.5]);
        out.percentiles(&format!("{label}.fpr"), &self.fpr, &[0.5]);
    }
}

/// §6.2.2 / §6.3.2: inference on simulated bursts of a known failed link, at
/// the end and after `sim_threshold` withdrawals, with and without noise.
fn sim(ctx: &Ctx<'_>, out: &mut Out) {
    let i = ctx.inputs;
    let mut base = Engine::new(Topology::generate(&i.topology));
    base.converge();
    let mut rng = StdRng::seed_from_u64(7);
    let mut tallies: [Tally; 4] = Default::default();
    let (mut bursts, mut attempts) = (0, 0);
    while bursts < i.sim_bursts && attempts < i.sim_bursts * 10 {
        attempts += 1;
        // A session, then a link carrying enough of its prefixes.
        let vantage = Asn(rng.gen_range(1..=i.topology.num_ases as u32));
        let neighbors: Vec<Asn> = base.topology().graph().neighbors(vantage).collect();
        if neighbors.is_empty() {
            continue;
        }
        let neighbor = neighbors[rng.gen_range(0..neighbors.len())];
        let table = base.vantage_routing_table(vantage);
        let peer = PeerId(neighbor.value());
        let Some(rib) = table.adj_rib_in(peer) else {
            continue;
        };
        let remote = |l: &AsLink| !l.has_endpoint(vantage) && !l.has_endpoint(neighbor);
        let counts = table.link_prefix_counts(peer).into_iter();
        let mut heavy: Vec<_> = counts
            .filter(|(l, c)| *c >= i.sim_threshold && remote(l))
            .collect();
        if heavy.is_empty() {
            continue;
        }
        heavy.sort();
        let link = heavy[rng.gen_range(0..heavy.len())].0;
        let mut engine = base.clone();
        engine.monitor_session(vantage, neighbor);
        engine.fail_link(link.from, link.to);
        let LabelledBurst {
            stream: clean,
            withdrawn,
            ..
        } = engine.take_burst(link, 1_000);
        if clean.total_withdrawals() < i.sim_threshold {
            continue;
        }
        bursts += 1;
        let unrelated = rib
            .iter()
            .filter(|(_, r)| !r.as_path().crosses_link_undirected(&link));
        let noise = unrelated.take(i.sim_noise).enumerate();
        let noise = noise.map(|(k, (p, _))| ElementaryEvent::Withdraw {
            timestamp: k as u64 * 2_000 + 500,
            prefix: *p,
        });
        let noisy = clean.merge(&MessageStream::from_events(noise.collect()));
        for (stream, tally) in [clean, noisy].iter().zip(tallies.chunks_mut(2)) {
            let paths = rib.views().map(|(p, r)| (p, r.as_path()));
            let mut engine = InferenceEngine::new(InferenceConfig::default(), paths);
            let (mut early, mut seen) = (None, 0);
            for ev in stream.events() {
                engine.process(ev);
                seen += usize::from(ev.is_withdraw());
                if ev.is_withdraw() && seen == i.sim_threshold {
                    early = Some(engine.force_infer(ev.timestamp()));
                }
            }
            let end = engine.force_infer(stream.end().unwrap_or(0));
            tally[0].add(&end.links.links, &link);
            if let Some(res) = early {
                tally[1].add(&res.links.links, &link);
                let already = res.prediction.already_withdrawn.prefixes();
                let future: PrefixSet = withdrawn
                    .iter()
                    .filter(|p| !already.contains(p))
                    .copied()
                    .collect();
                let predicted = res.prediction.predicted.prefixes();
                let c = Classification::from_sets(predicted, &future, rib.len());
                tally[1].cpr.push(c.tpr());
                tally[1].fpr.push(c.fpr());
            }
        }
    }
    out.put("bursts", bursts as f64);
    out.put("attempts", attempts as f64);
    let labels = ["clean.end", "clean.early", "noisy.end", "noisy.early"];
    for (label, tally) in labels.iter().zip(&tallies) {
        tally.record(out, label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_sample_yields_no_record() {
        let mut out = Out::default();
        out.mean("large.mean", &[]);
        out.percentiles("links", &[], &[0.5, 0.9]);
        out.share("popular", 0, 0);
        assert!(out.records.is_empty(), "{:?}", out.records);
        out.mean("all.mean", &[0.25, 0.75]);
        out.share("popular", 1, 4);
        out.percentiles("links", &[3.0], &[0.5]);
        let metrics: Vec<_> = out
            .records
            .iter()
            .map(|r| (r.metric.as_str(), r.value))
            .collect();
        assert_eq!(
            metrics,
            [
                ("all.mean", 0.5),
                ("popular_share", 0.25),
                ("links.p50", 3.0)
            ]
        );
    }

    #[test]
    fn corpus_evaluation_runs_end_to_end() {
        let trace = TraceConfig {
            num_peers: 2,
            table_size: 6_000,
            bursts_per_peer_mean: 2.0,
            ..TraceConfig::small()
        };
        let pass = corpus_pass(&EvalInputs {
            trace,
            ..EvalInputs::paper()
        });
        assert!(pass
            .history
            .iter()
            .chain(&pass.no_history)
            .all(|e| e.burst_size > 0));
        assert_eq!(pass.encoding.len(), pass.history.len());
        // SWIFT never learns a withdrawal later than BGP does.
        assert_eq!(pass.swift_s.len(), pass.bgp_s.len());
        assert!(pass.swift_s.iter().zip(&pass.bgp_s).all(|(s, b)| s <= b));
    }

    #[test]
    fn a_share_at_exactly_its_threshold_counts() {
        assert_eq!(at_least([0.1, 0.0999, 0.32, 0.5].into_iter(), 0.1), 3);
        assert_eq!(at_least([0.1, 0.0999, 0.32, 0.5].into_iter(), 0.32), 2);
    }
}
