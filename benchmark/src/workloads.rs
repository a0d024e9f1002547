//! The benchmark's workloads: a routing table plus a fixed list of *cycles*.
//!
//! A cycle is one failure burst on one session followed by its recovery (the
//! original route of every prefix the burst touched is announced again), so
//! after a cycle the engines, the RIB mirror and the forwarding table are back
//! where they started and the same list can be replayed round after round on
//! one long-lived runtime. Cycle `k` of round 0 lives in the virtual-time slot
//! `[k, k + 1) × CYCLE_SPAN`; later rounds shift every timestamp forward by
//! whole rounds ([`Workload::round_shift`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use swift_bgp::{
    AsLink, AsPath, ElementaryEvent, PeerId, Prefix, RouteAttributes, RoutingTable, Timestamp,
    MILLISECOND, SECOND,
};
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig};
use swift_runtime::RuntimeConfig;
use swift_traces::corpus::{Corpus, TraceConfig};
use swift_traces::soak::{SoakConfig, SoakReplay};
use swift_traces::{BurstSizeModel, MultiSessionConfig, MultiSessionTrace};

/// Every workload, in the order they are reported.
pub const WORKLOADS: [&str; 4] = [
    "corpus_inline",
    "bigtable_inline",
    "corpus_sharded",
    "pathchange_inline",
];

/// Virtual time reserved for one cycle: far longer than the slowest burst
/// plus its recovery, so every burst has closed before the next one starts.
pub const CYCLE_SPAN: Timestamp = 3_600 * SECOND;
/// Silence between a burst's last event and its recovery (and after it): six
/// detection windows, so the first recovery announcement closes the burst.
const QUIET: Timestamp = 60 * SECOND;
/// Spacing of recovery announcements.
const RECOVERY_GAP: Timestamp = 100;

/// Table and threshold scale. `Smoke` divides every table size and every
/// SWIFT threshold by 50; it exists for the crate's tests and is never
/// reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The reported scale.
    Full,
    /// Tables and thresholds ÷ 50.
    Smoke,
}

impl Scale {
    fn div(self) -> usize {
        match self {
            Scale::Full => 1,
            Scale::Smoke => 50,
        }
    }
}

/// One failure burst and the announcements that undo it.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// The session the burst arrives on.
    pub peer: PeerId,
    /// The link whose failure the generator simulated.
    pub failed_link: AsLink,
    /// The burst's events, round-0 timestamps.
    pub burst: Vec<ElementaryEvent>,
    /// The recovery announcements, round-0 timestamps.
    pub recovery: Vec<ElementaryEvent>,
}

/// A generated workload.
#[derive(Debug)]
pub struct Workload {
    /// The workload's name (one of [`WORKLOADS`]).
    pub name: &'static str,
    /// SWIFT configuration (the paper's defaults at full scale).
    pub swift: SwiftConfig,
    /// Runtime mode the end-to-end run uses.
    pub runtime: RuntimeConfig,
    /// The vantage router's table before any event.
    pub table: RoutingTable,
    /// The cycles of one round.
    pub cycles: Vec<Cycle>,
    /// Measured rounds of an untraced run: a constant of the workload, sized
    /// so that they take about `run_seconds` of `BENCHMARK.json` on the
    /// 2-vCPU box the bounds were set on.
    pub rounds: usize,
    /// Session torn down and re-registered once per traced round (`None`
    /// where a flap would cost seconds per round).
    pub flap: Option<PeerId>,
}

impl Workload {
    /// Timestamp shift of round `round` relative to round 0.
    pub fn round_shift(&self, round: usize) -> Timestamp {
        (round * self.cycles.len()) as Timestamp * CYCLE_SPAN
    }

    /// The cycle a round-relative or absolute timestamp falls into.
    pub fn cycle_of(&self, time: Timestamp) -> (usize, usize) {
        let slot = (time / CYCLE_SPAN) as usize;
        (slot / self.cycles.len(), slot % self.cycles.len())
    }

    /// Burst events of one round.
    pub fn burst_events(&self) -> usize {
        self.cycles.iter().map(|c| c.burst.len()).sum()
    }

    /// Recovery events of one round.
    pub fn recovery_events(&self) -> usize {
        self.cycles.iter().map(|c| c.recovery.len()).sum()
    }
}

/// `event` with its timestamp moved forward by `dt`.
pub fn shifted(event: &ElementaryEvent, dt: Timestamp) -> ElementaryEvent {
    let mut event = event.clone();
    retime(&mut event, |t| t + dt);
    event
}

fn retime(event: &mut ElementaryEvent, f: impl Fn(Timestamp) -> Timestamp) {
    match event {
        ElementaryEvent::Announce { timestamp, .. }
        | ElementaryEvent::Withdraw { timestamp, .. } => *timestamp = f(*timestamp),
    }
}

/// Generates `name` from `seed`. Returns `None` for an unknown name.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    match name {
        "corpus_inline" => Some(corpus(
            "corpus_inline",
            RuntimeConfig::deterministic(),
            seed,
            scale,
        )),
        "corpus_sharded" => Some(corpus(
            "corpus_sharded",
            RuntimeConfig::sharded(1),
            seed,
            scale,
        )),
        "bigtable_inline" => Some(bigtable(seed, scale)),
        "pathchange_inline" => Some(pathchange(seed, scale)),
        _ => None,
    }
}

/// The paper's configuration, with every count threshold divided by `div`.
fn swift_config(div: usize) -> SwiftConfig {
    if div == 1 {
        return SwiftConfig::default();
    }
    let inference = InferenceConfig::default();
    let encoding = EncodingConfig::default();
    SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: inference.burst_start_threshold / div,
            burst_stop_threshold: (inference.burst_stop_threshold / div).max(1),
            triggering_threshold: inference.triggering_threshold / div,
            plausibility_table: inference
                .plausibility_table
                .iter()
                .map(|(received, cap)| (received / div, cap / div))
                .collect(),
            force_threshold: inference.force_threshold / div,
            ..inference
        },
        encoding: EncodingConfig {
            min_prefixes_per_link: encoding.min_prefixes_per_link / div,
            ..encoding
        },
    }
}

/// Places a burst (timestamps relative to its first event) into cycle slot
/// `k` and appends the announcements that restore the original routes.
fn cycle(
    k: usize,
    table: &RoutingTable,
    peer: PeerId,
    failed_link: AsLink,
    mut burst: Vec<ElementaryEvent>,
) -> Cycle {
    let rib = table
        .adj_rib_in(peer)
        .expect("burst session is in the table");
    let touched: BTreeSet<Prefix> = burst.iter().map(ElementaryEvent::prefix).collect();
    let base = k as Timestamp * CYCLE_SPAN;
    let end = burst.last().map_or(0, ElementaryEvent::timestamp);
    let recovery_start = base + end + QUIET;
    assert!(
        end + 2 * QUIET + touched.len() as Timestamp * RECOVERY_GAP < CYCLE_SPAN,
        "cycle {k} does not fit its virtual-time slot"
    );
    for event in &mut burst {
        retime(event, |t| t + base);
    }
    let recovery = touched
        .into_iter()
        .enumerate()
        .map(|(i, prefix)| ElementaryEvent::Announce {
            timestamp: recovery_start + i as Timestamp * RECOVERY_GAP,
            prefix,
            attrs: rib
                .get(&prefix)
                .expect("burst prefixes come from the table")
                .attrs
                .clone(),
        })
        .collect();
    Cycle {
        peer,
        failed_link,
        burst,
        recovery,
    }
}

/// `corpus_inline` / `corpus_sharded`: the trace corpus' month-of-churn shape
/// on small tables — 12 sessions × 20 000 prefixes, one cycle per catalogued
/// burst in start order (the first 96, so every seed replays the same number
/// of cycles).
fn corpus(name: &'static str, runtime: RuntimeConfig, seed: u64, scale: Scale) -> Workload {
    const CYCLES: usize = 96;
    let div = scale.div();
    let sizes = BurstSizeModel::default();
    let corpus = Corpus::generate(TraceConfig {
        num_peers: 12,
        table_size: 20_000 / div,
        bursts_per_peer_mean: 15.7,
        size_model: BurstSizeModel {
            min_size: sizes.min_size / div,
            max_size: sizes.max_size / div,
            ..sizes
        },
        seed: seed ^ 0x7ace_c0de,
        ..TraceConfig::default()
    });
    let table = SoakReplay::new(&corpus, SoakConfig::default()).vantage_table();
    let mut catalog: Vec<(Timestamp, usize, usize)> = (0..corpus.num_sessions())
        .flat_map(|s| {
            let bursts = &corpus.session_meta(s).bursts;
            bursts
                .iter()
                .enumerate()
                .map(move |(b, meta)| (meta.start, s, b))
        })
        .collect();
    catalog.sort_unstable();
    catalog.truncate(CYCLES);
    let ribs: Vec<_> = (0..corpus.num_sessions())
        .map(|s| corpus.session_rib(s))
        .collect();
    let cycles = catalog
        .iter()
        .enumerate()
        .map(|(k, &(_, s, b))| {
            let meta = &corpus.session_meta(s).bursts[b];
            let burst = corpus.materialize_burst(&ribs[s], meta);
            let mut events: Vec<ElementaryEvent> = burst.stream.elementary_events().collect();
            let start = events.first().map_or(0, ElementaryEvent::timestamp);
            for event in &mut events {
                retime(event, |t| t - start);
            }
            cycle(k, &table, meta.peer, burst.failed_link, events)
        })
        .collect();
    Workload {
        name,
        swift: swift_config(div),
        runtime,
        table,
        cycles,
        rounds: 14,
        flap: Some(PeerId(1)),
    }
}

/// Each second-hop link of `peer`'s table with the prefixes routed over it,
/// heaviest first.
fn links_by_weight(table: &RoutingTable, peer: PeerId) -> Vec<(AsLink, Vec<Prefix>)> {
    let mut groups: BTreeMap<AsLink, Vec<Prefix>> = BTreeMap::new();
    let rib = table.adj_rib_in(peer).expect("session is in the table");
    for (prefix, route) in rib.iter() {
        if let Some(link) = route.as_path().link_at_position(1) {
            groups.entry(link).or_default().push(*prefix);
        }
    }
    let mut groups: Vec<_> = groups.into_iter().collect();
    groups.sort_by_key(|(link, prefixes)| (Reverse(prefixes.len()), *link));
    groups
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `bigtable_inline`: one session holding a full-Internet-sized table; each
/// cycle fails one second-hop link and withdraws 80 % of its prefixes (at
/// most 22 000, just past the 20 000-withdrawal force threshold) in seeded
/// order. The twelve links are spread over the Zipf ranks so that the history
/// model rejects between zero and seven attempts before the reroute.
fn bigtable(seed: u64, scale: Scale) -> Workload {
    const RANKS: [usize; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40];
    let div = scale.div();
    let peer = PeerId(1);
    let table = MultiSessionTrace::generate(&MultiSessionConfig {
        sessions: 1,
        prefixes_per_session: 1_000_000 / div,
        burst_size: 0,
        backup_coverage: 0.95,
        seed: seed ^ 0x5ca1_ab1e,
        ..MultiSessionConfig::default()
    })
    .table;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb16_7ab1e);
    let mut links = links_by_weight(&table, peer);
    let ranks = links.len();
    let cycles = RANKS
        .iter()
        .filter(|rank| **rank <= ranks)
        .enumerate()
        .map(|(k, rank)| {
            let (link, prefixes) = &mut links[rank - 1];
            let (link, mut prefixes) = (*link, std::mem::take(prefixes));
            shuffle(&mut prefixes, &mut rng);
            prefixes.truncate((prefixes.len() * 4 / 5).min(22_000 / div));
            let burst = prefixes
                .into_iter()
                .enumerate()
                .map(|(i, prefix)| ElementaryEvent::Withdraw {
                    timestamp: i as Timestamp * MILLISECOND,
                    prefix,
                })
                .collect();
            cycle(k, &table, peer, link, burst)
        })
        .collect();
    Workload {
        name: "bigtable_inline",
        swift: swift_config(div),
        runtime: RuntimeConfig::deterministic(),
        table,
        cycles,
        rounds: 10,
        flap: None,
    }
}

/// `pathchange_inline`: 4 sessions × 100 000 prefixes; each cycle fails one
/// of a session's three heaviest links, withdrawing 40 % of its prefixes and
/// re-announcing the other 60 % over a path that avoids the link, interleaved
/// (at most 25 000 events). At 40 % even the third-heaviest link (~7 800
/// prefixes) passes the 2 500-withdrawal trigger, so all twelve cycles
/// reroute and the median reroute sits inside a cluster of like cycles
/// instead of in the gap between two.
fn pathchange(seed: u64, scale: Scale) -> Workload {
    const SESSIONS: usize = 4;
    const LINKS_PER_SESSION: usize = 3;
    let div = scale.div();
    let table = MultiSessionTrace::generate(&MultiSessionConfig {
        sessions: SESSIONS,
        prefixes_per_session: 100_000 / div,
        burst_size: 0,
        backup_coverage: 0.95,
        seed: seed ^ 0x9a7c_4a96,
        ..MultiSessionConfig::default()
    })
    .table;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0de7_0042);
    let heaviest: Vec<Vec<(AsLink, Vec<Prefix>)>> = (1..=SESSIONS as u32)
        .map(|s| {
            let mut links = links_by_weight(&table, PeerId(s));
            links.truncate(LINKS_PER_SESSION);
            links
        })
        .collect();
    let mut cycles = Vec::with_capacity(SESSIONS * LINKS_PER_SESSION);
    for rank in 0..LINKS_PER_SESSION {
        for (s, links) in heaviest.iter().enumerate() {
            let Some((link, prefixes)) = links.get(rank) else {
                continue;
            };
            let peer = PeerId(s as u32 + 1);
            let rib = table.adj_rib_in(peer).expect("session is in the table");
            let mut prefixes = prefixes.clone();
            shuffle(&mut prefixes, &mut rng);
            prefixes.truncate(25_000 / div);
            let burst = prefixes
                .into_iter()
                .enumerate()
                .map(|(i, prefix)| {
                    let timestamp = i as Timestamp * MILLISECOND;
                    if i % 5 < 2 {
                        return ElementaryEvent::Withdraw { timestamp, prefix };
                    }
                    let original = rib.get(&prefix).expect("prefix from the table").as_path();
                    let detour = [
                        link.from.value(),
                        9_500_000 + s as u32,
                        original
                            .origin()
                            .expect("table paths are non-empty")
                            .value(),
                    ];
                    let mut attrs = RouteAttributes::from_path(AsPath::new(detour));
                    attrs.local_pref = Some(200);
                    ElementaryEvent::Announce {
                        timestamp,
                        prefix,
                        attrs,
                    }
                })
                .collect();
            cycles.push(cycle(cycles.len(), &table, peer, *link, burst));
        }
    }
    Workload {
        name: "pathchange_inline",
        swift: swift_config(div),
        runtime: RuntimeConfig::deterministic(),
        table,
        cycles,
        rounds: 20,
        flap: Some(PeerId(1)),
    }
}
