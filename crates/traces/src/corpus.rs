//! The synthetic trace corpus: a month of BGP activity over 213 peering
//! sessions, standing in for the RouteViews / RIPE RIS dataset of §2.2.1/§6.1.
//!
//! The corpus is generated in two steps to keep memory bounded:
//!
//! 1. [`Corpus::generate`] draws the *catalog*: for every session, the list of
//!    bursts with their size, rate, start time, intra-burst shape and
//!    popularity flag (cheap, no prefixes materialised);
//! 2. [`Corpus::materialize_session`] expands one session into its Adj-RIB-In
//!    and per-burst [`MessageStream`]s (withdrawals, interleaved path updates,
//!    background noise), deterministically from the catalog.

use crate::model::{BurstRateModel, BurstShape, BurstSizeModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use swift_bgp::{
    AsLink, AsPath, Asn, BgpMessage, InternedRib, MessageStream, PeerId, Prefix, PrefixSet, Route,
    RouteAttributes, RoutingTable, Timestamp, SECOND,
};

/// Configuration of the corpus generator. Defaults approximate the paper's
/// November-2016 dataset (scaled table size; see DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of peering sessions (paper: 213).
    pub num_peers: usize,
    /// Prefixes announced on each session.
    pub table_size: usize,
    /// Mean number of bursts (≥ 1,500 withdrawals) per session per month
    /// (paper: 3,335 bursts over 213 sessions ≈ 15.7).
    pub bursts_per_peer_mean: f64,
    /// Length of the trace (paper: one month).
    pub duration: Timestamp,
    /// Mean background (noise) withdrawals per 10-second window.
    pub noise_per_window: f64,
    /// Fraction of bursts that must include "popular" prefixes (paper: 0.84).
    pub popular_burst_fraction: f64,
    /// Range of the fraction of a failed link's prefixes actually withdrawn
    /// (remote failures are often partial).
    pub withdrawn_fraction: (f64, f64),
    /// Fraction of the link's surviving prefixes re-announced with an
    /// alternate path during the burst.
    pub update_fraction: f64,
    /// Burst-size distribution.
    pub size_model: BurstSizeModel,
    /// Burst-rate distribution.
    pub rate_model: BurstRateModel,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            num_peers: 213,
            table_size: 50_000,
            bursts_per_peer_mean: 15.7,
            duration: 30 * 24 * 3600 * SECOND,
            noise_per_window: 1.0,
            popular_burst_fraction: 0.84,
            withdrawn_fraction: (0.6, 1.0),
            update_fraction: 0.3,
            size_model: BurstSizeModel::default(),
            rate_model: BurstRateModel::default(),
            seed: 0x7ace_c0de,
        }
    }
}

impl TraceConfig {
    /// A reduced corpus (fewer peers, smaller tables) for unit tests and quick
    /// experiment runs.
    pub fn small() -> Self {
        TraceConfig {
            num_peers: 8,
            table_size: 6_000,
            bursts_per_peer_mean: 4.0,
            size_model: BurstSizeModel {
                max_size: 20_000,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Catalog entry for one burst.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstMeta {
    /// The session the burst is observed on.
    pub peer: PeerId,
    /// Start time within the trace.
    pub start: Timestamp,
    /// Target number of withdrawals.
    pub size: usize,
    /// Withdrawal rate (withdrawals per second).
    pub rate: f64,
    /// Head/middle/tail split.
    pub shape: BurstShape,
    /// Whether the burst must touch popular prefixes.
    pub includes_popular: bool,
    /// Per-burst RNG seed used at materialisation time.
    pub seed: u64,
}

impl BurstMeta {
    /// The nominal duration of the burst.
    pub fn duration(&self) -> Timestamp {
        ((self.size as f64 / self.rate) * SECOND as f64) as Timestamp
    }
}

/// Catalog entry for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// The session / peer identifier (1-based).
    pub peer: PeerId,
    /// The peer's AS number.
    pub peer_asn: Asn,
    /// The bursts scheduled on this session.
    pub bursts: Vec<BurstMeta>,
    /// Per-session RNG seed used at materialisation time.
    pub seed: u64,
}

/// The corpus catalog.
#[derive(Debug, Clone)]
pub struct Corpus {
    config: TraceConfig,
    sessions: Vec<SessionMeta>,
}

/// One burst, fully materialised.
#[derive(Debug, Clone)]
pub struct MaterializedBurst {
    /// The catalog entry this burst was generated from.
    pub meta: BurstMeta,
    /// The link whose failure the burst simulates.
    pub failed_link: AsLink,
    /// The messages of the burst (withdrawals, updates, noise), time-ordered.
    pub stream: MessageStream,
    /// Prefixes withdrawn because of the failure.
    pub withdrawn: PrefixSet,
    /// Prefixes re-announced with an alternate path.
    pub updated: PrefixSet,
    /// Whether the burst touches popular prefixes.
    pub touches_popular: bool,
}

/// One session, fully materialised.
#[derive(Debug, Clone)]
pub struct SessionTrace {
    /// The session's catalog entry.
    pub meta: SessionMeta,
    /// The session's Adj-RIB-In at the start of the trace, with interned
    /// paths (replay consumers seed from it without cloning one `AsPath` per
    /// prefix — see [`InternedRib`]).
    pub rib: InternedRib,
    /// Prefixes considered "popular" (Umbrella-top-100-like origins).
    pub popular: PrefixSet,
    /// The session's bursts.
    pub bursts: Vec<MaterializedBurst>,
}

/// A freshly built Adj-RIB-In: the table itself, its popular prefixes and the
/// per-link prefix index used when materialising bursts.
type RibParts = (InternedRib, PrefixSet, BTreeMap<AsLink, Vec<Prefix>>);

/// Prefix-index spacing between sessions: session `k` announces prefixes
/// `[k * SPACING, k * SPACING + table_size)`. The spacing keeps every
/// session's prefix space disjoint *and* inside the injective range of
/// [`Prefix::nth_slash24`] (`i < 2^24 - 2^16`) for up to 254 sessions
/// (enforced by [`Corpus::generate`]) — a requirement of the corpus-wide
/// vantage table [`crate::SoakReplay::vantage_table`] builds, where all
/// sessions' RIBs coexist in one router.
pub const SESSION_PREFIX_SPACING: u32 = 65_536;

/// One session's materialised Adj-RIB-In plus the burst-building index — the
/// memory-lean handle [`Corpus::materialize_burst`] expands bursts from, so a
/// streaming replay can hold every session's RIB without holding any burst's
/// message stream.
#[derive(Debug, Clone)]
pub struct SessionRib {
    /// The session this RIB belongs to.
    pub peer: PeerId,
    /// The peer's AS number.
    pub peer_asn: Asn,
    /// The Adj-RIB-In (interned paths).
    pub rib: InternedRib,
    /// The session's popular prefixes.
    pub popular: PrefixSet,
    link_prefixes: BTreeMap<AsLink, Vec<Prefix>>,
}

impl Corpus {
    /// Draws the corpus catalog.
    pub fn generate(config: TraceConfig) -> Self {
        assert!(
            config.table_size <= SESSION_PREFIX_SPACING as usize,
            "table_size {} exceeds the per-session prefix space {SESSION_PREFIX_SPACING}",
            config.table_size
        );
        // Keep every session's block inside nth_slash24's injective range
        // (i < 2^24 - 2^16): the last session's top index is
        // num_peers * SPACING + SPACING - 1, which fits iff num_peers <= 254.
        assert!(
            config.num_peers <= 254,
            "num_peers {} would alias prefix spaces across sessions (max 254)",
            config.num_peers
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sessions = Vec::with_capacity(config.num_peers);
        for i in 0..config.num_peers {
            let peer = PeerId(i as u32 + 1);
            let peer_asn = Asn(10_000 + i as u32);
            // Poisson-ish burst count: geometric mixture around the mean.
            let mean = config.bursts_per_peer_mean;
            let count = if mean <= 0.0 {
                0
            } else {
                let jitter: f64 = rng.gen_range(0.3..1.7);
                (mean * jitter).round() as usize
            };
            let mut bursts = Vec::with_capacity(count);
            for _ in 0..count {
                let size = config
                    .size_model
                    .sample(&mut rng)
                    .min(config.table_size / 2);
                let meta = BurstMeta {
                    peer,
                    start: rng.gen_range(0..config.duration),
                    size,
                    rate: config.rate_model.sample(&mut rng),
                    shape: BurstShape::sample(&mut rng),
                    includes_popular: rng.gen_bool(config.popular_burst_fraction),
                    seed: rng.gen(),
                };
                bursts.push(meta);
            }
            bursts.sort_by_key(|b| b.start);
            sessions.push(SessionMeta {
                peer,
                peer_asn,
                bursts,
                seed: rng.gen(),
            });
        }
        Corpus { config, sessions }
    }

    /// The generator configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Number of sessions in the corpus.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The catalog of one session.
    pub fn session_meta(&self, idx: usize) -> &SessionMeta {
        &self.sessions[idx]
    }

    /// Iterates over every burst in the catalog.
    pub fn all_bursts(&self) -> impl Iterator<Item = &BurstMeta> {
        self.sessions.iter().flat_map(|s| s.bursts.iter())
    }

    /// Total number of bursts in the catalog.
    pub fn total_bursts(&self) -> usize {
        self.sessions.iter().map(|s| s.bursts.len()).sum()
    }

    /// Materialises one session's RIB (with the per-link index bursts are
    /// built from) **without** materialising any burst's message stream —
    /// bursts are then expanded one at a time with
    /// [`Corpus::materialize_burst`].
    pub fn session_rib(&self, idx: usize) -> SessionRib {
        let meta = &self.sessions[idx];
        let mut rng = StdRng::seed_from_u64(meta.seed);
        let (rib, popular, link_prefixes) = self.build_rib(meta, &mut rng);
        SessionRib {
            peer: meta.peer,
            peer_asn: meta.peer_asn,
            rib,
            popular,
            link_prefixes,
        }
    }

    /// Materialises one burst from its catalog entry and the session's
    /// already-built [`SessionRib`]. Deterministic from the catalog alone
    /// (each burst carries its own seed), so bursts can be expanded lazily,
    /// in any order, and dropped after replay.
    pub fn materialize_burst(&self, rib: &SessionRib, meta: &BurstMeta) -> MaterializedBurst {
        self.build_burst(meta, &rib.rib, &rib.popular, &rib.link_prefixes)
    }

    /// Materialises one session: its RIB and every burst's message stream.
    pub fn materialize_session(&self, idx: usize) -> SessionTrace {
        let meta = self.sessions[idx].clone();
        let session_rib = self.session_rib(idx);
        let bursts = meta
            .bursts
            .iter()
            .map(|b| self.materialize_burst(&session_rib, b))
            .collect();
        SessionTrace {
            meta,
            rib: session_rib.rib,
            popular: session_rib.popular,
            bursts,
        }
    }

    /// Builds the session's Adj-RIB-In: a shallow provider hierarchy behind the
    /// peer, with Zipf-weighted second hops so that a few links carry most
    /// prefixes (as in the real AS-level topology).
    fn build_rib(&self, meta: &SessionMeta, rng: &mut StdRng) -> RibParts {
        let n = self.config.table_size;
        let peer = meta.peer_asn;
        let base = 1_000_000 + meta.peer.0 * 5_000;
        let second_hops = 40usize;
        let children_per_hop = 6usize;

        // Zipf(1.0) weights over the second hops.
        let weights: Vec<f64> = (1..=second_hops).map(|k| 1.0 / k as f64).collect();
        let total_w: f64 = weights.iter().sum();
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total_w;
                Some(*acc)
            })
            .collect();

        let mut rib = InternedRib::new();
        let mut link_prefixes: BTreeMap<AsLink, Vec<Prefix>> = BTreeMap::new();
        // Disjoint per-session prefix spaces within nth_slash24's injective
        // range — see [`SESSION_PREFIX_SPACING`].
        let prefix_base = meta.peer.0 * SESSION_PREFIX_SPACING;

        for i in 0..n {
            let prefix = Prefix::nth_slash24(prefix_base + i as u32);
            let u: f64 = rng.gen_range(0.0..1.0);
            let h1_idx = cumulative.partition_point(|c| *c < u).min(second_hops - 1);
            let h1 = Asn(base + h1_idx as u32);
            let mut hops = vec![peer, h1];
            // Third hop (position 2 link) with probability 0.8.
            if rng.gen_bool(0.8) {
                let child = rng.gen_range(0..children_per_hop) as u32;
                let h2 = Asn(base + 1_000 + h1_idx as u32 * children_per_hop as u32 + child);
                hops.push(h2);
                // Fourth hop with probability 0.4.
                if rng.gen_bool(0.4) {
                    let h3 = Asn(base + 100_000 + rng.gen_range(0..2_000));
                    hops.push(h3);
                }
            }
            let path = AsPath::new(hops.iter().map(|a| a.value()));
            for link in path.links() {
                link_prefixes.entry(link).or_default().push(prefix);
            }
            // Interned: prefixes sharing a provider chain share one stored path.
            rib.push_owned(prefix, path);
        }

        // Popular prefixes: everything behind the heaviest second-hop link
        // (standing in for the Google/Akamai/... origins of the Umbrella list).
        let popular_link = AsLink::new(peer, Asn(base));
        let popular: PrefixSet = link_prefixes
            .get(&popular_link)
            .map(|v| v.iter().copied().collect())
            .unwrap_or_default();

        (rib, popular, link_prefixes)
    }

    /// Builds one burst from its catalog entry and the session RIB.
    fn build_burst(
        &self,
        meta: &BurstMeta,
        rib: &InternedRib,
        popular: &PrefixSet,
        link_prefixes: &BTreeMap<AsLink, Vec<Prefix>>,
    ) -> MaterializedBurst {
        let mut rng = StdRng::seed_from_u64(meta.seed);

        // Candidate failed links: those carrying enough prefixes to produce a
        // burst of roughly the catalogued size.
        let viable: Vec<(&AsLink, usize)> = link_prefixes
            .iter()
            .map(|(l, ps)| (l, ps.len()))
            .filter(|(_, c)| *c >= self.config.size_model.min_size.min(*c).max(1))
            .collect();
        let target = meta.size;
        let mut candidates: Vec<&AsLink> = viable
            .iter()
            .filter(|(_, c)| *c >= target)
            .map(|(l, _)| *l)
            .collect();
        if candidates.is_empty() {
            // Fall back to the largest link.
            let largest = viable
                .iter()
                .max_by_key(|(_, c)| *c)
                .map(|(l, _)| *l)
                .expect("non-empty RIB");
            candidates.push(largest);
        }
        // Popularity constraint: popular prefixes sit behind the heaviest link.
        if meta.includes_popular {
            let touching: Vec<&AsLink> = candidates
                .iter()
                .copied()
                .filter(|l| link_prefixes[l].iter().any(|p| popular.contains(p)))
                .collect();
            if !touching.is_empty() {
                candidates = touching;
            }
        }
        let failed_link = *candidates[rng.gen_range(0..candidates.len())];
        let on_link = &link_prefixes[&failed_link];

        // Withdraw a partial subset of the link's prefixes, sized to the target.
        let frac =
            rng.gen_range(self.config.withdrawn_fraction.0..=self.config.withdrawn_fraction.1);
        let max_withdraw = ((on_link.len() as f64) * frac) as usize;
        let withdraw_count = target.min(max_withdraw).max(1);
        let mut indices: Vec<usize> = (0..on_link.len()).collect();
        // Partial Fisher-Yates: pick `withdraw_count` distinct prefixes.
        for i in 0..withdraw_count.min(indices.len()) {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        let withdrawn: Vec<Prefix> = indices[..withdraw_count.min(indices.len())]
            .iter()
            .map(|i| on_link[*i])
            .collect();
        let withdrawn_set: PrefixSet = withdrawn.iter().copied().collect();

        // Some surviving prefixes on the link are re-announced over an
        // alternate path that avoids the failed link.
        let survivors: Vec<Prefix> = on_link
            .iter()
            .filter(|p| !withdrawn_set.contains(p))
            .copied()
            .collect();
        let update_count = ((survivors.len() as f64) * self.config.update_fraction) as usize;
        let updated: Vec<Prefix> = survivors.into_iter().take(update_count).collect();
        let updated_set: PrefixSet = updated.iter().copied().collect();
        let alternate_hop = Asn(9_000_000 + meta.peer.0);

        // Pace withdrawals and updates over the burst duration.
        let duration = meta.duration().max(SECOND);
        let mut messages: Vec<BgpMessage> = Vec::with_capacity(withdrawn.len() + updated.len());
        let total_events = withdrawn.len() + updated.len();
        let rib_paths: BTreeMap<Prefix, &AsPath> = rib.iter().map(|(p, a)| (*p, a)).collect();
        for (k, prefix) in withdrawn.iter().chain(updated.iter()).enumerate() {
            let q = (k as f64 + 0.5) / total_events as f64;
            let rel = meta.shape.time_of_fraction(q);
            let jitter = rng.gen_range(0..(duration / total_events as u64 + 1).max(1));
            let t = meta.start + (rel * duration as f64) as Timestamp + jitter;
            if withdrawn_set.contains(prefix) {
                messages.push(BgpMessage::withdraw(t, *prefix));
            } else {
                // Re-announce over a path that bypasses the failed link.
                let original = rib_paths.get(prefix).expect("prefix from rib");
                let hops: Vec<u32> = std::iter::once(
                    original
                        .first_hop()
                        .expect("rib paths are non-empty")
                        .value(),
                )
                .chain(std::iter::once(alternate_hop.value()))
                .chain(original.origin().map(|a| a.value()))
                .collect();
                messages.push(BgpMessage::announce(
                    t,
                    *prefix,
                    RouteAttributes::from_path(AsPath::new(hops)),
                ));
            }
        }

        // Background noise: withdrawals of unrelated prefixes.
        let windows = (duration / (10 * SECOND)).max(1);
        let noise_count = (windows as f64 * self.config.noise_per_window) as usize;
        for _ in 0..noise_count {
            let (p, path) = rib.get(rng.gen_range(0..rib.len()));
            if path.crosses_link(&failed_link) {
                continue;
            }
            let t = meta.start + rng.gen_range(0..duration);
            messages.push(BgpMessage::withdraw(t, p));
        }

        let touches_popular = withdrawn_set
            .iter()
            .chain(updated_set.iter())
            .any(|p| popular.contains(p));

        MaterializedBurst {
            meta: meta.clone(),
            failed_link,
            stream: MessageStream::from_messages(messages),
            withdrawn: withdrawn_set,
            updated: updated_set,
            touches_popular,
        }
    }
}

impl SessionTrace {
    /// Builds the vantage router's multi-peer [`RoutingTable`]: the monitored
    /// session (peer id 1, LOCAL_PREF 200 so it is the primary) plus two
    /// synthetic alternate providers whose paths avoid the monitored session's
    /// AS hierarchy entirely (peer ids 2 and 3). Peer 2 offers an alternate for
    /// ~95 % of the prefixes, peer 3 for ~60 %.
    pub fn routing_table(&self) -> RoutingTable {
        let mut table = RoutingTable::new();
        let monitored = PeerId(1);
        table.add_peer(monitored, self.meta.peer_asn);
        table.add_peer(PeerId(2), Asn(8_000_001));
        table.add_peer(PeerId(3), Asn(8_000_002));
        let mut rng = StdRng::seed_from_u64(self.meta.seed ^ 0xa17e_77a7);
        for (prefix, path) in self.rib.iter() {
            let mut attrs = RouteAttributes::from_path(path.clone());
            attrs.local_pref = Some(200);
            table.announce(monitored, *prefix, Route::new(monitored, attrs, 0));
            if rng.gen_bool(0.95) {
                let alt = AsPath::new([8_000_001u32, 8_100_000 + (prefix.addr() % 1_000)]);
                table.announce(
                    PeerId(2),
                    *prefix,
                    Route::new(PeerId(2), RouteAttributes::from_path(alt), 0),
                );
            }
            if rng.gen_bool(0.6) {
                let alt = AsPath::new([8_000_002u32, 8_200_000 + (prefix.addr() % 1_000)]);
                table.announce(
                    PeerId(3),
                    *prefix,
                    Route::new(PeerId(3), RouteAttributes::from_path(alt), 0),
                );
            }
        }
        table
    }

    /// The monitored session's peer id inside [`SessionTrace::routing_table`].
    pub fn monitored_peer(&self) -> PeerId {
        PeerId(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        Corpus::generate(TraceConfig {
            num_peers: 3,
            table_size: 4_000,
            bursts_per_peer_mean: 3.0,
            ..TraceConfig::small()
        })
    }

    #[test]
    fn catalog_has_expected_shape() {
        let corpus = small_corpus();
        assert_eq!(corpus.num_sessions(), 3);
        assert!(corpus.total_bursts() >= 3);
        for s in 0..corpus.num_sessions() {
            let meta = corpus.session_meta(s);
            assert_eq!(meta.peer, PeerId(s as u32 + 1));
            // Bursts sorted by start time and sized above the threshold.
            let mut last = 0;
            for b in &meta.bursts {
                assert!(b.start >= last);
                last = b.start;
                assert!(b.size >= 1_000, "burst size {}", b.size);
                assert!(b.duration() > 0);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_corpus();
        let b = small_corpus();
        assert_eq!(a.session_meta(0), b.session_meta(0));
        let sa = a.materialize_session(0);
        let sb = b.materialize_session(0);
        assert_eq!(sa.rib.len(), sb.rib.len());
        assert_eq!(sa.bursts.len(), sb.bursts.len());
        for (x, y) in sa.bursts.iter().zip(sb.bursts.iter()) {
            assert_eq!(x.failed_link, y.failed_link);
            assert_eq!(x.stream.len(), y.stream.len());
        }
    }

    #[test]
    fn materialized_session_is_consistent() {
        let corpus = small_corpus();
        let session = corpus.materialize_session(0);
        assert_eq!(session.rib.len(), 4_000);
        // All prefixes are distinct and all paths start with the peer AS.
        let distinct: std::collections::HashSet<_> = session.rib.iter().map(|(p, _)| *p).collect();
        assert_eq!(distinct.len(), 4_000);
        assert!(session
            .rib
            .iter()
            .all(|(_, path)| path.first_hop() == Some(session.meta.peer_asn)));
        assert!(!session.popular.is_empty());

        for burst in &session.bursts {
            assert!(!burst.withdrawn.is_empty());
            // Withdrawn prefixes all crossed the failed link in the RIB.
            for p in burst.withdrawn.iter().take(50) {
                let path = session.rib.iter().find(|(q, _)| *q == p).unwrap().1;
                assert!(path.crosses_link(&burst.failed_link));
            }
            // The stream contains at least the withdrawals.
            assert!(burst.stream.total_withdrawals() >= burst.withdrawn.len());
            // Updated prefixes are disjoint from withdrawn ones.
            assert_eq!(burst.withdrawn.intersection_len(&burst.updated), 0);
            // Stream is confined to the burst's time span (plus noise inside it).
            assert!(burst.stream.start().unwrap() >= burst.meta.start);
        }
    }

    #[test]
    fn popular_flag_influences_materialization() {
        let corpus = Corpus::generate(TraceConfig {
            num_peers: 2,
            table_size: 5_000,
            bursts_per_peer_mean: 10.0,
            popular_burst_fraction: 1.0,
            ..TraceConfig::small()
        });
        let session = corpus.materialize_session(0);
        let touching = session.bursts.iter().filter(|b| b.touches_popular).count();
        assert!(
            touching * 10 >= session.bursts.len() * 8,
            "{touching}/{} bursts touch popular prefixes",
            session.bursts.len()
        );
    }

    #[test]
    fn routing_table_has_alternates_and_primary_via_monitored_peer() {
        let corpus = small_corpus();
        let session = corpus.materialize_session(1);
        let table = session.routing_table();
        assert_eq!(table.peer_count(), 3);
        assert_eq!(table.prefix_count(), session.rib.len());
        // The monitored session is primary thanks to LOCAL_PREF.
        let some_prefix = session.rib.get(0).0;
        assert_eq!(
            table.best(&some_prefix).unwrap().peer,
            session.monitored_peer()
        );
        // A large majority of prefixes have at least one alternate.
        let with_alternate = session
            .rib
            .iter()
            .filter(|(p, _)| table.candidates(p).count() >= 2)
            .count();
        assert!(with_alternate as f64 >= 0.9 * session.rib.len() as f64);
    }
}
