//! The corpus's vantage router: one routing table holding every session's
//! primary routes plus two shared backup providers, the multi-session
//! analogue of [`crate::corpus::SessionTrace::routing_table`]. The repo
//! benchmark's corpus workloads replay their bursts against it.

use crate::corpus::Corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swift_bgp::{AsPath, Asn, PeerId, Route, RouteAttributes, RoutingTable};

/// First shared backup provider of the vantage router (alternate for ~95 % of
/// every session's prefixes).
pub const SOAK_BACKUP_A: PeerId = PeerId(900_001);

/// Second shared backup provider (~60 % coverage).
pub const SOAK_BACKUP_B: PeerId = PeerId(900_002);

/// Configuration of [`SoakReplay`]. It has no settings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoakConfig;

/// A corpus seen from its vantage router. Obtain with [`SoakReplay::new`].
#[derive(Debug, Clone)]
pub struct SoakReplay<'a> {
    corpus: &'a Corpus,
}

impl<'a> SoakReplay<'a> {
    /// The vantage router of `corpus`.
    pub fn new(corpus: &'a Corpus, _config: SoakConfig) -> Self {
        SoakReplay { corpus }
    }

    /// The vantage router's routing table: every session primary
    /// (LOCAL_PREF 200) plus the two shared backup providers
    /// ([`SOAK_BACKUP_A`], [`SOAK_BACKUP_B`]) whose synthetic paths avoid the
    /// sessions' AS hierarchies. Sessions are materialised one at a time;
    /// the table comes sealed ([`RoutingTable::seal`]).
    pub fn vantage_table(&self) -> RoutingTable {
        let mut table = RoutingTable::new();
        table.add_peer(SOAK_BACKUP_A, Asn(8_000_001));
        table.add_peer(SOAK_BACKUP_B, Asn(8_000_002));
        for idx in 0..self.corpus.num_sessions() {
            let meta = self.corpus.session_meta(idx);
            let (peer, rib) = (meta.peer, self.corpus.session_rib(idx));
            table.add_peer(peer, meta.peer_asn);
            let mut rng = StdRng::seed_from_u64(meta.seed ^ 0x50a6_cafe);
            for (prefix, path) in rib.rib.iter() {
                let mut attrs = RouteAttributes::from_path(path.clone());
                attrs.local_pref = Some(200);
                table.announce(peer, *prefix, Route::new(peer, attrs));
                if rng.gen_bool(0.95) {
                    let alt = AsPath::new([8_000_001u32, 8_100_000 + (prefix.addr() % 1_000)]);
                    table.announce(
                        SOAK_BACKUP_A,
                        *prefix,
                        Route::new(SOAK_BACKUP_A, RouteAttributes::from_path(alt)),
                    );
                }
                if rng.gen_bool(0.6) {
                    let alt = AsPath::new([8_000_002u32, 8_200_000 + (prefix.addr() % 1_000)]);
                    table.announce(
                        SOAK_BACKUP_B,
                        *prefix,
                        Route::new(SOAK_BACKUP_B, RouteAttributes::from_path(alt)),
                    );
                }
            }
        }
        table.seal();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::TraceConfig;

    fn small_corpus() -> Corpus {
        Corpus::generate(TraceConfig {
            num_peers: 4,
            table_size: 3_000,
            bursts_per_peer_mean: 3.0,
            ..TraceConfig::small()
        })
    }

    /// FNV-1a over every peer and every candidate route of every prefix, in
    /// the table's own order: equal digests mean the same announcements in
    /// the same sequence.
    fn table_digest(table: &RoutingTable) -> String {
        let mut text = String::new();
        for (peer, asn) in table.peers() {
            text.push_str(&format!("peer {} {asn}\n", peer.0));
        }
        for id in table.ids() {
            text.push_str(&table.prefix_of(id).to_string());
            for route in table.candidates_by_id(id) {
                let a = &route.attrs;
                text.push_str(&format!(
                    " | {} {} {} {:?} {:?}",
                    route.peer.0, a.as_path, a.origin, a.local_pref, a.med
                ));
            }
            text.push('\n');
        }
        let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{hash:016x}")
    }

    #[test]
    fn vantage_table_covers_every_session_with_backups() {
        let corpus = small_corpus();
        let table = SoakReplay::new(&corpus, SoakConfig).vantage_table();
        // Pinned: the benchmark's corpus workloads replay against this table,
        // so any change to it fails here before it moves their digests.
        assert_eq!(table_digest(&table), "2257a9f859f86048");
        assert_eq!(table.peer_count(), corpus.num_sessions() + 2);
        let mut total = 0usize;
        for idx in 0..corpus.num_sessions() {
            let peer = corpus.session_meta(idx).peer;
            let rib = table.adj_rib_in(peer).unwrap();
            assert!(!rib.is_empty());
            total += rib.len();
            // Sessions are primary for their own prefixes (LOCAL_PREF 200).
            let (prefix, _) = rib.iter().next().unwrap();
            assert_eq!(table.best(prefix).unwrap().peer, peer);
        }
        // Disjoint per-session prefix spaces: the Loc-RIB holds every
        // session's whole table.
        assert_eq!(table.prefix_count(), total);
        // The shared backups cover most prefixes.
        let backup_a = table.adj_rib_in(SOAK_BACKUP_A).unwrap().len();
        assert!(
            backup_a * 100 >= total * 90,
            "~95 % coverage expected, got {backup_a}/{total}"
        );
    }
}
