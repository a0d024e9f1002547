//! Property test for applier sharding at the core level: the appliers
//! `partition_appliers` makes of a routing table behave, prefix for prefix,
//! like the single applier over the whole table.
//!
//! Each partition owns a *restricted* routing table that numbers its prefixes
//! on its own, and a stage 1 indexed by those ids — not by the global
//! table's. So after every step of a random announce / withdraw / resync /
//! session teardown / session registration sequence, every prefix must carry
//! the single applier's tag on its home partition and forward to the same
//! next-hop there, no sibling partition may know it, and the partitions'
//! stage-1 entries must add up to the single applier's. The steps draw from
//! prefixes the seed table never holds, and every case ends on one no step
//! can have touched: a prefix new to its partition.

use proptest::prelude::*;
use swift_bgp::{
    AsPath, Asn, ElementaryEvent, PeerId, Prefix, Route, RouteAttributes, RoutingTable,
};
use swift_core::encoding::{PrefixPartitioner, ReroutingPolicy};
use swift_core::pipeline::{partition_appliers, Applier};
use swift_core::{EncodingConfig, SwiftConfig};

/// Peers 1 and 2 are sessions (LOCAL_PREF 200 / 150), 3 and 4 backup
/// providers; any of them may announce any prefix.
const PEERS: u32 = 4;
/// /8 blocks the prefixes spread over: with 2 and 3 partitions, blocks share
/// partitions unevenly.
const BLOCKS: u32 = 4;
/// Prefix indexes per block the seed table draws from …
const SEEDED: u32 = 8;
/// … and further ones only the random steps draw from.
const LATE: u32 = 4;

/// Prefix `i` of block `b`: blocks are one /8 apart, the unit
/// [`PrefixPartitioner`] partitions by.
fn p(b: u32, i: u32) -> Prefix {
    Prefix::nth_slash24(b * 65_536 + i)
}

/// Every prefix a step can touch, plus the tail's and one never announced.
fn universe() -> Vec<Prefix> {
    let mut all: Vec<Prefix> = (0..BLOCKS)
        .flat_map(|b| (0..=SEEDED + LATE).map(move |i| p(b, i)))
        .collect();
    all.push(p(BLOCKS, 0));
    all
}

fn route(peer: u32, x: u32, y: u32, t: u64) -> Route {
    let path = AsPath::new([peer, 10 + x % 3, 20 + y % 4, 30 + (x + y) % 2]);
    let mut attrs = RouteAttributes::from_path(path);
    attrs.local_pref = match peer {
        1 => Some(200),
        2 => Some(150),
        _ => None,
    };
    Route::new(PeerId(peer), attrs, t)
}

fn config() -> SwiftConfig {
    SwiftConfig {
        encoding: EncodingConfig {
            min_prefixes_per_link: 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// One seed announcement: `(peer, (block, prefix index), (x, y))`.
type Seed = (u32, (u32, u32), (u32, u32));

/// The initial table.
fn arb_table() -> impl Strategy<Value = Vec<Seed>> {
    proptest::collection::vec(
        (
            1u32..PEERS + 1,
            (0u32..BLOCKS, 0u32..SEEDED),
            (0u32..3, 0u32..4),
        ),
        10..120,
    )
}

/// One step: `(operation, peer, (block, prefix index), (x, y))`.
type Op = (u8, u32, (u32, u32), (u32, u32));

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..10,
            1u32..PEERS + 1,
            (0u32..BLOCKS, 0u32..SEEDED + LATE),
            (0u32..3, 0u32..4),
        ),
        1..40,
    )
}

/// The single applier and its partitions, stepped together.
struct Pair {
    single: Applier,
    split: Vec<Applier>,
    partitioner: PrefixPartitioner,
}

impl Pair {
    fn note_event(&mut self, peer: PeerId, event: &ElementaryEvent) {
        self.single.note_event(peer, event);
        let home = self.partitioner.partition_of(&event.prefix());
        self.split[home].note_event(peer, event);
    }

    fn resync(&mut self) {
        self.single.resync_after_convergence();
        for applier in &mut self.split {
            applier.resync_after_convergence();
        }
    }

    /// A session's routes can span partitions: every partition tears it down.
    fn teardown(&mut self, peer: PeerId) -> Result<(), String> {
        let (_, withdrawn) = self.single.teardown_session(peer);
        let mut split_withdrawn = 0;
        for applier in &mut self.split {
            split_withdrawn += applier.teardown_session(peer).1;
        }
        prop_assert_eq!(split_withdrawn, withdrawn);
        Ok(())
    }

    /// Registration hands each partition the routes of the prefixes it owns.
    fn register(&mut self, peer: PeerId, routes: Vec<(Prefix, Route)>) {
        for (home, applier) in self.split.iter_mut().enumerate() {
            let owned = routes
                .iter()
                .filter(|(prefix, _)| self.partitioner.partition_of(prefix) == home)
                .cloned();
            applier.register_session(peer, Asn(peer.0), owned);
        }
        self.single.register_session(peer, Asn(peer.0), routes);
    }

    fn check(&self) -> Result<(), String> {
        let single = self.single.forwarding();
        let tagged: usize = self.split.iter().map(|a| a.forwarding().stage1_len()).sum();
        prop_assert_eq!(tagged, single.stage1_len());
        for prefix in universe() {
            let home = self.partitioner.partition_of(&prefix);
            for (i, applier) in self.split.iter().enumerate() {
                let tag = applier.forwarding().tag_of(applier.table(), &prefix);
                if i == home {
                    prop_assert_eq!(tag, single.tag_of(self.single.table(), &prefix));
                    prop_assert_eq!(
                        applier.forwarding_next_hop(&prefix),
                        self.single.forwarding_next_hop(&prefix)
                    );
                } else {
                    prop_assert_eq!(applier.table().prefix_id(&prefix), None);
                    prop_assert_eq!(tag, None);
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn partitions_tag_and_forward_like_the_single_applier(
        seed in arb_table(),
        ops in arb_ops(),
    ) {
        let mut table = RoutingTable::new();
        for peer in 1..=PEERS {
            table.add_peer(PeerId(peer), Asn(peer));
        }
        for (peer, (b, i), (x, y)) in &seed {
            table.announce(PeerId(*peer), p(*b, *i), route(*peer, *x, *y, 0));
        }
        let policy = ReroutingPolicy::allow_all();
        for k in [2usize, 3] {
            let partitioner = PrefixPartitioner::new(k);
            let mut pair = Pair {
                single: Applier::new(config(), table.clone(), policy.clone()),
                split: partition_appliers(&config(), table.clone(), &policy, &partitioner),
                partitioner,
            };
            prop_assert_eq!(pair.split.len(), k);
            pair.check()?;

            for (step, (kind, peer, (b, i), (x, y))) in ops.iter().enumerate() {
                let t = step as u64 + 1;
                let (peer, prefix) = (PeerId(*peer), p(*b, *i));
                match kind {
                    // Announcement: a new route, a path change or — past
                    // `SEEDED` — a prefix its partition has never seen.
                    0..=2 => {
                        let attrs = route(peer.0, *x, *y, t).attrs;
                        pair.note_event(peer, &ElementaryEvent::Announce { timestamp: t, prefix, attrs });
                    }
                    3..=5 => pair.note_event(peer, &ElementaryEvent::Withdraw { timestamp: t, prefix }),
                    6 | 7 => pair.resync(),
                    8 => pair.teardown(peer)?,
                    // Registration over the first `i` indexes of every block.
                    _ => {
                        let routes = (0..BLOCKS)
                            .flat_map(|b| (0..*i).map(move |j| (b, j)))
                            .map(|(b, j)| (p(b, j), route(peer.0, x + j, y + b, t)))
                            .collect();
                        pair.register(peer, routes);
                    }
                }
                pair.check()?;
            }

            // The tail: a prefix new to its partition (and to the table), by
            // announcement then resync, and a block no partition has seen, by
            // registration; then both lose their routes again.
            let t = ops.len() as u64 + 1;
            let new = p(ops.len() as u32 % BLOCKS, SEEDED + LATE);
            let attrs = route(1, 1, 2, t).attrs;
            pair.note_event(PeerId(1), &ElementaryEvent::Announce { timestamp: t, prefix: new, attrs });
            pair.resync();
            pair.check()?;
            prop_assert_eq!(pair.single.forwarding_next_hop(&new), Some(PeerId(1)));
            pair.register(PeerId(2), vec![(p(BLOCKS, 0), route(2, 0, 1, t))]);
            pair.check()?;
            prop_assert!(pair.single.forwarding_next_hop(&p(BLOCKS, 0)).is_some());
            pair.teardown(PeerId(2))?;
            pair.check()?;
            pair.note_event(PeerId(1), &ElementaryEvent::Withdraw { timestamp: t + 1, prefix: new });
            pair.resync();
            pair.check()?;
            prop_assert_eq!(pair.single.forwarding_next_hop(&new), None);
        }
    }
}
