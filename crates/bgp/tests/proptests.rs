//! Property-based tests for the BGP substrate.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault};
use swift_bgp::{
    AsLink, AsPath, Asn, BgpMessage, FoldBuildHasher, MessageStream, PathInterner, Prefix,
    PrefixInterner, PrefixList, PrefixSet,
};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Prefix::new(addr, len).unwrap())
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(1u32..10_000, 0..12).prop_map(AsPath::new)
}

/// Hop lists of 0..=12 ASes — both sides of the in-place capacity (5) — over
/// few enough AS numbers that loops and repeated links are common.
fn arb_hops() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(1u32..12, 0..13)
}

/// `list` has `model`'s length and reads it at both ends and on both sides
/// of every chunk boundary.
fn spot_check(list: &PrefixList, model: &[Prefix]) -> Result<(), String> {
    prop_assert_eq!(list.len(), model.len());
    let chunk = PrefixList::CHUNK;
    let boundaries = (1..=model.len() / chunk).flat_map(|c| [c * chunk - 1, c * chunk]);
    for id in [0, model.len().saturating_sub(1)]
        .into_iter()
        .chain(boundaries)
    {
        if id < model.len() {
            prop_assert_eq!(list.get(id), &model[id]);
        }
    }
    Ok(())
}

/// `path` answers every accessor the way the plain hop list `model` does.
fn check_against_model(path: &AsPath, model: &[Asn]) -> Result<(), String> {
    prop_assert_eq!(path.hops(), model);
    prop_assert_eq!(path.len(), model.len());
    prop_assert_eq!(path.is_empty(), model.is_empty());
    prop_assert_eq!(path.first_hop(), model.first().copied());
    prop_assert_eq!(path.origin(), model.last().copied());
    let links: Vec<AsLink> = model.windows(2).map(|w| AsLink::new(w[0], w[1])).collect();
    prop_assert_eq!(path.links().collect::<Vec<_>>(), links.clone());
    for pos in 0..=model.len() + 1 {
        let expected = pos.checked_sub(1).and_then(|i| links.get(i)).copied();
        prop_assert_eq!(path.link_at_position(pos), expected);
    }
    let shown: Vec<String> = model.iter().map(|asn| asn.0.to_string()).collect();
    prop_assert_eq!(path.to_string(), format!("({})", shown.join(" ")));
    // Hashes as the hop slice does, under the interner's hasher and std's.
    let fold = FoldBuildHasher::default();
    prop_assert_eq!(fold.hash_one(path), fold.hash_one(model));
    let sip = BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
    prop_assert_eq!(sip.hash_one(path), sip.hash_one(model));
    Ok(())
}

proptest! {
    /// Display → parse is the identity on canonical prefixes.
    #[test]
    fn prefix_display_parse_roundtrip(p in arb_prefix()) {
        let s = p.to_string();
        let parsed: Prefix = s.parse().unwrap();
        prop_assert_eq!(parsed, p);
    }

    /// A prefix always contains itself, and a contained prefix is at least
    /// as specific.
    #[test]
    fn prefix_contains_self_and_overlap(a in arb_prefix(), b in arb_prefix()) {
        prop_assert!(a.contains(&a));
        if a.contains(&b) {
            prop_assert!(b.len() >= a.len());
        }
    }

    /// Splitting a prefix yields two children whose parent is the original and
    /// which together cover exactly the original address space.
    #[test]
    fn prefix_split_parent_inverse(p in (any::<u32>(), 0u8..32).prop_map(|(a, l)| Prefix::new(a, l).unwrap())) {
        let (lo, hi) = p.split().unwrap();
        prop_assert_eq!(lo.parent(), Some(p));
        prop_assert_eq!(hi.parent(), Some(p));
        prop_assert!(p.contains(&lo) && p.contains(&hi));
        prop_assert_eq!(lo.size() + hi.size(), p.size());
        prop_assert!(!lo.contains(&hi) && !hi.contains(&lo));
    }

    /// The links of a path have length len-1 and chain correctly.
    #[test]
    fn as_path_links_chain(path in arb_as_path()) {
        let links: Vec<AsLink> = path.links().collect();
        prop_assert_eq!(links.len(), path.len().saturating_sub(1));
        for w in links.windows(2) {
            prop_assert_eq!(w[0].to, w[1].from);
        }
        for (i, l) in links.iter().enumerate() {
            prop_assert_eq!(path.link_at_position(i + 1), Some(*l));
            prop_assert!(path.crosses_link(l));
            prop_assert!(path.visits_endpoint_of(l));
        }
    }

    /// Prepending preserves the suffix and adds exactly one hop.
    #[test]
    fn as_path_prepend(path in arb_as_path(), asn in 1u32..10_000) {
        let q = path.prepend(asn);
        prop_assert_eq!(q.len(), path.len() + 1);
        prop_assert_eq!(q.first_hop(), Some(Asn(asn)));
        prop_assert_eq!(&q.hops()[1..], path.hops());
    }

    /// An `AsPath` is its hop list, whether the hops sit in place or spilled:
    /// every prefix of a random hop list (so every length up to it, the
    /// capacity and its two neighbours included) against the `Vec` model.
    #[test]
    fn as_path_matches_the_hop_list_model(hops in arb_hops(), other in arb_hops(), asn in 1u32..12) {
        let model: Vec<Asn> = hops.iter().copied().map(Asn).collect();
        let other_model: Vec<Asn> = other.iter().copied().map(Asn).collect();
        let other_path = AsPath::new(other.iter().copied());
        for k in 0..=model.len() {
            let model = &model[..k];
            let path = AsPath::new(model.iter().copied());
            check_against_model(&path, model)?;
            prop_assert_eq!(path.clone(), path.clone());
            prop_assert_eq!(path == other_path, model == other_model.as_slice());
            prop_assert_eq!(path.cmp(&other_path), model.cmp(other_model.as_slice()));
            prop_assert_eq!(path.partial_cmp(&other_path), Some(model.cmp(other_model.as_slice())));
            // Prepending crosses the boundary when k is the capacity.
            let mut longer = vec![Asn(asn)];
            longer.extend_from_slice(model);
            check_against_model(&path.prepend(asn), &longer)?;
            prop_assert_eq!(path.prepend(asn), AsPath::new(longer.iter().copied()));
            prop_assert_eq!(path.contains_as(Asn(asn)), model.contains(&Asn(asn)));
        }
    }

    /// The by-value interner numbers paths in first-seen order, whichever of
    /// `intern` / `intern_owned` saw them first, and gives each one back.
    #[test]
    fn interner_ids_follow_first_seen_order(
        pool in proptest::collection::vec(arb_hops(), 1..12),
        picks in proptest::collection::vec((0usize..1_000, any::<bool>()), 0..60),
    ) {
        let mut interner = PathInterner::new();
        let mut first_seen: Vec<&Vec<u32>> = Vec::new();
        for (pick, owned) in picks {
            let hops = &pool[pick % pool.len()];
            let path = AsPath::new(hops.iter().copied());
            let expected = first_seen.iter().position(|seen| *seen == hops);
            prop_assert_eq!(interner.lookup(&path).map(|id| id.index()), expected);
            let id = if owned { interner.intern_owned(path.clone()) } else { interner.intern(&path) };
            prop_assert_eq!(id.index(), expected.unwrap_or(first_seen.len()));
            if expected.is_none() {
                first_seen.push(hops);
            }
            prop_assert_eq!(interner.get(id), &path);
            prop_assert_eq!(interner.len(), first_seen.len());
        }
        let clone = interner.clone();
        for from in 0..=first_seen.len() {
            let tail: Vec<AsPath> = first_seen[from..].iter().map(|h| AsPath::new(h.iter().copied())).collect();
            prop_assert_eq!(clone.paths_from(from).cloned().collect::<Vec<_>>(), tail);
        }
    }

    /// The packed prefix index is a `HashMap<Prefix, u32>` handing out ids in
    /// first-seen order: random intern / get sequences over a small address
    /// pool (so prefixes repeat, and masking makes `a/8` and `a/16` share an
    /// address) at every length 0..=32 — the all-zero and all-one addresses
    /// sit next to the empty-slot marker — through several doublings, and a
    /// clone keeps every id.
    #[test]
    fn prefix_interner_matches_the_map_model(
        pool in proptest::collection::vec(any::<u32>(), 1..20),
        ops in proptest::collection::vec((0usize..1_000, 0u8..=32, any::<bool>()), 0..1_500),
    ) {
        let addrs: Vec<u32> = [0, u32::MAX, 0x0A00_0000].into_iter().chain(pool).collect();
        let mut interner = PrefixInterner::new();
        let mut model: HashMap<Prefix, u32> = HashMap::new();
        let mut first_seen: Vec<Prefix> = Vec::new();
        let mut doublings = 0;
        for (pick, len, intern) in ops {
            let prefix = Prefix::new(addrs[pick % addrs.len()], len).unwrap();
            let before = interner.capacity();
            if intern {
                let next = model.len() as u32;
                let expected = *model.entry(prefix).or_insert(next);
                if expected == next {
                    first_seen.push(prefix);
                }
                prop_assert_eq!(interner.intern(prefix).index(), expected as usize);
            } else {
                prop_assert_eq!(interner.get(&prefix).map(|id| id.index() as u32), model.get(&prefix).copied());
            }
            doublings += usize::from(before != 0 && interner.capacity() == 2 * before);
            prop_assert_eq!(interner.len(), model.len());
        }
        prop_assert_eq!(interner.prefixes().iter().copied().collect::<Vec<_>>(), first_seen);
        // 16 → 32 → 64 → 128 slots before the 100th prefix.
        prop_assert!(model.len() < 100 || doublings >= 3, "{} prefixes, {} doublings", model.len(), doublings);
        let seen = model.len();
        let mut clone = interner.clone();
        for (prefix, id) in &model {
            for copy in [&interner, &clone] {
                let got = copy.get(prefix).expect("interned");
                prop_assert_eq!(got.index(), *id as usize);
                prop_assert_eq!(copy.prefix(got), prefix);
            }
        }
        for len in 0..=32 {
            for addr in [0, u32::MAX] {
                let prefix = Prefix::new(addr, len).unwrap();
                let fresh = !model.contains_key(&prefix);
                let expected = model.get(&prefix).map_or(model.len(), |id| *id as usize);
                prop_assert_eq!(clone.intern(prefix).index(), expected);
                if fresh {
                    model.insert(prefix, expected as u32);
                }
            }
        }
        // The original is untouched: the two number apart from the clone on.
        prop_assert_eq!((interner.len(), clone.len()), (seen, model.len()));
    }

    /// The dictionary's sealed and private parts against one map model per
    /// holder: random interleavings of `intern`, `get`, `seal` and `clone`
    /// over a small address pool at every length (so prefixes repeat across
    /// holders, before and after their seals). Every holder hands out dense
    /// ids in first-seen order, answers `get` like its model and reads
    /// `prefix(get(p)) == p`; clones that intern after a seal number apart
    /// and never see each other's prefixes. The tail of each case seals one
    /// holder, forks two clones off it and gives each prefixes the other
    /// never sees, then seals one of them again over its new ones.
    #[test]
    fn sealed_prefix_interner_matches_the_map_model(
        pool in proptest::collection::vec(any::<u32>(), 1..12),
        ops in proptest::collection::vec((0u8..8, 0usize..1_000, 0u8..=32), 0..600),
    ) {
        type Model = (HashMap<Prefix, u32>, Vec<Prefix>);
        fn intern(interner: &mut PrefixInterner, model: &mut Model, prefix: Prefix) -> Result<(), String> {
            let next = model.1.len() as u32;
            let expected = *model.0.entry(prefix).or_insert(next);
            if expected == next {
                model.1.push(prefix);
            }
            prop_assert_eq!(interner.intern(prefix).index(), expected as usize);
            prop_assert_eq!(interner.len(), model.1.len());
            Ok(())
        }
        fn agrees(interner: &PrefixInterner, model: &Model, others: &[&Model]) -> Result<(), String> {
            prop_assert!(interner.prefixes().iter().eq(model.1.iter()), "ids not in first-seen order");
            for (prefix, id) in &model.0 {
                let got = interner.get(prefix);
                prop_assert_eq!(got.map(|id| id.index()), Some(*id as usize));
                prop_assert_eq!(interner.prefix(got.expect("interned")), prefix);
            }
            for prefix in others.iter().flat_map(|other| &other.1) {
                if !model.0.contains_key(prefix) {
                    prop_assert_eq!(interner.get(prefix), None);
                }
            }
            Ok(())
        }
        let addrs: Vec<u32> = [0, u32::MAX, 0x0A00_0000].into_iter().chain(pool).collect();
        let mut live: Vec<(PrefixInterner, Model)> = vec![(PrefixInterner::new(), Model::default())];
        for (step, (op, pick, len)) in ops.into_iter().enumerate() {
            let which = step % live.len();
            let prefix = Prefix::new(addrs[pick % addrs.len()], len).unwrap();
            if op >= 6 && live.len() < 4 {
                let copy = live[which].clone();
                live.push(copy);
                continue;
            }
            let (interner, model) = &mut live[which];
            match op {
                0..=3 => intern(interner, model, prefix)?,
                4 => prop_assert_eq!(
                    interner.get(&prefix).map(|id| id.index() as u32),
                    model.0.get(&prefix).copied()
                ),
                _ => {
                    interner.seal();
                    prop_assert_eq!(interner.len(), model.1.len());
                }
            }
        }
        // Two clones of one sealed holder, each given prefixes the other
        // never sees.
        let (mut base, mut base_model) = live.swap_remove(0);
        base.seal();
        let mut forks = [(base.clone(), base_model.clone()), (base.clone(), base_model.clone())];
        for (k, (fork, model)) in forks.iter_mut().enumerate() {
            for i in 0..40u32 {
                intern(fork, model, Prefix::nth_slash24(100_000 * (k as u32 + 1) + i))?;
            }
            intern(fork, model, Prefix::nth_slash24(7))?;
        }
        forks[1].0.seal();
        intern(&mut forks[1].0, &mut forks[1].1, Prefix::nth_slash24(300_000))?;
        intern(&mut base, &mut base_model, Prefix::nth_slash24(8))?;
        live.push((base, base_model));
        live.extend(forks);
        let models: Vec<&Model> = live.iter().map(|(_, model)| model).collect();
        for (interner, model) in &live {
            agrees(interner, model, &models)?;
        }
    }

    /// The chunked id → prefix list against a `Vec` model: interleaved runs
    /// of interns (fresh prefixes and a repeat), snapshots and clones, over
    /// several chunk boundaries. Every snapshot reads exactly the prefixes
    /// below its length at creation, whatever its source and the source's
    /// clones intern afterwards; clones that intern different prefixes never
    /// see each other's.
    #[test]
    fn prefix_list_snapshots_and_clones_match_the_vec_model(
        ops in proptest::collection::vec((0u8..4, 1usize..1_500), 1..10),
    ) {
        // Each interner with its model; the first clone forks the second.
        let mut live: Vec<(PrefixInterner, Vec<Prefix>)> = vec![(PrefixInterner::new(), Vec::new())];
        let mut snaps: Vec<(PrefixList, Vec<Prefix>)> = Vec::new();
        // Fresh prefixes are numbered across all interners: no two share one.
        let mut fresh = 0u32;
        for (step, (op, n)) in ops.into_iter().enumerate() {
            let which = step % live.len();
            match op {
                0 | 1 => {
                    let (interner, model) = &mut live[which];
                    for _ in 0..n {
                        let prefix = Prefix::nth_slash24(fresh);
                        fresh += 1;
                        prop_assert_eq!(interner.intern(prefix).index(), model.len());
                        model.push(prefix);
                    }
                    prop_assert_eq!(interner.intern(model[n % model.len()]).index(), n % model.len());
                }
                2 => snaps.push((live[which].0.snapshot(), live[which].1.clone())),
                _ if live.len() < 3 => {
                    let copy = live[which].clone();
                    live.push(copy);
                }
                _ => {}
            }
            for (list, model) in &snaps {
                spot_check(list, model)?;
            }
            for (interner, model) in &live {
                spot_check(interner.prefixes(), model)?;
            }
        }
        for (list, model) in &snaps {
            prop_assert!(list.iter().eq(model.iter()), "a snapshot drifted");
            prop_assert!((0..model.len()).all(|id| list.get(id) == &model[id]));
        }
        for (interner, model) in &live {
            prop_assert!(interner.prefixes().iter().eq(model.iter()));
            let mine: BTreeSet<&Prefix> = model.iter().collect();
            // What only another clone interned is unknown here.
            for (_, theirs) in &live {
                for prefix in theirs.iter().filter(|p| !mine.contains(p)) {
                    prop_assert_eq!(interner.get(prefix), None);
                }
            }
        }
    }

    /// A `PrefixSet` built from an unsorted list with duplicates is the
    /// `BTreeSet` of that list: order, membership, algebra, insert / remove.
    #[test]
    fn prefix_set_matches_the_btree_model(
        a in proptest::collection::vec(0u32..300, 0..200),
        b in proptest::collection::vec(0u32..300, 0..200),
        probe in 0u32..300,
    ) {
        let prefixes = |v: &[u32]| -> Vec<Prefix> { v.iter().map(|i| Prefix::nth_slash24(*i)).collect() };
        let (ma, mb): (BTreeSet<Prefix>, BTreeSet<Prefix>) =
            (prefixes(&a).into_iter().collect(), prefixes(&b).into_iter().collect());
        let sa: PrefixSet = prefixes(&a).into_iter().collect();
        let sb = PrefixSet::from(prefixes(&b));
        prop_assert_eq!(sa.iter().collect::<Vec<_>>(), ma.iter().collect::<Vec<_>>());
        prop_assert_eq!(sb.clone().into_iter().collect::<Vec<_>>(), mb.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(sa.len(), ma.len());
        let probe = Prefix::nth_slash24(probe);
        prop_assert_eq!(sa.contains(&probe), ma.contains(&probe));
        prop_assert_eq!(sa.intersection_len(&sb), ma.intersection(&mb).count());
        let union: PrefixSet = ma.union(&mb).copied().collect();
        prop_assert_eq!(sa.union(&sb), union);
        let (mut grown, mut shrunk) = (sa.clone(), sa.clone());
        prop_assert_eq!(grown.insert(probe), !ma.contains(&probe));
        prop_assert_eq!(shrunk.remove(&probe), ma.contains(&probe));
        prop_assert!(grown.contains(&probe) && !shrunk.contains(&probe));
        prop_assert_eq!(grown.len() - shrunk.len(), 1);
        prop_assert!(grown.iter().zip(grown.iter().skip(1)).all(|(x, y)| x < y));
    }

    /// PrefixSet intersection and union cardinalities are consistent.
    #[test]
    fn prefix_set_cardinalities(
        a in proptest::collection::btree_set(0u32..5_000, 0..200),
        b in proptest::collection::btree_set(0u32..5_000, 0..200),
    ) {
        let sa: PrefixSet = a.iter().map(|i| Prefix::nth_slash24(*i)).collect();
        let sb: PrefixSet = b.iter().map(|i| Prefix::nth_slash24(*i)).collect();
        let inter = sa.intersection_len(&sb);
        prop_assert_eq!(inter, sb.intersection_len(&sa));
        prop_assert_eq!(sa.union(&sb).len(), sa.len() + sb.len() - inter);
    }

    /// A message stream built from arbitrarily-ordered messages is sorted and
    /// conserves the withdrawal count.
    #[test]
    fn stream_is_sorted_and_conserves_counts(
        times in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let msgs: Vec<BgpMessage> = times
            .iter()
            .enumerate()
            .map(|(i, t)| BgpMessage::withdraw(*t, Prefix::nth_slash24(i as u32)))
            .collect();
        let n = msgs.len();
        let stream = MessageStream::from_messages(msgs.clone());
        prop_assert_eq!(stream.total_withdrawals(), n);
        let ts: Vec<_> = stream.messages().iter().map(|m| m.timestamp).collect();
        let mut sorted = ts.clone();
        sorted.sort();
        prop_assert_eq!(ts, sorted);

        // Pushing one-by-one gives the same multiset of timestamps.
        let mut incremental = MessageStream::new();
        for m in msgs {
            incremental.push(m);
        }
        prop_assert_eq!(incremental.total_withdrawals(), n);
        prop_assert_eq!(incremental.start(), stream.start());
        prop_assert_eq!(incremental.end(), stream.end());
    }

    /// Windowed withdrawal counts partition the total.
    #[test]
    fn window_counts_partition(
        times in proptest::collection::vec(0u64..10_000, 1..200),
        cut in 0u64..10_000,
    ) {
        let msgs: Vec<BgpMessage> = times
            .iter()
            .enumerate()
            .map(|(i, t)| BgpMessage::withdraw(*t, Prefix::nth_slash24(i as u32)))
            .collect();
        let stream = MessageStream::from_messages(msgs);
        let total = stream.total_withdrawals();
        let before = stream.withdrawals_in_window(0, cut);
        let after = stream.withdrawals_in_window(cut, 10_001);
        prop_assert_eq!(before + after, total);
    }
}
