//! Property tests for the hybrid sparse/dense [`IdBitSet`]: on random
//! operation sequences, a naturally grown set (posting list until the
//! promotion crossover) must agree bit-for-bit with a forced-dense set and
//! with a `BTreeSet<u32>` model — across every representation mix of the
//! binary operations.

use proptest::prelude::*;
use std::collections::BTreeSet;
use swift_core::inference::IdBitSet;

/// Id universe kept small enough that random sets hit both representations:
/// clustered draws promote, spread draws stay sparse.
const UNIVERSE: u32 = 8_192;

/// One mutation: set (true) or clear (false) an id.
fn arb_ops() -> impl Strategy<Value = Vec<(bool, u32)>> {
    proptest::collection::vec((any::<bool>(), 0u32..UNIVERSE), 0..200)
}

/// Clustered ids (small range) force promotion to the dense form.
fn arb_clustered_ops() -> impl Strategy<Value = Vec<(bool, u32)>> {
    proptest::collection::vec((any::<bool>(), 0u32..96), 0..200)
}

/// Applies the same ops to the hybrid set, a forced-dense set and the model.
fn build(ops: &[(bool, u32)]) -> (IdBitSet, IdBitSet, BTreeSet<u32>) {
    let mut hybrid = IdBitSet::new();
    let mut dense = IdBitSet::with_capacity(UNIVERSE as usize);
    let mut model = BTreeSet::new();
    for &(set, id) in ops {
        if set {
            hybrid.set(id);
            dense.set(id);
            model.insert(id);
        } else {
            hybrid.clear(id);
            dense.clear(id);
            model.remove(&id);
        }
    }
    (hybrid, dense, model)
}

fn check_against_model(s: &IdBitSet, model: &BTreeSet<u32>) -> Result<(), String> {
    if s.count() != model.len() {
        return Err(format!("count {} != model {}", s.count(), model.len()));
    }
    if s.is_empty() != model.is_empty() {
        return Err("is_empty disagrees with model".into());
    }
    let ids: Vec<u32> = s.ids().collect();
    let want: Vec<u32> = model.iter().copied().collect();
    if ids != want {
        return Err(format!("ids {ids:?} != model {want:?}"));
    }
    // Membership probes, including ids just outside the set.
    for &id in model {
        if !s.test(id) {
            return Err(format!("test({id}) false but id is in the model"));
        }
        if !model.contains(&(id + 1)) && s.test(id + 1) {
            return Err(format!("test({}) true but id is absent", id + 1));
        }
    }
    Ok(())
}

proptest! {
    /// The naturally grown hybrid set equals the forced-dense set and the
    /// model after any operation sequence.
    #[test]
    fn hybrid_matches_dense_and_model(ops in arb_ops()) {
        let (hybrid, dense, model) = build(&ops);
        if let Err(msg) = check_against_model(&hybrid, &model) {
            prop_assert!(false, "hybrid: {}", msg);
        }
        if let Err(msg) = check_against_model(&dense, &model) {
            prop_assert!(false, "forced-dense: {}", msg);
        }
        // Content equality across representations, both directions.
        prop_assert_eq!(&hybrid, &dense);
        prop_assert_eq!(&dense, &hybrid);
    }

    /// Binary operations agree for every sparse/dense operand combination.
    #[test]
    fn binary_ops_agree_across_representations(
        ops_a in arb_ops(),
        ops_b in arb_clustered_ops(),
    ) {
        let (ha, da, ma) = build(&ops_a);
        let (hb, db, mb) = build(&ops_b);

        let model_inter: Vec<u32> = ma.intersection(&mb).copied().collect();
        let model_union: Vec<u32> = ma.union(&mb).copied().collect();
        let model_difference: Vec<u32> = ma.difference(&mb).copied().collect();

        for (a, b) in [(&ha, &hb), (&ha, &db), (&da, &hb), (&da, &db)] {
            prop_assert_eq!(a.intersection_count(b), model_inter.len());
            // The built intersection, with the right size and a wrong one;
            // told the right size it takes the smaller form: 1 bit per id up
            // to its largest, or 4 bytes per member.
            for members in [model_inter.len(), 0, model_inter.len() + 7] {
                let built = a.intersection(b, members);
                prop_assert_eq!(built.ids().collect::<Vec<_>>(), model_inter.clone());
                prop_assert_eq!(built.check_summary_invariant(), Ok(()));
                if members == model_inter.len() {
                    let words = model_inter.last().map_or(0, |max| *max as usize / 64 + 1);
                    prop_assert_eq!(built.is_dense(), 32 * members > 64 * words);
                }
            }

            let mut u = a.clone();
            u.union_with(b);
            let union_ids: Vec<u32> = u.ids().collect();
            prop_assert_eq!(&union_ids, &model_union);
            prop_assert_eq!(u.count(), model_union.len());

            let mut d = a.clone();
            d.subtract(b);
            let difference_ids: Vec<u32> = d.ids().collect();
            prop_assert_eq!(&difference_ids, &model_difference);
            prop_assert_eq!(d.check_summary_invariant(), Ok(()));
        }
    }

    /// clear_all empties the set in either representation and the set remains
    /// usable afterwards.
    #[test]
    fn clear_all_then_reuse(ops in arb_ops(), extra in arb_clustered_ops()) {
        let (mut hybrid, mut dense, _) = build(&ops);
        hybrid.clear_all();
        dense.clear_all();
        prop_assert!(hybrid.is_empty());
        prop_assert!(dense.is_empty());
        prop_assert_eq!(&hybrid, &dense);
        let mut model = BTreeSet::new();
        for &(set, id) in &extra {
            if set {
                hybrid.set(id);
                dense.set(id);
                model.insert(id);
            } else {
                hybrid.clear(id);
                dense.clear(id);
                model.remove(&id);
            }
        }
        if let Err(msg) = check_against_model(&hybrid, &model) {
            prop_assert!(false, "hybrid after reuse: {}", msg);
        }
        prop_assert_eq!(&hybrid, &dense);
    }
}
