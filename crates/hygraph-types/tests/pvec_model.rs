//! Model tests for the persistent radix vector
//! ([`hygraph_types::pvec`]): every operation sequence must leave
//! [`PVec`] indistinguishable from a `Vec<Option<T>>` reference model —
//! the shape of the graph's vertex and edge slot tables — clones must
//! be frozen snapshots of the moment they were taken, and the trie
//! shape must be a pure function of the length.

use hygraph_types::pvec::PVec;
use proptest::prelude::*;

/// One raw op draw: `(kind, index material, value)`. Decoded in the
/// test body (the vendored proptest has no combinators): pushes are
/// common enough to grow the trie past two levels, and truncations
/// rare enough not to keep it small.
type RawOp = (u64, u64, u32);

fn raw_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec((0u64..16, 0u64..=u64::MAX, 0u32..=u32::MAX), 0..max)
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Append a slot (`None` models a decoded tombstone).
    Push(Option<u32>),
    /// Append a run of slots, crossing leaf and level boundaries.
    PushRun(u32),
    Get(usize),
    Set(usize, u32),
    Take(usize),
    Truncate(usize),
}

/// Indices land mostly in bounds, some one past the end or far out.
fn decode(&(kind, raw, v): &RawOp, len: usize) -> Op {
    let idx = match raw % 8 {
        0..=5 => (raw >> 3) as usize % (len + 1),
        6 => len,
        _ => (raw >> 3) as usize,
    };
    match kind {
        0..=4 => Op::Push(Some(v)),
        5 => Op::Push(None),
        6 => Op::PushRun(v % 1100),
        7..=9 => Op::Get(idx),
        10 | 11 => Op::Set(idx, v),
        12..=14 => Op::Take(idx),
        _ => Op::Truncate(idx),
    }
}

fn apply(pvec: &mut PVec<Option<u32>>, model: &mut Vec<Option<u32>>, raw: &RawOp) {
    match decode(raw, model.len()) {
        Op::Push(x) => {
            pvec.push(x);
            model.push(x);
        }
        Op::PushRun(n) => {
            pvec.extend((0..n).map(Some));
            model.extend((0..n).map(Some));
        }
        Op::Get(_) => {}
        Op::Set(i, x) => {
            if let (Some(slot), Some(want)) = (pvec.get_mut(i), model.get_mut(i)) {
                *slot = Some(x);
                *want = Some(x);
            }
        }
        Op::Take(i) => {
            let got = pvec.get_mut(i).and_then(Option::take);
            let want = model.get_mut(i).and_then(Option::take);
            assert_eq!(got, want);
        }
        Op::Truncate(i) => {
            pvec.truncate(i);
            model.truncate(i);
        }
    }
}

proptest! {
    /// Any op sequence: PVec answers every point read exactly like the
    /// model, and iterates exactly its elements in index order, from
    /// the start and from any offset.
    #[test]
    fn pvec_matches_vec_model(raw in raw_ops(120), probe in 0u64..=u64::MAX) {
        let mut pvec: PVec<Option<u32>> = PVec::new();
        let mut model: Vec<Option<u32>> = Vec::new();
        for op in &raw {
            if let Op::Get(i) = decode(op, model.len()) {
                prop_assert_eq!(pvec.get(i), model.get(i));
            }
            apply(&mut pvec, &mut model, op);
            prop_assert_eq!(pvec.len(), model.len());
        }
        prop_assert!(pvec.iter().eq(model.iter()), "iteration is index order");
        prop_assert_eq!(pvec.iter().len(), model.len());
        let from = probe as usize % (model.len() + 1);
        prop_assert!(pvec.iter_from(from).eq(model[from..].iter()));
        for (i, want) in model.iter().enumerate() {
            prop_assert_eq!(pvec.get(i), Some(want));
        }
        // reads descend by the canonical height for the length, so the
        // checks above also prove truncate restored that shape
        let fresh: PVec<Option<u32>> = model.iter().copied().collect();
        prop_assert_eq!(&pvec, &fresh);
    }

    /// A clone taken mid-sequence is frozen: the original absorbs the
    /// remaining ops, the clone stays exactly the mid-point model.
    #[test]
    fn clone_is_a_frozen_snapshot(before in raw_ops(80), after in raw_ops(80)) {
        let mut pvec: PVec<Option<u32>> = PVec::new();
        let mut model: Vec<Option<u32>> = Vec::new();
        for op in &before {
            apply(&mut pvec, &mut model, op);
        }
        let frozen = pvec.clone();
        let frozen_model = model.clone();
        for op in &after {
            apply(&mut pvec, &mut model, op);
        }
        prop_assert_eq!(frozen.len(), frozen_model.len());
        prop_assert!(frozen.iter().eq(frozen_model.iter()));
        prop_assert!(pvec.iter().eq(model.iter()));
    }

    /// Sorted-list removal (the adjacency and posting-list delete)
    /// matches `retain` on the model and keeps the list sorted.
    #[test]
    fn remove_sorted_matches_retain(
        raw in prop::collection::vec(0u64..200, 0..300),
        gone in prop::collection::vec(0u64..200, 0..20),
    ) {
        let mut sorted = raw.clone();
        sorted.sort_unstable();
        let mut pvec: PVec<u64> = sorted.iter().copied().collect();
        let mut model = sorted;
        let pinned = pvec.clone();
        let pinned_model = model.clone();
        for x in &gone {
            pvec.remove_sorted(x);
            model.retain(|y| y != x);
            prop_assert!(pvec.iter().eq(model.iter()));
            prop_assert_eq!(pvec.partition_point(|y| y < x), model.partition_point(|y| y < x));
        }
        prop_assert!(pinned.iter().eq(pinned_model.iter()));
    }
}
