//! Dual-mode interior storage for [`TemporalGraph`](crate::TemporalGraph).
//!
//! Each commit-path collection exists in two modes, selected per store
//! at construction by [`SnapshotImpl`] (see `hygraph-types::pmap`):
//!
//! * **Dense** — the legacy layout (`Arc<Vec<…>>` + `make_mut`): the
//!   first write after a snapshot is pinned deep-copies the whole
//!   vector. Kept as the `cow` rollback path.
//! * **Pmap** — persistent radix vectors ([`PVec`]) indexed by dense
//!   id: a read is ⌈log₃₂ n⌉ array hops, and a write path-copies the
//!   same few ≤32-slot nodes no matter how many snapshots are pinned.
//!
//! Both modes iterate in ascending id order, so canonical encodings and
//! adjacency orders are byte-identical across modes. The label index is
//! one shape in both modes: a [`SnapMap`] from label to a [`PVec`]
//! posting list.

use hygraph_types::pmap::{SnapMap, SnapshotImpl};
use hygraph_types::pvec::PVec;
use hygraph_types::{EdgeId, Label, VertexId};
use std::fmt;
use std::sync::Arc;

/// Chains two iterator shapes behind one `impl Iterator` return type.
pub(crate) enum EitherIter<A, B> {
    A(A),
    B(B),
}

impl<A, B, T> Iterator for EitherIter<A, B>
where
    A: Iterator<Item = T>,
    B: Iterator<Item = T>,
{
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            EitherIter::A(it) => it.next(),
            EitherIter::B(it) => it.next(),
        }
    }
}

/// A dense-id slot store (vertex or edge table): ids are allocated
/// sequentially, removal tombstones the slot, and the slot count only
/// grows. The Pmap mode boxes each element in an `Arc`, so copying a
/// shared leaf bumps 32 refcounts instead of cloning 32 elements, and
/// `get_mut` clones only the one element it returns.
pub(crate) enum SnapSlab<T> {
    Dense(Arc<Vec<Option<T>>>),
    Pmap(PVec<Option<Arc<T>>>),
}

impl<T: Clone> SnapSlab<T> {
    pub(crate) fn new_with(mode: SnapshotImpl) -> Self {
        Self::with_capacity(mode, 0)
    }

    pub(crate) fn with_capacity(mode: SnapshotImpl, cap: usize) -> Self {
        match mode {
            SnapshotImpl::Cow => SnapSlab::Dense(Arc::new(Vec::with_capacity(cap))),
            SnapshotImpl::Pmap => SnapSlab::Pmap(PVec::new()),
        }
    }

    pub(crate) fn mode(&self) -> SnapshotImpl {
        match self {
            SnapSlab::Dense(_) => SnapshotImpl::Cow,
            SnapSlab::Pmap(_) => SnapshotImpl::Pmap,
        }
    }

    /// Total slots ever allocated (live + tombstoned) — the next id.
    pub(crate) fn slots(&self) -> usize {
        match self {
            SnapSlab::Dense(v) => v.len(),
            SnapSlab::Pmap(v) => v.len(),
        }
    }

    /// Number of live (non-tombstoned) slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.iter_live().count()
    }

    /// Appends the next slot (decode path appends tombstones verbatim;
    /// the construction path always appends `Some`). Returns its index.
    pub(crate) fn push_slot(&mut self, value: Option<T>) -> usize {
        let idx = self.slots();
        match self {
            SnapSlab::Dense(v) => Arc::make_mut(v).push(value),
            SnapSlab::Pmap(v) => v.push(value.map(Arc::new)),
        }
        idx
    }

    #[inline]
    pub(crate) fn get(&self, idx: usize) -> Option<&T> {
        match self {
            SnapSlab::Dense(v) => v.get(idx)?.as_ref(),
            SnapSlab::Pmap(v) => v.get(idx)?.as_deref(),
        }
    }

    /// Mutable slot access; a miss (out of range or tombstone) copies
    /// nothing in either mode.
    pub(crate) fn get_mut(&mut self, idx: usize) -> Option<&mut T> {
        self.get(idx)?;
        match self {
            SnapSlab::Dense(v) => Arc::make_mut(v)[idx].as_mut(),
            SnapSlab::Pmap(v) => v.get_mut(idx)?.as_mut().map(Arc::make_mut),
        }
    }

    /// Tombstones a slot, returning its value; a miss copies nothing.
    pub(crate) fn take(&mut self, idx: usize) -> Option<T> {
        self.get(idx)?;
        match self {
            SnapSlab::Dense(v) => Arc::make_mut(v)[idx].take(),
            SnapSlab::Pmap(v) => v.get_mut(idx)?.take().map(Arc::unwrap_or_clone),
        }
    }

    /// Every slot in id order, `None` for a tombstone.
    pub(crate) fn iter_slots(&self) -> impl Iterator<Item = Option<&T>> {
        match self {
            SnapSlab::Dense(v) => EitherIter::A(v.iter().map(Option::as_ref)),
            SnapSlab::Pmap(v) => EitherIter::B(v.iter().map(Option::as_deref)),
        }
    }

    /// Live slots in ascending id order.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = &T> {
        self.iter_slots().flatten()
    }
}

impl<T> Clone for SnapSlab<T> {
    fn clone(&self) -> Self {
        match self {
            SnapSlab::Dense(v) => SnapSlab::Dense(Arc::clone(v)),
            SnapSlab::Pmap(v) => SnapSlab::Pmap(v.clone()),
        }
    }
}

impl<T: Clone + fmt::Debug> fmt::Debug for SnapSlab<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter_live()).finish()
    }
}

/// Per-vertex adjacency (out or in). Lists are maintained in ascending
/// edge-id order by construction — edges allocate monotonically and
/// removal preserves order — in both modes. In Pmap mode each list is
/// itself a [`PVec`]: appending to a hub's list copies one ≤32-id node
/// per level, and a low-degree list is a single exactly sized leaf.
pub(crate) enum SnapAdj {
    Dense(Arc<Vec<Vec<EdgeId>>>),
    Pmap(PVec<PVec<EdgeId>>),
}

impl SnapAdj {
    pub(crate) fn new_with(mode: SnapshotImpl) -> Self {
        Self::with_capacity(mode, 0)
    }

    pub(crate) fn with_capacity(mode: SnapshotImpl, cap: usize) -> Self {
        match mode {
            SnapshotImpl::Cow => SnapAdj::Dense(Arc::new(Vec::with_capacity(cap))),
            SnapshotImpl::Pmap => SnapAdj::Pmap(PVec::new()),
        }
    }

    /// Registers a newly allocated vertex slot with an empty list (an
    /// empty `PVec` allocates nothing).
    pub(crate) fn push_empty(&mut self) {
        match self {
            SnapAdj::Dense(v) => Arc::make_mut(v).push(Vec::new()),
            SnapAdj::Pmap(v) => v.push(PVec::new()),
        }
    }

    /// Appends an incident edge to vertex `v`'s list. Callers only ever
    /// append freshly allocated (maximal) edge ids, preserving ascending
    /// order in both modes.
    pub(crate) fn add(&mut self, v: usize, e: EdgeId) {
        match self {
            SnapAdj::Dense(adj) => Arc::make_mut(adj)[v].push(e),
            SnapAdj::Pmap(adj) => adj.get_mut(v).expect("vertex slot registered").push(e),
        }
    }

    /// Drops edge `e` from vertex `v`'s list (edge removal).
    pub(crate) fn remove(&mut self, v: usize, e: EdgeId) {
        match self {
            SnapAdj::Dense(adj) => Arc::make_mut(adj)[v].retain(|&x| x != e),
            SnapAdj::Pmap(adj) => {
                if let Some(list) = adj.get_mut(v) {
                    list.remove_sorted(&e);
                }
            }
        }
    }

    /// Vertex `v`'s incident edge ids in ascending id order; an unknown
    /// vertex yields an empty iterator.
    #[inline]
    pub(crate) fn edge_ids(&self, v: usize) -> impl Iterator<Item = EdgeId> + '_ {
        match self {
            SnapAdj::Dense(adj) => EitherIter::A(adj.get(v).into_iter().flatten().copied()),
            SnapAdj::Pmap(adj) => {
                EitherIter::B(adj.get(v).map(PVec::iter).unwrap_or_default().copied())
            }
        }
    }
}

impl Clone for SnapAdj {
    fn clone(&self) -> Self {
        match self {
            SnapAdj::Dense(v) => SnapAdj::Dense(Arc::clone(v)),
            SnapAdj::Pmap(v) => SnapAdj::Pmap(v.clone()),
        }
    }
}

impl fmt::Debug for SnapAdj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapAdj::Dense(v) => f.debug_list().entries(v.iter()).finish(),
            SnapAdj::Pmap(v) => f.debug_list().entries(v.iter()).finish(),
        }
    }
}

/// Label → ids of the vertices carrying it, each posting list in
/// ascending id order (vertex ids allocate monotonically). A posting
/// list is a [`PVec`], so adding a vertex under a pinned snapshot
/// copies O(log₃₂ |label|) nodes of its labels' lists, not the lists.
#[derive(Clone, Debug)]
pub(crate) struct LabelIndex(SnapMap<Label, PVec<VertexId>>);

impl LabelIndex {
    pub(crate) fn new_with(mode: SnapshotImpl) -> Self {
        Self(SnapMap::new_with(mode))
    }

    /// Appends `v` (the newest vertex) to `label`'s posting list.
    pub(crate) fn add(&mut self, label: &Label, v: VertexId) {
        match self.0.get_mut(label) {
            Some(list) => list.push(v),
            None => {
                self.0.insert(label.clone(), std::iter::once(v).collect());
            }
        }
    }

    /// Drops `v` from `label`'s posting list.
    pub(crate) fn remove(&mut self, label: &Label, v: VertexId) {
        if let Some(list) = self.0.get_mut(label) {
            list.remove_sorted(&v);
        }
    }

    /// The posting list of `label` (empty for an unknown label).
    pub(crate) fn ids(&self, label: &str) -> impl Iterator<Item = VertexId> + '_ {
        self.0
            .get(label)
            .map(PVec::iter)
            .unwrap_or_default()
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_modes(f: impl Fn(SnapshotImpl)) {
        f(SnapshotImpl::Cow);
        f(SnapshotImpl::Pmap);
    }

    #[test]
    fn slab_alloc_take_and_iteration_order() {
        both_modes(|mode| {
            let mut s: SnapSlab<u32> = SnapSlab::new_with(mode);
            assert_eq!(s.push_slot(Some(10)), 0);
            assert_eq!(s.push_slot(None), 1);
            assert_eq!(s.push_slot(Some(30)), 2);
            assert_eq!(s.slots(), 3);
            assert_eq!(s.live(), 2);
            assert_eq!(s.get(0), Some(&10));
            assert_eq!(s.get(1), None);
            assert_eq!(s.take(2), Some(30));
            assert_eq!(s.take(2), None);
            assert_eq!(s.slots(), 3, "tombstoning keeps the high-water mark");
            *s.get_mut(0).unwrap() = 11;
            let live: Vec<u32> = s.iter_live().copied().collect();
            assert_eq!(live, vec![11]);
        });
    }

    #[test]
    fn adj_add_remove_and_order() {
        both_modes(|mode| {
            let mut a = SnapAdj::new_with(mode);
            a.push_empty();
            a.push_empty();
            a.add(0, EdgeId::new(0));
            a.add(0, EdgeId::new(3));
            a.add(1, EdgeId::new(5));
            let ids: Vec<u64> = a.edge_ids(0).map(|e| e.raw()).collect();
            assert_eq!(ids, vec![0, 3]);
            a.remove(0, EdgeId::new(0));
            let ids: Vec<u64> = a.edge_ids(0).map(|e| e.raw()).collect();
            assert_eq!(ids, vec![3]);
            assert_eq!(a.edge_ids(99).count(), 0);
        });
    }

    #[test]
    fn modes_produce_identical_views() {
        let mut adj = [SnapshotImpl::Cow, SnapshotImpl::Pmap].map(SnapAdj::new_with);
        let mut slab = [SnapshotImpl::Cow, SnapshotImpl::Pmap].map(SnapSlab::<u64>::new_with);
        let mut idx = [SnapshotImpl::Cow, SnapshotImpl::Pmap].map(LabelIndex::new_with);
        let labels = [Label::new("A"), Label::new("B")];
        for m in 0..2 {
            for v in 0..40u64 {
                adj[m].push_empty();
                slab[m].push_slot(Some(v * 10));
                idx[m].add(&labels[(v % 2) as usize], VertexId::new(v));
                if v % 3 == 0 {
                    idx[m].add(&labels[1], VertexId::new(v));
                }
            }
            for e in 0..120u64 {
                adj[m].add((e % 40) as usize, EdgeId::new(e));
            }
            adj[m].remove(2, EdgeId::new(42));
            adj[m].remove(0, EdgeId::new(0));
            *slab[m].get_mut(7).unwrap() += 1;
            slab[m].take(33);
            idx[m].remove(&labels[1], VertexId::new(33));
            idx[m].remove(&labels[0], VertexId::new(4));
        }
        let [d, p] = &adj;
        for v in 0..41 {
            assert!(d.edge_ids(v).eq(p.edge_ids(v)), "adjacency of {v}");
        }
        let [d, p] = &slab;
        assert_eq!(d.slots(), p.slots());
        assert!(d.iter_slots().eq(p.iter_slots()));
        assert!(d.iter_live().eq(p.iter_live()));
        let [d, p] = &idx;
        for l in ["A", "B", "C"] {
            assert!(d.ids(l).eq(p.ids(l)), "posting list of {l}");
        }
        assert_eq!(p.ids("B").filter(|v| v.raw() == 33).count(), 0);
    }

    #[test]
    fn hub_append_copies_one_node_per_level() {
        let mut a = SnapAdj::new_with(SnapshotImpl::Pmap);
        a.push_empty();
        a.push_empty();
        for e in 0..10_000u64 {
            a.add(0, EdgeId::new(e));
        }
        let pinned = a.clone();
        a.add(0, EdgeId::new(10_000));
        let (SnapAdj::Pmap(live), SnapAdj::Pmap(old)) = (&a, &pinned) else {
            unreachable!("built in pmap mode")
        };
        // the outer table (two vertices) is one leaf; the hub's 10k ids
        // sit three levels deep, so the append copies three nodes
        assert_eq!(live.unshared_nodes(old), 1);
        let (hub, old_hub) = (live.get(0).unwrap(), old.get(0).unwrap());
        assert_eq!(hub.unshared_nodes(old_hub), 3);
        assert_eq!(
            pinned.edge_ids(0).count(),
            10_000,
            "the pinned view is frozen"
        );
        assert_eq!(a.edge_ids(0).last(), Some(EdgeId::new(10_000)));
    }

    #[test]
    fn label_add_under_a_pinned_snapshot_copies_one_path() {
        let label = Label::new("Station");
        let mut idx = LabelIndex::new_with(SnapshotImpl::Pmap);
        for v in 0..10_000u64 {
            idx.add(&label, VertexId::new(v));
        }
        let pinned = idx.clone();
        idx.add(&label, VertexId::new(10_000));
        let (live, old) = (
            idx.0.get("Station").unwrap(),
            pinned.0.get("Station").unwrap(),
        );
        assert_eq!(live.unshared_nodes(old), 3);
        assert_eq!(pinned.ids("Station").count(), 10_000);
        assert_eq!(idx.ids("Station").count(), 10_001);
    }

    #[test]
    fn slab_get_mut_clones_only_the_element() {
        let mut s: SnapSlab<Vec<u8>> = SnapSlab::new_with(SnapshotImpl::Pmap);
        for i in 0..100u8 {
            s.push_slot(Some(vec![i]));
        }
        let pinned = s.clone();
        s.get_mut(50).unwrap().push(1);
        let (SnapSlab::Pmap(live), SnapSlab::Pmap(old)) = (&s, &pinned) else {
            unreachable!("built in pmap mode")
        };
        // root + one leaf copied; the 31 other elements of that leaf
        // are still the pinned snapshot's allocations
        assert_eq!(live.unshared_nodes(old), 2);
        let shared = (32..64)
            .filter(|&i| {
                let (a, b) = (live.get(i).unwrap(), old.get(i).unwrap());
                Arc::ptr_eq(a.as_ref().unwrap(), b.as_ref().unwrap())
            })
            .count();
        assert_eq!(shared, 31);
        assert_eq!(pinned.get(50), Some(&vec![50]));
    }
}
