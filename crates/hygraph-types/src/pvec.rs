//! Persistent radix vector for dense-id storage.
//!
//! Vertex and edge ids are allocated densely from 0, so the tables and
//! adjacency lists keyed by them are arrays, not maps. [`PVec`] is the
//! persistent form of an array: a trie of 32-slot nodes indexed by the
//! id's 5-bit digits, most-significant digit at the root. `clone` is one
//! `Arc` bump; a write path-copies only the ⌈log₃₂ n⌉ nodes above the
//! touched slot, so a snapshot pinned by a reader never makes the next
//! commit copy the whole table. A read is ⌈log₃₂ n⌉ array hops with no
//! hashing, and iteration walks the leaves left to right, in ascending
//! index order.
//!
//! # Shape
//!
//! The shape is a pure function of the length: every leaf but the last
//! holds exactly 32 elements, the last one holds the remainder and is
//! sized to it, and the height is the least that fits the length. A
//! vector of 7 elements is therefore one 7-slot leaf (one allocation);
//! appending to a long one copies at most one ≤32-slot node per level
//! while the rest stays shared with every earlier clone.

use std::fmt;
use std::sync::Arc;

/// Bits of the index consumed per trie level.
const BITS: u32 = 5;
/// Slots per node.
const WIDTH: usize = 1 << BITS;
/// Mask selecting one level's digit.
const MASK: usize = WIDTH - 1;

/// A trie node: leaves hold elements, branches hold subtrees. Both are
/// exactly sized shared slices, so a node is one allocation and a hop
/// is one pointer dereference.
enum Node<T> {
    Leaf(Arc<[T]>),
    Branch(Arc<[Node<T>]>),
}

impl<T> Clone for Node<T> {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            Node::Leaf(items) => Node::Leaf(Arc::clone(items)),
            Node::Branch(kids) => Node::Branch(Arc::clone(kids)),
        }
    }
}

impl<T> Node<T> {
    /// Address of the node's allocation (the sharing probe's identity).
    fn addr(&self) -> usize {
        match self {
            Node::Leaf(items) => Arc::as_ptr(items) as *const u8 as usize,
            Node::Branch(kids) => Arc::as_ptr(kids) as *const u8 as usize,
        }
    }

    /// Calls `f` on this node and, recursively, on every descendant for
    /// which `f` returns `true`.
    fn visit(&self, f: &mut impl FnMut(&Node<T>) -> bool) {
        if f(self) {
            if let Node::Branch(kids) = self {
                for kid in kids.iter() {
                    kid.visit(f);
                }
            }
        }
    }
}

/// The level shift of the root for a vector of `len` elements: 0 when
/// the root is a leaf, 5 per branch level above it.
#[inline]
fn root_shift(len: usize) -> u32 {
    let bits = usize::BITS - len.saturating_sub(1).leading_zeros();
    bits.saturating_sub(1) / BITS * BITS
}

/// A single-element path from a node at `shift` down to its leaf.
fn path<T>(shift: u32, value: T) -> Node<T> {
    if shift == 0 {
        Node::Leaf(Arc::new([value]))
    } else {
        Node::Branch(Arc::new([path(shift - BITS, value)]))
    }
}

/// `items` with `value` appended, as a fresh exactly sized slice.
fn appended<T: Clone>(items: &[T], value: T) -> Arc<[T]> {
    items
        .iter()
        .cloned()
        .chain(std::iter::once(value))
        .collect()
}

/// Appends `value` at index `idx` (the current length) below `node`.
fn push_rec<T: Clone>(node: &mut Node<T>, shift: u32, idx: usize, value: T) {
    match node {
        Node::Leaf(items) => *items = appended(items, value),
        Node::Branch(kids) => {
            let slot = (idx >> shift) & MASK;
            if slot < kids.len() {
                push_rec(&mut Arc::make_mut(kids)[slot], shift - BITS, idx, value);
            } else {
                *kids = appended(kids, path(shift - BITS, value));
            }
        }
    }
}

/// Keeps the first `keep` (≥ 1) elements below `node`.
fn truncate_rec<T: Clone>(node: &mut Node<T>, shift: u32, keep: usize) {
    match node {
        Node::Leaf(items) => {
            if keep < items.len() {
                *items = items[..keep].into();
            }
        }
        Node::Branch(kids) => {
            let last = (keep - 1) >> shift;
            if last + 1 < kids.len() {
                *kids = kids[..=last].into();
            }
            let within = keep - (last << shift);
            truncate_rec(&mut Arc::make_mut(kids)[last], shift - BITS, within);
        }
    }
}

/// A persistent vector: O(1) `clone`, O(log₃₂ n) `get`, `push` and
/// `get_mut` by path copying, ascending-index iteration. See the module
/// docs for the shape contract.
pub struct PVec<T> {
    root: Option<Node<T>>,
    len: usize,
}

impl<T> Clone for PVec<T> {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        Self { root: None, len: 0 }
    }
}

impl<T> PVec<T> {
    /// The empty vector (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&T> {
        if idx >= self.len {
            return None;
        }
        Some(&self.leaf_of(idx)[idx & MASK])
    }

    /// The leaf holding index `idx` (which must be in bounds).
    #[inline]
    fn leaf_of(&self, idx: usize) -> &[T] {
        let mut shift = root_shift(self.len);
        let mut node = self.root.as_ref().expect("index in bounds");
        loop {
            match node {
                Node::Leaf(items) => return items,
                Node::Branch(kids) => {
                    node = &kids[(idx >> shift) & MASK];
                    shift -= BITS;
                }
            }
        }
    }

    /// Elements in ascending index order.
    pub fn iter(&self) -> Iter<'_, T> {
        self.iter_from(0)
    }

    /// Elements from index `start` on, in ascending index order.
    pub fn iter_from(&self, start: usize) -> Iter<'_, T> {
        if start >= self.len {
            return Iter::default();
        }
        Iter {
            vec: Some(self),
            leaf: self.leaf_of(start)[start & MASK..].iter(),
            next_leaf: (start | MASK) + 1,
        }
    }

    /// The number of leading elements for which `pred` holds, assuming
    /// it holds for a prefix and fails for the rest (the contract of
    /// [`slice::partition_point`]); a binary search over the trie.
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(&self.leaf_of(mid)[mid & MASK]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// How many of this vector's nodes are not shared with `base` (a
    /// node counts as shared when `base` holds the very same
    /// allocation, anywhere). After `let base = v.clone()` and one
    /// write to `v`, this is the number of nodes that write copied —
    /// the structural-sharing probe the tests assert on.
    pub fn unshared_nodes(&self, base: &Self) -> usize {
        let mut seen = std::collections::HashSet::new();
        if let Some(root) = &base.root {
            root.visit(&mut |n| seen.insert(n.addr()));
        }
        let mut fresh = 0;
        if let Some(root) = &self.root {
            root.visit(&mut |n| {
                let new = !seen.contains(&n.addr());
                fresh += new as usize;
                new
            });
        }
        fresh
    }
}

impl<T: Clone> PVec<T> {
    /// Appends `value`. Copies at most one ≤32-slot node per level (the
    /// ones on the path to the last leaf); everything else stays shared.
    pub fn push(&mut self, value: T) {
        let idx = self.len;
        let shift = root_shift(idx);
        match &mut self.root {
            None => self.root = Some(path(0, value)),
            // A full root gains a parent: the old tree becomes its first
            // child, unchanged and still shared.
            Some(root) if idx == WIDTH << shift => {
                let old = root.clone();
                *root = Node::Branch(Arc::new([old, path(shift, value)]));
            }
            Some(root) => push_rec(root, shift, idx, value),
        }
        self.len += 1;
    }

    /// Mutable access to the element at `idx`, path-copying the shared
    /// nodes above it. Out of range copies nothing.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut T> {
        if idx >= self.len {
            return None;
        }
        let mut shift = root_shift(self.len);
        let mut node = self.root.as_mut()?;
        loop {
            match node {
                Node::Leaf(items) => return Some(&mut Arc::make_mut(items)[idx & MASK]),
                Node::Branch(kids) => {
                    node = &mut Arc::make_mut(kids)[(idx >> shift) & MASK];
                    shift -= BITS;
                }
            }
        }
    }

    /// Shortens the vector to `len` elements (no-op if already shorter).
    /// The kept prefix stays shared except for the nodes on the path to
    /// the new last element, and the shape is the canonical one for
    /// the new length.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        if len == 0 {
            *self = Self::new();
            return;
        }
        let root = self.root.as_mut().expect("non-empty");
        truncate_rec(root, root_shift(self.len), len);
        // Drop the levels the shorter length no longer needs: each one
        // is a branch whose only child is the first.
        for _ in 0..(root_shift(self.len) - root_shift(len)) / BITS {
            let Node::Branch(kids) = root else {
                unreachable!("a level above the new height is a branch")
            };
            *root = kids[0].clone();
        }
        self.len = len;
    }

    /// Removes every element equal to `value` from a vector sorted in
    /// ascending order. The prefix below `value` stays shared; the
    /// elements after it are re-appended, so the cost is the length of
    /// that suffix (nothing for the most recent element).
    pub fn remove_sorted(&mut self, value: &T)
    where
        T: Ord,
    {
        let lo = self.partition_point(|x| x < value);
        let hi = lo + self.iter_from(lo).take_while(|x| *x == value).count();
        if lo == hi {
            return;
        }
        let tail: Vec<T> = self.iter_from(hi).cloned().collect();
        self.truncate(lo);
        self.extend(tail);
    }
}

impl<T: Clone> FromIterator<T> for PVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

impl<T: Clone> Extend<T> for PVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for value in iter {
            self.push(value);
        }
    }
}

impl<'a, T> IntoIterator for &'a PVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for PVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for PVec<T> {}

/// Iterator over a [`PVec`] in ascending index order: one slice
/// iterator per leaf, and one root-to-leaf descent per 32 elements.
pub struct Iter<'a, T> {
    vec: Option<&'a PVec<T>>,
    leaf: std::slice::Iter<'a, T>,
    next_leaf: usize,
}

impl<T> Default for Iter<'_, T> {
    fn default() -> Self {
        Self {
            vec: None,
            leaf: [].iter(),
            next_leaf: 0,
        }
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        if let Some(x) = self.leaf.next() {
            return Some(x);
        }
        let vec = self.vec?;
        if self.next_leaf >= vec.len {
            return None;
        }
        self.leaf = vec.leaf_of(self.next_leaf).iter();
        self.next_leaf += WIDTH;
        self.leaf.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.vec.map_or(0, |v| v.len.saturating_sub(self.next_leaf));
        let n = self.leaf.len() + rest;
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_shift_is_the_least_height_that_fits() {
        assert_eq!(root_shift(0), 0);
        assert_eq!(root_shift(1), 0);
        assert_eq!(root_shift(32), 0);
        assert_eq!(root_shift(33), 5);
        assert_eq!(root_shift(1024), 5);
        assert_eq!(root_shift(1025), 10);
        assert_eq!(root_shift(32 * 1024), 10);
        assert_eq!(root_shift(32 * 1024 + 1), 15);
    }

    #[test]
    fn push_get_iterate_across_levels() {
        let mut v = PVec::new();
        for i in 0..5000u32 {
            v.push(i);
        }
        assert_eq!(v.len(), 5000);
        for i in 0..5000u32 {
            assert_eq!(v.get(i as usize), Some(&i));
        }
        assert_eq!(v.get(5000), None);
        assert!(v.iter().copied().eq(0..5000));
        assert!(v.iter_from(1234).copied().eq(1234..5000));
        assert_eq!(v.iter_from(40).len(), 4960);
        assert_eq!(v.iter_from(5000).count(), 0);
    }

    #[test]
    fn get_mut_copies_only_the_path() {
        let mut v: PVec<u32> = (0..2000).collect();
        let base = v.clone();
        assert_eq!(v.get_mut(9999), None);
        assert_eq!(v.unshared_nodes(&base), 0, "a miss copies nothing");
        *v.get_mut(1500).unwrap() = 7;
        // height 3 for 2000 elements: root, one branch, one leaf
        assert_eq!(v.unshared_nodes(&base), 3);
        assert_eq!(base.get(1500), Some(&1500));
        assert_eq!(v.get(1500), Some(&7));
    }

    #[test]
    fn truncate_restores_the_canonical_shape() {
        for (from, to) in [
            (2000, 33),
            (2000, 32),
            (1025, 1024),
            (40, 1),
            (100, 0),
            (64, 64),
        ] {
            let mut v: PVec<usize> = (0..from).collect();
            v.truncate(to);
            let fresh: PVec<usize> = (0..to).collect();
            assert_eq!(v, fresh);
            assert_eq!(root_shift(v.len()), root_shift(to));
            // regrowing after a truncate lands in the right slots
            v.extend(to..to + 70);
            assert!(v.iter().copied().eq(0..to + 70));
        }
    }

    #[test]
    fn remove_sorted_drops_every_copy() {
        let mut v: PVec<u32> = [1, 3, 3, 5, 8].into_iter().collect();
        v.remove_sorted(&3);
        assert!(v.iter().copied().eq([1, 5, 8]));
        v.remove_sorted(&4);
        assert!(v.iter().copied().eq([1, 5, 8]));
        v.remove_sorted(&8);
        v.remove_sorted(&1);
        assert!(v.iter().copied().eq([5]));
        v.remove_sorted(&5);
        assert!(v.is_empty());
    }

    #[test]
    fn appending_to_a_hub_copies_one_node_per_level() {
        let hub: PVec<u64> = (0..10_000).collect();
        let mut next = hub.clone();
        next.push(10_000);
        // 10k ids sit three levels deep; the append copies that path
        assert_eq!(next.unshared_nodes(&hub), 3);
        assert_eq!(hub.len(), 10_000);
        assert_eq!(next.get(10_000), Some(&10_000));
        // a push that fills the root grows a level and copies one path
        let full: PVec<u64> = (0..1024).collect();
        let mut grown = full.clone();
        grown.push(1024);
        assert_eq!(grown.unshared_nodes(&full), 3);
    }
}
