//! Persistent (structurally shared) maps for snapshot publication.
//!
//! The sharded engine publishes an immutable `HyGraph` snapshot per
//! commit epoch and readers pin it wait-free. With ordinary `HashMap`s
//! behind `Arc::make_mut`, a pinned snapshot forces the *next* commit to
//! deep-copy every interior map it touches — O(graph) per commit the
//! moment one reader holds an old epoch. [`PMap`] replaces that with a
//! hash-array-mapped trie mutated by **path copying**: `clone` is O(1)
//! (one `Arc` bump per map), and an insert/remove while old snapshots
//! are pinned copies only the O(log n) nodes on the touched path.
//! Everything else stays shared between epochs, which is exactly the
//! structural-sharing version-chain organisation MVCC graph stores use
//! to make snapshot isolation cheap.
//!
//! # Determinism contract
//!
//! Checkpoint and WAL encodings are canonical — byte-identical for equal
//! logical state — so iteration order must be a pure function of the
//! *key set*, never of insertion history. [`PMap`] guarantees this two
//! ways:
//!
//! * The trie consumes the 64-bit [`PmapKey::pmap_hash`] in 6-bit chunks
//!   **most-significant bits first**, and branch children are kept in
//!   ascending chunk order, so iteration yields ascending hash order.
//!   Id keys ([`VertexId`], [`EdgeId`], [`SeriesId`], [`SubgraphId`],
//!   `u64`) hash to themselves, making iteration *ascending id order* —
//!   identical to the `BTreeMap`/dense-`Vec` order the codecs were built
//!   on. String-ish keys ([`Label`]) use FNV-1a; their order is
//!   hash-determined but still history-independent.
//! * Full 64-bit hash collisions live in one leaf with entries sorted by
//!   `K: Ord`, and the trie is **path-compressed**: every branch records
//!   the chunk depth it discriminates at and always has ≥ 2 children, so
//!   a branch exists exactly at the depths where the key set's hashes
//!   first diverge. The tree *shape* (not just the iteration order) is
//!   therefore canonical for a given key set — and dense id ranges,
//!   whose hashes share all their high bits, stay 2–3 levels deep
//!   instead of descending one near-empty level per shared 6-bit chunk.
//!
//! # Choosing an implementation
//!
//! [`SnapshotImpl`] selects between the legacy copy-on-write collections
//! (`cow`) and the persistent ones (`pmap`, the default) at store
//! construction time, via the same layered precedence as
//! [`crate::shard::ShardConfig`]: explicit argument, else installed
//! override, else the `HYGRAPH_SNAPSHOT_IMPL` environment variable, else
//! `pmap`. [`SnapMap`] is the dual-mode map the model layers store so
//! either implementation can be picked per store without generics
//! leaking through every signature.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::ids::{EdgeId, Label, PropertyKey, SeriesId, SubgraphId, VertexId};

// ---------------------------------------------------------------------------
// Key hashing
// ---------------------------------------------------------------------------

/// Key contract for [`PMap`]: a stable 64-bit hash plus a total order
/// for collision leaves. The hash must be a pure function of the key's
/// logical value (stable across processes and versions — checkpoint
/// layouts built on iteration order depend on it).
pub trait PmapKey: Clone + Eq + Ord {
    /// The full 64-bit hash the trie is keyed on. Identity for integer
    /// ids (so iteration is ascending id order); FNV-1a for strings.
    fn pmap_hash(&self) -> u64;
}

/// FNV-1a over a byte string: the workspace's stable string hash.
/// Deliberately not `DefaultHasher` (SipHash is randomly keyed per
/// process, which would make trie shapes non-deterministic).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl PmapKey for u64 {
    #[inline]
    fn pmap_hash(&self) -> u64 {
        *self
    }
}

macro_rules! id_pmap_key {
    ($($t:ty),*) => {$(
        impl PmapKey for $t {
            #[inline]
            fn pmap_hash(&self) -> u64 {
                self.raw()
            }
        }
    )*};
}
id_pmap_key!(VertexId, EdgeId, SeriesId, SubgraphId);

impl PmapKey for Label {
    #[inline]
    fn pmap_hash(&self) -> u64 {
        fnv1a(self.as_str().as_bytes())
    }
}

impl PmapKey for PropertyKey {
    #[inline]
    fn pmap_hash(&self) -> u64 {
        fnv1a(self.as_str().as_bytes())
    }
}

impl PmapKey for String {
    #[inline]
    fn pmap_hash(&self) -> u64 {
        fnv1a(self.as_bytes())
    }
}

// ---------------------------------------------------------------------------
// The trie
// ---------------------------------------------------------------------------

/// Depth index of the last hash chunk: chunks 0..=9 are 6 bits each
/// (60 bits), chunk 10 is the final 4 bits. Beyond depth 10 two keys
/// share the full 64-bit hash and live in one sorted collision leaf.
const LAST_CHUNK: usize = 10;

/// The `depth`-th chunk of `hash`, most-significant bits first.
#[inline]
fn chunk(hash: u64, depth: usize) -> u64 {
    debug_assert!(depth <= LAST_CHUNK);
    if depth < LAST_CHUNK {
        (hash >> (58 - 6 * depth)) & 0x3f
    } else {
        hash & 0x0f
    }
}

/// Mask selecting the chunks *above* `depth` (the prefix a branch at
/// `depth` requires all its keys to share). Depth 0 has no prefix.
#[inline]
fn prefix_mask(depth: usize) -> u64 {
    debug_assert!(depth <= LAST_CHUNK);
    if depth == 0 {
        0
    } else {
        !0u64 << (64 - 6 * depth.min(LAST_CHUNK))
    }
}

/// The first chunk depth at which two *distinct* hashes differ.
#[inline]
fn diverge_depth(a: u64, b: u64) -> usize {
    debug_assert_ne!(a, b);
    (((a ^ b).leading_zeros() as usize) / 6).min(LAST_CHUNK)
}

#[derive(Clone)]
enum Node<K, V> {
    /// Path-compressed interior node discriminating on chunk `depth`:
    /// every key below shares the hash prefix above `depth` (`prefix`,
    /// with chunks ≥ `depth` zeroed), `bitmap` bit `c` set means a
    /// child exists for chunk value `c`, and `children` holds them in
    /// ascending chunk order. Canonical shape: a branch always has
    /// ≥ 2 children, so branches sit exactly at divergence depths.
    Branch {
        depth: u8,
        prefix: u64,
        bitmap: u64,
        children: Vec<Arc<Node<K, V>>>,
    },
    /// All keys sharing one full 64-bit hash, sorted by `K`.
    /// `entries.len() > 1` only on a genuine hash collision.
    Leaf { hash: u64, entries: Vec<(K, V)> },
}

/// A persistent hash-array-mapped-trie map: O(1) `clone`, O(log n)
/// insert/remove by path copying, deterministic iteration (ascending
/// `(pmap_hash, key)`). See the module docs for the full contract.
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for PMap<K, V> {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        Self { root: None, len: 0 }
    }
}

impl<K: PmapKey, V: Clone> PMap<K, V> {
    /// The empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `self` and `other` share their root node — i.e. no
    /// divergence has happened since one was cloned from the other.
    /// Test probe for the "miss doesn't copy" contract.
    pub fn shares_root_with(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        let hash = key.pmap_hash();
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Leaf { hash: h, entries } => {
                    if *h != hash {
                        return None;
                    }
                    return entries
                        .binary_search_by(|(k, _)| k.cmp(key))
                        .ok()
                        .map(|i| &entries[i].1);
                }
                // The prefix is not re-checked on the way down: a
                // mismatched descent can only end at a leaf whose full
                // hash differs (or a missing bitmap bit), both misses.
                Node::Branch {
                    depth,
                    bitmap,
                    children,
                    ..
                } => {
                    let bit = 1u64 << chunk(hash, *depth as usize);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    let idx = (bitmap & (bit - 1)).count_ones() as usize;
                    node = &children[idx];
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Mutable point lookup. A **miss copies nothing**: presence is
    /// probed read-only first, so only a hit path-copies shared nodes.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        if !self.contains_key(key) {
            return None;
        }
        let hash = key.pmap_hash();
        let mut node: &mut Node<K, V> = Arc::make_mut(self.root.as_mut()?);
        loop {
            match node {
                Node::Leaf { entries, .. } => {
                    let i = entries
                        .binary_search_by(|(k, _)| k.cmp(key))
                        .expect("probed present above");
                    return Some(&mut entries[i].1);
                }
                Node::Branch {
                    depth,
                    bitmap,
                    children,
                    ..
                } => {
                    let bit = 1u64 << chunk(hash, *depth as usize);
                    let idx = (*bitmap & (bit - 1)).count_ones() as usize;
                    node = Arc::make_mut(&mut children[idx]);
                }
            }
        }
    }

    /// Inserts `key → value`, returning the previous value if any.
    /// Copies only the nodes on the root→leaf path that are shared.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = key.pmap_hash();
        let old = match &mut self.root {
            None => {
                self.root = Some(Arc::new(Node::Leaf {
                    hash,
                    entries: vec![(key, value)],
                }));
                None
            }
            Some(root) => insert_rec(root, hash, key, value),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes `key`, returning its value if present. A miss copies
    /// nothing. Removal restores the canonical shape: a branch left
    /// with a single leaf child collapses back up the path.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let hash = key.pmap_hash();
        let root = self.root.as_mut().expect("non-empty: key present");
        let (value, now_empty) = remove_rec(root, hash, key);
        if now_empty {
            self.root = None;
        }
        self.len -= 1;
        Some(value)
    }

    /// Iterates entries in ascending `(pmap_hash, key)` order — for
    /// identity-hashed id keys, ascending id order.
    pub fn iter(&self) -> PMapIter<'_, K, V> {
        PMapIter {
            stack: match &self.root {
                Some(root) => vec![(root.as_ref(), 0)],
                None => Vec::new(),
            },
        }
    }

    /// Iterates keys in the same deterministic order as [`Self::iter`].
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in the same deterministic order as [`Self::iter`].
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

/// The hash prefix a node constrains: a leaf pins the full hash, a
/// branch pins the chunks above its discrimination depth (lower
/// chunks zero).
#[inline]
fn node_key<K, V>(node: &Node<K, V>) -> u64 {
    match node {
        Node::Leaf { hash, .. } => *hash,
        Node::Branch { prefix, .. } => *prefix,
    }
}

fn insert_rec<K: PmapKey, V: Clone>(
    slot: &mut Arc<Node<K, V>>,
    hash: u64,
    key: K,
    value: V,
) -> Option<V> {
    // Does `hash` belong inside this node's subtree? A leaf requires
    // the full hash; a branch requires its prefix above `depth`.
    let belongs = match &**slot {
        Node::Leaf { hash: h, .. } => *h == hash,
        Node::Branch { depth, prefix, .. } => hash & prefix_mask(*depth as usize) == *prefix,
    };
    if !belongs {
        // Split: a fresh 2-child branch at the first divergent chunk.
        // The old node (leaf *or* whole branch subtree) is moved under
        // it untouched — no `make_mut`, nothing below is copied.
        let old_hash = node_key(&**slot);
        let d = diverge_depth(hash, old_hash);
        let new_leaf = Arc::new(Node::Leaf {
            hash,
            entries: vec![(key, value)],
        });
        let placeholder = Arc::new(Node::Leaf {
            hash,
            entries: Vec::new(),
        });
        let old = std::mem::replace(slot, placeholder);
        let (ca, cb) = (chunk(old_hash, d), chunk(hash, d));
        debug_assert_ne!(ca, cb, "divergence depth must separate the chunks");
        let children = if ca < cb {
            vec![old, new_leaf]
        } else {
            vec![new_leaf, old]
        };
        *slot = Arc::new(Node::Branch {
            depth: d as u8,
            prefix: hash & prefix_mask(d),
            bitmap: (1u64 << ca) | (1u64 << cb),
            children,
        });
        return None;
    }
    match Arc::make_mut(slot) {
        Node::Leaf { entries, .. } => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, value)),
            Err(i) => {
                entries.insert(i, (key, value));
                None
            }
        },
        Node::Branch {
            depth,
            bitmap,
            children,
            ..
        } => {
            let bit = 1u64 << chunk(hash, *depth as usize);
            let idx = (*bitmap & (bit - 1)).count_ones() as usize;
            if *bitmap & bit != 0 {
                insert_rec(&mut children[idx], hash, key, value)
            } else {
                *bitmap |= bit;
                children.insert(
                    idx,
                    Arc::new(Node::Leaf {
                        hash,
                        entries: vec![(key, value)],
                    }),
                );
                None
            }
        }
    }
}

/// Removes a key known to be present. Returns `(value, slot now empty)`.
fn remove_rec<K: PmapKey, V: Clone>(slot: &mut Arc<Node<K, V>>, hash: u64, key: &K) -> (V, bool) {
    let (value, now_empty, collapse) = match Arc::make_mut(slot) {
        Node::Leaf { entries, .. } => {
            let i = entries
                .binary_search_by(|(k, _)| k.cmp(key))
                .expect("caller probed presence");
            let (_, v) = entries.remove(i);
            (v, entries.is_empty(), None)
        }
        Node::Branch {
            bitmap,
            children,
            depth,
            ..
        } => {
            let bit = 1u64 << chunk(hash, *depth as usize);
            let idx = (*bitmap & (bit - 1)).count_ones() as usize;
            let (v, child_empty) = remove_rec(&mut children[idx], hash, key);
            if child_empty {
                children.remove(idx);
                *bitmap &= !bit;
            }
            // Canonical-shape repair: a branch down to one child is no
            // longer a divergence point, so the survivor (leaf or
            // branch — it carries its own depth) replaces it wholesale.
            let collapse = if children.len() == 1 {
                children.pop()
            } else {
                None
            };
            (v, children.is_empty() && collapse.is_none(), collapse)
        }
    };
    if let Some(survivor) = collapse {
        *slot = survivor;
    }
    (value, now_empty)
}

/// Depth-first in-order iterator over a [`PMap`].
pub struct PMapIter<'a, K, V> {
    stack: Vec<(&'a Node<K, V>, usize)>,
}

impl<'a, K, V> Iterator for PMapIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, cursor)) = self.stack.last_mut() {
            match node {
                Node::Leaf { entries, .. } => {
                    if *cursor < entries.len() {
                        let (k, v) = &entries[*cursor];
                        *cursor += 1;
                        return Some((k, v));
                    }
                    self.stack.pop();
                }
                Node::Branch { children, .. } => {
                    if *cursor < children.len() {
                        let child = children[*cursor].as_ref();
                        *cursor += 1;
                        self.stack.push((child, 0));
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
        None
    }
}

impl<'a, K: PmapKey, V: Clone> IntoIterator for &'a PMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = PMapIter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: PmapKey, V: Clone> FromIterator<(K, V)> for PMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = Self::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K: PmapKey, V: Clone> Extend<(K, V)> for PMap<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

impl<K: PmapKey + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: PmapKey, V: Clone + PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        if self.shares_root_with(other) {
            return true;
        }
        // Iteration order is canonical, so zip-compare is sound.
        self.iter()
            .zip(other.iter())
            .all(|((ka, va), (kb, vb))| ka == kb && va == vb)
    }
}

impl<K: PmapKey, V: Clone + Eq> Eq for PMap<K, V> {}

// ---------------------------------------------------------------------------
// PSet
// ---------------------------------------------------------------------------

/// A persistent set: [`PMap`] with unit values. Same clone/sharing and
/// deterministic-iteration contract.
pub struct PSet<K> {
    map: PMap<K, ()>,
}

impl<K> Clone for PSet<K> {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            map: self.map.clone(),
        }
    }
}

impl<K> Default for PSet<K> {
    fn default() -> Self {
        Self {
            map: PMap::default(),
        }
    }
}

impl<K: PmapKey> PSet<K> {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Adds `key`; returns `true` if it was newly inserted.
    pub fn insert(&mut self, key: K) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        self.map.remove(key).is_some()
    }

    /// Iterates members in ascending `(pmap_hash, key)` order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }
}

impl<K: PmapKey> FromIterator<K> for PSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        Self {
            map: iter.into_iter().map(|k| (k, ())).collect(),
        }
    }
}

impl<K: PmapKey> Extend<K> for PSet<K> {
    fn extend<I: IntoIterator<Item = K>>(&mut self, iter: I) {
        self.map.extend(iter.into_iter().map(|k| (k, ())));
    }
}

impl<K: PmapKey + fmt::Debug> fmt::Debug for PSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<K: PmapKey> PartialEq for PSet<K> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<K: PmapKey> Eq for PSet<K> {}

// ---------------------------------------------------------------------------
// Snapshot implementation selection
// ---------------------------------------------------------------------------

/// Which collection family the model layers use for snapshot-published
/// state. `Pmap` (the default) gives O(batch) commits under pinned
/// readers; `Cow` is the pre-PR-10 copy-on-write rollback path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SnapshotImpl {
    /// Legacy `Arc<std map>` + `make_mut`: first write after a snapshot
    /// is pinned deep-copies the whole map.
    Cow,
    /// Persistent HAMT: writes path-copy O(log n) nodes regardless of
    /// how many snapshots are pinned.
    #[default]
    Pmap,
}

// 0 = unset, 1 = Cow, 2 = Pmap.
static IMPL_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn env_impl() -> Option<SnapshotImpl> {
    static CACHE: OnceLock<Option<SnapshotImpl>> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let raw = std::env::var("HYGRAPH_SNAPSHOT_IMPL").ok()?;
        match raw.trim().to_ascii_lowercase().as_str() {
            "cow" => Some(SnapshotImpl::Cow),
            "pmap" => Some(SnapshotImpl::Pmap),
            _ => None,
        }
    })
}

impl SnapshotImpl {
    /// Applies this choice process-wide (between the explicit-argument
    /// and environment precedence layers). Repeatable; the last call
    /// wins — the bench uses this to measure both modes in one process.
    pub fn install(self) {
        let v = match self {
            SnapshotImpl::Cow => 1,
            SnapshotImpl::Pmap => 2,
        };
        IMPL_OVERRIDE.store(v, Ordering::Relaxed);
    }

    /// Clears an installed override, falling back to the environment /
    /// default layers.
    pub fn clear_install() {
        IMPL_OVERRIDE.store(0, Ordering::Relaxed);
    }

    /// Resolves the effective implementation: installed override, else
    /// `HYGRAPH_SNAPSHOT_IMPL` (`cow` | `pmap`), else `Pmap`.
    pub fn configured() -> Self {
        match IMPL_OVERRIDE.load(Ordering::Relaxed) {
            1 => SnapshotImpl::Cow,
            2 => SnapshotImpl::Pmap,
            _ => env_impl().unwrap_or_default(),
        }
    }
}

// ---------------------------------------------------------------------------
// SnapMap: the dual-mode map stores actually hold
// ---------------------------------------------------------------------------

/// A map that is either the legacy copy-on-write `Arc<BTreeMap>` or a
/// persistent [`PMap`], chosen per store at construction time. The two
/// variants expose identical semantics; for identity-hashed id keys
/// they also iterate in the identical (ascending id) order, which keeps
/// canonical encodings byte-identical across modes.
pub enum SnapMap<K, V> {
    /// Legacy mode: whole-map deep copy on first write while shared.
    Cow(Arc<BTreeMap<K, V>>),
    /// Structural sharing: O(log n) path copy per write.
    Pmap(PMap<K, V>),
}

impl<K, V> Clone for SnapMap<K, V> {
    #[inline]
    fn clone(&self) -> Self {
        match self {
            SnapMap::Cow(m) => SnapMap::Cow(Arc::clone(m)),
            SnapMap::Pmap(m) => SnapMap::Pmap(m.clone()),
        }
    }
}

impl<K: PmapKey, V: Clone> Default for SnapMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PmapKey, V: Clone> SnapMap<K, V> {
    /// An empty map in the process-configured mode
    /// ([`SnapshotImpl::configured`]).
    pub fn new() -> Self {
        Self::new_with(SnapshotImpl::configured())
    }

    /// An empty map in an explicit mode (tests and the bench pin modes
    /// this way; stores built from a checkpoint inherit the decoder's).
    pub fn new_with(mode: SnapshotImpl) -> Self {
        match mode {
            SnapshotImpl::Cow => SnapMap::Cow(Arc::new(BTreeMap::new())),
            SnapshotImpl::Pmap => SnapMap::Pmap(PMap::new()),
        }
    }

    /// Builds a map of `mode` from entries (decode paths).
    pub fn from_entries<I: IntoIterator<Item = (K, V)>>(mode: SnapshotImpl, entries: I) -> Self {
        match mode {
            SnapshotImpl::Cow => SnapMap::Cow(Arc::new(entries.into_iter().collect())),
            SnapshotImpl::Pmap => SnapMap::Pmap(entries.into_iter().collect()),
        }
    }

    /// The mode this map was built in.
    pub fn mode(&self) -> SnapshotImpl {
        match self {
            SnapMap::Cow(_) => SnapshotImpl::Cow,
            SnapMap::Pmap(_) => SnapshotImpl::Pmap,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            SnapMap::Cow(m) => m.len(),
            SnapMap::Pmap(m) => m.len(),
        }
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        match self {
            SnapMap::Cow(m) => m.get(key),
            SnapMap::Pmap(m) => m.get(key),
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Mutable point lookup; a miss never un-shares or copies in either
    /// mode (presence is probed before any `make_mut`).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self {
            SnapMap::Cow(m) => {
                if !m.contains_key(key) {
                    return None;
                }
                Arc::make_mut(m).get_mut(key)
            }
            SnapMap::Pmap(m) => m.get_mut(key),
        }
    }

    /// Inserts `key → value`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self {
            SnapMap::Cow(m) => Arc::make_mut(m).insert(key, value),
            SnapMap::Pmap(m) => m.insert(key, value),
        }
    }

    /// Removes `key`, returning its value if present; a miss never
    /// un-shares or copies in either mode.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self {
            SnapMap::Cow(m) => {
                if !m.contains_key(key) {
                    return None;
                }
                Arc::make_mut(m).remove(key)
            }
            SnapMap::Pmap(m) => m.remove(key),
        }
    }

    /// Iterates entries. For identity-hashed id keys both modes yield
    /// ascending id order; for string keys the orders differ (`Cow` is
    /// lexicographic, `Pmap` hash-ordered) but each is deterministic.
    pub fn iter(&self) -> SnapMapIter<'_, K, V> {
        match self {
            SnapMap::Cow(m) => SnapMapIter::Cow(m.iter()),
            SnapMap::Pmap(m) => SnapMapIter::Pmap(m.iter()),
        }
    }

    /// Iterates keys in [`Self::iter`] order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates values in [`Self::iter`] order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

/// Iterator over a [`SnapMap`], whichever mode it is in.
pub enum SnapMapIter<'a, K, V> {
    #[doc(hidden)]
    Cow(std::collections::btree_map::Iter<'a, K, V>),
    #[doc(hidden)]
    Pmap(PMapIter<'a, K, V>),
}

impl<'a, K, V> Iterator for SnapMapIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            SnapMapIter::Cow(it) => it.next(),
            SnapMapIter::Pmap(it) => it.next(),
        }
    }
}

impl<'a, K: PmapKey, V: Clone> IntoIterator for &'a SnapMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = SnapMapIter<'a, K, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<K: PmapKey + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for SnapMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Content equality regardless of mode (lookup-based, so the string-key
/// iteration-order difference between modes cannot cause false negatives).
impl<K: PmapKey, V: Clone + PartialEq> PartialEq for SnapMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|(k, v)| other.get(k) == Some(v))
    }
}

impl<K: PmapKey, V: Clone + Eq> Eq for SnapMap<K, V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_basics() {
        let m: PMap<u64, u32> = PMap::new();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.get(&7), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = PMap::new();
        for i in 0..1000u64 {
            assert_eq!(m.insert(i, i * 2), None);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.insert(500, 0), Some(1000));
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert!(m.remove(&i).is_some());
        }
        assert!(m.is_empty());
        assert!(m.root.is_none());
    }

    #[test]
    fn iteration_is_ascending_for_id_keys() {
        // Insert in scrambled order; iterate ascending.
        let mut m = PMap::new();
        let mut keys: Vec<u64> = (0..257).map(|i| (i * 101) % 257).collect();
        for &k in &keys {
            m.insert(k, ());
        }
        keys.sort_unstable();
        let got: Vec<u64> = m.keys().copied().collect();
        assert_eq!(got, keys);
    }

    #[test]
    fn shape_is_insertion_order_independent() {
        let fwd: PMap<u64, u64> = (0..100).map(|i| (i, i)).collect();
        let rev: PMap<u64, u64> = (0..100).rev().map(|i| (i, i)).collect();
        assert_eq!(fwd, rev);
        let a: Vec<_> = fwd.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<_> = rev.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn clone_is_shared_until_divergence() {
        let mut a: PMap<u64, u64> = (0..64).map(|i| (i, i)).collect();
        let b = a.clone();
        assert!(a.shares_root_with(&b));
        a.insert(1000, 1000);
        assert!(!a.shares_root_with(&b));
        assert_eq!(b.len(), 64);
        assert_eq!(a.len(), 65);
        assert_eq!(b.get(&1000), None);
    }

    #[test]
    fn get_mut_and_remove_miss_do_not_copy() {
        let mut a: PMap<u64, u64> = (0..64).map(|i| (i, i)).collect();
        let b = a.clone();
        assert_eq!(a.get_mut(&999), None);
        assert_eq!(a.remove(&999), None);
        assert!(a.shares_root_with(&b), "miss must not un-share the root");
    }

    #[test]
    fn high_bit_keys_and_extremes() {
        let mut m = PMap::new();
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            m.insert(k, k);
        }
        let got: Vec<u64> = m.keys().copied().collect();
        let mut want = vec![0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(m.remove(&u64::MAX), Some(u64::MAX));
        assert_eq!(m.get(&(u64::MAX - 1)), Some(&(u64::MAX - 1)));
    }

    /// Key type whose hash throws away everything but the low bit:
    /// every pair of same-parity keys is a full 64-bit hash collision.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Collider(u64);
    impl PmapKey for Collider {
        fn pmap_hash(&self) -> u64 {
            self.0 & 1
        }
    }

    #[test]
    fn hostile_collisions_stay_sorted_and_removable() {
        let mut m = PMap::new();
        for i in (0..40u64).rev() {
            m.insert(Collider(i), i);
        }
        assert_eq!(m.len(), 40);
        // Iteration: hash 0 leaf (evens ascending) then hash 1 leaf (odds).
        let got: Vec<u64> = m.keys().map(|k| k.0).collect();
        let mut want: Vec<u64> = (0..40).filter(|i| i % 2 == 0).collect();
        want.extend((0..40).filter(|i| i % 2 == 1));
        assert_eq!(got, want);
        for i in 0..40u64 {
            assert_eq!(m.get(&Collider(i)), Some(&i));
        }
        for i in 0..40u64 {
            assert_eq!(m.remove(&Collider(i)), Some(i));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn branch_collapse_restores_canonical_shape() {
        // Two keys differing only in low bits force a deep branch chain;
        // removing one must collapse the chain so the survivor's map
        // equals a fresh single-key map (shape canonicality proxy:
        // equality plus identical iteration).
        let mut m = PMap::new();
        m.insert(0u64, 'a');
        m.insert(1u64, 'b'); // differs only in the final 4-bit chunk
        assert_eq!(m.remove(&1), Some('b'));
        let fresh: PMap<u64, char> = [(0u64, 'a')].into_iter().collect();
        assert_eq!(m, fresh);
        // The root must be a leaf again, not a chain of branches.
        assert!(matches!(m.root.as_deref(), Some(Node::Leaf { .. })));
    }

    #[test]
    fn pset_basics() {
        let mut s = PSet::new();
        assert!(s.insert(EdgeId::new(5)));
        assert!(s.insert(EdgeId::new(3)));
        assert!(!s.insert(EdgeId::new(5)));
        assert_eq!(s.len(), 2);
        let ids: Vec<u64> = s.iter().map(|e| e.raw()).collect();
        assert_eq!(ids, vec![3, 5]);
        assert!(s.remove(&EdgeId::new(3)));
        assert!(!s.remove(&EdgeId::new(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn label_keys_hash_deterministically() {
        let a = Label::new("Station").pmap_hash();
        let b = Label::new("Station").pmap_hash();
        let c = Label::new("Dock").pmap_hash();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(fnv1a(b"hello"), fnv1a(b"hello"));
    }

    #[test]
    fn snapshot_impl_precedence() {
        // No override installed in this test binary unless we install one.
        SnapshotImpl::clear_install();
        let base = SnapshotImpl::configured(); // env or default
        SnapshotImpl::Cow.install();
        assert_eq!(SnapshotImpl::configured(), SnapshotImpl::Cow);
        SnapshotImpl::Pmap.install();
        assert_eq!(SnapshotImpl::configured(), SnapshotImpl::Pmap);
        SnapshotImpl::clear_install();
        assert_eq!(SnapshotImpl::configured(), base);
    }

    #[test]
    fn snapmap_modes_agree() {
        let entries: Vec<(u64, u64)> = (0..50).map(|i| (i * 3 % 50, i)).collect();
        let mut cow = SnapMap::new_with(SnapshotImpl::Cow);
        let mut pm = SnapMap::new_with(SnapshotImpl::Pmap);
        for &(k, v) in &entries {
            assert_eq!(cow.insert(k, v), pm.insert(k, v));
        }
        assert_eq!(cow, pm);
        assert_eq!(
            cow.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            pm.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(),
            "id-keyed SnapMaps iterate identically across modes"
        );
        assert_eq!(cow.remove(&3), pm.remove(&3));
        assert_eq!(cow.remove(&999), None);
        assert_eq!(pm.remove(&999), None);
        assert_eq!(cow.get_mut(&999), None);
        assert_eq!(pm.get_mut(&999), None);
        *cow.get_mut(&6).unwrap() = 1;
        *pm.get_mut(&6).unwrap() = 1;
        assert_eq!(cow, pm);
    }
}
