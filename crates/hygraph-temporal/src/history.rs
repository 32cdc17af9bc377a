//! The timestamped commit log and snapshot reconstruction.
//!
//! A [`HistoryStore`] is shared by reference between the commit path
//! and every reader; its one mutex is private and guards bookkeeping
//! only. A commit takes it twice (allocate the timestamp, then record
//! the applied batch). An `AS OF` / `BETWEEN` read takes it to binary
//! search the timeline, consult the snapshot cache and capture what a
//! reconstruction needs — the base bytes and the commit prefix, both
//! behind `Arc`s — then decodes and replays with the lock released,
//! and takes it once more to insert the result into the cache. Live
//! queries never call into the store at all.

use hygraph_core::{ElementRef, HyGraph};
use hygraph_metrics as metrics;
use hygraph_persist::{Durable, HgMutation};
use hygraph_query::{ResolvedStates, TemporalBound, TemporalResolver};
use hygraph_types::bytes::{ByteReader, ByteWriter};
use hygraph_types::{HyGraphError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::config::HistoryConfig;

/// One committed transaction: its timestamp and the mutation batch
/// that applied (only the applied prefix of a partially failed batch).
#[derive(Clone, Debug, PartialEq)]
pub struct CommitRecord {
    /// Monotonically increasing transaction timestamp (epoch ms).
    pub commit_ts: i64,
    /// The mutations, in application order.
    pub mutations: Vec<HgMutation>,
}

/// How an `AS OF t` bound resolves.
#[derive(Clone, Debug)]
pub enum SnapshotResolution {
    /// The state at `t` is the live state the caller holds.
    Live,
    /// A reconstructed historical state.
    Past(Arc<HyGraph>),
}

/// The transaction-time history of one store: a base snapshot (exact
/// state encoding) plus the ordered commit deltas above it. See the
/// crate docs for the reconstruction and retention model and the
/// module docs for what the internal lock covers.
#[derive(Debug)]
pub struct HistoryStore {
    cfg: HistoryConfig,
    timeline: Mutex<Timeline>,
}

/// Everything the history lock guards.
#[derive(Debug)]
struct Timeline {
    /// Exact state encoding at the history horizon, shared with any
    /// reconstruction in flight.
    base_state: Arc<[u8]>,
    /// Commit timestamp the base covers: every commit with `ts <=
    /// base_ts` is folded in; `AS OF` below it is out of range.
    base_ts: i64,
    /// Retained commits, strictly increasing `commit_ts`.
    commits: Vec<Arc<CommitRecord>>,
    /// Highest timestamp handed out by [`HistoryStore::allocate_ts`]
    /// (or observed at seeding) — the monotonicity floor.
    last_alloc: i64,
    /// Approximate heap held by history: base bytes + encoded delta
    /// bytes (what the `hygraph_temporal_history_bytes` gauge reports).
    approx_bytes: u64,
    /// Per-entity count of retained delta versions — the version
    /// chains. Only mutations addressing an *existing* element
    /// (property writes, closes) lengthen a chain; creations are the
    /// chain's root and carry no prior version.
    chains: HashMap<ElementRef, u32>,
    /// LRU of reconstructed snapshots, keyed by the timestamp of the
    /// newest commit they contain; most recently used last.
    cache: Vec<(i64, Arc<HyGraph>)>,
}

/// A cold reconstruction captured under the lock and run outside it:
/// `base ++ prefix` replayed reproduces the state after commit `key`.
/// The captured `Arc`s keep the inputs alive even if retention folds
/// them into a new base meanwhile.
struct Rebuild {
    key: i64,
    base: Arc<[u8]>,
    prefix: Vec<Arc<CommitRecord>>,
}

impl Rebuild {
    fn run(&self) -> Result<HyGraph> {
        let mut state = decode_state(&self.base)?;
        for c in &self.prefix {
            for m in &c.mutations {
                state.apply(m)?;
            }
        }
        if let Some(m) = metrics::get() {
            m.temporal.snapshot_rebuilds.inc();
        }
        Ok(state)
    }
}

/// A cache lookup: the cached state, or what it takes to rebuild it.
enum Lookup {
    Hit(Arc<HyGraph>),
    Miss(Rebuild),
}

fn mutation_bytes(m: &HgMutation) -> u64 {
    let mut w = ByteWriter::new();
    <HyGraph as Durable>::encode_mutation(m, &mut w);
    w.into_bytes().len() as u64
}

/// Decodes an exact state encoding, rejecting trailing bytes.
pub(crate) fn decode_state(bytes: &[u8]) -> Result<HyGraph> {
    let mut r = ByteReader::new(bytes);
    let hg = HyGraph::decode_state(&mut r)?;
    r.expect_exhausted()?;
    Ok(hg)
}

/// The element an already-existing entity's mutation rewrites, if any
/// — the version-chain key.
fn chain_key(m: &HgMutation) -> Option<ElementRef> {
    match m {
        HgMutation::SetProperty { el, .. } => Some(*el),
        HgMutation::CloseVertex { v, .. } => Some(ElementRef::Vertex(*v)),
        HgMutation::CloseEdge { e, .. } => Some(ElementRef::Edge(*e)),
        _ => None,
    }
}

impl Timeline {
    fn index_commit(&mut self, c: &CommitRecord) {
        for m in &c.mutations {
            self.approx_bytes += mutation_bytes(m);
            if let Some(key) = chain_key(m) {
                *self.chains.entry(key).or_insert(0) += 1;
            }
        }
    }

    fn publish_gauges(&self) {
        if let Some(m) = metrics::get() {
            m.temporal.history_commits.set(self.commits.len() as i64);
            m.temporal.history_bytes.set(self.approx_bytes as i64);
            m.temporal
                .version_chain_max
                .set(self.version_chain_max() as i64);
        }
    }

    fn version_chain_max(&self) -> u32 {
        self.chains.values().copied().max().unwrap_or(0)
    }

    fn last_ts(&self) -> i64 {
        self.commits
            .last()
            .map(|c| c.commit_ts)
            .unwrap_or(self.base_ts)
    }

    /// Index of the last commit with `commit_ts <= t`, or `None` when
    /// `t` lands on the bare base.
    fn index_at(&self, t: i64) -> Option<usize> {
        self.commits
            .partition_point(|c| c.commit_ts <= t)
            .checked_sub(1)
    }

    /// The cache key of `base ++ commits[..=idx]`: the timestamp of the
    /// newest commit it contains.
    fn key_of(&self, idx: Option<usize>) -> i64 {
        idx.map_or(self.base_ts, |i| self.commits[i].commit_ts)
    }

    fn horizon_error(&self, what: &str, t: i64) -> HyGraphError {
        HyGraphError::query(format!(
            "{what} {t} is before the history horizon {}: \
             the commits covering it were retired by retention \
             (HYGRAPH_HISTORY_RETAIN_SECS)",
            self.base_ts
        ))
    }

    /// The state `base ++ commits[..=idx]` from the cache (marking it
    /// most recently used), or the inputs to rebuild it.
    fn lookup(&mut self, idx: Option<usize>) -> Lookup {
        let key = self.key_of(idx);
        if let Some(pos) = self.cache.iter().position(|(ts, _)| *ts == key) {
            let hit = self.cache.remove(pos);
            let state = Arc::clone(&hit.1);
            self.cache.push(hit);
            if let Some(m) = metrics::get() {
                m.temporal.snapshot_cache_hits.inc();
            }
            return Lookup::Hit(state);
        }
        let prefix = idx.map_or(&[][..], |i| &self.commits[..=i]);
        Lookup::Miss(Rebuild {
            key,
            base: Arc::clone(&self.base_state),
            prefix: prefix.to_vec(),
        })
    }

    /// Caches a rebuilt state under `key` and returns the shared copy.
    /// A concurrent rebuild of the same key that landed first wins, so
    /// keys stay unique; a key the horizon has since passed is not
    /// cached (no `AS OF` can reach it any more).
    fn insert(&mut self, key: i64, state: Arc<HyGraph>, cap: usize) -> Arc<HyGraph> {
        if let Some((_, cached)) = self.cache.iter().find(|(ts, _)| *ts == key) {
            return Arc::clone(cached);
        }
        if key >= self.base_ts {
            self.cache.push((key, Arc::clone(&state)));
            if self.cache.len() > cap.max(1) {
                self.cache.remove(0);
            }
        }
        state
    }
}

impl HistoryStore {
    /// A history whose horizon is `base` at transaction time `base_ts`.
    pub fn new(cfg: HistoryConfig, base: &HyGraph, base_ts: i64) -> Self {
        let mut w = ByteWriter::new();
        base.encode_state(&mut w);
        Self::from_parts(cfg, w.into_bytes(), base_ts, Vec::new())
    }

    /// A history assembled from recovered parts (see
    /// [`crate::HistorySeed`]). `commits` must carry strictly
    /// increasing timestamps, all above `base_ts`.
    pub fn from_parts(
        cfg: HistoryConfig,
        base_state: Vec<u8>,
        base_ts: i64,
        commits: Vec<CommitRecord>,
    ) -> Self {
        let mut tl = Timeline {
            approx_bytes: base_state.len() as u64,
            base_state: base_state.into(),
            base_ts,
            commits: Vec::new(),
            last_alloc: base_ts,
            chains: HashMap::new(),
            cache: Vec::new(),
        };
        for c in commits {
            debug_assert!(c.commit_ts > tl.last_alloc, "commit ts not increasing");
            tl.last_alloc = tl.last_alloc.max(c.commit_ts);
            tl.index_commit(&c);
            tl.commits.push(Arc::new(c));
        }
        tl.publish_gauges();
        Self {
            cfg,
            timeline: Mutex::new(tl),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Timeline> {
        self.timeline.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Allocates the next transaction timestamp: wall-clock `now_ms`,
    /// bumped to stay strictly increasing under bursts and clock
    /// steps. Call before making the batch durable so WAL frames carry
    /// the same timestamp history records.
    pub fn allocate_ts(&self, now_ms: i64) -> i64 {
        let mut tl = self.lock();
        let ts = now_ms.max(tl.last_alloc + 1);
        tl.last_alloc = ts;
        ts
    }

    /// Records one committed batch at `ts` (an [`allocate_ts`] value).
    /// Pass only the mutations that actually applied; an empty batch
    /// records nothing. Runs retention GC against `ts` afterwards.
    ///
    /// Returns the timestamp of the newest recorded commit — `ts`, or
    /// the previous one when nothing was recorded: the stamp of the
    /// live state this batch leaves behind (see [`HistoryStore::pinned`]).
    ///
    /// [`allocate_ts`]: HistoryStore::allocate_ts
    pub fn record_commit(&self, ts: i64, mutations: Vec<HgMutation>) -> i64 {
        let mut tl = self.lock();
        if mutations.is_empty() {
            return tl.last_ts();
        }
        debug_assert!(tl.last_ts() < ts, "commit ts must increase");
        let c = CommitRecord {
            commit_ts: ts,
            mutations,
        };
        tl.index_commit(&c);
        tl.commits.push(Arc::new(c));
        self.gc_locked(&mut tl, ts);
        tl.publish_gauges();
        ts
    }

    /// Folds commits older than the retention window (relative to
    /// `now_ms`) into the base snapshot, moving the queryable horizon
    /// forward. Returns how many commits were retired. No-op when
    /// retention is unbounded. Reconstructions already running keep
    /// their captured base and prefix, so they still return the exact
    /// state they were asked for.
    pub fn gc(&self, now_ms: i64) -> usize {
        self.gc_locked(&mut self.lock(), now_ms)
    }

    fn gc_locked(&self, tl: &mut Timeline, now_ms: i64) -> usize {
        if self.cfg.retain_ms <= 0 {
            return 0;
        }
        let cutoff = now_ms.saturating_sub(self.cfg.retain_ms);
        let fold = tl.commits.partition_point(|c| c.commit_ts < cutoff);
        if fold == 0 {
            return 0;
        }
        // one decode → apply* → encode pass for the whole expired run
        let mut state = decode_state(&tl.base_state)
            .expect("history base must decode: it was encoded by encode_state");
        for c in tl.commits.drain(..fold).collect::<Vec<_>>() {
            for m in &c.mutations {
                state
                    .apply(m)
                    .expect("recorded mutation must re-apply: it applied once");
                tl.approx_bytes = tl.approx_bytes.saturating_sub(mutation_bytes(m));
                if let Some(key) = chain_key(m) {
                    if let Some(n) = tl.chains.get_mut(&key) {
                        *n -= 1;
                        if *n == 0 {
                            tl.chains.remove(&key);
                        }
                    }
                }
            }
            tl.base_ts = c.commit_ts;
        }
        let old_base = tl.base_state.len() as u64;
        let mut w = ByteWriter::new();
        state.encode_state(&mut w);
        tl.base_state = w.into_bytes().into();
        tl.approx_bytes = tl
            .approx_bytes
            .saturating_sub(old_base)
            .saturating_add(tl.base_state.len() as u64);
        // cached snapshots below the new horizon are unreachable
        let base_ts = tl.base_ts;
        tl.cache.retain(|(ts, _)| *ts >= base_ts);
        if let Some(m) = metrics::get() {
            m.temporal.gc_commits_folded.add(fold as u64);
        }
        tl.publish_gauges();
        fold
    }

    /// Finishes a cache lookup outside the lock: a miss rebuilds, then
    /// re-locks only to insert the result.
    fn materialize(&self, lookup: Lookup) -> Result<Arc<HyGraph>> {
        match lookup {
            Lookup::Hit(state) => Ok(state),
            Lookup::Miss(rebuild) => {
                let state = Arc::new(rebuild.run()?);
                Ok(self
                    .lock()
                    .insert(rebuild.key, state, self.cfg.snapshot_cache))
            }
        }
    }

    /// Resolves `AS OF t` when the caller's live state contains exactly
    /// the commits up to `live_ts` (`None`: up to the newest commit).
    fn resolve_as_of(&self, t: i64, live_ts: Option<i64>) -> Result<SnapshotResolution> {
        let lookup = {
            let mut tl = self.lock();
            if t < tl.base_ts {
                return Err(tl.horizon_error("AS OF", t));
            }
            let live_ts = live_ts.unwrap_or_else(|| tl.last_ts());
            let idx = tl.index_at(t);
            if tl.key_of(idx) == live_ts {
                return Ok(SnapshotResolution::Live);
            }
            tl.lookup(idx)
        };
        Ok(SnapshotResolution::Past(self.materialize(lookup)?))
    }

    /// Resolves `AS OF t`: [`SnapshotResolution::Live`] when `t` is at
    /// or past the newest commit (the live store already *is* that
    /// state), a reconstructed snapshot when `t` lands inside history,
    /// and an error when `t` precedes the retention horizon.
    pub fn snapshot_at(&self, t: i64) -> Result<SnapshotResolution> {
        self.resolve_as_of(t, None)
    }

    /// A resolver for a caller whose live state is a snapshot published
    /// after the commit at `live_ts` (and before the next one): `AS OF
    /// t` answers [`ResolvedStates::Live`] only when the newest commit
    /// `<= t` is exactly `live_ts`, and reconstructs otherwise — also
    /// when `t` is newer than a snapshot pinned before later commits.
    pub fn pinned(&self, live_ts: i64) -> PinnedResolver<'_> {
        PinnedResolver {
            history: self,
            live_ts,
        }
    }

    /// Resolves `BETWEEN t1 AND t2`: the state current at `t1`, then
    /// the state after each commit with `t1 < commit_ts <= t2` — one
    /// entry per epoch the window saw, oldest first.
    pub fn states_between(&self, t1: i64, t2: i64) -> Result<Vec<Arc<HyGraph>>> {
        if t2 < t1 {
            return Err(HyGraphError::query(format!(
                "BETWEEN bounds must satisfy t1 <= t2, got [{t1}, {t2}]"
            )));
        }
        let (first, window) = {
            let mut tl = self.lock();
            if t1 < tl.base_ts {
                return Err(tl.horizon_error("BETWEEN", t1));
            }
            let start_idx = tl.index_at(t1);
            let from = start_idx.map_or(0, |i| i + 1);
            let window: Vec<Arc<CommitRecord>> = tl.commits[from..]
                .iter()
                .take_while(|c| c.commit_ts <= t2)
                .cloned()
                .collect();
            (tl.lookup(start_idx), window)
        };
        let first = self.materialize(first)?;
        let mut out = vec![Arc::clone(&first)];
        let mut working: Option<HyGraph> = None;
        for c in &window {
            let state = working.get_or_insert_with(|| (*first).clone());
            for m in &c.mutations {
                state.apply(m)?;
            }
            out.push(Arc::new(state.clone()));
        }
        Ok(out)
    }

    fn resolve_bound(&self, bound: &TemporalBound, live_ts: Option<i64>) -> Result<ResolvedStates> {
        match bound {
            TemporalBound::AsOfNow => Ok(ResolvedStates::Live),
            TemporalBound::AsOf(t) => {
                let start = metrics::enabled().then(Instant::now);
                let resolved = self.resolve_as_of(t.millis(), live_ts)?;
                if let Some(m) = metrics::get() {
                    m.temporal.asof_queries.inc();
                    if let Some(s) = start {
                        m.temporal.asof_us.observe_duration(s.elapsed());
                    }
                }
                Ok(match resolved {
                    SnapshotResolution::Live => ResolvedStates::Live,
                    SnapshotResolution::Past(state) => ResolvedStates::At(state),
                })
            }
            TemporalBound::Between(t1, t2) => {
                let start = metrics::enabled().then(Instant::now);
                let states = self.states_between(t1.millis(), t2.millis())?;
                if let Some(m) = metrics::get() {
                    m.temporal.between_queries.inc();
                    if let Some(s) = start {
                        m.temporal.asof_us.observe_duration(s.elapsed());
                    }
                }
                Ok(ResolvedStates::Epochs(states))
            }
        }
    }

    /// Transaction time of the history horizon — `AS OF` below this is
    /// out of range.
    pub fn base_ts(&self) -> i64 {
        self.lock().base_ts
    }

    /// Timestamp of the newest commit (the base's when none are
    /// retained). `AS OF t >= last_ts()` resolves to the live state.
    pub fn last_ts(&self) -> i64 {
        self.lock().last_ts()
    }

    /// Retained commit count.
    pub fn commit_count(&self) -> usize {
        self.lock().commits.len()
    }

    /// Timestamps of every retained commit, oldest first.
    pub fn commit_timestamps(&self) -> Vec<i64> {
        self.lock().commits.iter().map(|c| c.commit_ts).collect()
    }

    /// Approximate bytes held by history (base + deltas).
    pub fn approx_bytes(&self) -> u64 {
        self.lock().approx_bytes
    }

    /// Length of the longest per-entity version chain currently
    /// retained (prior versions only; the hot version is the store's).
    pub fn version_chain_max(&self) -> u32 {
        self.lock().version_chain_max()
    }
}

/// The resolver for a live state that contains the commits up to the
/// newest one — what a caller holding the store's current state uses.
impl TemporalResolver for HistoryStore {
    fn resolve(&self, bound: &TemporalBound) -> Result<ResolvedStates> {
        self.resolve_bound(bound, None)
    }
}

/// A [`TemporalResolver`] for a pinned snapshot; see
/// [`HistoryStore::pinned`].
#[derive(Clone, Copy, Debug)]
pub struct PinnedResolver<'a> {
    history: &'a HistoryStore,
    live_ts: i64,
}

impl TemporalResolver for PinnedResolver<'_> {
    fn resolve(&self, bound: &TemporalBound) -> Result<ResolvedStates> {
        self.history.resolve_bound(bound, Some(self.live_ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{Interval, PropertyMap, Timestamp, Value};

    fn add_vertex(label: &str) -> HgMutation {
        HgMutation::AddPgVertex {
            labels: vec![label.into()],
            props: PropertyMap::new(),
            validity: Interval::from(Timestamp::from_millis(0)),
        }
    }

    fn set_prop(el: ElementRef, key: &str, v: i64) -> HgMutation {
        HgMutation::SetProperty {
            el,
            key: key.into(),
            value: Value::Int(v).into(),
        }
    }

    fn state_bytes(hg: &HyGraph) -> Vec<u8> {
        let mut w = ByteWriter::new();
        hg.encode_state(&mut w);
        w.into_bytes()
    }

    /// A live graph plus a history mirroring every commit, with the
    /// full state after each commit for comparison.
    fn build(commit_batches: Vec<Vec<HgMutation>>) -> (HyGraph, HistoryStore, Vec<(i64, Vec<u8>)>) {
        let mut live = HyGraph::new();
        let history = HistoryStore::new(HistoryConfig::default(), &live, 0);
        let mut states = Vec::new();
        for (i, batch) in commit_batches.into_iter().enumerate() {
            let ts = history.allocate_ts((i as i64 + 1) * 1_000);
            for m in &batch {
                live.apply(m).unwrap();
            }
            history.record_commit(ts, batch);
            states.push((ts, state_bytes(&live)));
        }
        (live, history, states)
    }

    #[test]
    fn snapshots_are_bit_identical_to_the_state_at_each_commit() {
        let (live, history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B"), add_vertex("C")],
            vec![set_prop(
                ElementRef::Vertex(hygraph_types::VertexId::new(0)),
                "score",
                7,
            )],
        ]);
        for (ts, expected) in &states[..states.len() - 1] {
            match history.snapshot_at(*ts).unwrap() {
                SnapshotResolution::Past(past) => {
                    assert_eq!(&state_bytes(&past), expected, "AS OF {ts}")
                }
                SnapshotResolution::Live => panic!("AS OF {ts} should be in the past"),
            }
            // between commits the earlier state stays current
            match history.snapshot_at(*ts + 500).unwrap() {
                SnapshotResolution::Past(past) => assert_eq!(&state_bytes(&past), expected),
                SnapshotResolution::Live => panic!("AS OF {}+500 should be past", ts),
            }
        }
        // at or after the newest commit: live
        let last = states.last().unwrap().0;
        assert!(matches!(
            history.snapshot_at(last).unwrap(),
            SnapshotResolution::Live
        ));
        assert!(matches!(
            history.snapshot_at(i64::MAX).unwrap(),
            SnapshotResolution::Live
        ));
        // and full reconstruction equals the live bytes
        let lookup = history.lock().lookup(Some(2));
        let full = history.materialize(lookup).unwrap();
        assert_eq!(state_bytes(&full), state_bytes(&live));
    }

    #[test]
    fn before_base_errors_after_gc_horizon_moves() {
        let (_live, mut history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B")],
            vec![add_vertex("C")],
        ]);
        assert!(history.snapshot_at(-5).is_err(), "before genesis");

        // retention of 1.5s relative to the last commit (t=3000)
        // retires the first commit (t=1000 < 3000 - 1500)
        history.cfg.retain_ms = 1_500;
        let folded = history.gc(3_000);
        assert_eq!(folded, 1);
        assert_eq!(history.base_ts(), 1_000);
        assert_eq!(history.commit_count(), 2);
        assert!(history.snapshot_at(500).is_err(), "below the new horizon");
        // the horizon itself still answers, bit-identically
        match history.snapshot_at(1_000).unwrap() {
            SnapshotResolution::Past(past) => {
                assert_eq!(state_bytes(&past), states[0].1);
            }
            SnapshotResolution::Live => panic!("t=1000 is past"),
        }
    }

    #[test]
    fn between_returns_one_state_per_epoch_in_the_window() {
        let (_live, history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B")],
            vec![add_vertex("C")],
        ]);
        // window covering commits 2 and 3, starting inside epoch 1
        let got = history.states_between(1_500, 3_500).unwrap();
        assert_eq!(got.len(), 3, "epoch at t1 + two commits in window");
        assert_eq!(state_bytes(&got[0]), states[0].1);
        assert_eq!(state_bytes(&got[1]), states[1].1);
        assert_eq!(state_bytes(&got[2]), states[2].1);
        // degenerate window: just the state at t1
        let got = history.states_between(2_100, 2_900).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(state_bytes(&got[0]), states[1].1);
        assert!(history.states_between(-1, 100).is_err(), "below horizon");
    }

    #[test]
    fn allocate_ts_is_strictly_increasing_under_clock_stalls() {
        let history = HistoryStore::new(HistoryConfig::default(), &HyGraph::new(), 0);
        let a = history.allocate_ts(100);
        let b = history.allocate_ts(100); // clock stalled
        let c = history.allocate_ts(50); // clock stepped back
        assert!(a < b && b < c, "{a} {b} {c}");
        let d = history.allocate_ts(10_000);
        assert_eq!(d, 10_000, "clock ahead of floor wins");
    }

    #[test]
    fn version_chains_and_bytes_track_recorded_deltas() {
        let v0 = ElementRef::Vertex(hygraph_types::VertexId::new(0));
        let (_live, history, _) = build(vec![
            vec![add_vertex("A")],
            vec![set_prop(v0, "x", 1)],
            vec![set_prop(v0, "x", 2), set_prop(v0, "y", 9)],
        ]);
        assert_eq!(history.version_chain_max(), 3, "three rewrites of v0");
        assert!(history.approx_bytes() > 0);
        assert_eq!(history.commit_count(), 3);
        assert_eq!(history.commit_timestamps(), vec![1_000, 2_000, 3_000]);
    }

    #[test]
    fn snapshot_cache_serves_repeats_and_evicts() {
        let (_live, mut history, states) = build(vec![
            vec![add_vertex("A")],
            vec![add_vertex("B")],
            vec![add_vertex("C")],
        ]);
        history.cfg.snapshot_cache = 2;
        for _ in 0..3 {
            for (ts, expected) in &states[..2] {
                match history.snapshot_at(*ts).unwrap() {
                    SnapshotResolution::Past(p) => assert_eq!(&state_bytes(&p), expected),
                    SnapshotResolution::Live => panic!("past expected"),
                }
            }
        }
        assert!(history.lock().cache.len() <= 2, "cache bounded");
    }

    #[test]
    fn resolver_maps_bounds_to_resolved_states() {
        let (_live, history, states) = build(vec![vec![add_vertex("A")], vec![add_vertex("B")]]);
        let r: &dyn TemporalResolver = &history;
        assert!(matches!(
            r.resolve(&TemporalBound::AsOfNow).unwrap(),
            ResolvedStates::Live
        ));
        match r
            .resolve(&TemporalBound::AsOf(Timestamp::from_millis(1_000)))
            .unwrap()
        {
            ResolvedStates::At(state) => assert_eq!(state_bytes(&state), states[0].1),
            other => panic!("expected At, got {other:?}"),
        }
        match r
            .resolve(&TemporalBound::Between(
                Timestamp::from_millis(1_000),
                Timestamp::from_millis(2_000),
            ))
            .unwrap()
        {
            ResolvedStates::Epochs(states_got) => assert_eq!(states_got.len(), 2),
            other => panic!("expected Epochs, got {other:?}"),
        }
    }

    #[test]
    fn pinned_resolver_serves_live_only_for_its_own_commit() {
        let (_live, history, states) = build(vec![vec![add_vertex("A")], vec![add_vertex("B")]]);
        let (ts_a, ts_b) = (states[0].0, states[1].0);
        let as_of = |t: i64| TemporalBound::AsOf(Timestamp::from_millis(t));
        // a snapshot pinned after A, asked for B: B is reconstructed
        match history.pinned(ts_a).resolve(&as_of(ts_b)).unwrap() {
            ResolvedStates::At(state) => assert_eq!(state_bytes(&state), states[1].1),
            other => panic!("expected At, got {other:?}"),
        }
        // ... and for anything up to the next commit, the pin is the state
        for t in [ts_a, ts_b - 1] {
            assert!(matches!(
                history.pinned(ts_a).resolve(&as_of(t)).unwrap(),
                ResolvedStates::Live
            ));
        }
        // a snapshot pinned after B answers B and later live, A from history
        assert!(matches!(
            history.pinned(ts_b).resolve(&as_of(i64::MAX)).unwrap(),
            ResolvedStates::Live
        ));
        match history.pinned(ts_b).resolve(&as_of(ts_a)).unwrap() {
            ResolvedStates::At(state) => assert_eq!(state_bytes(&state), states[0].1),
            other => panic!("expected At, got {other:?}"),
        }
    }

    /// Twelve commits, each adding a vertex and rewriting vertex 0.
    fn twelve_commits() -> (HistoryStore, Vec<(i64, Vec<u8>)>) {
        let v0 = ElementRef::Vertex(hygraph_types::VertexId::new(0));
        let batches = (0..12)
            .map(|i| {
                let mut b = vec![add_vertex(&format!("L{i}"))];
                if i > 0 {
                    b.push(set_prop(v0, "x", i));
                }
                b
            })
            .collect();
        let (_live, history, states) = build(batches);
        (history, states)
    }

    #[test]
    fn concurrent_cold_rebuilds_match_single_threaded_snapshots() {
        let (history, states) = twelve_commits();
        let cap = history.cfg.snapshot_cache;
        // the single-threaded reference, from a history of its own
        let (reference, _) = twelve_commits();
        let expected: Vec<(i64, Vec<u8>)> = states[..states.len() - 1]
            .iter()
            .map(|(ts, _)| match reference.snapshot_at(*ts).unwrap() {
                SnapshotResolution::Past(p) => (*ts, state_bytes(&p)),
                SnapshotResolution::Live => panic!("AS OF {ts} is past"),
            })
            .collect();
        // more distinct targets than the cache holds, so rebuilds race
        // with each other, with hits and with evictions
        assert!(expected.len() > cap);
        std::thread::scope(|s| {
            for thread in 0..4usize {
                let (history, expected) = (&history, &expected);
                s.spawn(move || {
                    for round in 0..6 {
                        for k in 0..expected.len() {
                            // threads 0 and 1 walk the same order, 2 and 3
                            // start elsewhere and step differently
                            let j = (k * (1 + thread / 2) + thread * round) % expected.len();
                            let (ts, want) = &expected[j];
                            match history.snapshot_at(*ts).unwrap() {
                                SnapshotResolution::Past(p) => {
                                    assert_eq!(&state_bytes(&p), want, "AS OF {ts}")
                                }
                                SnapshotResolution::Live => panic!("AS OF {ts} is past"),
                            }
                            let tl = history.lock();
                            assert!(tl.cache.len() <= cap, "cache over its bound");
                            let mut keys: Vec<i64> = tl.cache.iter().map(|(k, _)| *k).collect();
                            keys.sort_unstable();
                            keys.dedup();
                            assert_eq!(keys.len(), tl.cache.len(), "duplicate cache keys");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn rebuild_captured_before_gc_returns_its_exact_state() {
        let (mut history, states) = twelve_commits();
        let (ts, want) = &states[2];
        // capture the cold rebuild under the lock, as a resolver does
        let lookup = {
            let mut tl = history.lock();
            let idx = tl.index_at(*ts);
            tl.lookup(idx)
        };
        assert!(matches!(lookup, Lookup::Miss(_)), "cold target");
        // retention then folds the captured prefix into a new base
        history.cfg.retain_ms = 1_500;
        let folded = history.gc(states[5].0);
        assert!(folded >= 3, "the target's commits were retired");
        assert!(history.base_ts() > *ts);
        // the rebuild still reproduces the state at its own timestamp
        let got = history.materialize(lookup).unwrap();
        assert_eq!(&state_bytes(&got), want);
        // and is not cached: the horizon has passed it
        {
            let tl = history.lock();
            assert!(tl.cache.iter().all(|(k, _)| *k >= tl.base_ts));
        }
        assert!(history.snapshot_at(*ts).is_err(), "below the new horizon");
    }
}
