//! Rebuilding history across restarts from checkpoint + WAL replay.

use hygraph_core::HyGraph;
use hygraph_persist::{Durable, HgMutation, RecoveryObserver};
use hygraph_types::Result;

use crate::config::HistoryConfig;
use crate::history::{decode_state, CommitRecord, HistoryStore};

/// A [`RecoveryObserver`] that captures the recovered checkpoint and
/// every replayed WAL frame, then assembles them into a
/// [`HistoryStore`] whose horizon is the checkpoint watermark.
///
/// Pass it to [`hygraph_persist::DurableStore::open_observed`]; call
/// [`HistorySeed::finish`] once recovery returns. Frames stamped at or
/// below the watermark — including `ts = 0` frames from pre-history
/// (`HGWL1`) segments — carry no usable transaction time and are folded
/// into the base state; frames above it become one [`CommitRecord`]
/// per distinct timestamp (frames of one commit share a stamp, and
/// stamps are strictly increasing across commits).
#[derive(Debug)]
pub struct HistorySeed {
    cfg: HistoryConfig,
    /// The recovered checkpoint's state encoding, if one was loaded.
    base_state: Option<Vec<u8>>,
    base_ts: i64,
    replays: Vec<(i64, HgMutation)>,
}

impl HistorySeed {
    /// An empty seed: until [`RecoveryObserver::base`] fires, the base
    /// is a fresh store at transaction time 0.
    pub fn new(cfg: HistoryConfig) -> Self {
        Self {
            cfg,
            base_state: None,
            base_ts: 0,
            replays: Vec::new(),
        }
    }

    /// Assembles the captured recovery into a [`HistoryStore`],
    /// decoding the checkpoint once.
    pub fn finish(self) -> Result<HistoryStore> {
        let Self {
            cfg,
            base_state,
            base_ts,
            replays,
        } = self;
        let mut base = match base_state {
            Some(bytes) => decode_state(&bytes)?,
            None => HyGraph::new(),
        };
        // Fold untimed / pre-watermark replays into the base. (With a
        // v2 log this set is empty above an intact checkpoint, but a
        // legacy HGWL1 suffix replays as ts = 0.)
        let split = replays.partition_point(|(ts, _)| *ts <= base_ts);
        for (_, m) in &replays[..split] {
            base.apply(m)?;
        }
        // Group the timed suffix into commits: one record per run of
        // consecutive equal timestamps.
        let mut commits: Vec<CommitRecord> = Vec::new();
        for (ts, m) in replays.into_iter().skip(split) {
            match commits.last_mut() {
                Some(last) if last.commit_ts == ts => last.mutations.push(m),
                _ => commits.push(CommitRecord {
                    commit_ts: ts,
                    mutations: vec![m],
                }),
            }
        }
        Ok(HistoryStore::with_base(cfg, base, base_ts, commits))
    }
}

impl RecoveryObserver<HyGraph> for HistorySeed {
    fn base(&mut self, watermark: i64, state: &[u8]) {
        self.base_ts = watermark;
        self.base_state = Some(state.to_vec());
    }

    fn replay(&mut self, _lsn: u64, ts: i64, m: &HgMutation) {
        self.replays.push((ts, m.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::SnapshotResolution;
    use hygraph_types::bytes::ByteWriter;
    use hygraph_types::{Interval, PropertyMap, Timestamp};

    fn add_vertex(label: &str) -> HgMutation {
        HgMutation::AddPgVertex {
            labels: vec![label.into()],
            props: PropertyMap::new(),
            validity: Interval::from(Timestamp::from_millis(0)),
        }
    }

    fn state_bytes(hg: &HyGraph) -> Vec<u8> {
        let mut w = ByteWriter::new();
        hg.encode_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn empty_seed_finishes_as_a_fresh_history() {
        let history = HistorySeed::new(HistoryConfig::default()).finish().unwrap();
        assert_eq!(history.base_ts(), 0);
        assert_eq!(history.commit_count(), 0);
        // the horizon state is an empty store
        assert!(matches!(
            history.snapshot_at(0).unwrap(),
            SnapshotResolution::Live
        ));
    }

    #[test]
    fn checkpoint_plus_timed_frames_become_base_plus_commits() {
        let mut base = HyGraph::new();
        base.apply(&add_vertex("Base")).unwrap();
        let base_bytes = state_bytes(&base);

        let mut seed = HistorySeed::new(HistoryConfig::default());
        seed.base(5_000, &base_bytes);
        // two commits above the watermark: t=6000 (two frames), t=7000
        seed.replay(1, 6_000, &add_vertex("A"));
        seed.replay(2, 6_000, &add_vertex("B"));
        seed.replay(3, 7_000, &add_vertex("C"));
        let history = seed.finish().unwrap();

        assert_eq!(history.base_ts(), 5_000);
        assert_eq!(history.commit_timestamps(), vec![6_000, 7_000]);

        match history.snapshot_at(5_000).unwrap() {
            SnapshotResolution::Past(p) => assert_eq!(state_bytes(&p), base_bytes),
            SnapshotResolution::Live => panic!("watermark state is past"),
        }
        match history.snapshot_at(6_500).unwrap() {
            SnapshotResolution::Past(p) => assert_eq!(p.vertex_count(), 3),
            SnapshotResolution::Live => panic!("t=6500 is past"),
        }
        assert!(matches!(
            history.snapshot_at(7_000).unwrap(),
            SnapshotResolution::Live
        ));
    }

    #[test]
    fn legacy_zero_ts_frames_fold_into_the_base() {
        let mut seed = HistorySeed::new(HistoryConfig::default());
        // no checkpoint; an HGWL1 suffix replays with ts = 0
        seed.replay(1, 0, &add_vertex("Old"));
        seed.replay(2, 0, &add_vertex("Older"));
        // then a timed v2 frame
        seed.replay(3, 4_000, &add_vertex("New"));
        let history = seed.finish().unwrap();

        assert_eq!(history.base_ts(), 0);
        assert_eq!(history.commit_timestamps(), vec![4_000]);
        // the base already holds the two legacy vertices
        match history.snapshot_at(1_000).unwrap() {
            SnapshotResolution::Past(p) => {
                let expected = {
                    let mut hg = HyGraph::new();
                    hg.apply(&add_vertex("Old")).unwrap();
                    hg.apply(&add_vertex("Older")).unwrap();
                    hg
                };
                assert_eq!(state_bytes(&p), state_bytes(&expected));
            }
            SnapshotResolution::Live => panic!("t=1000 is past"),
        }
        assert!(matches!(
            history.snapshot_at(4_000).unwrap(),
            SnapshotResolution::Live
        ));
    }
}
