//! # hygraph-temporal — transaction-time history and time travel
//!
//! Keeps the store's *transaction time* alongside its data: every
//! committed mutation batch is stamped with a monotonically increasing
//! commit timestamp and retained as a delta in a [`HistoryStore`]. A
//! query bounded by `AS OF t` is then answered against the
//! reconstruction of the store as of the last commit with timestamp
//! `<= t`; `BETWEEN t1 AND t2` unions results across every commit
//! epoch current somewhere in the window.
//!
//! The design follows the delta-chain school (AeonG, Chronos): the
//! *current* state stays hot and untouched — history is a base
//! snapshot (exact state encoding) plus an ordered list of
//! [`CommitRecord`]s, each the mutation batch of one transaction.
//! Reconstruction replays the prefix `base ++ commits[..=i]`, which by
//! the determinism contract of [`hygraph_persist::Durable::apply`]
//! reproduces the historical state *bit for bit* — the same argument
//! that makes WAL recovery exact makes time travel exact. A small LRU
//! of reconstructed snapshots amortises repeated `AS OF` reads of the
//! same epoch.
//!
//! Retention is bounded by `HYGRAPH_HISTORY_RETAIN_SECS`
//! ([`HistoryConfig`]): expired commits are folded into the base
//! snapshot, moving the queryable horizon forward. `AS OF` below the
//! horizon is a typed error, never a silently wrong answer.
//!
//! ```
//! use hygraph_core::HyGraph;
//! use hygraph_persist::{Durable as _, HgMutation};
//! use hygraph_temporal::{HistoryConfig, HistoryStore, SnapshotResolution};
//! use hygraph_types::{Interval, Timestamp};
//!
//! let mut live = HyGraph::new();
//! let history = HistoryStore::new(HistoryConfig::default(), &live, 0);
//!
//! // commit one vertex at t=1000 (mirroring the mutation into history)
//! let m = HgMutation::AddPgVertex {
//!     labels: vec!["User".into()],
//!     props: Default::default(),
//!     validity: Interval::from(Timestamp::from_millis(0)),
//! };
//! let ts = history.allocate_ts(1_000);
//! live.apply(&m)?;
//! history.record_commit(ts, vec![m]);
//!
//! // the state as of t=500 — before the commit — has no vertices
//! match history.snapshot_at(500)? {
//!     SnapshotResolution::Past(past) => assert_eq!(past.vertex_count(), 0),
//!     SnapshotResolution::Live => unreachable!("t=500 precedes the commit"),
//! }
//! // at (or after) the commit timestamp the query runs on the live state
//! assert!(matches!(history.snapshot_at(ts)?, SnapshotResolution::Live));
//! # Ok::<(), hygraph_types::HyGraphError>(())
//! ```
//!
//! Serving integration lives in `hygraph-server`: the engine allocates
//! a timestamp per mutation batch ([`HistoryStore::allocate_ts`]),
//! stamps it into the WAL frames and checkpoint watermark
//! (`hygraph-persist`), mirrors the applied batch into the history
//! before publishing the new read snapshot, and passes the store — or,
//! for a pinned snapshot, [`HistoryStore::pinned`] — as the
//! [`hygraph_query::TemporalResolver`] for `AS OF` / `BETWEEN` queries.
//! The store is shared by reference: its lock is internal and covers
//! bookkeeping only, and cold reconstructions run outside it (see
//! [`HistoryStore`]). After a restart, [`HistorySeed`]
//! rebuilds the commit timeline from the recovered checkpoint plus the
//! replayed WAL suffix.

#![warn(missing_docs)]

mod config;
mod history;
mod seed;
mod watermark;

pub use config::{now_ms, HistoryConfig};
pub use history::{CommitRecord, HistoryStore, PinnedResolver, SnapshotResolution};
pub use seed::HistorySeed;
pub use watermark::ShardWatermark;
