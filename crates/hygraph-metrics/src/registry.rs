//! The metrics registry: every instrument the stack records into, a
//! plain-data [`Snapshot`] of the lot, an exact binary codec for
//! shipping snapshots over the wire, and a Prometheus-style text
//! exposition.
//!
//! The registry is a fixed, strongly-typed tree — no string lookups on
//! the hot path, no allocation, no locks beyond the slow-query ring.
//! Each domain (serving, durability, query execution, time series) has
//! its own group so call sites read like
//! `m.server.queue_wait_us.observe_duration(w)`.

use crate::counter::{Counter, Gauge};
use crate::hist::{Histogram, HistogramSnapshot, BUCKETS};
use crate::slow::{SlowQueryEntry, SlowQueryLog};

/// Magic version byte leading every encoded [`Snapshot`].
///
/// Version 2 added the plan-cache counters, the per-physical-operator
/// group, and the plan fingerprint on slow-query entries. Version 3
/// added the time-series compression gauges and rollup counters.
/// Version 4 added the standing-subscription group. Version 5 added
/// the temporal-history group. Version 6 added the per-shard group.
/// Version 7 added the snapshot-publication instruments
/// (commit-publish latency and the pinned-snapshot gauge).
const SNAPSHOT_VERSION: u8 = 7;

/// Per-shard gauge lanes held by the registry. Mirrors
/// `hygraph_types::shard::MAX_SHARDS` (this crate is dependency-free,
/// so the bound is restated here; the server asserts they agree).
pub const MAX_SHARD_LANES: usize = 64;

// ---------------------------------------------------------------------
// Operator taxonomy
// ---------------------------------------------------------------------

/// The paper's Table 2 operator taxonomy — the key space for per-class
/// query-execution metrics.
///
/// HyQL queries classify into the four query rows (Q1–Q4); the
/// analytics layers map onto the remaining rows (feature extraction,
/// detection, embedding, pattern mining).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum OpClass {
    /// Q1 — (sub)pattern matching.
    Q1Match = 0,
    /// Q2 — aggregation / grouping / downsampling.
    Q2Aggregate = 1,
    /// Q3 — traversal, reachability, correlation.
    Q3Traverse = 2,
    /// Q4 — snapshot / segmentation retrieval.
    Q4Snapshot = 3,
    /// C — feature extraction and classification.
    CFeature = 4,
    /// D — outlier / anomaly / community detection.
    DDetect = 5,
    /// E — embedding.
    EEmbed = 6,
    /// PM — pattern mining (motifs, discords).
    PmMine = 7,
}

impl OpClass {
    /// Number of classes (array dimension of [`QueryMetrics::classes`]).
    pub const COUNT: usize = 8;

    /// Every class, in index order.
    pub const ALL: [OpClass; OpClass::COUNT] = [
        OpClass::Q1Match,
        OpClass::Q2Aggregate,
        OpClass::Q3Traverse,
        OpClass::Q4Snapshot,
        OpClass::CFeature,
        OpClass::DDetect,
        OpClass::EEmbed,
        OpClass::PmMine,
    ];

    /// The stable metric-name suffix for this class.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Q1Match => "q1_match",
            OpClass::Q2Aggregate => "q2_aggregate",
            OpClass::Q3Traverse => "q3_traverse",
            OpClass::Q4Snapshot => "q4_snapshot",
            OpClass::CFeature => "c_feature",
            OpClass::DDetect => "d_detect",
            OpClass::EEmbed => "e_embed",
            OpClass::PmMine => "pm_mine",
        }
    }
}

/// The physical operators of the plan-based HyQL executor — the key
/// space for per-operator query metrics (`hygraph-query::physical`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum PlanOp {
    /// Pattern matching / binding materialisation (with pushed preds).
    Match = 0,
    /// Residual WHERE evaluation over bindings.
    Filter = 1,
    /// Flat projection (RETURN items, incl. series aggregates).
    Project = 2,
    /// Grouped projection: key eval + row-aggregate fold + HAVING.
    Aggregate = 3,
    /// DISTINCT row deduplication.
    Distinct = 4,
    /// ORDER BY sort.
    Sort = 5,
    /// LIMIT truncation.
    Limit = 6,
}

impl PlanOp {
    /// Number of operators (array dimension of
    /// [`QueryMetrics::operators`]).
    pub const COUNT: usize = 7;

    /// Every operator, in index order.
    pub const ALL: [PlanOp; PlanOp::COUNT] = [
        PlanOp::Match,
        PlanOp::Filter,
        PlanOp::Project,
        PlanOp::Aggregate,
        PlanOp::Distinct,
        PlanOp::Sort,
        PlanOp::Limit,
    ];

    /// The stable metric-name suffix for this operator.
    pub fn name(self) -> &'static str {
        match self {
            PlanOp::Match => "match",
            PlanOp::Filter => "filter",
            PlanOp::Project => "project",
            PlanOp::Aggregate => "aggregate",
            PlanOp::Distinct => "distinct",
            PlanOp::Sort => "sort",
            PlanOp::Limit => "limit",
        }
    }
}

// ---------------------------------------------------------------------
// Live instrument groups
// ---------------------------------------------------------------------

/// Serving-layer instruments (`hygraph-server`).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Requests admitted to the queue.
    pub admitted: Counter,
    /// Requests a worker finished (any outcome).
    pub completed: Counter,
    /// Requests rejected because the admission queue was full.
    pub rejected_overload: Counter,
    /// Admitted requests dropped at dequeue past their deadline.
    pub rejected_deadline: Counter,
    /// Requests refused because the server was draining.
    pub rejected_shutdown: Counter,
    /// Frames rejected before decoding (CRC failures).
    pub bad_frames: Counter,
    /// Deadline drops that happened during the shutdown drain.
    pub drain_deadline_drops: Counter,
    /// Requests currently queued (admitted, not yet picked up).
    pub queue_depth: Gauge,
    /// Workers currently executing a request.
    pub workers_busy: Gauge,
    /// Open client connections.
    pub connections: Gauge,
    /// Reader-side admission time: frame decoded → queued (µs).
    pub admission_us: Histogram,
    /// Queue wait: admitted → picked up by a worker (µs).
    pub queue_wait_us: Histogram,
    /// Engine execution time per request (µs).
    pub execute_us: Histogram,
    /// Response encode + socket write time (µs).
    pub encode_us: Histogram,
}

/// Durability-layer instruments (`hygraph-persist`).
#[derive(Debug, Default)]
pub struct PersistMetrics {
    /// Records appended to the WAL batch.
    pub wal_appends: Counter,
    /// Successful group-commit syncs.
    pub wal_syncs: Counter,
    /// Segment rotations (new segment files opened).
    pub wal_rotations: Counter,
    /// Bytes made durable by syncs.
    pub wal_synced_bytes: Counter,
    /// Checkpoints written.
    pub checkpoints: Counter,
    /// Store recoveries performed.
    pub recoveries: Counter,
    /// WAL frames replayed during recoveries.
    pub recovery_frames_replayed: Counter,
    /// Torn/corrupt tails truncated during recoveries.
    pub recovery_truncations: Counter,
    /// Per-record WAL append time (µs).
    pub wal_append_us: Histogram,
    /// Group-commit sync time: one write + fdatasync (µs).
    pub wal_sync_us: Histogram,
    /// Checkpoint write time (µs).
    pub checkpoint_us: Histogram,
    /// Full recovery time on open (µs).
    pub recovery_us: Histogram,
    /// Frames per group-commit batch (a size, not a latency).
    pub group_commit_frames: Histogram,
}

/// Per-operator-class instruments.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Executions.
    pub count: Counter,
    /// Executions that returned an error.
    pub errors: Counter,
    /// Execution time (µs).
    pub time_us: Histogram,
}

/// Per-physical-operator instruments (`hygraph-query::physical`).
#[derive(Debug, Default)]
pub struct OperatorMetrics {
    /// Operator executions.
    pub invocations: Counter,
    /// Rows (or bindings) the operator emitted.
    pub rows_out: Counter,
    /// Execution time (µs).
    pub time_us: Histogram,
}

/// Query-layer instruments (`hygraph-query`), keyed by [`OpClass`].
#[derive(Debug, Default)]
pub struct QueryMetrics {
    /// One group per Table 2 row, indexed by `OpClass as usize`.
    pub classes: [OpMetrics; OpClass::COUNT],
    /// HyQL texts that failed to parse (never classified).
    pub parse_errors: Counter,
    /// Queries answered from the server's plan cache.
    pub plan_cache_hits: Counter,
    /// Queries planned from scratch (cache cold, full, or disabled).
    pub plan_cache_misses: Counter,
    /// One group per physical operator, indexed by `PlanOp as usize`.
    pub operators: [OperatorMetrics; PlanOp::COUNT],
}

impl QueryMetrics {
    /// The instrument group for `class`.
    pub fn class(&self, class: OpClass) -> &OpMetrics {
        &self.classes[class as usize]
    }

    /// The instrument group for physical operator `op`.
    pub fn operator(&self, op: PlanOp) -> &OperatorMetrics {
        &self.operators[op as usize]
    }
}

/// Time-series-layer instruments (`hygraph-ts`).
#[derive(Debug, Default)]
pub struct TsMetrics {
    /// Insert calls into the chunked store.
    pub inserts: Counter,
    /// Observations inserted.
    pub points_inserted: Counter,
    /// Precomputed rollup-pyramid nodes merged by interval aggregates.
    pub rollup_hits: Counter,
    /// Sealed boundary chunks an aggregate had to decode and scan.
    pub rollup_boundary_decodes: Counter,
    /// Chunks currently sealed (compressed) across all stores.
    pub sealed_chunks: Gauge,
    /// Uncompressed size of the sealed data (bytes).
    pub raw_bytes: Gauge,
    /// Compressed size of the sealed data (bytes).
    pub compressed_bytes: Gauge,
}

/// Standing-subscription instruments (`hygraph-sub`).
#[derive(Debug, Default)]
pub struct SubMetrics {
    /// Standing queries currently registered.
    pub active: Gauge,
    /// Non-empty delta frames handed to subscriber push buffers.
    pub deltas_pushed: Counter,
    /// Commits a subscription answered by full re-execution (rerun-mode
    /// plans and forced incremental rebuilds) instead of a seeded
    /// incremental pass.
    pub fallback_reruns: Counter,
    /// Subscriptions force-closed because their push buffer was full.
    pub slow_consumer_drops: Counter,
}

/// One shard's WAL-stream gauges. These are **per-stream frame
/// counters** — every shard's WAL numbers its frames independently
/// from 0 — so they measure stream depth and sync lag, not global
/// commit sequence numbers; cross-shard durability is the separate
/// [`ShardMetrics::watermark`] gauge.
#[derive(Debug, Default)]
pub struct ShardLaneMetrics {
    /// Next LSN the shard's WAL will assign (its append frontier).
    pub next_lsn: Gauge,
    /// Highest LSN the shard has fsynced (its durable frontier).
    pub durable_lsn: Gauge,
}

/// Sharded-engine instruments: per-shard WAL positions and the
/// cross-shard watermark. All zero on unsharded (or memory) engines.
#[derive(Debug)]
pub struct ShardMetrics {
    /// Configured shard count (0 until a sharded store reports in).
    pub shards: Gauge,
    /// Cross-shard durable watermark in **commit sequence numbers**:
    /// every commit strictly below it is durable on all shards. Fed
    /// from the sharded store's per-shard durable CSN frontiers (see
    /// `hygraph_temporal::ShardWatermark`) — not from the per-stream
    /// lane LSNs, which are numbered independently per shard.
    pub watermark: Gauge,
    /// Per-shard lanes, indexed by shard; only the first
    /// [`ShardMetrics::shards`] are meaningful.
    pub lanes: [ShardLaneMetrics; MAX_SHARD_LANES],
    /// Snapshot-publication time per committed batch (µs): the writer's
    /// cost of cloning the instance (structural sharing makes this
    /// O(changed structure)) and swapping it into the read slot.
    pub commit_publish_us: Histogram,
    /// Published snapshot versions currently kept alive — the slot's
    /// current epoch plus every retired epoch a reader still pins.
    pub snapshot_pinned: Gauge,
}

impl Default for ShardMetrics {
    fn default() -> Self {
        Self {
            shards: Gauge::default(),
            watermark: Gauge::default(),
            lanes: std::array::from_fn(|_| ShardLaneMetrics::default()),
            commit_publish_us: Histogram::default(),
            snapshot_pinned: Gauge::default(),
        }
    }
}

impl ShardMetrics {
    /// Records a full `(next_lsn, durable_lsn)` lane report (the shape
    /// of `ShardedStore::shard_lsns`) plus the cross-shard watermark.
    /// Lanes beyond [`MAX_SHARD_LANES`] are ignored.
    pub fn set_lanes(&self, lanes: &[(u64, u64)], watermark: u64) {
        self.shards.set(lanes.len().min(MAX_SHARD_LANES) as i64);
        self.watermark.set(watermark.min(i64::MAX as u64) as i64);
        for (lane, &(next, durable)) in self.lanes.iter().zip(lanes.iter()) {
            lane.next_lsn.set(next.min(i64::MAX as u64) as i64);
            lane.durable_lsn.set(durable.min(i64::MAX as u64) as i64);
        }
    }
}

/// Temporal-history instruments (`hygraph-temporal`).
#[derive(Debug, Default)]
pub struct TemporalMetrics {
    /// `AS OF` queries resolved against the history store.
    pub asof_queries: Counter,
    /// `BETWEEN` queries resolved against the history store.
    pub between_queries: Counter,
    /// Past snapshots reconstructed by replay (cache misses).
    pub snapshot_rebuilds: Counter,
    /// Past snapshots served from the snapshot cache.
    pub snapshot_cache_hits: Counter,
    /// Commits retired from history by retention GC.
    pub gc_commits_folded: Counter,
    /// Commit records currently retained in history.
    pub history_commits: Gauge,
    /// Encoded bytes of the commit deltas history retains (the base
    /// state shares structure with the live store and is not counted).
    pub history_bytes: Gauge,
    /// Longest per-entity version chain currently retained.
    pub version_chain_max: Gauge,
    /// End-to-end `AS OF` snapshot resolution time (µs).
    pub asof_us: Histogram,
}

/// The process-wide instrument tree (see [`crate::get`]).
#[derive(Debug)]
pub struct Registry {
    /// Serving layer.
    pub server: ServerMetrics,
    /// Durability layer.
    pub persist: PersistMetrics,
    /// Query layer.
    pub query: QueryMetrics,
    /// Time-series layer.
    pub ts: TsMetrics,
    /// Standing-subscription layer.
    pub sub: SubMetrics,
    /// Temporal-history layer.
    pub temporal: TemporalMetrics,
    /// Sharded-engine layer.
    pub shard: ShardMetrics,
    /// Slow-query ring buffer.
    pub slow: SlowQueryLog,
}

impl Registry {
    /// A fresh registry whose slow-query ring holds `slow_capacity`
    /// entries.
    pub fn new(slow_capacity: usize) -> Self {
        Self {
            server: ServerMetrics::default(),
            persist: PersistMetrics::default(),
            query: QueryMetrics::default(),
            ts: TsMetrics::default(),
            sub: SubMetrics::default(),
            temporal: TemporalMetrics::default(),
            shard: ShardMetrics::default(),
            slow: SlowQueryLog::new(slow_capacity),
        }
    }

    /// A plain-data copy of every instrument at this instant.
    pub fn snapshot(&self) -> Snapshot {
        let s = &self.server;
        let p = &self.persist;
        let (slow_queries, slow_dropped) = self.slow.snapshot();
        Snapshot {
            server: ServerSnapshot {
                admitted: s.admitted.get(),
                completed: s.completed.get(),
                rejected_overload: s.rejected_overload.get(),
                rejected_deadline: s.rejected_deadline.get(),
                rejected_shutdown: s.rejected_shutdown.get(),
                bad_frames: s.bad_frames.get(),
                drain_deadline_drops: s.drain_deadline_drops.get(),
                queue_depth: s.queue_depth.get(),
                workers_busy: s.workers_busy.get(),
                connections: s.connections.get(),
                admission_us: s.admission_us.snapshot(),
                queue_wait_us: s.queue_wait_us.snapshot(),
                execute_us: s.execute_us.snapshot(),
                encode_us: s.encode_us.snapshot(),
            },
            persist: PersistSnapshot {
                wal_appends: p.wal_appends.get(),
                wal_syncs: p.wal_syncs.get(),
                wal_rotations: p.wal_rotations.get(),
                wal_synced_bytes: p.wal_synced_bytes.get(),
                checkpoints: p.checkpoints.get(),
                recoveries: p.recoveries.get(),
                recovery_frames_replayed: p.recovery_frames_replayed.get(),
                recovery_truncations: p.recovery_truncations.get(),
                wal_append_us: p.wal_append_us.snapshot(),
                wal_sync_us: p.wal_sync_us.snapshot(),
                checkpoint_us: p.checkpoint_us.snapshot(),
                recovery_us: p.recovery_us.snapshot(),
                group_commit_frames: p.group_commit_frames.snapshot(),
            },
            query: QuerySnapshot {
                classes: OpClass::ALL.map(|c| {
                    let om = self.query.class(c);
                    OpSnapshot {
                        count: om.count.get(),
                        errors: om.errors.get(),
                        time_us: om.time_us.snapshot(),
                    }
                }),
                parse_errors: self.query.parse_errors.get(),
                plan_cache_hits: self.query.plan_cache_hits.get(),
                plan_cache_misses: self.query.plan_cache_misses.get(),
                operators: PlanOp::ALL.map(|op| {
                    let om = self.query.operator(op);
                    OperatorSnapshot {
                        invocations: om.invocations.get(),
                        rows_out: om.rows_out.get(),
                        time_us: om.time_us.snapshot(),
                    }
                }),
            },
            ts: TsSnapshot {
                inserts: self.ts.inserts.get(),
                points_inserted: self.ts.points_inserted.get(),
                rollup_hits: self.ts.rollup_hits.get(),
                rollup_boundary_decodes: self.ts.rollup_boundary_decodes.get(),
                sealed_chunks: self.ts.sealed_chunks.get(),
                raw_bytes: self.ts.raw_bytes.get(),
                compressed_bytes: self.ts.compressed_bytes.get(),
            },
            sub: SubSnapshot {
                active: self.sub.active.get(),
                deltas_pushed: self.sub.deltas_pushed.get(),
                fallback_reruns: self.sub.fallback_reruns.get(),
                slow_consumer_drops: self.sub.slow_consumer_drops.get(),
            },
            shard: ShardsSnapshot {
                shards: self.shard.shards.get(),
                watermark: self.shard.watermark.get(),
                lanes: self
                    .shard
                    .lanes
                    .iter()
                    .take(self.shard.shards.get().clamp(0, MAX_SHARD_LANES as i64) as usize)
                    .map(|l| ShardLaneSnapshot {
                        next_lsn: l.next_lsn.get(),
                        durable_lsn: l.durable_lsn.get(),
                    })
                    .collect(),
                commit_publish_us: self.shard.commit_publish_us.snapshot(),
                snapshot_pinned: self.shard.snapshot_pinned.get(),
            },
            temporal: TemporalSnapshot {
                asof_queries: self.temporal.asof_queries.get(),
                between_queries: self.temporal.between_queries.get(),
                snapshot_rebuilds: self.temporal.snapshot_rebuilds.get(),
                snapshot_cache_hits: self.temporal.snapshot_cache_hits.get(),
                gc_commits_folded: self.temporal.gc_commits_folded.get(),
                history_commits: self.temporal.history_commits.get(),
                history_bytes: self.temporal.history_bytes.get(),
                version_chain_max: self.temporal.version_chain_max.get(),
                asof_us: self.temporal.asof_us.snapshot(),
            },
            slow_queries,
            slow_dropped,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Plain-data copy of [`ServerMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// See [`ServerMetrics::admitted`].
    pub admitted: u64,
    /// See [`ServerMetrics::completed`].
    pub completed: u64,
    /// See [`ServerMetrics::rejected_overload`].
    pub rejected_overload: u64,
    /// See [`ServerMetrics::rejected_deadline`].
    pub rejected_deadline: u64,
    /// See [`ServerMetrics::rejected_shutdown`].
    pub rejected_shutdown: u64,
    /// See [`ServerMetrics::bad_frames`].
    pub bad_frames: u64,
    /// See [`ServerMetrics::drain_deadline_drops`].
    pub drain_deadline_drops: u64,
    /// See [`ServerMetrics::queue_depth`].
    pub queue_depth: i64,
    /// See [`ServerMetrics::workers_busy`].
    pub workers_busy: i64,
    /// See [`ServerMetrics::connections`].
    pub connections: i64,
    /// See [`ServerMetrics::admission_us`].
    pub admission_us: HistogramSnapshot,
    /// See [`ServerMetrics::queue_wait_us`].
    pub queue_wait_us: HistogramSnapshot,
    /// See [`ServerMetrics::execute_us`].
    pub execute_us: HistogramSnapshot,
    /// See [`ServerMetrics::encode_us`].
    pub encode_us: HistogramSnapshot,
}

/// Plain-data copy of [`PersistMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistSnapshot {
    /// See [`PersistMetrics::wal_appends`].
    pub wal_appends: u64,
    /// See [`PersistMetrics::wal_syncs`].
    pub wal_syncs: u64,
    /// See [`PersistMetrics::wal_rotations`].
    pub wal_rotations: u64,
    /// See [`PersistMetrics::wal_synced_bytes`].
    pub wal_synced_bytes: u64,
    /// See [`PersistMetrics::checkpoints`].
    pub checkpoints: u64,
    /// See [`PersistMetrics::recoveries`].
    pub recoveries: u64,
    /// See [`PersistMetrics::recovery_frames_replayed`].
    pub recovery_frames_replayed: u64,
    /// See [`PersistMetrics::recovery_truncations`].
    pub recovery_truncations: u64,
    /// See [`PersistMetrics::wal_append_us`].
    pub wal_append_us: HistogramSnapshot,
    /// See [`PersistMetrics::wal_sync_us`].
    pub wal_sync_us: HistogramSnapshot,
    /// See [`PersistMetrics::checkpoint_us`].
    pub checkpoint_us: HistogramSnapshot,
    /// See [`PersistMetrics::recovery_us`].
    pub recovery_us: HistogramSnapshot,
    /// See [`PersistMetrics::group_commit_frames`].
    pub group_commit_frames: HistogramSnapshot,
}

/// Plain-data copy of one [`OpMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Executions.
    pub count: u64,
    /// Failed executions.
    pub errors: u64,
    /// Execution-time distribution (µs).
    pub time_us: HistogramSnapshot,
}

/// Plain-data copy of one [`OperatorMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OperatorSnapshot {
    /// Operator executions.
    pub invocations: u64,
    /// Rows the operator emitted.
    pub rows_out: u64,
    /// Execution-time distribution (µs).
    pub time_us: HistogramSnapshot,
}

/// Plain-data copy of [`QueryMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuerySnapshot {
    /// Per-class stats, indexed by `OpClass as usize`.
    pub classes: [OpSnapshot; OpClass::COUNT],
    /// See [`QueryMetrics::parse_errors`].
    pub parse_errors: u64,
    /// See [`QueryMetrics::plan_cache_hits`].
    pub plan_cache_hits: u64,
    /// See [`QueryMetrics::plan_cache_misses`].
    pub plan_cache_misses: u64,
    /// Per-operator stats, indexed by `PlanOp as usize`.
    pub operators: [OperatorSnapshot; PlanOp::COUNT],
}

impl QuerySnapshot {
    /// The snapshot for `class`.
    pub fn class(&self, class: OpClass) -> &OpSnapshot {
        &self.classes[class as usize]
    }

    /// The snapshot for physical operator `op`.
    pub fn operator(&self, op: PlanOp) -> &OperatorSnapshot {
        &self.operators[op as usize]
    }
}

/// Plain-data copy of [`TsMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TsSnapshot {
    /// See [`TsMetrics::inserts`].
    pub inserts: u64,
    /// See [`TsMetrics::points_inserted`].
    pub points_inserted: u64,
    /// See [`TsMetrics::rollup_hits`].
    pub rollup_hits: u64,
    /// See [`TsMetrics::rollup_boundary_decodes`].
    pub rollup_boundary_decodes: u64,
    /// See [`TsMetrics::sealed_chunks`].
    pub sealed_chunks: i64,
    /// See [`TsMetrics::raw_bytes`].
    pub raw_bytes: i64,
    /// See [`TsMetrics::compressed_bytes`].
    pub compressed_bytes: i64,
}

/// Plain-data copy of [`SubMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SubSnapshot {
    /// See [`SubMetrics::active`].
    pub active: i64,
    /// See [`SubMetrics::deltas_pushed`].
    pub deltas_pushed: u64,
    /// See [`SubMetrics::fallback_reruns`].
    pub fallback_reruns: u64,
    /// See [`SubMetrics::slow_consumer_drops`].
    pub slow_consumer_drops: u64,
}

/// Plain-data copy of one [`ShardLaneMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardLaneSnapshot {
    /// See [`ShardLaneMetrics::next_lsn`].
    pub next_lsn: i64,
    /// See [`ShardLaneMetrics::durable_lsn`].
    pub durable_lsn: i64,
}

/// Plain-data copy of [`ShardMetrics`] — only the configured lanes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardsSnapshot {
    /// See [`ShardMetrics::shards`].
    pub shards: i64,
    /// See [`ShardMetrics::watermark`].
    pub watermark: i64,
    /// Per-shard lanes, indexed by shard (length = `shards`).
    pub lanes: Vec<ShardLaneSnapshot>,
    /// See [`ShardMetrics::commit_publish_us`].
    pub commit_publish_us: HistogramSnapshot,
    /// See [`ShardMetrics::snapshot_pinned`].
    pub snapshot_pinned: i64,
}

/// Plain-data copy of [`TemporalMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TemporalSnapshot {
    /// See [`TemporalMetrics::asof_queries`].
    pub asof_queries: u64,
    /// See [`TemporalMetrics::between_queries`].
    pub between_queries: u64,
    /// See [`TemporalMetrics::snapshot_rebuilds`].
    pub snapshot_rebuilds: u64,
    /// See [`TemporalMetrics::snapshot_cache_hits`].
    pub snapshot_cache_hits: u64,
    /// See [`TemporalMetrics::gc_commits_folded`].
    pub gc_commits_folded: u64,
    /// See [`TemporalMetrics::history_commits`].
    pub history_commits: i64,
    /// See [`TemporalMetrics::history_bytes`].
    pub history_bytes: i64,
    /// See [`TemporalMetrics::version_chain_max`].
    pub version_chain_max: i64,
    /// See [`TemporalMetrics::asof_us`].
    pub asof_us: HistogramSnapshot,
}

/// A full point-in-time copy of the registry: what the `Stats` wire
/// request returns and what [`Snapshot::render_text`] renders.
///
/// Deliberately contains no wall-clock field, so encoding is a pure
/// function of the instrument values — two snapshots of an idle
/// registry encode to identical bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Serving layer.
    pub server: ServerSnapshot,
    /// Durability layer.
    pub persist: PersistSnapshot,
    /// Query layer.
    pub query: QuerySnapshot,
    /// Time-series layer.
    pub ts: TsSnapshot,
    /// Standing-subscription layer.
    pub sub: SubSnapshot,
    /// Sharded-engine layer.
    pub shard: ShardsSnapshot,
    /// Temporal-history layer.
    pub temporal: TemporalSnapshot,
    /// Slow-query ring contents, oldest first.
    pub slow_queries: Vec<SlowQueryEntry>,
    /// Slow queries evicted from the ring since startup.
    pub slow_dropped: u64,
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

/// A malformed [`Snapshot`] encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn err(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| err("truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid utf-8"))
    }
}

fn put_hist(out: &mut Vec<u8>, h: &HistogramSnapshot) {
    out.extend_from_slice(&h.count.to_le_bytes());
    out.extend_from_slice(&h.sum.to_le_bytes());
    let nonzero = h.buckets.iter().filter(|&&n| n != 0).count() as u16;
    out.extend_from_slice(&nonzero.to_le_bytes());
    for (i, &n) in h.buckets.iter().enumerate() {
        if n != 0 {
            out.extend_from_slice(&(i as u16).to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
    }
}

fn get_hist(r: &mut Reader<'_>) -> Result<HistogramSnapshot, DecodeError> {
    let count = r.u64()?;
    let sum = r.u64()?;
    let nonzero = r.u16()? as usize;
    let mut buckets = [0u64; BUCKETS];
    let mut last: Option<usize> = None;
    let mut total = 0u64;
    for _ in 0..nonzero {
        let idx = r.u16()? as usize;
        if idx >= BUCKETS {
            return Err(err(format!("bucket index {idx} out of range")));
        }
        if last.is_some_and(|l| idx <= l) {
            return Err(err("bucket indices not strictly increasing"));
        }
        let n = r.u64()?;
        if n == 0 {
            return Err(err("zero count in sparse bucket"));
        }
        buckets[idx] = n;
        total = total.checked_add(n).ok_or_else(|| err("count overflow"))?;
        last = Some(idx);
    }
    if total != count {
        return Err(err(format!(
            "histogram count {count} disagrees with bucket mass {total}"
        )));
    }
    Ok(HistogramSnapshot {
        buckets,
        count,
        sum,
    })
}

impl Snapshot {
    /// Encodes the snapshot into its exact binary form. The encoding is
    /// canonical: `from_bytes(to_bytes(s))` returns `s`, and re-encoding
    /// the result reproduces the input bytes bit for bit.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        out.push(SNAPSHOT_VERSION);

        let s = &self.server;
        for v in [
            s.admitted,
            s.completed,
            s.rejected_overload,
            s.rejected_deadline,
            s.rejected_shutdown,
            s.bad_frames,
            s.drain_deadline_drops,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [s.queue_depth, s.workers_busy, s.connections] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for h in [
            &s.admission_us,
            &s.queue_wait_us,
            &s.execute_us,
            &s.encode_us,
        ] {
            put_hist(&mut out, h);
        }

        let p = &self.persist;
        for v in [
            p.wal_appends,
            p.wal_syncs,
            p.wal_rotations,
            p.wal_synced_bytes,
            p.checkpoints,
            p.recoveries,
            p.recovery_frames_replayed,
            p.recovery_truncations,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for h in [
            &p.wal_append_us,
            &p.wal_sync_us,
            &p.checkpoint_us,
            &p.recovery_us,
            &p.group_commit_frames,
        ] {
            put_hist(&mut out, h);
        }

        for c in &self.query.classes {
            out.extend_from_slice(&c.count.to_le_bytes());
            out.extend_from_slice(&c.errors.to_le_bytes());
            put_hist(&mut out, &c.time_us);
        }
        out.extend_from_slice(&self.query.parse_errors.to_le_bytes());
        out.extend_from_slice(&self.query.plan_cache_hits.to_le_bytes());
        out.extend_from_slice(&self.query.plan_cache_misses.to_le_bytes());
        for o in &self.query.operators {
            out.extend_from_slice(&o.invocations.to_le_bytes());
            out.extend_from_slice(&o.rows_out.to_le_bytes());
            put_hist(&mut out, &o.time_us);
        }

        out.extend_from_slice(&self.ts.inserts.to_le_bytes());
        out.extend_from_slice(&self.ts.points_inserted.to_le_bytes());
        out.extend_from_slice(&self.ts.rollup_hits.to_le_bytes());
        out.extend_from_slice(&self.ts.rollup_boundary_decodes.to_le_bytes());
        out.extend_from_slice(&self.ts.sealed_chunks.to_le_bytes());
        out.extend_from_slice(&self.ts.raw_bytes.to_le_bytes());
        out.extend_from_slice(&self.ts.compressed_bytes.to_le_bytes());

        out.extend_from_slice(&self.sub.active.to_le_bytes());
        out.extend_from_slice(&self.sub.deltas_pushed.to_le_bytes());
        out.extend_from_slice(&self.sub.fallback_reruns.to_le_bytes());
        out.extend_from_slice(&self.sub.slow_consumer_drops.to_le_bytes());

        out.extend_from_slice(&self.shard.shards.to_le_bytes());
        out.extend_from_slice(&self.shard.watermark.to_le_bytes());
        out.extend_from_slice(&(self.shard.lanes.len() as u32).to_le_bytes());
        for lane in &self.shard.lanes {
            out.extend_from_slice(&lane.next_lsn.to_le_bytes());
            out.extend_from_slice(&lane.durable_lsn.to_le_bytes());
        }
        out.extend_from_slice(&self.shard.snapshot_pinned.to_le_bytes());
        put_hist(&mut out, &self.shard.commit_publish_us);

        let t = &self.temporal;
        for v in [
            t.asof_queries,
            t.between_queries,
            t.snapshot_rebuilds,
            t.snapshot_cache_hits,
            t.gc_commits_folded,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [t.history_commits, t.history_bytes, t.version_chain_max] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        put_hist(&mut out, &t.asof_us);

        out.extend_from_slice(&(self.slow_queries.len() as u32).to_le_bytes());
        for e in &self.slow_queries {
            out.extend_from_slice(&(e.query.len() as u32).to_le_bytes());
            out.extend_from_slice(e.query.as_bytes());
            out.extend_from_slice(&e.duration_us.to_le_bytes());
            out.extend_from_slice(&e.rows.to_le_bytes());
            out.extend_from_slice(&e.plan_fp.to_le_bytes());
        }
        out.extend_from_slice(&self.slow_dropped.to_le_bytes());
        out
    }

    /// Decodes an encoding produced by [`Snapshot::to_bytes`]. Input is
    /// untrusted: malformed bytes error, never panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        let version = r.u8()?;
        if version != SNAPSHOT_VERSION {
            return Err(err(format!("unsupported snapshot version {version}")));
        }
        let server = ServerSnapshot {
            admitted: r.u64()?,
            completed: r.u64()?,
            rejected_overload: r.u64()?,
            rejected_deadline: r.u64()?,
            rejected_shutdown: r.u64()?,
            bad_frames: r.u64()?,
            drain_deadline_drops: r.u64()?,
            queue_depth: r.i64()?,
            workers_busy: r.i64()?,
            connections: r.i64()?,
            admission_us: get_hist(&mut r)?,
            queue_wait_us: get_hist(&mut r)?,
            execute_us: get_hist(&mut r)?,
            encode_us: get_hist(&mut r)?,
        };
        let persist = PersistSnapshot {
            wal_appends: r.u64()?,
            wal_syncs: r.u64()?,
            wal_rotations: r.u64()?,
            wal_synced_bytes: r.u64()?,
            checkpoints: r.u64()?,
            recoveries: r.u64()?,
            recovery_frames_replayed: r.u64()?,
            recovery_truncations: r.u64()?,
            wal_append_us: get_hist(&mut r)?,
            wal_sync_us: get_hist(&mut r)?,
            checkpoint_us: get_hist(&mut r)?,
            recovery_us: get_hist(&mut r)?,
            group_commit_frames: get_hist(&mut r)?,
        };
        let mut classes: [OpSnapshot; OpClass::COUNT] = Default::default();
        for c in classes.iter_mut() {
            *c = OpSnapshot {
                count: r.u64()?,
                errors: r.u64()?,
                time_us: get_hist(&mut r)?,
            };
        }
        let parse_errors = r.u64()?;
        let plan_cache_hits = r.u64()?;
        let plan_cache_misses = r.u64()?;
        let mut operators: [OperatorSnapshot; PlanOp::COUNT] = Default::default();
        for o in operators.iter_mut() {
            *o = OperatorSnapshot {
                invocations: r.u64()?,
                rows_out: r.u64()?,
                time_us: get_hist(&mut r)?,
            };
        }
        let query = QuerySnapshot {
            classes,
            parse_errors,
            plan_cache_hits,
            plan_cache_misses,
            operators,
        };
        let ts = TsSnapshot {
            inserts: r.u64()?,
            points_inserted: r.u64()?,
            rollup_hits: r.u64()?,
            rollup_boundary_decodes: r.u64()?,
            sealed_chunks: r.i64()?,
            raw_bytes: r.i64()?,
            compressed_bytes: r.i64()?,
        };
        let sub = SubSnapshot {
            active: r.i64()?,
            deltas_pushed: r.u64()?,
            fallback_reruns: r.u64()?,
            slow_consumer_drops: r.u64()?,
        };
        let shard_count = r.i64()?;
        let shard_watermark = r.i64()?;
        let n_lanes = r.u32()? as usize;
        if n_lanes > MAX_SHARD_LANES {
            return Err(err(format!("implausible shard lane count {n_lanes}")));
        }
        let mut lanes = Vec::with_capacity(n_lanes);
        for _ in 0..n_lanes {
            lanes.push(ShardLaneSnapshot {
                next_lsn: r.i64()?,
                durable_lsn: r.i64()?,
            });
        }
        let shard = ShardsSnapshot {
            shards: shard_count,
            watermark: shard_watermark,
            lanes,
            snapshot_pinned: r.i64()?,
            commit_publish_us: get_hist(&mut r)?,
        };
        let temporal = TemporalSnapshot {
            asof_queries: r.u64()?,
            between_queries: r.u64()?,
            snapshot_rebuilds: r.u64()?,
            snapshot_cache_hits: r.u64()?,
            gc_commits_folded: r.u64()?,
            history_commits: r.i64()?,
            history_bytes: r.i64()?,
            version_chain_max: r.i64()?,
            asof_us: get_hist(&mut r)?,
        };
        let n_slow = r.u32()? as usize;
        if n_slow > 1 << 20 {
            return Err(err(format!("implausible slow-query count {n_slow}")));
        }
        let mut slow_queries = Vec::with_capacity(n_slow.min(1024));
        for _ in 0..n_slow {
            slow_queries.push(SlowQueryEntry {
                query: r.str()?,
                duration_us: r.u64()?,
                rows: r.u64()?,
                plan_fp: r.u64()?,
            });
        }
        let slow_dropped = r.u64()?;
        if r.pos != bytes.len() {
            return Err(err(format!(
                "{} trailing bytes after snapshot",
                bytes.len() - r.pos
            )));
        }
        Ok(Self {
            server,
            persist,
            query,
            ts,
            sub,
            shard,
            temporal,
            slow_queries,
            slow_dropped,
        })
    }

    /// Renders the snapshot as Prometheus-style text exposition:
    /// counters and gauges as single samples, histograms as summaries
    /// with `quantile` labels plus `_sum`/`_count`, and the slow-query
    /// ring as trailing comment lines.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        };

        let s = &self.server;
        counter("hygraph_server_admitted_total", s.admitted);
        counter("hygraph_server_completed_total", s.completed);
        counter(
            "hygraph_server_rejected_overload_total",
            s.rejected_overload,
        );
        counter(
            "hygraph_server_rejected_deadline_total",
            s.rejected_deadline,
        );
        counter(
            "hygraph_server_rejected_shutdown_total",
            s.rejected_shutdown,
        );
        counter("hygraph_server_bad_frames_total", s.bad_frames);
        counter(
            "hygraph_server_drain_deadline_drops_total",
            s.drain_deadline_drops,
        );
        let p = &self.persist;
        counter("hygraph_persist_wal_appends_total", p.wal_appends);
        counter("hygraph_persist_wal_syncs_total", p.wal_syncs);
        counter("hygraph_persist_wal_rotations_total", p.wal_rotations);
        counter("hygraph_persist_wal_synced_bytes_total", p.wal_synced_bytes);
        counter("hygraph_persist_checkpoints_total", p.checkpoints);
        counter("hygraph_persist_recoveries_total", p.recoveries);
        counter(
            "hygraph_persist_recovery_frames_replayed_total",
            p.recovery_frames_replayed,
        );
        counter(
            "hygraph_persist_recovery_truncations_total",
            p.recovery_truncations,
        );
        for (class, c) in OpClass::ALL.iter().zip(self.query.classes.iter()) {
            counter(&format!("hygraph_query_{}_total", class.name()), c.count);
            counter(
                &format!("hygraph_query_{}_errors_total", class.name()),
                c.errors,
            );
        }
        counter("hygraph_query_parse_errors_total", self.query.parse_errors);
        counter(
            "hygraph_query_plan_cache_hits_total",
            self.query.plan_cache_hits,
        );
        counter(
            "hygraph_query_plan_cache_misses_total",
            self.query.plan_cache_misses,
        );
        for (op, o) in PlanOp::ALL.iter().zip(self.query.operators.iter()) {
            counter(
                &format!("hygraph_query_op_{}_total", op.name()),
                o.invocations,
            );
            counter(
                &format!("hygraph_query_op_{}_rows_total", op.name()),
                o.rows_out,
            );
        }
        counter("hygraph_ts_inserts_total", self.ts.inserts);
        counter("hygraph_ts_points_inserted_total", self.ts.points_inserted);
        counter("hygraph_ts_rollup_hits_total", self.ts.rollup_hits);
        counter(
            "hygraph_ts_rollup_boundary_decodes_total",
            self.ts.rollup_boundary_decodes,
        );
        counter("hygraph_sub_deltas_pushed_total", self.sub.deltas_pushed);
        counter(
            "hygraph_sub_fallback_reruns_total",
            self.sub.fallback_reruns,
        );
        counter(
            "hygraph_sub_slow_consumer_drops_total",
            self.sub.slow_consumer_drops,
        );
        counter(
            "hygraph_temporal_asof_queries_total",
            self.temporal.asof_queries,
        );
        counter(
            "hygraph_temporal_between_queries_total",
            self.temporal.between_queries,
        );
        counter(
            "hygraph_temporal_snapshot_rebuilds_total",
            self.temporal.snapshot_rebuilds,
        );
        counter(
            "hygraph_temporal_snapshot_cache_hits_total",
            self.temporal.snapshot_cache_hits,
        );
        counter(
            "hygraph_temporal_gc_commits_folded_total",
            self.temporal.gc_commits_folded,
        );
        counter("hygraph_slow_queries_dropped_total", self.slow_dropped);

        let mut gauge = |name: &str, v: i64| {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", v.max(0));
        };
        gauge("hygraph_server_queue_depth", s.queue_depth);
        gauge("hygraph_server_workers_busy", s.workers_busy);
        gauge("hygraph_server_connections", s.connections);
        gauge("hygraph_ts_sealed_chunks", self.ts.sealed_chunks);
        gauge("hygraph_ts_raw_bytes", self.ts.raw_bytes);
        gauge("hygraph_ts_compressed_bytes", self.ts.compressed_bytes);
        gauge("hygraph_sub_active", self.sub.active);
        gauge("hygraph_shards", self.shard.shards);
        gauge("hygraph_shard_watermark", self.shard.watermark);
        gauge("hygraph_snapshot_pinned", self.shard.snapshot_pinned);
        gauge(
            "hygraph_temporal_history_commits",
            self.temporal.history_commits,
        );
        gauge(
            "hygraph_temporal_history_bytes",
            self.temporal.history_bytes,
        );
        gauge(
            "hygraph_temporal_version_chain_max",
            self.temporal.version_chain_max,
        );

        if !self.shard.lanes.is_empty() {
            let _ = writeln!(out, "# TYPE hygraph_shard_next_lsn gauge");
            for (i, lane) in self.shard.lanes.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "hygraph_shard_next_lsn{{shard=\"{i}\"}} {}",
                    lane.next_lsn.max(0)
                );
            }
            let _ = writeln!(out, "# TYPE hygraph_shard_durable_lsn gauge");
            for (i, lane) in self.shard.lanes.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "hygraph_shard_durable_lsn{{shard=\"{i}\"}} {}",
                    lane.durable_lsn.max(0)
                );
            }
        }

        let mut summary = |name: &str, h: &HistogramSnapshot| {
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{name}_sum {}\n{name}_count {}", h.sum, h.count);
        };
        summary("hygraph_server_admission_us", &s.admission_us);
        summary("hygraph_server_queue_wait_us", &s.queue_wait_us);
        summary("hygraph_server_execute_us", &s.execute_us);
        summary("hygraph_server_encode_us", &s.encode_us);
        summary("hygraph_persist_wal_append_us", &p.wal_append_us);
        summary("hygraph_persist_wal_sync_us", &p.wal_sync_us);
        summary("hygraph_persist_checkpoint_us", &p.checkpoint_us);
        summary("hygraph_persist_recovery_us", &p.recovery_us);
        summary(
            "hygraph_persist_group_commit_frames",
            &p.group_commit_frames,
        );
        for (class, c) in OpClass::ALL.iter().zip(self.query.classes.iter()) {
            summary(&format!("hygraph_query_{}_us", class.name()), &c.time_us);
        }
        for (op, o) in PlanOp::ALL.iter().zip(self.query.operators.iter()) {
            summary(&format!("hygraph_query_op_{}_us", op.name()), &o.time_us);
        }
        summary("hygraph_temporal_asof_us", &self.temporal.asof_us);
        summary("hygraph_commit_publish_us", &self.shard.commit_publish_us);

        for e in &self.slow_queries {
            let _ = writeln!(
                out,
                "# SLOW {}us rows={} fp=0x{:016x} {}",
                e.duration_us,
                e.rows,
                e.plan_fp,
                e.query.replace('\n', " ")
            );
        }
        out
    }

    /// A one-line operational summary — what the periodic
    /// `HYGRAPH_METRICS_LOG_EVERY_MS` logger emits.
    pub fn summary_line(&self) -> String {
        let s = &self.server;
        format!(
            "admitted={} completed={} overload={} deadline={} queue={} busy={} \
             exec_p50us={} exec_p95us={} wal_syncs={} slow={}",
            s.admitted,
            s.completed,
            s.rejected_overload,
            s.rejected_deadline,
            s.queue_depth.max(0),
            s.workers_busy.max(0),
            s.execute_us.p50(),
            s.execute_us.p95(),
            self.persist.wal_syncs,
            self.slow_queries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy_registry() -> Registry {
        let r = Registry::new(8);
        r.server.admitted.add(10);
        r.server.completed.add(9);
        r.server.queue_depth.set(1);
        r.server.execute_us.observe(120);
        r.server.execute_us.observe(80_000);
        r.persist.wal_syncs.add(3);
        r.persist.wal_sync_us.observe(4_000);
        r.persist.group_commit_frames.observe(17);
        r.query.class(OpClass::Q1Match).count.add(4);
        r.query.class(OpClass::Q1Match).time_us.observe(250);
        r.query.class(OpClass::Q4Snapshot).errors.inc();
        r.query.plan_cache_hits.add(7);
        r.query.plan_cache_misses.add(2);
        r.query.operator(PlanOp::Match).invocations.add(3);
        r.query.operator(PlanOp::Match).rows_out.add(120);
        r.query.operator(PlanOp::Match).time_us.observe(85);
        r.query.operator(PlanOp::Sort).invocations.inc();
        r.ts.points_inserted.add(1_000);
        r.ts.rollup_hits.add(64);
        r.ts.rollup_boundary_decodes.add(2);
        r.ts.sealed_chunks.set(12);
        r.ts.raw_bytes.set(16_000);
        r.ts.compressed_bytes.set(2_000);
        r.sub.active.set(3);
        r.sub.deltas_pushed.add(21);
        r.sub.fallback_reruns.add(5);
        r.sub.slow_consumer_drops.inc();
        r.temporal.asof_queries.add(6);
        r.temporal.between_queries.add(2);
        r.temporal.snapshot_rebuilds.add(4);
        r.temporal.snapshot_cache_hits.add(9);
        r.temporal.gc_commits_folded.add(3);
        r.temporal.history_commits.set(40);
        r.temporal.history_bytes.set(65_536);
        r.temporal.version_chain_max.set(7);
        r.temporal.asof_us.observe(900);
        r.shard.set_lanes(&[(12, 10), (9, 8), (15, 15)], 8);
        r.shard.commit_publish_us.observe(150);
        r.shard.commit_publish_us.observe(2_300);
        r.shard.snapshot_pinned.set(2);
        r.slow.record(
            "MATCH (n) RETURN n",
            Duration::from_millis(250),
            42,
            0xdead_beef_cafe_f00d,
            Duration::from_millis(100),
        );
        r
    }

    #[test]
    fn codec_roundtrips_exactly() {
        let snap = busy_registry().snapshot();
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded, snap);
        assert_eq!(decoded.to_bytes(), bytes, "re-encoding is bit-identical");
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Registry::new(4).snapshot();
        let bytes = snap.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn malformed_bytes_error_not_panic() {
        let good = busy_registry().snapshot().to_bytes();
        // truncations at every prefix length
        for cut in 0..good.len() {
            assert!(
                Snapshot::from_bytes(&good[..cut]).is_err(),
                "truncation to {cut} must fail"
            );
        }
        // trailing garbage
        let mut long = good.clone();
        long.push(0);
        assert!(Snapshot::from_bytes(&long).is_err());
        // bad version
        let mut bad = good.clone();
        bad[0] = 99;
        assert!(Snapshot::from_bytes(&bad).is_err());
    }

    #[test]
    fn render_text_contains_the_vocabulary() {
        let text = busy_registry().snapshot().render_text();
        for needle in [
            "hygraph_server_admitted_total 10",
            "hygraph_server_queue_depth 1",
            "hygraph_server_execute_us{quantile=\"0.5\"}",
            "hygraph_persist_wal_syncs_total 3",
            "hygraph_query_q1_match_total 4",
            "hygraph_query_q4_snapshot_errors_total 1",
            "hygraph_query_plan_cache_hits_total 7",
            "hygraph_query_plan_cache_misses_total 2",
            "hygraph_query_op_match_total 3",
            "hygraph_query_op_match_rows_total 120",
            "hygraph_query_op_sort_total 1",
            "hygraph_query_op_match_us{quantile=\"0.5\"}",
            "hygraph_ts_points_inserted_total 1000",
            "hygraph_ts_rollup_hits_total 64",
            "hygraph_ts_rollup_boundary_decodes_total 2",
            "hygraph_ts_sealed_chunks 12",
            "hygraph_ts_raw_bytes 16000",
            "hygraph_ts_compressed_bytes 2000",
            "hygraph_sub_active 3",
            "hygraph_sub_deltas_pushed_total 21",
            "hygraph_sub_fallback_reruns_total 5",
            "hygraph_sub_slow_consumer_drops_total 1",
            "hygraph_temporal_asof_queries_total 6",
            "hygraph_temporal_between_queries_total 2",
            "hygraph_temporal_snapshot_rebuilds_total 4",
            "hygraph_temporal_snapshot_cache_hits_total 9",
            "hygraph_temporal_gc_commits_folded_total 3",
            "hygraph_temporal_history_commits 40",
            "hygraph_temporal_history_bytes 65536",
            "hygraph_temporal_version_chain_max 7",
            "hygraph_temporal_asof_us{quantile=\"0.5\"}",
            "hygraph_shards 3",
            "hygraph_shard_watermark 8",
            "hygraph_shard_next_lsn{shard=\"0\"} 12",
            "hygraph_shard_durable_lsn{shard=\"1\"} 8",
            "hygraph_shard_next_lsn{shard=\"2\"} 15",
            "hygraph_snapshot_pinned 2",
            "hygraph_commit_publish_us{quantile=\"0.5\"}",
            "hygraph_commit_publish_us_count 2",
            "# SLOW 250000us rows=42 fp=0xdeadbeefcafef00d MATCH (n) RETURN n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn summary_line_is_single_line() {
        let line = busy_registry().snapshot().summary_line();
        assert!(!line.contains('\n'));
        assert!(line.contains("admitted=10"));
    }
}
