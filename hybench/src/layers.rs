//! The traced run's per-layer table. Two sources, both from outside the
//! program: deltas of the server's own histograms and counters across
//! the traced window (read with `Client::stats()`), and spans recorded
//! around calls into each layer's public functions while replaying a
//! seeded sample of the window's own ops against the same state.

use crate::drive::{Acked, Kind, Record};
use crate::rng::Rng;
use crate::setup::{replay_all, state_bytes, Bench, Kit};
use crate::stats::{hist_delta, Ratio, Samples};
use crate::trace::{self_times, Span, Tracer};
use crate::workload::{self, DAY_MS, FAR_MS};
use crate::Metric;
use hygraph_core::HyGraph;
use hygraph_metrics::{HistogramSnapshot, OpClass, PlanOp, Snapshot};
use hygraph_persist::{Durable, HgMutation};
use hygraph_query::incremental::Delta;
use hygraph_query::{execute_planned_sharded, parser, plan_query, QueryResult, TemporalBound};
use hygraph_server::{Request, Response};
use hygraph_sub::{DeltaSink, SubConfig, SubscriptionRegistry};
use hygraph_temporal::{CommitRecord, HistoryConfig, HistoryStore, SnapshotResolution};
use hygraph_types::net::{read_frame, FrameRead, DEFAULT_MAX_FRAME_BYTES};
use hygraph_types::parallel::ExecMode;
use hygraph_types::shard::ShardRouter;
use hygraph_types::{HyGraphError, Interval, Result, Timestamp};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Ops of the traced window replayed layer by layer.
const REPLAY_SAMPLE: usize = 400;
/// Stations whose series the ts rows summarize.
const SUMMARIZE_SAMPLE: usize = 64;

/// The per-layer metrics the result line carries (`--trace 1`): the rows
/// every workload measures.
pub const PER_LAYER: [&str; 17] = [
    "server.queue_wait_us.p50",
    "server.queue_wait_us.p99",
    "server.execute_us.p50",
    "server.execute_us.p99",
    "server.encode_us.p50",
    "server.wire_us.mean",
    "proto.frame_us",
    "engine.wait_us.mean",
    "query.parse_us",
    "query.plan_us",
    "query.exec_us",
    "query.plan_cache_hit_ratio",
    "query.op.match_us.p50",
    "query.match_rows_per_result_row",
    "ts.summarize_us.day",
    "ts.summarize_us.month",
    "bench.tracing_overhead_pct",
];

/// The prediction table: each per-layer metric (or metric prefix), its
/// layer, the end-to-end metric it should move, and the workloads where
/// it should. "control" rows should not move.
pub const PREDICTIONS: &[(&str, &str, &str, &str)] = &[
    (
        "server.queue_wait_us",
        "hygraph-server",
        "read_p99_ms / write_p99_ms",
        "hybrid-read, ingest-durable",
    ),
    (
        "server.execute_us",
        "hygraph-server",
        "read_p50_ms, write_p50_ms",
        "all",
    ),
    (
        "server.encode_us",
        "hygraph-server",
        "read_p50_ms",
        "hybrid-read",
    ),
    (
        "server.wire_us",
        "hygraph-server",
        "ops_per_s",
        "hybrid-read",
    ),
    (
        "proto.frame_us",
        "hygraph-server",
        "read_p50_ms",
        "hybrid-read",
    ),
    (
        "engine.wait_us",
        "hygraph-server",
        "write_p50_ms, read_p50_ms",
        "mixed-temporal",
    ),
    (
        "engine.write_wait",
        "hygraph-server",
        "write_p50_ms",
        "mixed-temporal",
    ),
    (
        "query.parse_us",
        "hygraph-query",
        "read_p50_ms",
        "hybrid-read",
    ),
    (
        "query.plan_us",
        "hygraph-query",
        "nothing: every plan is a cache hit (control)",
        "hybrid-read",
    ),
    (
        "query.plan_cache_hit_ratio",
        "hygraph-query",
        "nothing (control)",
        "hybrid-read",
    ),
    (
        "query.exec_us",
        "hygraph-query",
        "read_p50_ms, read_p99_ms",
        "hybrid-read",
    ),
    ("query.op.", "hygraph-query", "read_p50_ms", "hybrid-read"),
    (
        "query.match_rows_per_result_row",
        "hygraph-query",
        "read_p50_ms",
        "hybrid-read",
    ),
    (
        "graph.pattern_exec_us",
        "hygraph-graph",
        "read_p50_ms",
        "hybrid-read",
    ),
    (
        "ts.summarize_us",
        "hygraph-ts",
        "read_p50_ms",
        "hybrid-read",
    ),
    (
        "ts.rollup_hit_ratio",
        "hygraph-ts",
        "read_p50_ms",
        "hybrid-read",
    ),
    (
        "ts.compression_ratio",
        "hygraph-ts",
        "peak_rss_mb",
        "hybrid-read",
    ),
    (
        "core.apply_us",
        "hygraph-core",
        "write_p50_ms",
        "ingest-durable, mixed-temporal",
    ),
    (
        "core.publish_us",
        "hygraph-core",
        "write_p50_ms",
        "mixed-temporal",
    ),
    (
        "persist.wal_append_us",
        "hygraph-persist",
        "write_p50_ms",
        "ingest-durable, mixed-temporal",
    ),
    (
        "persist.wal_sync_us",
        "hygraph-persist",
        "write_p50_ms, write_p99_ms",
        "ingest-durable, mixed-temporal",
    ),
    (
        "persist.group_commit_frames",
        "hygraph-persist",
        "ops_per_s",
        "ingest-durable",
    ),
    (
        "persist.syncs_per_commit",
        "hygraph-persist",
        "ops_per_s",
        "ingest-durable",
    ),
    (
        "persist.wal_bytes_per_point",
        "hygraph-persist",
        "ops_per_s",
        "ingest-durable",
    ),
    (
        "persist.checkpoint",
        "hygraph-persist",
        "write_p99_ms",
        "ingest-durable",
    ),
    (
        "temporal.asof_us",
        "hygraph-temporal",
        "asof_p50_ms",
        "mixed-temporal",
    ),
    (
        "temporal.snapshot_cache_hit_ratio",
        "hygraph-temporal",
        "asof_p50_ms",
        "mixed-temporal",
    ),
    (
        "temporal.snapshot_at_us",
        "hygraph-temporal",
        "asof_p50_ms",
        "mixed-temporal",
    ),
    (
        "temporal.record_commit_us",
        "hygraph-temporal",
        "write_p50_ms",
        "mixed-temporal, ingest-durable",
    ),
    (
        "temporal.history_bytes_per_commit",
        "hygraph-temporal",
        "end-of-run RSS, not peak_rss_mb",
        "mixed-temporal",
    ),
    (
        "sub.on_commit_us",
        "hygraph-sub",
        "push_p50_ms",
        "mixed-temporal",
    ),
    (
        "sub.",
        "hygraph-sub",
        "push_p50_ms, error_rate",
        "mixed-temporal",
    ),
    ("bench.tracing_overhead_pct", "benchmark", "-", "all"),
];

pub struct Input<'a> {
    pub seed: u64,
    /// The traced window.
    pub rec: &'a Record,
    /// Every acknowledged batch of the run, in commit order.
    pub acked: &'a [Acked],
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

/// A sink that accepts and drops every delta.
struct Discard;

impl DeltaSink for Discard {
    fn push_delta(&self, _sub_id: u64, _delta: &Delta) -> bool {
        true
    }
    fn close(&self, _sub_id: u64, _reason: &str) {}
}

fn decode_frame(bytes: &[u8]) -> Result<hygraph_types::net::Frame> {
    match read_frame(&mut &bytes[..], DEFAULT_MAX_FRAME_BYTES)? {
        FrameRead::Frame(f) => Ok(f),
        _ => Err(HyGraphError::invalid("frame did not decode".to_owned())),
    }
}

/// Both directions of one query's wire encoding, as client and server
/// run them.
fn frame_roundtrip(op: u64, req: Request, rows: QueryResult) -> Result<()> {
    let f = decode_frame(&req.to_frame(op).encode())?;
    Request::from_frame(&f)?;
    let f = decode_frame(&Response::Rows(rows).to_frame(op).encode())?;
    std::hint::black_box(Response::from_frame(&f)?);
    Ok(())
}

/// Replays one query: parse, plan, execute on `hg`, and the frames.
fn replay_query(
    tr: &mut Tracer,
    root: u64,
    op: u64,
    req: Request,
    text: &str,
    hg: &HyGraph,
    router: ShardRouter,
) -> Result<()> {
    let q = tr.child("query.parse", op, root, || parser::parse(text))?;
    let planned = tr.child("query.plan", op, root, || plan_query(&q))?;
    let rows = tr.child("query.exec", op, root, || {
        execute_planned_sharded(hg, &planned, ExecMode::Auto, router)
    })?;
    tr.child("proto.frame", op, root, || frame_roundtrip(op, req, rows))
}

/// Up to `n` of `ops`, drawn with a seeded generator.
fn sample(mut ops: Vec<u64>, n: usize, rng: &mut Rng) -> Vec<u64> {
    ops.sort_unstable();
    let n = ops.len().min(n);
    for i in 0..n {
        let j = i + rng.below(ops.len() - i);
        ops.swap(i, j);
    }
    ops.truncate(n);
    ops
}

/// A seeded sample of the traced window's ops: up to [`REPLAY_SAMPLE`]
/// reads (live and `AS OF`) and as many acknowledged commits, drawn
/// apart so a write-light mix still yields enough replayed commits.
fn sample_ops(inp: &Input<'_>) -> HashSet<u64> {
    let mut rng = Rng::derive(inp.seed, 0x5A);
    let mut reads: Vec<u64> = inp.rec.reads.iter().map(|(op, _)| *op).collect();
    reads.extend(inp.rec.asofs.iter().map(|(op, ..)| *op));
    let writes = inp
        .acked
        .iter()
        .filter(|a| a.traced)
        .map(|a| a.op)
        .collect();
    let mut out = sample(reads, REPLAY_SAMPLE, &mut rng);
    out.extend(sample(writes, REPLAY_SAMPLE, &mut rng));
    out.into_iter().collect()
}

/// Applies every acknowledged batch in commit order from `start`, with
/// spans around each layer's share of a commit: apply, snapshot publish
/// (a clone), history record and subscription fan-out.
fn replay_writes(
    tr: &mut Tracer,
    start: &HyGraph,
    acked: &[Acked],
    mut history: HistoryStore,
    subs: Option<&SubscriptionRegistry>,
) -> Result<()> {
    let mut hg = start.clone();
    let mut published = None;
    for a in acked {
        let (op, batch) = (a.op, &a.batch);
        let root = tr.begin("replay.write", op, None);
        let pre_v = hg.topology().vertex_capacity();
        let pre_e = hg.topology().edge_capacity();
        tr.child("core.apply", op, root, || {
            batch.iter().try_for_each(|m| hg.apply(m))
        })?;
        tr.child("core.publish", op, root, || {
            published = Some(Arc::new(hg.clone()))
        });
        tr.child("temporal.record_commit", op, root, || {
            let ts = history.allocate_ts(hygraph_temporal::now_ms());
            history.record_commit(ts, batch.to_vec());
        });
        if let Some(reg) = subs {
            tr.child("sub.on_commit", op, root, || {
                reg.on_commit(&hg, batch, pre_v, pre_e, false)
            });
        }
        tr.end(root);
    }
    drop(published);
    Ok(())
}

/// Self time per span name, in microseconds, over `spans`.
fn by_name(spans: &[Span]) -> HashMap<&'static str, Samples> {
    let mut m: HashMap<&'static str, Samples> = HashMap::new();
    for (name, ns) in self_times(spans) {
        m.entry(name).or_default().push(ns as f64 / 1e3);
    }
    m
}

fn us(h: &HistogramSnapshot, q: f64) -> Option<f64> {
    (h.count > 0).then(|| h.quantile(q) as f64)
}

fn n_of(h: &HistogramSnapshot) -> String {
    format!("n={}", h.count)
}

/// Runs the replay and assembles every row. Must run before the server
/// shuts down: the read replay uses the engine's current state.
pub fn measure(inp: &Input<'_>, bench: &Bench, epoch: Instant) -> Result<(Vec<Metric>, Vec<Span>)> {
    let sample = sample_ops(inp);
    let engine = bench.server.engine();
    let router = engine.router();
    let live = engine.with_graph(HyGraph::clone);
    drop(engine);
    let mut tr = Tracer::new(epoch, 0xFF);

    // reads against the served state
    let mut shape_of: HashMap<&str, (&'static str, bool)> = HashMap::new();
    match &bench.kit {
        Kit::Hybrid { corpus } => shape_of.extend(
            corpus
                .iter()
                .map(|q| (q.text.as_str(), (q.shape, q.series))),
        ),
        Kit::Mixed { live, .. } => {
            shape_of.extend(live.iter().map(|q| (q.text.as_str(), (q.shape, q.series))))
        }
        Kit::Ingest { .. } => {}
    }
    let mut op_shape: HashMap<u64, (&'static str, bool)> = HashMap::new();
    for (op, text) in inp.rec.reads.iter().filter(|(op, _)| sample.contains(op)) {
        let root = tr.begin("replay.read", *op, None);
        replay_query(
            &mut tr,
            root,
            *op,
            Request::Query(text.clone()),
            text,
            &live,
            router,
        )?;
        tr.end(root);
        op_shape.insert(
            *op,
            shape_of
                .get(text.as_str())
                .copied()
                .unwrap_or(("light", true)),
        );
    }

    // series summaries over the corpus windows: one day, and the whole span
    let ids = &bench.ids;
    let mut rng = Rng::derive(inp.seed, 0x7E);
    for _ in 0..SUMMARIZE_SAMPLE {
        let s = live.series(ids.availability[rng.below(ids.stations())])?;
        let d = rng.below(ids.days) as i64;
        let day = Interval::new(
            Timestamp::from_millis(d * DAY_MS),
            Timestamp::from_millis((d + 1) * DAY_MS),
        );
        let all = Interval::new(Timestamp::from_millis(0), Timestamp::from_millis(FAR_MS));
        let id = tr.begin("ts.summarize.day", 0, None);
        std::hint::black_box(s.summarize(&day, 0));
        tr.end(id);
        let id = tr.begin("ts.summarize.month", 0, None);
        std::hint::black_box(s.summarize(&all, 0));
        tr.end(id);
    }

    // AS OF reads on a history rebuilt from the set-up commits, starting
    // with an empty snapshot cache; then the writes
    match &bench.kit {
        Kit::Mixed {
            initial,
            commits,
            asof,
            ..
        } => {
            let base = state_bytes(initial);
            let records = || {
                commits
                    .iter()
                    .map(|(ts, b)| CommitRecord {
                        commit_ts: *ts,
                        mutations: b.clone(),
                    })
                    .collect()
            };
            let setup_state = replay_all(initial, commits.iter().map(|(_, b)| b.as_slice()))?;
            let mut history =
                HistoryStore::from_parts(HistoryConfig::default(), base.clone(), 0, records());
            for &(op, s, k) in inp.rec.asofs.iter().filter(|(op, ..)| sample.contains(op)) {
                let text = &asof.shapes[s].text;
                let root = tr.begin("replay.asof", op, None);
                let snap = tr.child("temporal.snapshot_at", op, root, || {
                    history.snapshot_at(asof.ts[k])
                })?;
                let hg = match &snap {
                    SnapshotResolution::Past(g) => g.as_ref(),
                    SnapshotResolution::Live => &setup_state,
                };
                let mut q = tr.child("query.parse", op, root, || parser::parse(text))?;
                q.temporal = Some(TemporalBound::AsOf(Timestamp::from_millis(asof.ts[k])));
                let planned = tr.child("query.plan", op, root, || plan_query(&q))?;
                let rows = tr.child("query.exec", op, root, || {
                    execute_planned_sharded(hg, &planned, ExecMode::Auto, router)
                })?;
                let req = Request::QueryAsOf {
                    text: text.clone(),
                    as_of_ms: asof.ts[k],
                };
                tr.child("proto.frame", op, root, || frame_roundtrip(op, req, rows))?;
                tr.end(root);
            }
            let reg = SubscriptionRegistry::new(SubConfig::default());
            for q in workload::standing_queries() {
                reg.subscribe(&setup_state, &q, 1, Arc::new(Discard))?;
            }
            let history = HistoryStore::from_parts(HistoryConfig::default(), base, 0, records());
            replay_writes(&mut tr, &setup_state, inp.acked, history, Some(&reg))?;
        }
        Kit::Ingest { initial, .. } => {
            let history = HistoryStore::new(HistoryConfig::default(), initial, 0);
            replay_writes(&mut tr, initial, inp.acked, history, None)?;
        }
        Kit::Hybrid { .. } => {}
    }

    let mut spans = tr.into_spans();
    spans.retain(|s| s.op == 0 || sample.contains(&s.op));
    Ok((rows(inp, &spans, &op_shape), spans))
}

fn rows(
    inp: &Input<'_>,
    spans: &[Span],
    op_shape: &HashMap<u64, (&'static str, bool)>,
) -> Vec<Metric> {
    let (a, b) = (inp.after, inp.before);
    let d = |f: fn(&Snapshot) -> &HistogramSnapshot| hist_delta(f(a), f(b));
    let self_us = by_name(spans);
    let med = |name: &str| self_us.get(name).and_then(Samples::p50);
    let n = |name: &str| format!("n={} replayed", self_us.get(name).map_or(0, Samples::len));
    let mut out = Vec::new();

    // replayed work per op: root span minus its own self time
    let st = self_times(spans);
    let mut work_read = Vec::new();
    let mut work_write = Vec::new();
    let mut exec_by_shape: HashMap<&'static str, Samples> = HashMap::new();
    let mut pattern_exec = Samples::default();
    let mut apply_per_mutation = Samples::default();
    let batch_len: HashMap<u64, usize> = inp.acked.iter().map(|a| (a.op, a.batch.len())).collect();
    let persist_us = us(&d(|s| &s.persist.wal_append_us), 0.5).unwrap_or(0.0)
        + us(&d(|s| &s.persist.wal_sync_us), 0.5).unwrap_or(0.0);
    for (s, (_, self_ns)) in spans.iter().zip(&st) {
        let dur_us = (s.end_ns - s.start_ns) as f64 / 1e3;
        let work = dur_us - *self_ns as f64 / 1e3;
        match s.name {
            "replay.read" | "replay.asof" => work_read.push(work),
            "replay.write" => work_write.push(work + persist_us),
            "query.exec" => {
                if let Some(&(shape, series)) = op_shape.get(&s.op) {
                    exec_by_shape.entry(shape).or_default().push(dur_us);
                    if !series {
                        pattern_exec.push(dur_us);
                    }
                }
            }
            "core.apply" => {
                if let Some(&len) = batch_len.get(&s.op) {
                    apply_per_mutation.push(dur_us / len.max(1) as f64);
                }
            }
            _ => {}
        }
    }
    // weight each kind's mean replayed work by its share of the window
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    let n_reads = (inp.rec.reads.len() + inp.rec.asofs.len()) as f64;
    let n_writes = inp.acked.iter().filter(|a| a.traced).count() as f64;
    let work_mean = (mean(&work_read).unwrap_or(0.0) * n_reads
        + mean(&work_write).unwrap_or(0.0) * n_writes)
        / (n_reads + n_writes).max(1.0);

    // hygraph-server
    let queue = d(|s| &s.server.queue_wait_us);
    let exec = d(|s| &s.server.execute_us);
    let enc = d(|s| &s.server.encode_us);
    let adm = d(|s| &s.server.admission_us);
    out.push(Metric::new(
        "server.queue_wait_us.p50",
        us(&queue, 0.5),
        "us",
        n_of(&queue),
    ));
    out.push(Metric::new(
        "server.queue_wait_us.p99",
        us(&queue, 0.99),
        "us",
        n_of(&queue),
    ));
    out.push(Metric::new(
        "server.execute_us.p50",
        us(&exec, 0.5),
        "us",
        n_of(&exec),
    ));
    out.push(Metric::new(
        "server.execute_us.p99",
        us(&exec, 0.99),
        "us",
        n_of(&exec),
    ));
    out.push(Metric::new(
        "server.encode_us.p50",
        us(&enc, 0.5),
        "us",
        n_of(&enc),
    ));
    // the decomposition uses means: they add up exactly, where medians
    // of a mixed workload do not
    let all = inp.rec.samples(|k| k != Kind::Push);
    let client_us = all.mean().map(|ms| ms * 1e3);
    let server_us: f64 = [&adm, &queue, &exec, &enc].iter().map(|h| h.mean()).sum();
    out.push(Metric::new(
        "server.wire_us.mean",
        client_us.map(|c| c - server_us),
        "us",
        format!(
            "client mean minus admission+queue+execute+encode means; n={}",
            all.len()
        ),
    ));
    out.push(Metric::new(
        "proto.frame_us",
        med("proto.frame"),
        "us",
        n("proto.frame"),
    ));
    out.push(Metric::new(
        "engine.wait_us.mean",
        (exec.count > 0).then(|| exec.mean() - work_mean),
        "us",
        format!(
            "execute mean minus replayed work mean ({} reads, {} commits replayed)",
            work_read.len(),
            work_write.len()
        ),
    ));
    // A commit's engine time is what execute spent outside query
    // execution (the query classes time each query inside the engine),
    // over the window's commits. It is an upper bound: readers' own
    // lock waits land there too. Wire time (client minus server) is not
    // part of it.
    let write = inp.rec.samples(|k| k == Kind::Write);
    let n_commits = inp.acked.iter().filter(|x| x.traced).count();
    if let (Some(w), Some(work), true) = (
        write.mean().map(|ms| ms * 1e3),
        mean(&work_write),
        n_commits > 0,
    ) {
        let query_us: u64 = OpClass::ALL
            .iter()
            .map(|&c| a.query.class(c).time_us.sum - b.query.class(c).time_us.sum)
            .sum();
        let commit_us = exec.sum.saturating_sub(query_us) as f64 / n_commits as f64;
        let wait = commit_us - work;
        let base = format!(
            "per commit: execute outside query execution {commit_us:.1} us minus replayed \
             commit work {work:.1} us; write mean {w:.1} us over {n_commits} commits"
        );
        out.push(Metric::new(
            "engine.write_wait_us.mean",
            Some(wait),
            "us",
            base.clone(),
        ));
        out.push(Metric::new(
            "engine.write_wait_share",
            Some(wait / w),
            "ratio",
            base,
        ));
    }

    // hygraph-query
    out.push(Metric::new(
        "query.parse_us",
        med("query.parse"),
        "us",
        n("query.parse"),
    ));
    out.push(Metric::new(
        "query.plan_us",
        med("query.plan"),
        "us",
        n("query.plan"),
    ));
    let hits = Ratio::of_deltas(
        (b.query.plan_cache_hits, a.query.plan_cache_hits),
        (
            b.query.plan_cache_hits + b.query.plan_cache_misses,
            a.query.plan_cache_hits + a.query.plan_cache_misses,
        ),
    );
    out.push(Metric::new(
        "query.plan_cache_hit_ratio",
        hits.value(),
        "ratio",
        format!("{} hits / {} lookups", hits.num, hits.den),
    ));
    out.push(Metric::new(
        "query.exec_us",
        med("query.exec"),
        "us",
        n("query.exec"),
    ));
    let mut shapes: Vec<_> = exec_by_shape.into_iter().collect();
    shapes.sort_by_key(|(s, _)| *s);
    for (shape, s) in shapes {
        out.push(Metric::new(
            format!("query.exec_us.{shape}"),
            s.p50(),
            "us",
            format!("n={} replayed", s.len()),
        ));
    }
    for op in PlanOp::ALL {
        let h = hist_delta(&a.query.operator(op).time_us, &b.query.operator(op).time_us);
        out.push(Metric::new(
            format!("query.op.{}_us.p50", op.name()),
            us(&h, 0.5),
            "us",
            n_of(&h),
        ));
    }
    let m = |s: &Snapshot| s.query.operator(PlanOp::Match).rows_out;
    let rows = Ratio {
        num: m(a).saturating_sub(m(b)),
        den: inp.rec.rows,
    };
    out.push(Metric::new(
        "query.match_rows_per_result_row",
        rows.value(),
        "ratio",
        format!("{} match rows / {} rows returned", rows.num, rows.den),
    ));

    // hygraph-graph
    out.push(Metric::new(
        "graph.pattern_exec_us",
        pattern_exec.p50(),
        "us",
        format!(
            "query.exec_us of shapes without a series term; n={}",
            pattern_exec.len()
        ),
    ));

    // hygraph-ts
    out.push(Metric::new(
        "ts.summarize_us.day",
        med("ts.summarize.day"),
        "us",
        n("ts.summarize.day"),
    ));
    out.push(Metric::new(
        "ts.summarize_us.month",
        med("ts.summarize.month"),
        "us",
        n("ts.summarize.month"),
    ));
    let roll = Ratio::of_deltas(
        (b.ts.rollup_hits, a.ts.rollup_hits),
        (
            b.ts.rollup_hits + b.ts.rollup_boundary_decodes,
            a.ts.rollup_hits + a.ts.rollup_boundary_decodes,
        ),
    );
    out.push(Metric::new(
        "ts.rollup_hit_ratio",
        roll.value(),
        "ratio",
        format!(
            "{} rollup hits / {} hits + boundary decodes",
            roll.num, roll.den
        ),
    ));
    out.push(Metric::new(
        "ts.compression_ratio",
        (a.ts.compressed_bytes > 0).then(|| a.ts.raw_bytes as f64 / a.ts.compressed_bytes as f64),
        "ratio",
        format!(
            "{} raw / {} compressed bytes (gauges)",
            a.ts.raw_bytes, a.ts.compressed_bytes
        ),
    ));

    // hygraph-core
    let commits = inp.acked.iter().filter(|x| x.traced).count() as u64;
    if commits > 0 {
        out.push(Metric::new(
            "core.apply_us",
            apply_per_mutation.p50(),
            "us",
            format!(
                "per mutation; n={} replayed batches",
                apply_per_mutation.len()
            ),
        ));
        let publish = d(|s| &s.shard.commit_publish_us);
        out.push(Metric::new(
            "core.publish_us.p50",
            us(&publish, 0.5),
            "us",
            n_of(&publish),
        ));
        out.push(Metric::new(
            "core.publish_us.replay",
            med("core.publish"),
            "us",
            n("core.publish"),
        ));
        out.push(Metric::new(
            "temporal.record_commit_us",
            med("temporal.record_commit"),
            "us",
            n("temporal.record_commit"),
        ));
    }

    // hygraph-persist
    if a.persist.wal_appends > b.persist.wal_appends {
        let append = d(|s| &s.persist.wal_append_us);
        let sync = d(|s| &s.persist.wal_sync_us);
        let group = d(|s| &s.persist.group_commit_frames);
        let ckpt = d(|s| &s.persist.checkpoint_us);
        out.push(Metric::new(
            "persist.wal_append_us.p50",
            us(&append, 0.5),
            "us",
            n_of(&append),
        ));
        out.push(Metric::new(
            "persist.wal_sync_us.p50",
            us(&sync, 0.5),
            "us",
            n_of(&sync),
        ));
        out.push(Metric::new(
            "persist.wal_sync_us.p99",
            us(&sync, 0.99),
            "us",
            n_of(&sync),
        ));
        out.push(Metric::new(
            "persist.group_commit_frames.mean",
            (group.count > 0).then(|| group.mean()),
            "frames",
            n_of(&group),
        ));
        let syncs = Ratio {
            num: a.persist.wal_syncs - b.persist.wal_syncs,
            den: commits,
        };
        out.push(Metric::new(
            "persist.syncs_per_commit",
            syncs.value(),
            "ratio",
            format!("{} syncs / {} commits", syncs.num, syncs.den),
        ));
        let points: u64 = inp
            .acked
            .iter()
            .filter(|x| x.traced)
            .map(|x| {
                x.batch
                    .iter()
                    .filter(|m| matches!(m, HgMutation::Append { .. }))
                    .count() as u64
            })
            .sum();
        let bytes = Ratio {
            num: a.persist.wal_synced_bytes - b.persist.wal_synced_bytes,
            den: points,
        };
        out.push(Metric::new(
            "persist.wal_bytes_per_point",
            bytes.value(),
            "B",
            format!("{} synced bytes / {} appended points", bytes.num, bytes.den),
        ));
        out.push(Metric::new(
            "persist.checkpoints",
            Some((a.persist.checkpoints - b.persist.checkpoints) as f64),
            "count",
            "in the traced window",
        ));
        out.push(Metric::new(
            "persist.checkpoint_us.max",
            us(&ckpt, 1.0),
            "us",
            n_of(&ckpt),
        ));
    }

    // hygraph-temporal
    if a.temporal.asof_queries > b.temporal.asof_queries {
        let asof = d(|s| &s.temporal.asof_us);
        out.push(Metric::new(
            "temporal.asof_us.p50",
            us(&asof, 0.5),
            "us",
            n_of(&asof),
        ));
        let hit = Ratio::of_deltas(
            (
                b.temporal.snapshot_cache_hits,
                a.temporal.snapshot_cache_hits,
            ),
            (
                b.temporal.snapshot_cache_hits + b.temporal.snapshot_rebuilds,
                a.temporal.snapshot_cache_hits + a.temporal.snapshot_rebuilds,
            ),
        );
        out.push(Metric::new(
            "temporal.snapshot_cache_hit_ratio",
            hit.value(),
            "ratio",
            format!("{} hits / {} hits + rebuilds", hit.num, hit.den),
        ));
        out.push(Metric::new(
            "temporal.snapshot_at_us",
            med("temporal.snapshot_at"),
            "us",
            n("temporal.snapshot_at"),
        ));
    }
    if commits > 0 {
        let grew = Ratio {
            num: (a.temporal.history_bytes - b.temporal.history_bytes).max(0) as u64,
            den: commits,
        };
        out.push(Metric::new(
            "temporal.history_bytes_per_commit",
            grew.value(),
            "B",
            format!("{} history bytes / {} commits", grew.num, grew.den),
        ));
    }

    // hygraph-sub
    if a.sub.active > 0 && commits > 0 {
        out.push(Metric::new(
            "sub.on_commit_us",
            med("sub.on_commit"),
            "us",
            n("sub.on_commit"),
        ));
        let deltas = Ratio {
            num: a.sub.deltas_pushed - b.sub.deltas_pushed,
            den: commits,
        };
        out.push(Metric::new(
            "sub.deltas_per_commit",
            deltas.value(),
            "ratio",
            format!("{} deltas / {} commits", deltas.num, deltas.den),
        ));
        let reruns = Ratio {
            num: a.sub.fallback_reruns - b.sub.fallback_reruns,
            den: commits * a.sub.active as u64,
        };
        out.push(Metric::new(
            "sub.fallback_rerun_ratio",
            reruns.value(),
            "ratio",
            format!(
                "{} reruns / {} commit x subscription",
                reruns.num, reruns.den
            ),
        ));
        out.push(Metric::new(
            "sub.slow_consumer_drops",
            Some((a.sub.slow_consumer_drops - b.sub.slow_consumer_drops) as f64),
            "count",
            "in the traced window",
        ));
    }

    // benchmark
    let (t, p) = (inp.rec.spanned.p50(), inp.rec.unspanned.p50());
    out.push(Metric::new(
        "bench.tracing_overhead_pct",
        t.zip(p).map(|(t, p)| (t - p) / p * 100.0),
        "%",
        format!(
            "p50 of ops with spans {} ms (n={}) vs interleaved ops without {} ms (n={})",
            crate::fmt_value(t),
            inp.rec.spanned.len(),
            crate::fmt_value(p),
            inp.rec.unspanned.len()
        ),
    ));
    out
}

/// Prints the stage table: each row with its layer and the end-to-end
/// metric it should move.
pub fn print_table(rows: &[Metric]) {
    println!("# per-layer (traced run)");
    println!(
        "#   {:<16} {:<36} {:>14} {:<6} {:<44} {:<30} base",
        "layer", "metric", "value", "unit", "moves", "on"
    );
    for r in rows {
        let (layer, moves, on) = PREDICTIONS
            .iter()
            .find(|(p, ..)| r.name.starts_with(p))
            .map_or(("-", "-", "-"), |&(_, l, m, o)| (l, m, o));
        println!(
            "#   {:<16} {:<36} {:>14} {:<6} {:<44} {:<30} {}",
            layer,
            r.name,
            crate::fmt_value(r.value),
            r.unit,
            moves,
            on,
            r.base
        );
    }
}
