//! Standing-query maintenance benchmark: the `hygraph-sub` registry's
//! routed incremental delta push against the naive standing-query
//! server — re-execute every registered query after every commit and
//! diff.
//!
//! The corpus is a User/Card population with one spend series per card;
//! the registered standing queries are a mix of incremental-mode
//! threshold filters over `User`, never-routed `Station` queries (the
//! inverted label index should make these free), and a couple of
//! rerun-mode aggregates. The mutation stream interleaves vertex adds,
//! edge adds, and series appends — one commit each, the worst case for
//! a per-commit maintenance cost.
//!
//! Every run is equivalence-gated before timing: the delta-maintained
//! snapshot of every subscription must be byte-identical to the
//! re-execute-and-diff baseline after **every** commit in the stream.
//!
//! Emits `BENCH_PR7.json` (override with `BENCH_PR7_JSON=<path>`); the
//! ≥5x speedup gate is enforced at medium scale and above.
//!
//! Run with: `cargo run --release -p hygraph-bench --bin sub_push [--scale small|medium|large]`

use hygraph_bench::Scale;
use hygraph_core::{HyGraph, HyGraphBuilder};
use hygraph_persist::{Durable, HgMutation};
use hygraph_query::incremental::{apply_delta, diff_rows, Delta};
use hygraph_query::{execute_planned, plan_query, QueryResult};
use hygraph_sub::{DeltaSink, SubConfig, SubscriptionRegistry};
use hygraph_ts::TimeSeries;
use hygraph_types::bytes::ByteWriter;
use hygraph_types::{props, Duration, Interval, Label, SeriesId, Timestamp, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A sink that only counts: the cheapest possible consumer, so timing
/// measures maintenance cost, not delivery.
#[derive(Default)]
struct CountingSink {
    pushed: AtomicU64,
}

impl DeltaSink for CountingSink {
    fn push_delta(&self, _sub_id: u64, _delta: &Delta) -> bool {
        self.pushed.fetch_add(1, Ordering::Relaxed);
        true
    }
    fn close(&self, sub_id: u64, reason: &str) {
        panic!("no subscription may be dropped in this workload: {sub_id} {reason}");
    }
}

/// A sink that records deltas for the equivalence gate.
#[derive(Default)]
struct CollectingSink {
    deltas: Mutex<Vec<(u64, Delta)>>,
}

impl DeltaSink for CollectingSink {
    fn push_delta(&self, sub_id: u64, delta: &Delta) -> bool {
        self.deltas.lock().unwrap().push((sub_id, delta.clone()));
        true
    }
    fn close(&self, sub_id: u64, reason: &str) {
        panic!("no subscription may be dropped in this workload: {sub_id} {reason}");
    }
}

/// `users` User vertices (each with a Card bound to its own spend
/// series and a USES edge), plus a handful of Stations no query in the
/// mutation stream ever touches.
fn corpus(users: usize) -> HyGraph {
    let spend = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 24, |i| {
        (i % 13) as f64
    });
    let mut b = HyGraphBuilder::new();
    for u in 0..users {
        let series = format!("spend-{u}");
        b = b
            .univariate(&series, &spend)
            .pg_vertex(
                &format!("u{u}"),
                ["User"],
                props! {"name" => format!("user-{u}"), "age" => (u % 77) as i64},
            )
            .ts_vertex(&format!("c{u}"), ["Card"], &series)
            .pg_edge(
                None,
                &format!("u{u}"),
                &format!("c{u}"),
                ["USES"],
                props! {},
            );
    }
    for s in 0..8 {
        b = b.pg_vertex(
            &format!("s{s}"),
            ["Station"],
            props! {"name" => format!("dock-{s}")},
        );
    }
    b.build().unwrap().hygraph
}

/// The registered standing queries: `subs` of them, round-robin over
/// incremental User filters (distinct thresholds → distinct plan
/// fingerprints), never-routed Station lookups, and rerun-mode
/// aggregates.
fn standing_queries(subs: usize) -> Vec<String> {
    (0..subs)
        .map(|i| match i % 4 {
            0 | 1 => format!(
                "MATCH (u:User) WHERE u.age > {} RETURN u.name AS name",
                (i * 7) % 70
            ),
            2 => "MATCH (s:Station) RETURN s.name AS name".to_string(),
            _ => format!(
                "MATCH (u:User) WHERE u.age > {} RETURN COUNT(u) AS n",
                (i * 5) % 60
            ),
        })
        .collect()
}

/// The commit stream: interleaved single-mutation commits (vertex add /
/// edge add / append), the per-commit worst case. `base_users` sizes
/// the pre-existing id space.
fn mutation_stream(commits: usize, base_users: usize) -> Vec<HgMutation> {
    (0..commits)
        .map(|i| match i % 3 {
            0 => HgMutation::AddPgVertex {
                labels: vec![Label::new("User")],
                props: props! {
                    "name" => format!("new-{i}"),
                    "age" => ((i * 11) % 77) as i64
                },
                validity: Interval::ALL,
            },
            1 => HgMutation::AddPgEdge {
                // src: one of the seeded users; dst: its card
                src: VertexId::from(((i * 3) % base_users) * 2),
                dst: VertexId::from(((i * 3) % base_users) * 2 + 1),
                labels: vec![Label::new("KNOWS")],
                props: props! {},
                validity: Interval::ALL,
            },
            _ => HgMutation::Append {
                series: SeriesId::new(((i * 5) % base_users) as u64),
                t: Timestamp::from_millis(1_000 + i as i64),
                row: vec![(i % 9) as f64],
            },
        })
        .collect()
}

fn encoded(r: &QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

fn apply_one(hg: &mut HyGraph, m: &HgMutation) -> bool {
    hg.apply(m).is_err()
}

/// Runs the registry path over the stream; returns elapsed ms.
fn run_delta_path(
    base: &HyGraph,
    queries: &[String],
    stream: &[HgMutation],
    sink: Arc<dyn DeltaSink>,
) -> (SubscriptionRegistry, f64) {
    let mut hg = base.clone();
    let reg = SubscriptionRegistry::new(SubConfig::default().max_subscriptions(queries.len()));
    for q in queries {
        reg.subscribe(&hg, q, 1, sink.clone()).expect("subscribe");
    }
    let t0 = Instant::now();
    for m in stream {
        let pre_v = hg.topology().vertex_capacity();
        let pre_e = hg.topology().edge_capacity();
        let failed = apply_one(&mut hg, m);
        reg.on_commit(&hg, std::slice::from_ref(m), pre_v, pre_e, failed);
    }
    (reg, t0.elapsed().as_secs_f64() * 1e3)
}

/// The naive baseline: after every commit, re-execute every standing
/// query and diff against its previous rows. Returns the final rows
/// per query and elapsed ms.
fn run_rerun_path(
    base: &HyGraph,
    queries: &[String],
    stream: &[HgMutation],
) -> (Vec<QueryResult>, f64, u64) {
    let mut hg = base.clone();
    let planned: Vec<_> = queries
        .iter()
        .map(|q| {
            let parsed = hygraph_query::parser::parse(q).expect("parse");
            plan_query(&parsed).expect("plan")
        })
        .collect();
    let mut rows: Vec<QueryResult> = planned
        .iter()
        .map(|p| execute_planned(&hg, p).expect("execute"))
        .collect();
    let mut pushed = 0u64;
    let t0 = Instant::now();
    for m in stream {
        apply_one(&mut hg, m);
        for (p, prev) in planned.iter().zip(rows.iter_mut()) {
            let next = execute_planned(&hg, p).expect("execute");
            let delta = diff_rows(&prev.rows, &next.rows);
            if !delta.is_empty() {
                pushed += 1;
            }
            *prev = next;
        }
    }
    (rows, t0.elapsed().as_secs_f64() * 1e3, pushed)
}

fn main() {
    let scale = Scale::from_args();
    let (users, subs, commits, runs) = match scale {
        Scale::Small => (150, 16, 60, 3),
        Scale::Medium => (1_500, 64, 300, 5),
        Scale::Large => (6_000, 128, 600, 5),
    };
    println!(
        "sub_push benchmark — {users} users, {subs} standing queries, \
         {commits} single-mutation commits, {runs} runs/path\n"
    );

    let base = corpus(users);
    let queries = standing_queries(subs);
    let stream = mutation_stream(commits, users);

    // ---- equivalence gate: delta-maintained snapshots must equal the
    // re-execute-and-diff baseline after every single commit ----------
    {
        let mut hg = base.clone();
        let sink = Arc::new(CollectingSink::default());
        let reg = SubscriptionRegistry::new(SubConfig::default().max_subscriptions(subs));
        let mut subs_state: Vec<(u64, QueryResult)> = queries
            .iter()
            .map(|q| {
                let (id, snap) = reg.subscribe(&hg, q, 1, sink.clone()).expect("subscribe");
                (id, snap)
            })
            .collect();
        let planned: Vec<_> = queries
            .iter()
            .map(|q| plan_query(&hygraph_query::parser::parse(q).expect("parse")).expect("plan"))
            .collect();
        for (i, m) in stream.iter().enumerate() {
            let pre_v = hg.topology().vertex_capacity();
            let pre_e = hg.topology().edge_capacity();
            let failed = apply_one(&mut hg, m);
            reg.on_commit(&hg, std::slice::from_ref(m), pre_v, pre_e, failed);
            for (sub_id, delta) in sink.deltas.lock().unwrap().drain(..) {
                let (_, snap) = subs_state
                    .iter_mut()
                    .find(|(id, _)| *id == sub_id)
                    .expect("unknown sub");
                apply_delta(snap, &delta).expect("apply_delta");
            }
            for ((_, snap), p) in subs_state.iter().zip(planned.iter()) {
                let fresh = execute_planned(&hg, p).expect("execute");
                assert_eq!(
                    encoded(snap),
                    encoded(&fresh),
                    "delta-maintained snapshot diverged at commit {i}"
                );
            }
        }
        println!(
            "equivalence gate passed: {subs} subscriptions byte-identical to \
             re-execution after each of {commits} commits\n"
        );
    }

    // ---- timing ------------------------------------------------------
    let mut delta_samples = Vec::new();
    let mut rerun_samples = Vec::new();
    let mut deltas_pushed = 0u64;
    let mut baseline_pushed = 0u64;
    for _ in 0..runs {
        let sink = Arc::new(CountingSink::default());
        let (_reg, ms) = run_delta_path(&base, &queries, &stream, sink.clone());
        deltas_pushed = sink.pushed.load(Ordering::Relaxed);
        delta_samples.push(ms);

        let (_rows, ms, pushed) = run_rerun_path(&base, &queries, &stream);
        baseline_pushed = pushed;
        rerun_samples.push(ms);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (delta_ms, rerun_ms) = (mean(&delta_samples), mean(&rerun_samples));
    let speedup = rerun_ms / delta_ms.max(1e-9);
    let per_commit_us = delta_ms * 1e3 / commits as f64;
    println!("{:<22} {:>12} {:>16}", "path", "total ms", "per-commit µs");
    println!(
        "{:<22} {:>12.2} {:>16.2}",
        "delta push", delta_ms, per_commit_us
    );
    println!(
        "{:<22} {:>12.2} {:>16.2}",
        "re-execute + diff",
        rerun_ms,
        rerun_ms * 1e3 / commits as f64
    );
    println!(
        "\nspeedup {speedup:.2}x  ({deltas_pushed} deltas pushed vs {baseline_pushed} \
         non-empty diffs in the baseline)"
    );

    if matches!(scale, Scale::Small) {
        if speedup < 5.0 {
            eprintln!(
                "warning: {speedup:.2}x below the 5x gate at smoke scale \
                 (expected — the corpus is tiny); the gate is enforced at medium+"
            );
        }
    } else {
        assert!(
            speedup >= 5.0,
            "incrementality gate: expected >= 5x over re-execute-per-commit, got {speedup:.2}x"
        );
    }

    let json = format!(
        "{{\n\"bench\": \"sub_push\",\n\"scale\": \"{scale:?}\",\n\"runs\": {runs},\n\
         \"users\": {users},\n\"subscriptions\": {subs},\n\"commits\": {commits},\n\
         \"delta_ms\": {delta_ms:.4},\n\"delta_per_commit_us\": {per_commit_us:.4},\n\
         \"rerun_ms\": {rerun_ms:.4},\n\"speedup\": {speedup:.3},\n\
         \"deltas_pushed\": {deltas_pushed},\n\"baseline_nonempty_diffs\": {baseline_pushed}\n}}\n"
    );
    let path = std::env::var("BENCH_PR7_JSON").unwrap_or_else(|_| "BENCH_PR7.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
