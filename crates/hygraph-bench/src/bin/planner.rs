//! Planner-vs-interpreter benchmark for the plan-based HyQL pipeline.
//!
//! Runs a Table-1-shaped query set (pattern matching, pushable property
//! filters, TS aggregates, row aggregates, traversals) over the fraud
//! dataset through three execution paths:
//!
//! * **interpreter** — the legacy one-pass reference
//!   ([`hygraph_query::execute_interpreted`]);
//! * **planner (cold)** — lower → optimize → compile → execute on every
//!   call ([`hygraph_query::execute`]), i.e. what a plan-cache *miss*
//!   costs;
//! * **planner (cached)** — the [`hygraph_query::PlannedQuery`] built
//!   once and re-executed ([`hygraph_query::execute_planned`]), i.e.
//!   what a plan-cache *hit* costs.
//!
//! Every query is first checked **byte-identical** across interpreter
//! and planner — this doubles as the CI smoke test for the equivalence
//! contract. Emits `BENCH_PR5.json` in the working directory (override
//! with `BENCH_PR5_JSON=<path>`).
//!
//! Run with: `cargo run --release -p hygraph-bench --bin planner [--scale small|medium|large]`

use hygraph_bench::{time_stats, Scale};
use hygraph_datagen::fraud::{generate, FraudConfig};
use hygraph_query::{classify, execute, execute_interpreted, execute_planned, parser, plan_query};
use hygraph_types::bytes::ByteWriter;

/// `(name, is_ts_aggregate, query text)` — the ts-aggregate flag marks
/// the queries the pushdown/memoization work targets.
const QUERIES: &[(&str, bool, &str)] = &[
    (
        "match_filter",
        false,
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         WHERE t.amount > 1000 \
         RETURN u.name AS who, t.amount AS amt ORDER BY amt DESC, who LIMIT 10",
    ),
    (
        "pushdown_eq",
        false,
        "MATCH (m:Merchant) WHERE m.plaza = 3 RETURN m.name AS name ORDER BY name",
    ),
    (
        "ts_agg_filter",
        true,
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         WHERE MEAN(DELTA(c) IN [0, 604800000)) > 60 \
         RETURN u.name AS who ORDER BY who",
    ),
    (
        "ts_agg_project",
        true,
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         RETURN u.name AS who, MAX(DELTA(c) IN [0, 1209600000)) AS peak, \
         SUM(DELTA(c) IN [0, 1209600000)) AS total ORDER BY who",
    ),
    (
        "ts_agg_fanout",
        true,
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         WHERE MEAN(DELTA(c) IN [0, 604800000)) > 40 AND t.amount > 500 \
         RETURN u.name AS who, COUNT(t) AS txs ORDER BY txs DESC, who LIMIT 20",
    ),
    (
        "row_agg_having",
        false,
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         RETURN m.name AS shop, COUNT(t) AS txs, SUM(t.amount) AS total \
         HAVING COUNT(t) > 5 ORDER BY total DESC LIMIT 10",
    ),
    (
        "traverse",
        false,
        "MATCH (u:User)-[*1..2]->(x) RETURN COUNT(x) AS reach",
    ),
];

fn encoded(r: &hygraph_query::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

fn main() {
    let scale = Scale::from_args();
    let (users, merchants, hours, runs) = match scale {
        Scale::Small => (40, 16, 24 * 7, 10),
        Scale::Medium => (200, 60, 24 * 14, 60),
        Scale::Large => (500, 120, 24 * 30, 40),
    };
    println!(
        "planner benchmark — fraud dataset: {users} users, {merchants} merchants, {hours}h of spending; {runs} runs/query\n"
    );
    let dataset = generate(FraudConfig {
        users,
        merchants,
        hours,
        ..Default::default()
    });
    let hg = &dataset.hygraph;

    println!(
        "{:<16} {:>6} {:>13} {:>13} {:>13} {:>9}",
        "query", "class", "interp ms", "plan-cold ms", "plan-hit ms", "speedup"
    );
    let mut entries = Vec::new();
    for &(name, is_ts_agg, text) in QUERIES {
        let q = parser::parse(text).expect("bench query parses");
        let class = format!("{:?}", classify(&q));

        // equivalence gate: the planner must reproduce the interpreter
        // byte-for-byte before its timings mean anything
        let reference = execute_interpreted(hg, &q).expect("interpreter runs");
        let planned_result = execute(hg, &q).expect("planner runs");
        assert_eq!(
            encoded(&reference),
            encoded(&planned_result),
            "planner diverges from interpreter on {name}"
        );

        // a few unmeasured warmup laps per path keep caches/allocator
        // state comparable across the three measurements
        let warmup = (runs / 10).max(2);
        for _ in 0..warmup {
            std::hint::black_box(execute_interpreted(hg, &q).unwrap().rows.len());
        }
        let (interp_ms, interp_cv) = time_stats(runs, || {
            execute_interpreted(hg, &q).unwrap().rows.len() as f64
        });
        // cold: lower + optimize + compile + execute per call
        for _ in 0..warmup {
            std::hint::black_box(execute(hg, &q).unwrap().rows.len());
        }
        let (cold_ms, _) = time_stats(runs, || execute(hg, &q).unwrap().rows.len() as f64);
        // hit: the cached PlannedQuery only pays execution
        let planned = plan_query(&q).expect("plans");
        for _ in 0..warmup {
            std::hint::black_box(execute_planned(hg, &planned).unwrap().rows.len());
        }
        let (hit_ms, _) = time_stats(runs, || {
            execute_planned(hg, &planned).unwrap().rows.len() as f64
        });

        let speedup = interp_ms / hit_ms.max(1e-9);
        println!(
            "{name:<16} {:>6} {interp_ms:>13.3} {cold_ms:>13.3} {hit_ms:>13.3} {speedup:>8.2}x",
            &class[..2.min(class.len())]
        );
        entries.push(format!(
            "  {{\"query\": \"{name}\", \"class\": \"{class}\", \"ts_aggregate\": {is_ts_agg}, \
             \"interpreter_ms\": {interp_ms:.4}, \"interpreter_cv_pct\": {interp_cv:.1}, \
             \"planner_cold_ms\": {cold_ms:.4}, \"planner_cached_ms\": {hit_ms:.4}, \
             \"speedup_cached\": {speedup:.3}}}"
        ));

        // a cache hit can never be dearer than a cold plan by more than
        // noise: the hit path is a strict subset of the cold path
        if cold_ms < hit_ms * 0.5 {
            eprintln!(
                "warning: {name}: cached execution ({hit_ms:.3} ms) much slower than \
                 cold plan+execute ({cold_ms:.3} ms) — timing noise?"
            );
        }
    }

    let ts_agg_speedups: Vec<f64> = entries
        .iter()
        .zip(QUERIES)
        .filter(|(_, &(_, is_ts, _))| is_ts)
        .map(|(e, _)| {
            let pat = "\"speedup_cached\": ";
            let rest = &e[e.find(pat).unwrap() + pat.len()..];
            rest[..rest.find('}').unwrap()].parse().unwrap()
        })
        .collect();
    let geo_mean = (ts_agg_speedups.iter().map(|s| s.ln()).sum::<f64>()
        / ts_agg_speedups.len().max(1) as f64)
        .exp();
    println!("\nTS-aggregate queries: geometric-mean speedup (cached plan vs interpreter) {geo_mean:.2}x");

    let json = format!(
        "{{\n\"bench\": \"planner\",\n\"scale\": \"{scale:?}\",\n\"runs\": {runs},\n\
         \"ts_agg_geo_mean_speedup\": {geo_mean:.3},\n\"queries\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    let path = std::env::var("BENCH_PR5_JSON").unwrap_or_else(|_| "BENCH_PR5.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
