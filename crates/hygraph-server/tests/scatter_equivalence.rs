//! Sharded engine ≡ single pass: an [`Engine`] at 1, 2 and 4 shards
//! must answer every query **byte-identically** (wire encoding of rows,
//! and error text) to [`hygraph_query::execute_planned`] on the same
//! graph — one shard takes the readers/writer-lock path, more shards
//! read published snapshots, and neither may change an answer.

use hygraph_core::HyGraphBuilder;
use hygraph_query::{execute_planned, plan_query};
use hygraph_server::{Backend, Engine};
use hygraph_temporal::HistoryConfig;
use hygraph_ts::TimeSeries;
use hygraph_types::bytes::ByteWriter;
use hygraph_types::{props, Duration, Timestamp};
use proptest::prelude::*;

fn instance() -> hygraph_core::builder::BuiltHyGraph {
    let hot = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |i| {
        if i >= 50 {
            900.0
        } else {
            10.0
        }
    });
    let cold = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |_| 12.0);
    HyGraphBuilder::new()
        .univariate("hot", &hot)
        .univariate("cold", &cold)
        .pg_vertex(
            "alice",
            ["User"],
            props! {"name" => "alice", "age" => 34i64},
        )
        .pg_vertex("bob", ["User"], props! {"name" => "bob", "age" => 19i64})
        .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
        .pg_vertex("m2", ["Merchant"], props! {"name" => "m2"})
        .ts_vertex("c1", ["CreditCard"], "hot")
        .ts_vertex("c2", ["CreditCard"], "cold")
        .pg_edge(None, "alice", "c1", ["USES"], props! {})
        .pg_edge(None, "bob", "c2", ["USES"], props! {})
        .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 1500.0})
        .pg_edge(Some("t2"), "c1", "m2", ["TX"], props! {"amount" => 30.0})
        .pg_edge(Some("t3"), "c2", "m1", ["TX"], props! {"amount" => 20.0})
        .build()
        .unwrap()
}

/// The Table-1-shaped plan-equivalence corpus (success *and* error
/// cases) every planner change is pinned on.
const QUERIES: &[&str] = &[
    "MATCH (u:User) RETURN u.name AS name ORDER BY name",
    "MATCH (u:User {name: 'alice'})-[:USES]->(c:CreditCard) RETURN u.age AS age",
    "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
     WHERE t.amount > 1000 RETURN u.name AS who, t.amount AS amt",
    "MATCH (u:User)-[:USES]->(c:CreditCard) \
     WHERE MEAN(DELTA(c) IN [0, 1000)) > 400 RETURN u.name AS who",
    "MATCH (u:User)-[:USES]->(c:CreditCard) \
     RETURN u.name AS who, MAX(DELTA(c) IN [0, 1000)) AS peak, \
     COUNT(DELTA(c) IN [0, 250)) AS n ORDER BY who",
    "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) RETURN DISTINCT m.name AS m ORDER BY m",
    "MATCH (c:CreditCard)-[t:TX]->(m) RETURN t.amount AS a ORDER BY a DESC LIMIT 2",
    "MATCH (u:User) WHERE u.ghost > 1 RETURN u",
    "MATCH (u:User) WHERE u.name = 'alice' RETURN u.age * 2 + 1 AS x, u.age / 0 AS z",
    "MATCH (u:User)-[:USES]->(c:CreditCard), (c)-[t:TX]->(m:Merchant) \
     WHERE m.name = 'm1' RETURN u.name AS who ORDER BY who",
    "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
     RETURN u.name AS who, COUNT(t) AS n HAVING COUNT(t) > 1 ORDER BY who",
    "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) \
     RETURN COUNT(m.name) AS all_rows, COUNT(DISTINCT m.name) AS uniq",
    "MATCH (u:User) RETURN COUNT(*) AS n",
    "MATCH (u:Ghost) RETURN COUNT(*) AS n",
    "MATCH (u:User {name: 'alice'})-[*1..2]->(x) RETURN DISTINCT x ORDER BY x",
    "MATCH (c:CreditCard)-[:TX*1..3]->(m) RETURN COUNT(*) AS n",
    "MATCH (u:User)-[:USES]->(c:CreditCard) \
     RETURN AVG(MEAN(DELTA(c) IN [0, 1000)) ) AS fleet_mean",
    "MATCH (u:User) RETURN u.name AS n ORDER BY zzz",
    "MATCH (c:CreditCard) WHERE MEAN(DELTA(c) IN [100, 0)) > 1 RETURN c",
    "MATCH (u:User) WHERE u.age > 18 AND 1 < 2 RETURN u.name AS n ORDER BY n",
];

fn wire_bytes(r: &hygraph_query::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

/// In-memory engines over `hg` at 1, 2 and 4 shards, history off.
fn engines(hg: &hygraph_core::HyGraph) -> Vec<(usize, Engine)> {
    [1usize, 2, 4]
        .into_iter()
        .map(|shards| {
            let backend = Backend::memory(hg.clone());
            let engine = Engine::with_history_config(backend, 64, HistoryConfig::disabled())
                .with_shards(shards);
            (shards, engine)
        })
        .collect()
}

fn assert_identical(hg: &hygraph_core::HyGraph, engines: &[(usize, Engine)], text: &str) {
    let q = hygraph_query::parser::parse(text).unwrap();
    let planned = plan_query(&q).unwrap();
    for (shards, engine) in engines {
        let single = execute_planned(hg, &planned);
        let sharded = engine.query(text);
        match (single, sharded) {
            (Ok(s), Ok(g)) => assert_eq!(
                wire_bytes(&s),
                wire_bytes(&g),
                "wire bytes diverge at {shards} shards: {text}"
            ),
            (Err(se), Err(ge)) => assert_eq!(
                se.to_string(),
                ge.to_string(),
                "error text diverges at {shards} shards: {text}"
            ),
            (s, g) => panic!("outcome diverges at {shards} shards on {text}: {s:?} vs {g:?}"),
        }
    }
}

#[test]
fn corpus_is_byte_identical_across_shard_counts() {
    let b = instance();
    let engines = engines(&b.hygraph);
    for text in QUERIES {
        assert_identical(&b.hygraph, &engines, text);
    }
}

/// Randomised sweep: generated graph shapes × corpus queries, each
/// against engines at every shard count. The graph generator varies vertex/edge counts and series
/// values so binding sets, group shapes, and error rows shift around
/// the shard boundaries.
fn built_graph(users: usize, merchants: usize, seed: u64) -> hygraph_core::builder::BuiltHyGraph {
    let mut b = HyGraphBuilder::new();
    for i in 0..users {
        let series = format!("s{i}");
        let ts = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 50, |k| {
            ((seed % 7) as f64) * 100.0 + (k as f64) + (i as f64)
        });
        b = b
            .univariate(&series, &ts)
            .pg_vertex(
                &format!("u{i}"),
                ["User"],
                props! {"name" => format!("user{i}"), "age" => 18 + (i as i64 * 7 + seed as i64) % 50},
            )
            .ts_vertex(&format!("c{i}"), ["CreditCard"], &series)
            .pg_edge(None, &format!("u{i}"), &format!("c{i}"), ["USES"], props! {});
    }
    for m in 0..merchants {
        b = b.pg_vertex(
            &format!("m{m}"),
            ["Merchant"],
            props! {"name" => format!("m{m}")},
        );
    }
    // trips: each card transacts with a seed-dependent subset of merchants
    for i in 0..users {
        for m in 0..merchants {
            if !(seed + i as u64 * 3 + m as u64).is_multiple_of(3) {
                continue;
            }
            let amount = ((seed + i as u64 + m as u64 * 13) % 2000) as f64;
            b = b.pg_edge(
                None,
                &format!("c{i}"),
                &format!("m{m}"),
                ["TX"],
                props! {"amount" => amount},
            );
        }
    }
    b.build().unwrap()
}

proptest! {
    #[test]
    fn random_graphs_stay_byte_identical(
        users in 1usize..6,
        merchants in 1usize..5,
        seed in 0u64..1000,
        query_idx in 0usize..QUERIES.len(),
    ) {
        let b = built_graph(users, merchants, seed);
        assert_identical(&b.hygraph, &engines(&b.hygraph), QUERIES[query_idx]);
    }
}
