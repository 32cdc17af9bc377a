//! Criterion benchmarks of the HyQL engine: parsing, pattern matching,
//! series aggregates, row aggregation, and variable-length expansion on
//! the fraud dataset; the pattern matcher on its own (`matcher/*`) and
//! planned execution of the end-to-end benchmark's query shapes
//! (`executor/*`) on its bike topology, and the graph store's read
//! primitives underneath them (`graph_read/*`). Run once per snapshot
//! implementation (`HYGRAPH_SNAPSHOT_IMPL=pmap|cow`) to compare them.

use criterion::{criterion_group, criterion_main, Criterion};
use hygraph_datagen::bike::{self, BikeConfig};
use hygraph_datagen::fraud::{generate, FraudConfig};
use hygraph_query::{execute_planned, parser, plan_query, query, PlannedQuery};
use std::hint::black_box;

fn bench_query(c: &mut Criterion) {
    let data = generate(FraudConfig {
        users: 200,
        merchants: 60,
        hours: 24 * 7,
        ..Default::default()
    });
    let hg = data.hygraph;

    let mut g = c.benchmark_group("hyql");
    g.bench_function("parse_complex", |b| {
        b.iter(|| {
            black_box(
                parser::parse(
                    "MATCH (u:User {name: 'user-1'})-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
                     WHERE t.amount > 1000 AND MEAN(DELTA(c) IN [0, 604800000)) > 50 \
                     RETURN u.name AS who, COUNT(DISTINCT m.name) AS n, SUM(t.amount) AS total \
                     HAVING COUNT(DISTINCT m.name) > 2 ORDER BY who DESC LIMIT 10",
                )
                .expect("parses"),
            )
        })
    });
    g.bench_function("match_one_hop", |b| {
        b.iter(|| {
            black_box(
                query(
                    &hg,
                    "MATCH (u:User)-[:USES]->(c:CreditCard) RETURN u LIMIT 1000",
                )
                .expect("runs")
                .len(),
            )
        })
    });
    g.bench_function("match_filtered_two_hop", |b| {
        b.iter(|| {
            black_box(
                query(
                    &hg,
                    "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
                     WHERE t.amount > 1000 RETURN u.name AS who",
                )
                .expect("runs")
                .len(),
            )
        })
    });
    g.bench_function("series_aggregate_filter", |b| {
        b.iter(|| {
            black_box(
                query(
                    &hg,
                    "MATCH (c:CreditCard) WHERE MAX(DELTA(c) IN [0, 604800000)) > 1000 \
                     RETURN COUNT(*) AS n",
                )
                .expect("runs")
                .rows[0][0]
                    .clone(),
            )
        })
    });
    g.bench_function("row_aggregation_having", |b| {
        b.iter(|| {
            black_box(
                query(
                    &hg,
                    "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
                     WHERE t.amount > 1000 \
                     RETURN u.name AS who, COUNT(DISTINCT m.name) AS n \
                     HAVING COUNT(DISTINCT m.name) > 2",
                )
                .expect("runs")
                .len(),
            )
        })
    });
    g.bench_function("variable_length_2hop", |b| {
        b.iter(|| {
            black_box(
                query(
                    &hg,
                    "MATCH (u:User {name: 'user-1'})-[*1..2]->(x) RETURN COUNT(x) AS n",
                )
                .expect("runs")
                .rows[0][0]
                    .clone(),
            )
        })
    });
    g.finish();
}

/// The planned form of `text` (pattern compiled, predicates pushed).
fn planned(text: &str) -> PlannedQuery {
    plan_query(&parser::parse(text).expect("parses")).expect("plans")
}

/// Matches of every compiled pattern, listed through the visiting
/// callback: no binding is materialised.
fn count_matches(p: &PlannedQuery, g: &hygraph_graph::TemporalGraph) -> usize {
    let mut n = 0;
    for pattern in &p.patterns {
        pattern.find(g, |_| {
            n += 1;
            true
        });
    }
    n
}

/// The pattern matcher on the bike topology the end-to-end benchmark's
/// `hybrid-read` workload serves (200 stations × 30 days): the 1-hop TRIP
/// pattern with its pushed predicate, the `[*1..2]` reach, and the
/// pattern + series query end to end.
fn bench_matcher(c: &mut Criterion) {
    let hg = bike::generate(BikeConfig {
        stations: 200,
        days: 30,
        ..Default::default()
    })
    .to_hygraph();
    let g = hg.topology();
    let trip =
        planned("MATCH (a:Station)-[t:TRIP]->(b:Station) WHERE t.trips > 225 RETURN COUNT(t) AS n");
    let reach =
        planned("MATCH (a:Station)-[*1..2]->(x) WHERE a.capacity > 55 RETURN COUNT(x) AS reach");
    let series = planned(
        "MATCH (a:Station)-[t:TRIP]->(b:Station) \
         WHERE t.trips > 225 AND MAX(b.availability IN [86400000, 172800000)) > 12 \
         RETURN a.name AS src, COUNT(t) AS n ORDER BY n DESC, src LIMIT 10",
    );

    let mut m = c.benchmark_group("matcher");
    m.bench_function("trip_pushed_find", |b| {
        b.iter(|| black_box(count_matches(&trip, g)))
    });
    m.bench_function("trip_pushed_find_all", |b| {
        b.iter(|| black_box(trip.patterns[0].find_all(g).len()))
    });
    m.bench_function("reach_1_2_find", |b| {
        b.iter(|| black_box(count_matches(&reach, g)))
    });
    m.bench_function("trip_series_query", |b| {
        b.iter(|| black_box(execute_planned(&hg, &series).expect("runs").rows.len()))
    });
    m.finish();
}

/// The topology reads every pattern search is made of, on the same bike
/// topology: the label-index scan that seeds a search, point vertex
/// gets, the out-adjacency walk, and the walk plus the destination
/// vertex each step binds.
fn bench_graph_read(c: &mut Criterion) {
    let hg = bike::generate(BikeConfig {
        stations: 200,
        days: 30,
        ..Default::default()
    })
    .to_hygraph();
    let g = hg.topology();
    let stations = g.vertex_ids_with_label("Station");
    assert_eq!(stations.len(), 200);

    let mut m = c.benchmark_group("graph_read");
    m.bench_function("label_scan", |b| {
        b.iter(|| black_box(g.vertices_with_label("Station").count()))
    });
    m.bench_function("vertex_get_200", |b| {
        b.iter(|| {
            let mut n = 0;
            for &v in &stations {
                n += g.vertex(v).expect("live").labels.len();
            }
            black_box(n)
        })
    });
    m.bench_function("out_edge_walk", |b| {
        b.iter(|| {
            let mut n = 0;
            for &v in &stations {
                n += g.out_edges(v).count();
            }
            black_box(n)
        })
    });
    m.bench_function("out_edge_walk_dst", |b| {
        b.iter(|| {
            let mut n = 0;
            for &v in &stations {
                for e in g.out_edges(v) {
                    n += g.vertex(e.dst).expect("live").labels.len();
                }
            }
            black_box(n)
        })
    });
    m.finish();
}

/// Planned execution — match, filter, projection or grouping, DISTINCT,
/// sort and limit in one streaming pass — of four `hybrid-read` query
/// shapes on the same bike topology, each planned once up front.
fn bench_executor(c: &mut Criterion) {
    let hg = bike::generate(BikeConfig {
        stations: 200,
        days: 30,
        ..Default::default()
    })
    .to_hygraph();
    let day = 86_400_000i64;
    let shapes = [
        (
            "trip_filter",
            "MATCH (a:Station)-[t:TRIP]->(b:Station) WHERE t.trips > 225 RETURN COUNT(t) AS n"
                .to_string(),
        ),
        (
            "trip_distinct",
            "MATCH (a:Station)-[t:TRIP]->(b:Station) WHERE t.trips > 225 \
             RETURN DISTINCT b.name AS name ORDER BY name LIMIT 20"
                .to_string(),
        ),
        (
            "trip_series",
            format!(
                "MATCH (a:Station)-[t:TRIP]->(b:Station) \
                 WHERE t.trips > 225 AND MAX(b.availability IN [{day}, {})) > 12 \
                 RETURN a.name AS src, COUNT(t) AS n ORDER BY n DESC, src LIMIT 10",
                2 * day
            ),
        ),
        (
            "day_peak_top",
            format!(
                "MATCH (s:Station) WHERE s.capacity > 30 \
                 RETURN s.name AS name, MAX(s.docks IN [{day}, {})) AS peak \
                 ORDER BY peak DESC, name LIMIT 5",
                2 * day
            ),
        ),
    ];
    let mut g = c.benchmark_group("executor");
    for (name, text) in &shapes {
        let p = planned(text);
        g.bench_function(*name, |b| {
            b.iter(|| black_box(execute_planned(&hg, &p).expect("runs").rows.len()))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    // CI-friendly precision: 10 samples / short windows; bump for
    // publication-grade numbers
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_query, bench_graph_read, bench_matcher, bench_executor
}
criterion_main!(benches);
