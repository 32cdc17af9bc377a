//! The standing-query maintenance property: a subscription's snapshot,
//! advanced only by the delta stream the [`SubscriptionRegistry`]
//! pushes, must stay **byte-identical** to re-running its query from
//! scratch after every committed mutation batch — across random HyQL
//! shapes (incremental and rerun-mode), random mutation sequences
//! (including failing batches, which take the rebuild path), and both
//! execution modes of the from-scratch oracle.

use hygraph::persist::{Durable, HgMutation};
use hygraph::prelude::*;
use hygraph::query_engine as hq;
use hygraph::sub::{apply_delta, Delta, DeltaSink, SubConfig, SubscriptionRegistry};
use hygraph::types::bytes::ByteWriter;
use hygraph::types::props;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// The fixture: a user/card pair over an integer-valued spend series
/// (exact float aggregates), a merchant, and an unrelated station.
fn instance() -> HyGraph {
    let spend = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 20, |i| i as f64);
    HyGraphBuilder::new()
        .univariate("spend", &spend)
        .pg_vertex("u1", ["User"], props! {"name" => "ada", "age" => 34i64})
        .ts_vertex("c1", ["Card"], "spend")
        .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
        .pg_vertex("s1", ["Station"], props! {"name" => "dock-1"})
        .pg_edge(None, "u1", "c1", ["USES"], props! {})
        .pg_edge(None, "c1", "m1", ["TX"], props! {"amount" => 120.0})
        .build()
        .unwrap()
        .hygraph
}

/// Standing-query shapes: the first half maintain incrementally, the
/// second half force rerun mode (aggregates / DISTINCT / ORDER BY).
const QUERIES: &[&str] = &[
    "MATCH (u:User) RETURN u.name AS name",
    "MATCH (u:User) WHERE u.age > 30 RETURN u.name AS name",
    "MATCH (s:Station) RETURN s.name AS name",
    "MATCH (u:User)-[:USES]->(c:Card) WHERE SUM(DELTA(c) IN [0, 1000)) > 10 RETURN u.name AS who",
    "MATCH (u:User)-[:USES]->(c:Card) RETURN u.name AS who, MEAN(DELTA(c) IN [0, 500)) AS m",
    "MATCH (u:User) RETURN COUNT(u) AS n",
    "MATCH (u:User) RETURN DISTINCT u.name AS name",
    "MATCH (u:User) WHERE u.age > 20 RETURN u.name AS name ORDER BY name",
];

/// A sink that records every delta in push order.
#[derive(Default)]
struct CollectingSink {
    deltas: Mutex<Vec<(u64, Delta)>>,
    closed: Mutex<Vec<(u64, String)>>,
}

impl DeltaSink for CollectingSink {
    fn push_delta(&self, sub_id: u64, delta: &Delta) -> bool {
        self.deltas.lock().unwrap().push((sub_id, delta.clone()));
        true
    }

    fn close(&self, sub_id: u64, reason: &str) {
        self.closed
            .lock()
            .unwrap()
            .push((sub_id, reason.to_string()));
    }
}

/// Decodes one op selector into a mutation against the current graph
/// state. `nv` is the live vertex-id space; `clock` hands out strictly
/// increasing append timestamps past the seeded series.
fn decode_op(op: u8, s1: u64, s2: u64, nv: usize, clock: &mut i64) -> HgMutation {
    match op % 7 {
        0 => HgMutation::AddPgVertex {
            labels: vec![Label::new("User")],
            props: props! {"name" => format!("u{s1}"), "age" => (s1 % 60) as i64},
            validity: Interval::ALL,
        },
        1 => HgMutation::AddPgVertex {
            labels: vec![Label::new("Station")],
            props: props! {"name" => format!("dock-{s1}")},
            validity: Interval::ALL,
        },
        2 => HgMutation::AddPgEdge {
            src: VertexId::from((s1 as usize) % nv),
            dst: VertexId::from((s2 as usize) % nv),
            labels: vec![Label::new(if s2.is_multiple_of(2) { "USES" } else { "TX" })],
            props: props! {},
            validity: Interval::ALL,
        },
        3 => {
            *clock += 10;
            HgMutation::Append {
                series: SeriesId::new(0),
                t: Timestamp::from_millis(*clock),
                row: vec![(s1 % 100) as f64],
            }
        }
        4 => HgMutation::SetProperty {
            el: ElementRef::Vertex(VertexId::from((s1 as usize) % nv)),
            key: "age".to_owned(),
            value: PropertyValue::Static(Value::Int((s2 % 80) as i64)),
        },
        5 => HgMutation::CloseVertex {
            v: VertexId::from((s1 as usize) % nv),
            t: Timestamp::from_millis(10_000 + (s2 % 100) as i64),
        },
        // a mutation that always fails to apply: the registry must take
        // the failed-batch rebuild path and still converge
        _ => HgMutation::Append {
            series: SeriesId::new(999),
            t: Timestamp::from_millis(1),
            row: vec![0.0],
        },
    }
}

/// Applies `muts` the way the engine commits them — prefix up to the
/// first failure — and notifies the registry.
fn commit(reg: &SubscriptionRegistry, hg: &mut HyGraph, muts: &[HgMutation]) {
    let pre_v = hg.topology().vertex_capacity();
    let pre_e = hg.topology().edge_capacity();
    let mut failed = false;
    for m in muts {
        if hg.apply(m).is_err() {
            failed = true;
            break;
        }
    }
    reg.on_commit(hg, muts, pre_v, pre_e, failed);
}

fn encoded(r: &hq::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

proptest! {
    #[test]
    fn delta_stream_replays_to_a_fresh_execution(
        query_sels in proptest::collection::vec(0usize..QUERIES.len(), 1..4),
        ops in proptest::collection::vec(
            (0u8..8, 0u64..u64::MAX, 0u64..u64::MAX), 1..10),
    ) {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(CollectingSink::default());

        // register the chosen standing queries (duplicates exercise the
        // fingerprint-twin path) and keep a locally maintained snapshot
        // per subscription, advanced only by pushed deltas
        let mut subs: Vec<(u64, &str, hq::QueryResult)> = Vec::new();
        for &qi in &query_sels {
            let text = QUERIES[qi];
            let (id, snap) = reg
                .subscribe(&hg, text, 1, sink.clone())
                .map_err(|e| TestCaseError::fail(format!("subscribe {text:?}: {e}")))?;
            subs.push((id, text, snap));
        }

        let mut clock = 1_000i64;
        for (applied, &(op, s1, s2)) in ops.iter().enumerate() {
            let nv = hg.topology().vertex_capacity();
            let m = decode_op(op, s1, s2, nv, &mut clock);
            commit(&reg, &mut hg, std::slice::from_ref(&m));

            // replay everything pushed since the last commit
            let pushed: Vec<(u64, Delta)> =
                sink.deltas.lock().unwrap().drain(..).collect();
            for (sub_id, delta) in &pushed {
                let (_, _, snap) = subs
                    .iter_mut()
                    .find(|(id, _, _)| id == sub_id)
                    .expect("delta for an unknown subscription");
                apply_delta(snap, delta)
                    .map_err(|e| TestCaseError::fail(format!("apply_delta: {e}")))?;
            }

            // every maintained snapshot equals a from-scratch run, byte
            // for byte
            for (id, text, snap) in &subs {
                let q = hq::parser::parse(text).expect("pool queries parse");
                let fresh = hq::execute(&hg, &q).map_err(|e| {
                    TestCaseError::fail(format!("oracle {text:?}: {e}"))
                })?;
                prop_assert_eq!(
                    &encoded(snap),
                    &encoded(&fresh),
                    "sub {} ({:?}) diverged after op {}",
                    id, text, applied
                );
            }
        }
        let closed = sink.closed.lock().unwrap();
        prop_assert!(
            closed.is_empty(),
            "no standing query may be dropped by this workload: {closed:?}"
        );
    }
}

/// A deterministic floor under the property: one multi-mutation batch
/// mixing a vertex add, an edge add, and an append converges every
/// query shape in the pool at once.
#[test]
fn fixed_mixed_batch_converges_every_shape() {
    let mut hg = instance();
    let reg = SubscriptionRegistry::new(SubConfig::default());
    let sink = Arc::new(CollectingSink::default());
    let mut subs: Vec<(u64, &str, hq::QueryResult)> = QUERIES
        .iter()
        .map(|text| {
            let (id, snap) = reg
                .subscribe(&hg, text, 1, sink.clone())
                .expect("subscribe");
            (id, *text, snap)
        })
        .collect();

    let batch = vec![
        HgMutation::AddPgVertex {
            labels: vec![Label::new("User")],
            props: props! {"name" => "grace", "age" => 50i64},
            validity: Interval::ALL,
        },
        // grace (the fixture seeds vertices 0..=3) picks up the card
        HgMutation::AddPgEdge {
            src: VertexId::from(4usize),
            dst: VertexId::from(1usize),
            labels: vec![Label::new("USES")],
            props: props! {},
            validity: Interval::ALL,
        },
        HgMutation::Append {
            series: SeriesId::new(0),
            t: Timestamp::from_millis(300),
            row: vec![42.0],
        },
    ];
    commit(&reg, &mut hg, &batch);

    for (sub_id, delta) in sink.deltas.lock().unwrap().iter() {
        let (_, _, snap) = subs
            .iter_mut()
            .find(|(id, _, _)| id == sub_id)
            .expect("delta for an unknown subscription");
        apply_delta(snap, delta).expect("apply_delta");
    }
    for (_, text, snap) in &subs {
        let q = hq::parser::parse(text).expect("parse");
        let fresh = hq::execute(&hg, &q).expect("oracle");
        assert_eq!(
            encoded(snap),
            encoded(&fresh),
            "{text:?} diverged after the mixed batch"
        );
    }
    assert!(sink.closed.lock().unwrap().is_empty());
}
