//! The time-travel correctness property: for any random mutation
//! stream, `AS OF t_i` must answer **byte-identically** to a fresh
//! replay of the store up to commit `i` — the same determinism contract
//! that makes WAL recovery exact — and `AS OF NOW()` must be
//! byte-identical to the plain, bound-free query. Both execution modes
//! of the oracle are exercised, and `BETWEEN` windows must union
//! exactly the epochs the window saw. A second property interleaves
//! retention folds with the commits: folding into a base that shares
//! structure with the live state must never write through to it.

use hygraph::persist::{Durable, HgMutation};
use hygraph::prelude::*;
use hygraph::query_engine as hq;
use hygraph::temporal::{HistoryConfig, HistoryStore, SnapshotResolution};
use hygraph::types::bytes::ByteWriter;
use hygraph::types::props;
use hygraph::types::HyGraphError;
use proptest::prelude::*;

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

/// Query shapes spanning pure-graph matches, filters, series
/// aggregates, DISTINCT, and ORDER BY — both planner paths.
const QUERIES: &[&str] = &[
    "MATCH (u:User) RETURN u.name AS name",
    "MATCH (u:User) WHERE u.age > 30 RETURN u.name AS name",
    "MATCH (u:User)-[:USES]->(c:Card) RETURN u.name AS who, MEAN(DELTA(c) IN [0, 500)) AS m",
    "MATCH (u:User) RETURN COUNT(u) AS n",
    "MATCH (u:User) WHERE u.age > 20 RETURN DISTINCT u.name AS name ORDER BY name",
];

/// Decodes one op selector into a mutation against the current graph
/// state. `nv` is the live vertex-id space; `clock` hands out strictly
/// increasing append timestamps past the seeded series. Selector 6 is
/// a mutation that always fails to apply — history must record exactly
/// the applied prefix, nothing more.
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
        _ => HgMutation::Append {
            series: SeriesId::new(999),
            t: Timestamp::from_millis(1),
            row: vec![0.0],
        },
    }
}

fn encoded(r: &hq::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

fn state_bytes(hg: &HyGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    hg.encode_state(&mut w);
    w.into_bytes()
}

proptest! {
    #[test]
    fn as_of_equals_a_fresh_replay_to_that_commit(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..u64::MAX, 0u64..u64::MAX), 1..10),
    ) {
        let mut live = instance();
        let history = HistoryStore::new(HistoryConfig::default(), &live, 0);

        // apply the stream one batch per op, the way the engine commits:
        // prefix up to the first failure, mirrored into history
        let mut clock = 1_000i64;
        let mut commits: Vec<(i64, Vec<HgMutation>)> = Vec::new();
        for (i, &(op, s1, s2)) in ops.iter().enumerate() {
            let nv = live.topology().vertex_capacity();
            let m = decode_op(op, s1, s2, nv, &mut clock);
            let ts = history.allocate_ts((i as i64 + 1) * 1_000);
            let applied = live.apply(&m).is_ok();
            let batch = if applied { vec![m] } else { Vec::new() };
            history.record_commit(ts, batch.clone());
            if !batch.is_empty() {
                commits.push((ts, batch));
            }
        }
        prop_assert_eq!(
            history.commit_timestamps(),
            commits.iter().map(|(ts, _)| *ts).collect::<Vec<_>>(),
            "history retains exactly the non-empty applied batches"
        );

        // oracle: an independent replay from the same fixture
        let mut replay = instance();
        let mut oracle: Vec<(i64, HyGraph)> = Vec::new();
        for (ts, batch) in &commits {
            for m in batch {
                replay.apply(m).expect("applied once, must apply again");
            }
            oracle.push((*ts, replay.clone()));
        }
        prop_assert_eq!(
            state_bytes(&replay), state_bytes(&live),
            "replay and live disagree — determinism broken"
        );

        // AS OF t_i (and mid-epoch t_i + 500) reconstructs commit i's
        // state bit for bit, and queries over it match a fresh
        // execution on the oracle graph in both execution modes
        for (i, (ts, oracle_state)) in oracle.iter().enumerate() {
            let is_last = i + 1 == oracle.len();
            for probe in [*ts, *ts + 500] {
                let snap = match history.snapshot_at(probe) {
                    Ok(SnapshotResolution::Past(past)) => {
                        prop_assert!(!is_last, "last commit must resolve Live");
                        past
                    }
                    Ok(SnapshotResolution::Live) => {
                        // at/after the newest commit the live store is
                        // the answer — and it equals the last oracle
                        prop_assert!(is_last, "only the last commit resolves Live");
                        std::sync::Arc::new(live.clone())
                    }
                    Err(e) => return Err(TestCaseError::fail(format!("AS OF {probe}: {e}"))),
                };
                prop_assert_eq!(
                    state_bytes(&snap), state_bytes(oracle_state),
                    "AS OF {} is not the state after commit {}", probe, i
                );
                for text in QUERIES {
                    let q = hq::parser::parse(text).expect("pool queries parse");
                    let got = hq::execute(&snap, &q)
                        .map_err(|e| TestCaseError::fail(format!("{text:?}: {e}")))?;
                    let want = hq::execute(oracle_state, &q)
                        .map_err(|e| TestCaseError::fail(format!("oracle {text:?}: {e}")))?;
                    prop_assert_eq!(
                        &encoded(&got), &encoded(&want),
                        "AS OF {} diverged for {:?}", probe, text
                    );
                }
            }
        }

        // AS OF NOW() == the plain bound-free query, byte for byte,
        // through the full instrumented entry point with the history
        // as resolver
        for text in QUERIES {
            let plain = hq::run_instrumented_bound(&live, text, None, Some(&history), None)
                .map_err(|e| TestCaseError::fail(format!("plain {text:?}: {e}")))?;
            let as_of_now_text = text.replacen(" RETURN", " AS OF NOW() RETURN", 1);
            let now = hq::run_instrumented_bound(
                &live, &as_of_now_text, None, Some(&history), None,
            )
            .map_err(|e| TestCaseError::fail(format!("AS OF NOW {text:?}: {e}")))?;
            prop_assert_eq!(
                &encoded(&now), &encoded(&plain),
                "AS OF NOW() != plain for {:?}", text
            );
            // the injected-bound form at a future instant is Live too
            let future = hq::run_instrumented_bound(
                &live, text, None, Some(&history),
                Some(hq::TemporalBound::AsOf(Timestamp::from_millis(i64::MAX))),
            )
            .map_err(|e| TestCaseError::fail(format!("AS OF MAX {text:?}: {e}")))?;
            prop_assert_eq!(&encoded(&future), &encoded(&plain));
        }

        // BETWEEN [0, last]: exactly the union of every epoch's rows
        // (first-seen order), matching execute_epochs over the oracle
        if let Some((last_ts, _)) = oracle.last() {
            let mut states: Vec<std::sync::Arc<HyGraph>> =
                vec![std::sync::Arc::new(instance())];
            states.extend(oracle.iter().map(|(_, g)| std::sync::Arc::new(g.clone())));
            for text in QUERIES {
                let q = hq::parser::parse(text).expect("pool queries parse");
                let planned = hq::plan_query(&q).expect("pool queries plan");
                let want = hq::execute_epochs(&states, &planned)
                    .map_err(|e| TestCaseError::fail(format!("epochs {text:?}: {e}")))?;
                let got = hq::run_instrumented_bound(
                    &live, text, None, Some(&history),
                    Some(hq::TemporalBound::Between(
                        Timestamp::from_millis(0),
                        Timestamp::from_millis(*last_ts),
                    )),
                )
                .map_err(|e| TestCaseError::fail(format!("BETWEEN {text:?}: {e}")))?;
                prop_assert_eq!(
                    &encoded(&got), &encoded(&want),
                    "BETWEEN union diverged for {:?}", text
                );
            }
        }
    }
}

/// Checks every oracle state against the history's current horizon:
/// at or above it `AS OF` is byte-identical to the replay (the newest
/// commit resolves to the live state), below it a typed error.
fn check_against_horizon(
    history: &HistoryStore,
    oracle: &[(i64, Vec<u8>)],
) -> std::result::Result<(), TestCaseError> {
    let horizon = history.base_ts();
    let last = oracle.last().expect("genesis is always in the oracle").0;
    for (ts, want) in oracle {
        match history.snapshot_at(*ts) {
            Err(HyGraphError::Query(msg)) if *ts < horizon => {
                prop_assert!(msg.contains("history horizon"), "AS OF {}: {}", ts, msg);
            }
            Err(e) => {
                return Err(TestCaseError::fail(format!(
                    "AS OF {ts} (horizon {horizon}): {e}"
                )))
            }
            Ok(_) if *ts < horizon => {
                return Err(TestCaseError::fail(format!(
                    "AS OF {ts} answered below the horizon {horizon}"
                )))
            }
            Ok(SnapshotResolution::Live) => {
                prop_assert_eq!(*ts, last, "only the newest commit is live")
            }
            Ok(SnapshotResolution::Past(past)) => {
                prop_assert!(*ts != last, "the newest commit must resolve Live");
                prop_assert_eq!(&state_bytes(&past), want, "AS OF {} after a fold", ts);
            }
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn retention_folds_keep_live_intact_and_as_of_exact(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..u64::MAX, 0u64..u64::MAX, 0i64..4), 1..12),
        retain_commits in 1i64..4,
    ) {
        let cfg = HistoryConfig {
            retain_ms: retain_commits * 1_000,
            ..HistoryConfig::default()
        };
        let mut live = instance();
        let history = HistoryStore::new(cfg, &live, 0);

        // oracle: the state after every applied commit, genesis first
        let mut oracle = vec![(0i64, state_bytes(&live))];
        let mut clock = 1_000i64;
        for (i, &(op, s1, s2, extra)) in ops.iter().enumerate() {
            let nv = live.topology().vertex_capacity();
            let m = decode_op(op, s1, s2, nv, &mut clock);
            let ts = history.allocate_ts((i as i64 + 1) * 1_000);
            let applied = live.apply(&m).is_ok();
            let expected_live = state_bytes(&live);
            // the commit path folds what retention expired ...
            history.record_commit(ts, if applied { vec![m] } else { Vec::new() });
            if applied {
                oracle.push((ts, expected_live.clone()));
            }
            prop_assert_eq!(&state_bytes(&live), &expected_live, "commit-path fold wrote through");
            check_against_horizon(&history, &oracle)?;
            // ... and an out-of-band sweep may run up to 3 commits ahead
            // of it, past the newest commit included
            if extra > 0 {
                history.gc(ts + extra * 1_000);
                prop_assert_eq!(&state_bytes(&live), &expected_live, "gc fold wrote through");
                check_against_horizon(&history, &oracle)?;
            }
        }
    }
}
