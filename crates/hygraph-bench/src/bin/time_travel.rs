//! Time-travel benchmark: `AS OF` snapshot reconstruction latency as a
//! function of history depth, against the live-query baseline.
//!
//! The history design (base snapshot + per-commit deltas) makes a cold
//! `AS OF t` cost O(depth): decode the base once, then replay every
//! commit up to `t`. This harness measures that curve at four depths
//! (25/50/75/100 % of the retained log), the warm path (snapshot-cache
//! hit), and the live bound-free query for scale — after first gating
//! on correctness: every probed reconstruction must be **byte
//! identical** to a fresh replay of the same commit prefix, and the
//! query answered on it must match the replay's answer byte for byte.
//!
//! Run with: `cargo run --release -p hygraph-bench --bin time_travel
//! [--scale small|medium|large]`
//!
//! Emits `BENCH_PR8.json` in the working directory (override with
//! `BENCH_PR8_JSON=<path>`) so CI and later PRs can diff the numbers.

use hygraph_bench::{time_ms, Scale};
use hygraph_core::HyGraph;
use hygraph_persist::{Durable, HgMutation};
use hygraph_query as hq;
use hygraph_temporal::{HistoryConfig, HistoryStore, SnapshotResolution};
use hygraph_types::bytes::ByteWriter;
use hygraph_types::{props, Interval, Label, PropertyValue, SeriesId, Timestamp, Value, VertexId};

/// One commit of the workload: station churn — a new ts-station and its
/// pg-dock twin every commit, an availability append per existing
/// station every commit, and a rolling property rewrite on the previous
/// dock (the version-chain driver). Vertex ids are dense, so commit `i`
/// creates vertices `2i` (ts) and `2i + 1` (pg).
fn commit_batch(i: usize, stations: usize) -> Vec<HgMutation> {
    let mut batch = Vec::with_capacity(stations + 3);
    batch.push(HgMutation::AddSeries {
        names: vec!["availability".into()],
        rows: vec![],
    });
    batch.push(HgMutation::AddTsVertex {
        labels: vec![Label::new("Station"), Label::new(format!("Zone{}", i % 8))],
        series: SeriesId::new(i as u64),
    });
    batch.push(HgMutation::AddPgVertex {
        labels: vec![Label::new("Dock")],
        props: props! {"name" => format!("dock-{i}"), "docks" => 20i64},
        validity: Interval::ALL,
    });
    for k in 0..=i.min(stations - 1) {
        batch.push(HgMutation::Append {
            series: SeriesId::new(k as u64),
            t: Timestamp::from_millis(i as i64 * 300_000),
            row: vec![((i * 31 + k * 7) % 40) as f64],
        });
    }
    if i > 0 {
        batch.push(HgMutation::SetProperty {
            el: hygraph_core::ElementRef::Vertex(VertexId::from(2 * (i - 1) + 1)),
            key: "docks".to_owned(),
            value: PropertyValue::Static(Value::Int((20 + i % 15) as i64)),
        });
    }
    batch
}

fn state_bytes(hg: &HyGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    hg.encode_state(&mut w);
    w.into_bytes()
}

fn must_past(r: SnapshotResolution) -> std::sync::Arc<HyGraph> {
    match r {
        SnapshotResolution::Past(g) => g,
        SnapshotResolution::Live => panic!("probe must land in the past"),
    }
}

fn main() {
    let scale = Scale::from_args();
    let (commits, runs) = match scale {
        Scale::Small => (60, 5),
        Scale::Medium => (300, 10),
        Scale::Large => (1000, 10),
    };
    let query = "MATCH (s:Station) RETURN COUNT(s) AS n";

    // ---- build: live store + mirrored history ------------------------
    let mut live = HyGraph::new();
    let history = HistoryStore::new(HistoryConfig::default(), &live, 0);
    let mut batches = Vec::with_capacity(commits);
    let ((), build_ms) = time_ms(|| {
        for i in 0..commits {
            let batch = commit_batch(i, commits);
            let ts = history.allocate_ts((i as i64 + 1) * 1_000);
            for m in &batch {
                live.apply(m).expect("workload applies");
            }
            history.record_commit(ts, batch.clone());
            batches.push(batch);
        }
    });
    let timestamps = history.commit_timestamps();
    println!(
        "time-travel benchmark — {} commits, {} retained ({:.1} KiB history), built in {:.1} ms",
        commits,
        timestamps.len(),
        history.approx_bytes() as f64 / 1024.0,
        build_ms
    );

    // probe depths: 25/50/75/100 % of the retained log (the last probe
    // is pinned one commit before the tip so it stays a *past* read)
    let depth_of = |frac: f64| ((commits as f64 * frac) as usize).clamp(1, commits - 2);
    let depths: Vec<usize> = [0.25, 0.50, 0.75].iter().map(|&f| depth_of(f)).collect();
    let depths = {
        let mut d = depths;
        d.push(commits - 2); // "full depth" while still < last commit
        d
    };

    // ---- equivalence gate --------------------------------------------
    for &d in &depths {
        let ts = timestamps[d];
        let snap = must_past(history.snapshot_at(ts).expect("probe within history"));
        let mut replay = HyGraph::new();
        for batch in &batches[..=d] {
            for m in batch {
                replay.apply(m).expect("replay applies");
            }
        }
        assert_eq!(
            state_bytes(&snap),
            state_bytes(&replay),
            "AS OF {ts} is not byte-identical to a fresh replay of {} commits",
            d + 1
        );
        let got = hq::query(&snap, query).expect("as-of query");
        let want = hq::query(&replay, query).expect("replay query");
        assert_eq!(got, want, "query answers diverge at depth {d}");
    }
    println!(
        "equivalence gate passed: {} depths byte-identical to fresh replay\n",
        depths.len()
    );

    // ---- timing ------------------------------------------------------
    println!(
        "{:<28} {:>10} {:>12} {:>12}",
        "probe", "depth", "cold ms", "warm ms"
    );
    let base_state = state_bytes(&HyGraph::new());
    let record: Vec<(usize, f64, f64)> = depths
        .iter()
        .map(|&d| {
            let ts = timestamps[d];
            let mut cold_ms = 0.0;
            let mut warm_ms = 0.0;
            for _ in 0..runs {
                // fresh store per run: an empty snapshot cache makes the
                // first read pay the full base-decode + replay cost
                let h = HistoryStore::from_parts(
                    HistoryConfig::default(),
                    base_state.clone(),
                    0,
                    timestamps
                        .iter()
                        .zip(batches.iter())
                        .map(|(&commit_ts, b)| hygraph_temporal::CommitRecord {
                            commit_ts,
                            mutations: b.clone(),
                        })
                        .collect(),
                );
                let (_, ms) = time_ms(|| must_past(h.snapshot_at(ts).expect("cold probe")));
                cold_ms += ms;
                let (_, ms) = time_ms(|| must_past(h.snapshot_at(ts).expect("warm probe")));
                warm_ms += ms;
            }
            let (cold, warm) = (cold_ms / runs as f64, warm_ms / runs as f64);
            println!(
                "{:<28} {:>10} {:>12.3} {:>12.3}",
                format!("AS OF {}", ts),
                d + 1,
                cold,
                warm
            );
            (d + 1, cold, warm)
        })
        .collect();

    // live baseline: the bound-free query on the current state
    let mut live_ms = 0.0;
    for _ in 0..runs {
        let (_, ms) = time_ms(|| hq::query(&live, query).expect("live query"));
        live_ms += ms;
    }
    let live_ms = live_ms / runs as f64;
    println!("\nlive (bound-free) query: {live_ms:.3} ms");

    // warm reads must not pay the reconstruction cost again
    let deepest = record.last().expect("at least one depth");
    assert!(
        deepest.2 <= deepest.1,
        "warm as-of slower than cold at full depth: {:.3} vs {:.3} ms",
        deepest.2,
        deepest.1
    );

    let rows = record
        .iter()
        .map(|(depth, cold, warm)| {
            format!("{{\"depth\": {depth}, \"cold_ms\": {cold:.4}, \"warm_ms\": {warm:.4}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n  ");
    let json = format!(
        "{{\n\"bench\": \"time_travel\",\n\"scale\": \"{scale:?}\",\n\"runs\": {runs},\n\
         \"commits\": {commits},\n\"history_bytes\": {},\n\"build_ms\": {build_ms:.4},\n\
         \"live_query_ms\": {live_ms:.4},\n\"as_of\": [\n  {rows}\n]\n}}\n",
        history.approx_bytes()
    );
    let path = std::env::var("BENCH_PR8_JSON").unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
