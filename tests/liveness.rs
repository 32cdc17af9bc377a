//! Liveness of the shared engine with history on (the default): readers
//! never stall a writer. Reader threads spin on the engine while one
//! writer tries to land `COMMITS` one-mutation commits; the main thread
//! stops everything at the deadline, so a starved writer shows up as a
//! failed assertion, not a hung test.

use hygraph::datagen::bike::{generate, BikeConfig};
use hygraph::persist::HgMutation;
use hygraph::server::{Backend, Engine};
use hygraph::temporal::HistoryConfig;
use hygraph::types::{Interval, Label, PropertyMap, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Commits the writer must land.
const COMMITS: usize = 100;
/// How long it may take — generous: uncontended, 100 commits take
/// milliseconds.
const DEADLINE: Duration = Duration::from_secs(10);
/// `AS OF` targets the cold-read test cycles through: four times the
/// history's default 8-entry snapshot cache, so nearly every read
/// rebuilds its snapshot.
const COLD_TARGETS: usize = 32;

/// A memory engine over a bike dataset with history on, partitioned
/// into `shards` shards.
fn engine(shards: usize, stations: usize, days: usize) -> Engine {
    let ds = generate(BikeConfig {
        stations,
        days,
        ..BikeConfig::default()
    });
    Engine::with_history_config(
        Backend::memory(ds.to_hygraph()),
        8,
        HistoryConfig::default(),
    )
    .with_shards(shards)
}

fn add_probe() -> HgMutation {
    HgMutation::AddPgVertex {
        labels: vec![Label::new("Probe")],
        props: PropertyMap::new(),
        validity: Interval::ALL,
    }
}

/// Runs `readers` threads calling `read(thread, iteration)` in a loop
/// while the writer commits; returns how many commits landed and how
/// long the writer ran.
fn writer_progress(
    engine: &Engine,
    readers: usize,
    read: impl Fn(usize, usize) + Sync,
) -> (usize, Duration) {
    let stop = AtomicBool::new(false);
    let landed = AtomicUsize::new(0);
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        for thread in 0..readers {
            let (stop, read) = (&stop, &read);
            s.spawn(move || {
                let mut i = 0;
                while !stop.load(Ordering::Relaxed) {
                    read(thread, i);
                    i += 1;
                }
            });
        }
        let writer = s.spawn(|| {
            let start = Instant::now();
            for _ in 0..COMMITS {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                engine.mutate_batch(vec![add_probe()]).expect("commit");
                landed.fetch_add(1, Ordering::Relaxed);
            }
            start.elapsed()
        });
        let start = Instant::now();
        while !writer.is_finished() && start.elapsed() < DEADLINE {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        elapsed = writer.join().expect("writer");
    });
    (landed.into_inner(), elapsed)
}

#[test]
fn live_readers_do_not_stall_the_writer() {
    let text = "MATCH (a:Station)-[t:TRIP]->(b:Station) RETURN COUNT(t) AS n";
    for shards in [1, 2, 4] {
        let engine = engine(shards, 100, 7);
        let trips = engine.query(text).expect("live count").rows[0][0].clone();
        let (landed, elapsed) = writer_progress(&engine, 4, |_, _| {
            let rows = engine.query(text).expect("live count").rows;
            assert_eq!(rows[0][0], trips, "probe commits add no trips");
        });
        assert_eq!(
            landed, COMMITS,
            "{shards} shard(s): 4 live readers let the writer land only \
             {landed}/{COMMITS} commits in {elapsed:?}"
        );
    }
}

#[test]
fn cold_as_of_readers_do_not_stall_the_writer() {
    let text = "MATCH (p:Probe) RETURN COUNT(p) AS n";
    for shards in [1, 2, 4] {
        let engine = engine(shards, 100, 7);
        for _ in 0..COLD_TARGETS {
            engine.mutate_batch(vec![add_probe()]).expect("seed commit");
        }
        let targets = engine.history_commit_timestamps().expect("history on");
        assert_eq!(targets.len(), COLD_TARGETS);
        let (landed, elapsed) = writer_progress(&engine, 2, |thread, i| {
            // the two readers walk the targets in different orders
            let k = (i * (2 * thread + 1) + thread * 7) % COLD_TARGETS;
            let rows = engine.query_as_of(text, targets[k]).expect("AS OF").rows;
            assert_eq!(rows[0][0], Value::Int(k as i64 + 1), "AS OF commit {k}");
        });
        assert_eq!(
            landed, COMMITS,
            "{shards} shard(s): 2 cold AS OF readers let the writer land only \
             {landed}/{COMMITS} commits in {elapsed:?}"
        );
    }
}
