//! Shard-scaling benchmark: read **and commit** throughput under
//! concurrency as a function of the engine's shard count and snapshot
//! implementation.
//!
//! The single-shard engine serialises readers behind the writer's lock
//! — every commit stalls every query for the commit's duration. The
//! sharded engine publishes an immutable snapshot per commit and
//! readers pin the latest epoch without touching the write path, so
//! read throughput should hold (and scale) while the writer streams
//! batches. That was the PR 9 story; this harness now also measures
//! the other side of the ledger: what snapshot publication costs the
//! *writer*. Under the legacy copy-on-write maps a publication clones
//! O(graph); under the persistent-map (`pmap`) implementation it
//! clones O(structure changed by the batch), so sharded commit
//! throughput should approach the single-shard engine's (which never
//! publishes at all).
//!
//! Readers are **pinned readers**: each holds a pinned snapshot epoch
//! ([`Engine::pin_snapshot`]) across a stretch of queries, the way an
//! export or analytics scan would — so retired epochs stay alive while
//! the writer streams, exactly the workload structural sharing is for.
//!
//! Correctness is gated first: at every shard count the engine's final
//! state must be **byte identical** to the single-shard engine's, the
//! two snapshot implementations must produce byte-identical state
//! encodings, and a query corpus must answer byte-for-byte the same.
//!
//! Run with: `cargo run --release -p hygraph-bench --bin shard_scaling
//! [--scale small|medium|large]`
//!
//! Every row also reports the window's snapshot-publication cost, the
//! p50/p99 of `hygraph_commit_publish_us` (zero where nothing is
//! published: the single-shard engine). Emits `BENCH_PR10.json` in the
//! working directory (override with `BENCH_PR10_JSON=<path>`) so CI and
//! later PRs can diff the numbers.

use hygraph_bench::Scale;
use hygraph_metrics::HistogramSnapshot;
use hygraph_persist::HgMutation;
use hygraph_server::{Backend, Engine};
use hygraph_types::pmap::SnapshotImpl;
use hygraph_types::{props, Interval, Label, SeriesId, Timestamp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const QUERIES: &[&str] = &[
    "MATCH (s:Station) RETURN COUNT(s) AS n",
    "MATCH (s:Station) RETURN MEAN(DELTA(s) IN [0, 600000)) AS avail ORDER BY avail DESC LIMIT 5",
    "MATCH (d:Dock) WHERE d.docks > 25 RETURN d.name AS name ORDER BY name LIMIT 10",
    "MATCH (s:Station) RETURN MAX(DELTA(s) IN [0, 300000)) AS peak ORDER BY peak LIMIT 3",
];

/// How many corpus queries a reader runs under one held pin before
/// re-pinning the latest epoch.
const PIN_HOLD_QUERIES: usize = 8;

/// Alternating (single-shard, multi-shard) window pairs behind the cow
/// read gate: enough for quartiles, and the alternation keeps host
/// drift from landing on one side only.
const GATE_PAIRS: usize = 5;

/// The seed: `stations` ts-stations (one series each) plus a pg dock
/// twin per station.
fn seed(stations: usize) -> Vec<HgMutation> {
    let mut ms = Vec::with_capacity(3 * stations);
    for i in 0..stations {
        ms.push(HgMutation::AddSeries {
            names: vec![format!("avail-{i}")],
            rows: vec![],
        });
        ms.push(HgMutation::AddTsVertex {
            labels: vec![Label::new("Station"), Label::new(format!("Zone{}", i % 8))],
            series: SeriesId::new(i as u64),
        });
        ms.push(HgMutation::AddPgVertex {
            labels: vec![Label::new("Dock")],
            props: props! {"name" => format!("dock-{i}"), "docks" => (20 + (i % 15)) as i64},
            validity: Interval::ALL,
        });
    }
    ms
}

/// How many points each touched station receives per writer batch —
/// sized so a commit holds the single-shard write lock long enough to
/// stall its readers measurably (the contention the snapshot path
/// removes).
const POINTS_PER_BATCH: usize = 50;

/// Stations each writer batch touches: a rotating window over the
/// fleet, the way real ingest arrives (one feed reports a station
/// group, not every station at once). A bounded touch set is what
/// makes commit cost a function of the *batch* — an element's first
/// write after a publication copies that element, so a batch touching
/// the whole fleet would re-copy the whole fleet's series payloads per
/// commit under any snapshot implementation.
const STATIONS_PER_BATCH: usize = 16;

/// Writer batch `b`: a burst of availability appends for its rotating
/// station window (consecutive series ids — cross-shard by
/// construction) plus a fresh dock vertex.
fn writer_batch(b: usize, stations: usize) -> Vec<HgMutation> {
    let k = STATIONS_PER_BATCH.min(stations);
    let mut ms: Vec<HgMutation> = Vec::with_capacity(k * POINTS_PER_BATCH + 1);
    for j in 0..k {
        let i = (b * k + j) % stations;
        for p in 0..POINTS_PER_BATCH {
            ms.push(HgMutation::Append {
                series: SeriesId::new(i as u64),
                t: Timestamp::from_millis(((b * POINTS_PER_BATCH + p) as i64 + 1) * 1_000),
                row: vec![((b * 31 + i * 7 + p) % 40) as f64],
            });
        }
    }
    ms.push(HgMutation::AddPgVertex {
        labels: vec![Label::new("Dock")],
        props: props! {"name" => format!("dock-w{b}"), "docks" => (20 + (b % 15)) as i64},
        validity: Interval::ALL,
    });
    ms
}

fn build_engine(shards: usize, stations: usize) -> Arc<Engine> {
    let engine = Engine::new(Backend::memory(hygraph_core::HyGraph::new())).with_shards(shards);
    engine.mutate_batch(seed(stations)).expect("seed commits");
    Arc::new(engine)
}

/// Applies the full writer workload without concurrency — the
/// reference state for the byte-identity gate.
fn final_state(shards: usize, stations: usize, batches: usize) -> (Arc<Engine>, Vec<u8>) {
    let engine = build_engine(shards, stations);
    for b in 0..batches {
        engine
            .mutate_batch(writer_batch(b, stations))
            .expect("batch");
    }
    let bytes = engine.state_bytes();
    (engine, bytes)
}

struct Measured {
    shards: usize,
    reads: usize,
    commits: usize,
    reads_per_sec: f64,
    commits_per_sec: f64,
    /// `hygraph_commit_publish_us` over this window: (p50, p99) µs, or
    /// zeros when nothing was published (single-shard, metrics off).
    publish_us: (u64, u64),
}

/// The process-wide `hygraph_commit_publish_us` histogram so far.
fn publish_hist() -> HistogramSnapshot {
    hygraph_metrics::snapshot()
        .map(|s| s.shard.commit_publish_us)
        .unwrap_or_default()
}

/// (p50, p99) of the observations `after` holds beyond `before`.
fn publish_quantiles(before: &HistogramSnapshot, after: &HistogramSnapshot) -> (u64, u64) {
    let mut window = after.clone();
    for (a, b) in window.buckets.iter_mut().zip(before.buckets.iter()) {
        *a -= b;
    }
    window.count -= before.count;
    window.sum -= before.sum;
    (window.p50(), window.p99())
}

/// A fixed wall-clock window: one writer commits batches back to back
/// for the whole window while `readers` pinned-reader threads count
/// completed corpus queries, each holding a snapshot pin across
/// [`PIN_HOLD_QUERIES`] queries at a time (on single-shard engines
/// there is no snapshot plane to pin and they just query). The window,
/// not the writer, bounds the run, so shard counts with different
/// commit costs are compared on equal footing.
fn measure(shards: usize, stations: usize, window_ms: u64, readers: usize) -> Measured {
    let engine = build_engine(shards, stations);
    let published_before = publish_hist();
    let done = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) {
                    let pin = engine.pin_snapshot();
                    for _ in 0..PIN_HOLD_QUERIES {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        let q = QUERIES[(r + reads) % QUERIES.len()];
                        engine.query(q).expect("corpus query");
                        reads += 1;
                    }
                    drop(pin);
                }
                reads
            })
        })
        .collect();
    let writer = {
        let engine = Arc::clone(&engine);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut commits = 0usize;
            while !done.load(Ordering::Acquire) {
                engine
                    .mutate_batch(writer_batch(commits, stations))
                    .expect("batch");
                commits += 1;
            }
            commits
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(window_ms));
    done.store(true, Ordering::Release);
    let commits = writer.join().unwrap();
    let reads: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let secs = window_ms as f64 / 1000.0;
    Measured {
        shards,
        reads,
        commits,
        reads_per_sec: reads as f64 / secs,
        commits_per_sec: commits as f64 / secs,
        publish_us: publish_quantiles(&published_before, &publish_hist()),
    }
}

/// One snapshot implementation's full timing sweep.
fn sweep(
    label: &str,
    shard_counts: &[usize],
    stations: usize,
    window_ms: u64,
    readers: usize,
) -> Vec<Measured> {
    println!(
        "\n[{label}] {:>7} {:>10} {:>10} {:>14} {:>14} {:>18}",
        "shards", "reads", "commits", "reads/sec", "commits/sec", "publish p50/p99 µs"
    );
    shard_counts
        .iter()
        .map(|&n| {
            let m = measure(n, stations, window_ms, readers);
            let publish = format!("{}/{}", m.publish_us.0, m.publish_us.1);
            println!(
                "[{label}] {:>7} {:>10} {:>10} {:>14.0} {:>14.1} {:>18}",
                m.shards, m.reads, m.commits, m.reads_per_sec, m.commits_per_sec, publish
            );
            m
        })
        .collect()
}

/// `(q1, median, q3)` of `xs`, linearly interpolated.
fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Reads/sec of [`GATE_PAIRS`] back-to-back window pairs, one
/// single-shard and one `shards`-shard window each, alternating which
/// runs first: `(single, multi)`.
fn alternating_reads(
    shards: usize,
    stations: usize,
    window_ms: u64,
    readers: usize,
) -> (Vec<f64>, Vec<f64>) {
    (0..GATE_PAIRS)
        .map(|pair| {
            let mut order = [1, shards];
            if pair % 2 == 1 {
                order.reverse();
            }
            let [a, b] = order.map(|n| measure(n, stations, window_ms, readers).reads_per_sec);
            if pair % 2 == 0 {
                (a, b)
            } else {
                (b, a)
            }
        })
        .unzip()
}

fn json_rows(rows: &[Measured]) -> String {
    rows.iter()
        .map(|m| {
            format!(
                "{{\"shards\": {}, \"reads\": {}, \"commits\": {}, \
                 \"reads_per_sec\": {:.2}, \"commits_per_sec\": {:.2}, \
                 \"publish_us_p50\": {}, \"publish_us_p99\": {}}}",
                m.shards,
                m.reads,
                m.commits,
                m.reads_per_sec,
                m.commits_per_sec,
                m.publish_us.0,
                m.publish_us.1
            )
        })
        .collect::<Vec<_>>()
        .join(",\n  ")
}

fn main() {
    let scale = Scale::from_args();
    // Scale grows the *graph width* (station count), not just the
    // window: commit cost under copy-on-write is O(graph), so the
    // publication tax the persistent maps remove only becomes visible
    // once the interior maps dwarf the per-batch touch set.
    // Short windows with few readers make the multi-vs-single read
    // comparison a coin flip on small hosts, so every scale keeps the
    // 3-reader / 2 s measurement geometry and scales the equivalence
    // prework (batches) and, at large, the fleet and window.
    let (stations, batches, window_ms, readers) = match scale {
        Scale::Small => (1_024, 10, 2_000u64, 3),
        Scale::Medium => (1_024, 40, 2_000u64, 3),
        Scale::Large => (4_096, 60, 4_000u64, 4),
    };
    let shard_counts = [1usize, 2, 4, 8];
    println!(
        "shard-scaling benchmark — {stations} stations, {window_ms} ms windows, \
         {readers} pinned readers, shard counts {shard_counts:?}"
    );

    // ---- equivalence gates -------------------------------------------
    // every shard count byte-identical to single-shard, and the corpus
    // answers identically — under the default (pmap) implementation
    SnapshotImpl::Pmap.install();
    let (single, single_bytes) = final_state(1, stations, batches);
    for &n in &shard_counts[1..] {
        let (engine, bytes) = final_state(n, stations, batches);
        assert_eq!(
            bytes, single_bytes,
            "{n}-shard final state is not byte-identical to single-shard"
        );
        for q in QUERIES {
            let got = engine.query(q).expect("sharded query");
            let want = single.query(q).expect("single-shard query");
            assert_eq!(got, want, "query diverges at {n} shards: {q}");
        }
    }
    // the legacy copy-on-write implementation must produce the same
    // canonical bytes — checkpoints are interchangeable between impls
    SnapshotImpl::Cow.install();
    let (_, cow_bytes) = final_state(1, stations, batches);
    assert_eq!(
        cow_bytes, single_bytes,
        "cow- and pmap-built states must encode byte-identically"
    );
    println!(
        "equivalence gates passed: {} shard counts byte-identical, {} queries agree, \
         cow == pmap encodings",
        shard_counts.len() - 1,
        QUERIES.len()
    );

    // ---- timing ------------------------------------------------------
    let cow = sweep("cow ", &shard_counts, stations, window_ms, readers);
    SnapshotImpl::Pmap.install();
    let pmap = sweep("pmap", &shard_counts, stations, window_ms, readers);

    let best_multi = |rows: &[Measured]| -> (usize, f64) {
        rows[1..]
            .iter()
            .max_by(|a, b| a.reads_per_sec.total_cmp(&b.reads_per_sec))
            .map(|m| (m.shards, m.reads_per_sec))
            .expect("multi-shard rows")
    };

    // PR 9's architecture gate, in the configuration PR 9 shipped and
    // gated (the cow collections): under a concurrent writer, snapshot
    // readers must at least hold the single-shard read rate — they no
    // longer queue behind the commit lock. One window per side is a
    // coin flip on a 2-core host (single-shard windows alone swing
    // ~1.6x run to run), so the sweep's best shard count is re-measured
    // against single-shard over alternating window pairs, and a
    // shortfall fails only when it exceeds the single-shard windows'
    // own interquartile range. It is asserted last, after the JSON is
    // written, so a failure still leaves the other gates' verdicts and
    // the run record behind.
    let (cow_best_shards, cow_best_reads) = best_multi(&cow);
    println!(
        "\nbest multi-shard reads [cow ]: {cow_best_shards} shards at {cow_best_reads:.0} \
         reads/sec ({:.2}x single-shard)",
        cow_best_reads / cow[0].reads_per_sec
    );
    SnapshotImpl::Cow.install();
    let (single, multi) = alternating_reads(cow_best_shards, stations, window_ms, readers);
    SnapshotImpl::clear_install();
    let (s_q1, s_med, s_q3) = quartiles(&single);
    let (m_q1, m_med, m_q3) = quartiles(&multi);
    println!(
        "cow read gate, {GATE_PAIRS} alternating pairs (median [q1, q3] reads/sec): \
         1 shard {s_med:.0} [{s_q1:.0}, {s_q3:.0}], {cow_best_shards} shards {m_med:.0} \
         [{m_q1:.0}, {m_q3:.0}] ({:.2}x)",
        m_med / s_med
    );

    // The shipped default (pmap) gets a wide parity band rather than
    // the strict bar: persistent-map scans are pointer-chasing where
    // the cow BTreeMaps are cache-dense, and on a host with no spare
    // core the writer's path-copy allocation churn shares every cache
    // level with the readers — observed single-core ratios swing
    // 0.8–1.0x run to run. The 0.7 floor is a regression tripwire (a
    // broken trie craters this to ~0.2x), not a performance claim; the
    // cross-impl read tax is reported for the JSON but not gated.
    let (pmap_best_shards, pmap_best_reads) = best_multi(&pmap);
    println!(
        "best multi-shard reads [pmap]: {pmap_best_shards} shards at {pmap_best_reads:.0} \
         reads/sec ({:.2}x single-shard, {:.2}x cow reads)",
        pmap_best_reads / pmap[0].reads_per_sec,
        pmap_best_reads / cow_best_reads
    );
    assert!(
        pmap_best_reads >= 0.7 * pmap[0].reads_per_sec,
        "pmap snapshot reads fell below the single-shard parity band: \
         {pmap_best_reads:.0} < 0.7x {:.0} reads/sec",
        pmap[0].reads_per_sec
    );

    // PR 10's gate: structural sharing must make snapshot publication
    // cheap enough that the 8-shard engine commits at ≥ 0.75x the
    // single-shard rate under pinned readers — the cow implementation
    // pays an O(graph) map clone per publication and sits far below
    // that, which is the second assertion: pmap at least doubles cow's
    // 8-shard commit rate.
    let single_commit_rate = pmap[0].commits_per_sec;
    let eight = pmap.iter().find(|m| m.shards == 8).expect("8-shard row");
    let cow_eight = cow.iter().find(|m| m.shards == 8).expect("8-shard row");
    println!(
        "8-shard commit throughput under {readers} pinned readers: \
         pmap {:.1}/sec ({:.2}x single-shard), cow {:.1}/sec ({:.2}x)",
        eight.commits_per_sec,
        eight.commits_per_sec / single_commit_rate,
        cow_eight.commits_per_sec,
        cow_eight.commits_per_sec / single_commit_rate
    );
    assert!(
        eight.commits_per_sec >= 0.75 * single_commit_rate,
        "structural sharing failed the commit-cost gate: 8-shard commits at \
         {:.1}/sec < 0.75x single-shard {:.1}/sec",
        eight.commits_per_sec,
        single_commit_rate
    );
    assert!(
        eight.commits_per_sec >= 2.0 * cow_eight.commits_per_sec,
        "structural sharing failed the publication-tax gate: pmap 8-shard \
         commits at {:.1}/sec < 2x cow {:.1}/sec",
        eight.commits_per_sec,
        cow_eight.commits_per_sec
    );

    let json = format!(
        "{{\n\"bench\": \"shard_scaling\",\n\"scale\": \"{scale:?}\",\n\"stations\": {stations},\n\
         \"window_ms\": {window_ms},\n\"readers\": {readers},\n\
         \"pin_hold_queries\": {PIN_HOLD_QUERIES},\n\
         \"rows_cow\": [\n  {}\n],\n\"rows_pmap\": [\n  {}\n],\n\
         \"cow_gate\": {{\"shards\": {cow_best_shards}, \"single_reads_per_sec\": {single:?}, \
         \"multi_reads_per_sec\": {multi:?}}}\n}}\n",
        json_rows(&cow),
        json_rows(&pmap),
    );
    let path = std::env::var("BENCH_PR10_JSON").unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");

    assert!(
        m_med >= s_med - (s_q3 - s_q1),
        "sharded snapshot reads fell below the single-shard rate by more than its \
         in-run spread: median {m_med:.0} < {s_med:.0} - IQR {:.0} reads/sec",
        s_q3 - s_q1
    );
}
