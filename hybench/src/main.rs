//! hybench — the HyGraph server's end-to-end benchmark.
//!
//! Starts the server in-process in its default configuration, drives one
//! seeded workload over TCP with closed-loop clients, checks every
//! answer, and prints one JSON result as the last line of stdout:
//!
//! ```text
//! cargo run --release --manifest-path hybench/Cargo.toml -- \
//!     --workload hybrid-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` is the traced
//! run: it reports the per-layer stage table, read from the server's own
//! histograms and from spans the benchmark records around calls into each
//! layer. See `README.md` beside this file.

mod drive;
mod layers;
mod rng;
mod setup;
mod stats;
mod trace;
mod workload;

use drive::{Kind, Record, KINDS};
use setup::{Bench, Kit};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::Workload;

/// Untimed closed-loop load before the window: plan cache, snapshot
/// cache and lazy set-up settle first.
const WARMUP: Duration = Duration::from_millis(1000);
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;

/// The end-to-end metrics the result line carries (`--trace 0`).
const END_TO_END: [&str; 4] = ["read_p50_ms", "ops_per_s", "setup_s", "peak_rss_mb"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val}"))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One reported value with its unit and sample count (or base counts).
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    pub base: String,
}

impl Metric {
    pub fn new(
        name: impl Into<String>,
        value: Option<f64>,
        unit: &'static str,
        base: impl Into<String>,
    ) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            base: base.into(),
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

/// Slices of the window behind `read_p50_ms` and `ops_per_s`.
const SLICES: usize = 10;

/// Every latency by op type (p50 and, with 1000 samples, p99), then the
/// throughput. `read_p50_ms` and `ops_per_s` are medians over
/// [`SLICES`] equal slices of the window; the rest cover it whole.
fn e2e_metrics(rec: &Record, secs: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    for k in KINDS {
        let s = rec.samples(|x| x == k);
        if s.len() == 0 {
            continue;
        }
        let n = format!("n={}", s.len());
        if k == Kind::Read {
            let reads: Vec<(f64, f64)> = rec
                .done
                .iter()
                .filter(|e| e.1 == k)
                .map(|e| (e.0, e.2))
                .collect();
            out.push(Metric::new(
                "read_p50_ms",
                stats::slice_median(&reads, secs, SLICES, stats::p50_of),
                "ms",
                format!(
                    "{n}; median of {SLICES} slice medians; whole window {}",
                    fmt_value(s.p50())
                ),
            ));
        } else {
            out.push(Metric::new(
                format!("{}_p50_ms", k.name()),
                s.p50(),
                "ms",
                n.clone(),
            ));
        }
        let why = if s.p99().is_none() {
            format!("{n}; p99 omitted: fewer than 1000 samples")
        } else {
            n
        };
        out.push(Metric::new(
            format!("{}_p99_ms", k.name()),
            s.p99(),
            "ms",
            why,
        ));
    }
    let ops: Vec<(f64, f64)> = rec
        .done
        .iter()
        .filter(|e| e.1 != Kind::Push)
        .map(|e| (e.0, 1.0))
        .collect();
    let slice_s = secs / SLICES as f64;
    out.push(Metric::new(
        "ops_per_s",
        stats::slice_median(&ops, secs, SLICES, |v| Some(v.len() as f64 / slice_s)),
        "1/s",
        format!(
            "median of {SLICES} slice rates; whole window {} ops in {secs} s",
            ops.len()
        ),
    ));
    out
}

fn fmt_value(v: Option<f64>) -> String {
    v.map_or("n/a".into(), |v| format!("{v:.6}"))
}

fn json_metrics(ms: &[Metric], names: &[&str]) -> Result<String, String> {
    let mut parts = Vec::new();
    for name in names {
        let m = ms
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let v = m
            .value
            .ok_or_else(|| format!("metric {name} has no value ({})", m.base))?;
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.unit
        ));
    }
    Ok(parts.join(", "))
}

fn record_lines(args: &Args, bench: &Bench) {
    let engine = bench.server.engine();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let knobs = [
        ("git_rev", git_rev()),
        ("nproc", nproc.to_string()),
        ("workload", args.workload.name().into()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("clients", setup::CLIENTS.to_string()),
        ("loop", "closed".into()),
        ("shards", engine.shards().to_string()),
        ("workers", bench.server.settings().workers.to_string()),
        (
            "queue_depth",
            bench.server.settings().queue_depth.to_string(),
        ),
        ("history", engine.history_horizon().is_some().to_string()),
        (
            "snapshot_impl",
            format!("{:?}", hygraph_types::pmap::SnapshotImpl::configured()).to_lowercase(),
        ),
        (
            "plan_cache",
            "64 (default, HYGRAPH_PLAN_CACHE unset)".into(),
        ),
        ("metrics", hygraph_metrics::enabled().to_string()),
        ("subscriptions", "on (default)".into()),
        (
            "backend",
            match &bench.store {
                Some(s) => format!("sharded durable store, {} shards", s.shards),
                None => "memory".into(),
            },
        ),
        (
            "fsync",
            match bench.store {
                Some(_) => format!(
                    "every acknowledged commit (group commit); checkpoint every {} records",
                    hygraph_persist::config::configured_checkpoint_every()
                ),
                None => "none (memory backend)".into(),
            },
        ),
    ];
    for (k, v) in knobs.iter() {
        println!("# record {k} = {v}");
    }
    for (k, v) in &bench.sizes {
        println!("# dataset {k} = {v}");
    }
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("# {title}");
    for m in ms {
        println!(
            "#   {:<40} {:>16} {:<6} {}",
            m.name,
            fmt_value(m.value),
            m.unit,
            m.base
        );
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, String), String> {
    let e = |e: hygraph_types::HyGraphError| e.to_string();
    let scratch = PathBuf::from(".hybench_tmp");
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut bench = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let b = setup::setup(args.workload, args.seed, &scratch).map_err(e)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            b.discard().map_err(e)?;
        } else {
            bench = Some(b);
        }
    }
    let mut bench = bench.expect("at least one set-up");
    record_lines(args, &bench);

    let window = Duration::from_secs(args.seconds);
    // read before any load: what a closed loop adds scales with its
    // throughput, so the traced run reports that growth per commit
    // (`temporal.history_bytes_per_commit`)
    let served_rss_mb = peak_rss_mb();
    drive::run_phase(&mut bench.conns, WARMUP, false, None);
    let warm = drive::take_records(&mut bench.conns);

    let before = bench.conns[0].client.stats().map_err(e)?;
    let epoch = Instant::now();
    let mut spans = drive::run_phase(&mut bench.conns, window, true, args.trace.then_some(epoch));
    let after = bench.conns[0].client.stats().map_err(e)?;
    let mut rec = drive::take_records(&mut bench.conns);
    let mut acked = warm.acked;
    acked.append(&mut rec.acked);
    acked.sort_by_key(|a| a.csn);
    let layer_rows = if args.trace {
        let input = layers::Input {
            seed: args.seed,
            rec: &rec,
            acked: &acked,
            before: &before,
            after: &after,
        };
        let (rows, replay_spans) = layers::measure(&input, &bench, epoch).map_err(e)?;
        spans.extend(replay_spans);
        Some(rows)
    } else {
        None
    };

    // correctness gates
    let mut mismatches = rec.mismatches.clone();
    mismatches.extend(warm.mismatches);
    let Bench {
        server,
        mut conns,
        kit,
        store,
        ..
    } = bench;
    if let Kit::Mixed { .. } = kit {
        mismatches.extend(setup::subscription_gate(&mut conns[1]).map_err(e)?);
    }
    drop(conns);
    match (&store, &kit) {
        (Some(store), Kit::Ingest { initial }) => {
            let acked = acked.iter().map(|a| a.batch.as_slice());
            mismatches.extend(setup::durability_gate(server, store, initial, acked).map_err(e)?);
        }
        (
            Some(store),
            Kit::Mixed {
                initial, commits, ..
            },
        ) => {
            let setup = commits.iter().map(|(_, b)| b.as_slice());
            let batches = setup.chain(acked.iter().map(|a| a.batch.as_slice()));
            mismatches.extend(setup::durability_gate(server, store, initial, batches).map_err(e)?);
        }
        _ => {
            server.shutdown().map_err(e)?;
        }
    }
    // only the removed store was in it
    let _ = std::fs::remove_dir(&scratch);
    let correct = mismatches.is_empty();
    for m in mismatches.iter().take(20) {
        println!("# GATE FAILED: {m}");
    }
    if correct {
        println!("# gates passed ({})", args.workload.name());
    }

    let secs = window.as_secs_f64();
    let mut e2e = e2e_metrics(&rec, secs);
    e2e.push(Metric::new(
        "error_rate",
        Some(rec.failed as f64 / rec.attempted.max(1) as f64),
        "ratio",
        format!("{} failed of {} attempted", rec.failed, rec.attempted),
    ));
    e2e.push(Metric::new(
        "setup_s",
        stats::median(&setup_s),
        "s",
        format!("median of {} set-ups: {:?}", setup_s.len(), setup_s),
    ));
    e2e.push(Metric::new(
        "peak_rss_mb",
        served_rss_mb,
        "MiB",
        format!(
            "VmHWM of this process after set-up; {} at the end",
            fmt_value(peak_rss_mb())
        ),
    ));
    print_metrics("end-to-end", &e2e);

    let metrics = match &layer_rows {
        Some(rows) => {
            layers::print_table(rows);
            let out = PathBuf::from(".hybench_out").join(format!(
                "spans-{}-{}.jsonl",
                args.workload.name(),
                args.seed
            ));
            spans.sort_by_key(|s| s.start_ns);
            trace::write_jsonl(&out, &spans).map_err(|e| e.to_string())?;
            println!("# {} spans written to {}", spans.len(), out.display());
            json_metrics(rows, &layers::PER_LAYER)?
        }
        None => json_metrics(&e2e, &END_TO_END)?,
    };
    Ok((correct, rec.attempted, rec.failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("hybench: {msg}");
            eprintln!("usage: hybench --workload <hybrid-read|ingest-durable|mixed-temporal> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // the benchmark measures the default configuration only
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("HYGRAPH_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!("hybench: unset {knobs:?}; the benchmark runs the default configuration");
        std::process::exit(2);
    }
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("hybench: {msg}");
            std::process::exit(1);
        }
    }
}
