//! The closed-loop clients: each owns one TCP connection and sends its
//! next request only after the previous reply (and, for the subscribing
//! writer, the pushes it caused) arrived.

use crate::rng::Rng;
use crate::stats::Samples;
use crate::trace::{Span, Tracer};
use crate::workload::{self, AppendStream, Ids, Query, ReaderOp, ReaderStream};
use hygraph_persist::HgMutation;
use hygraph_query::QueryResult;
use hygraph_server::{Client, Push, Subscription};
use hygraph_types::bytes::ByteWriter;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the subscribing writer waits for a commit's pushes before
/// the run fails.
const PUSH_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Read = 0,
    Write = 1,
    AsOf = 2,
    Push = 3,
}

pub const KINDS: [Kind; 4] = [Kind::Read, Kind::Write, Kind::AsOf, Kind::Push];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::AsOf => "asof",
            Kind::Push => "push",
        }
    }
}

pub fn encoded(r: &QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

/// A batch the server acknowledged, with the commit sequence number
/// that orders it among every client's batches.
#[derive(Clone, Debug)]
pub struct Acked {
    pub csn: u64,
    pub op: u64,
    pub batch: Vec<HgMutation>,
    /// Acknowledged inside the traced window.
    pub traced: bool,
}

/// What one client saw in one phase.
#[derive(Default)]
pub struct Record {
    /// In a traced window: the ops that recorded a span, and the ones
    /// that did not (the tracing-overhead baseline).
    pub spanned: Samples,
    pub unspanned: Samples,
    /// Every completed op: `(seconds into the window, kind, ms)`.
    pub done: Vec<(f64, Kind, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Rows returned by query replies.
    pub rows: u64,
    /// Traced reads: `(op, text)`.
    pub reads: Vec<(u64, String)>,
    /// Traced `AS OF` reads: `(op, shape, set-up commit)`.
    pub asofs: Vec<(u64, usize, usize)>,
    pub acked: Vec<Acked>,
}

impl Record {
    pub fn merge(&mut self, o: Record) {
        self.done.extend(o.done);
        self.spanned.extend(o.spanned);
        self.unspanned.extend(o.unspanned);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches.extend(o.mismatches);
        self.rows += o.rows;
        self.reads.extend(o.reads);
        self.asofs.extend(o.asofs);
        self.acked.extend(o.acked);
    }

    /// Latencies of the completed ops whose kind passes `keep`.
    pub fn samples(&self, keep: impl Fn(Kind) -> bool) -> Samples {
        self.done
            .iter()
            .filter(|e| keep(e.1))
            .map(|e| e.2)
            .collect()
    }
}

/// The reference answers of `mixed-temporal`'s `AS OF` reads.
pub struct AsOfTargets {
    pub shapes: Vec<Query>,
    /// Commit timestamp of each set-up commit.
    pub ts: Vec<i64>,
    /// `answers[shape][commit]`: the encoded answer right after the commit.
    pub answers: Vec<Vec<Vec<u8>>>,
}

pub enum Role {
    /// `hybrid-read`: seeded draws from the corpus, each reply checked
    /// against its in-process answer.
    Reader {
        rng: Rng,
        corpus: Arc<Vec<Query>>,
        expected: Arc<Vec<Vec<u8>>>,
    },
    /// `ingest-durable`: nine append batches, then one light read.
    Ingest {
        stream: AppendStream,
        rng: Rng,
        ids: Arc<Ids>,
        n: u64,
    },
    /// `mixed-temporal` connection A.
    MixedReader {
        stream: ReaderStream,
        live: Arc<Vec<Query>>,
        asof: Arc<AsOfTargets>,
    },
    /// `mixed-temporal` connection B, holding the standing queries.
    MixedWriter {
        stream: AppendStream,
        ids: Arc<Ids>,
        subs: Vec<(String, Subscription)>,
    },
}

/// Where a step's latency and outcome go.
struct Ctx<'a> {
    rec: &'a mut Record,
    op: u64,
    timed: bool,
    /// When the phase started.
    start: Instant,
    /// Inside the traced window (whether or not this op records spans).
    traced: bool,
    /// Set when this op records spans.
    tr: Option<&'a mut Tracer>,
}

impl Ctx<'_> {
    fn begin(&mut self, name: &'static str) -> Option<u64> {
        let op = self.op;
        self.tr.as_mut().map(|t| t.begin(name, op, None))
    }

    fn end(&mut self, span: Option<u64>) {
        if let (Some(t), Some(id)) = (self.tr.as_mut(), span) {
            t.end(id);
        }
    }

    fn done(&mut self, kind: Kind, ms: f64) {
        if self.timed {
            self.rec
                .done
                .push((self.start.elapsed().as_secs_f64(), kind, ms));
            if kind != Kind::Push && self.traced {
                match self.tr {
                    Some(_) => self.rec.spanned.push(ms),
                    None => self.rec.unspanned.push(ms),
                }
            }
        }
    }

    fn attempt(&mut self, failed: bool) {
        if self.timed {
            self.rec.attempted += 1;
            self.rec.failed += u64::from(failed);
        }
    }

    fn tracing(&self) -> bool {
        self.timed && self.traced
    }
}

/// A live read; the reply is returned for the caller to check.
fn live_read(c: &mut Client, cx: &mut Ctx<'_>, text: &str) -> Option<QueryResult> {
    let span = cx.begin("op.read");
    let t0 = Instant::now();
    let res = c.query(text);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    cx.end(span);
    cx.attempt(res.is_err());
    if cx.tracing() {
        cx.rec.reads.push((cx.op, text.to_owned()));
    }
    let r = res.ok()?;
    cx.done(Kind::Read, ms);
    cx.rec.rows += r.rows.len() as u64;
    Some(r)
}

/// Commits `batch`; records it as acknowledged on success.
fn commit(c: &mut Client, cx: &mut Ctx<'_>, batch: Vec<HgMutation>) -> Option<Instant> {
    let span = cx.begin("op.write");
    let t0 = Instant::now();
    let res = c.mutate_batch(batch.clone());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    cx.end(span);
    cx.attempt(res.is_err());
    let (csn, count) = res.ok()?;
    if count != batch.len() as u64 {
        cx.rec.mismatches.push(format!(
            "commit acknowledged {count} of {} mutations",
            batch.len()
        ));
    }
    cx.done(Kind::Write, ms);
    let traced = cx.tracing();
    cx.rec.acked.push(Acked {
        csn,
        op: cx.op,
        batch,
        traced,
    });
    Some(t0)
}

impl Role {
    fn step(&mut self, c: &mut Client, cx: &mut Ctx<'_>) {
        match self {
            Role::Reader {
                rng,
                corpus,
                expected,
            } => {
                let i = rng.below(corpus.len());
                if let Some(r) = live_read(c, cx, &corpus[i].text) {
                    if encoded(&r) != expected[i] {
                        cx.rec.mismatches.push(format!(
                            "reply differs from set-up answer: {}",
                            corpus[i].text
                        ));
                    }
                }
            }
            Role::Ingest {
                stream,
                rng,
                ids,
                n,
            } => {
                *n += 1;
                if *n % 10 == 0 {
                    let q = workload::light_read(rng, ids.stations(), ids.days);
                    live_read(c, cx, &q.text);
                } else {
                    let batch = stream.ingest_batch(ids);
                    commit(c, cx, batch);
                }
            }
            Role::MixedReader { stream, live, asof } => match stream.next_op() {
                ReaderOp::Live(i) => {
                    live_read(c, cx, &live[i].text);
                }
                ReaderOp::AsOf(s, k) => {
                    let span = cx.begin("op.asof");
                    let t0 = Instant::now();
                    let res = c.query_as_of(asof.shapes[s].text.as_str(), asof.ts[k]);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    cx.end(span);
                    cx.attempt(res.is_err());
                    if cx.tracing() {
                        cx.rec.asofs.push((cx.op, s, k));
                    }
                    if let Ok(r) = res {
                        cx.done(Kind::AsOf, ms);
                        cx.rec.rows += r.rows.len() as u64;
                        if encoded(&r) != asof.answers[s][k] {
                            cx.rec.mismatches.push(format!(
                                "AS OF commit {k} differs from its set-up answer: {}",
                                asof.shapes[s].text
                            ));
                        }
                    }
                }
            },
            Role::MixedWriter { stream, ids, subs } => {
                let batch = stream.mixed_batch(ids);
                let mut need: Vec<u64> = subs
                    .iter()
                    .take(workload::expected_pushes(&batch))
                    .map(|(_, s)| s.id())
                    .collect();
                let Some(t0) = commit(c, cx, batch) else {
                    return;
                };
                let span = cx.begin("op.push_wait");
                while !need.is_empty() {
                    let left = PUSH_TIMEOUT.saturating_sub(t0.elapsed());
                    let Ok(Some((id, push))) = c.recv_push_timeout(left) else {
                        cx.rec
                            .mismatches
                            .push(format!("pushes for subscriptions {need:?} never arrived"));
                        break;
                    };
                    if let Push::Closed { reason } = &push {
                        cx.rec
                            .mismatches
                            .push(format!("subscription {id} closed: {reason}"));
                    }
                    if let Some((_, sub)) = subs.iter_mut().find(|(_, s)| s.id() == id) {
                        if sub.apply(&push).is_err() {
                            cx.rec
                                .mismatches
                                .push(format!("delta for {id} does not apply"));
                        }
                    }
                    // an empty delta is not the change this commit made
                    if matches!(&push, Push::Delta(d) if !d.is_empty()) {
                        need.retain(|&n| n != id);
                    }
                }
                cx.end(span);
                cx.done(Kind::Push, t0.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
}

/// One client: its connection, its op source and what it recorded.
pub struct Conn {
    pub client: Client,
    pub role: Role,
    pub rec: Record,
    tag: u64,
    seq: u64,
}

impl Conn {
    pub fn new(client: Client, role: Role, tag: u64) -> Self {
        Conn {
            client,
            role,
            rec: Record::default(),
            tag,
            seq: 0,
        }
    }
}

/// Runs every connection closed-loop on its own thread for `dur`.
/// `timed` phases record latencies and attempts. With `trace` set, the
/// phase is the traced window: every other op records a span, and the
/// rest give the untraced baseline from the same interval. Returns the
/// spans.
pub fn run_phase(
    conns: &mut [Conn],
    dur: Duration,
    timed: bool,
    trace: Option<Instant>,
) -> Vec<Span> {
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let mut tr = trace.map(|epoch| Tracer::new(epoch, conn.tag));
                    let start = Instant::now();
                    let deadline = start + dur;
                    while Instant::now() < deadline {
                        conn.seq += 1;
                        let mut cx = Ctx {
                            rec: &mut conn.rec,
                            op: (conn.tag << 32) | conn.seq,
                            timed,
                            start,
                            traced: tr.is_some(),
                            tr: tr.as_mut().filter(|_| conn.seq % 2 == 1),
                        };
                        conn.role.step(&mut conn.client, &mut cx);
                    }
                    tr.map(Tracer::into_spans).unwrap_or_default()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Takes every connection's record, merged.
pub fn take_records(conns: &mut [Conn]) -> Record {
    let mut all = Record::default();
    for c in conns {
        all.merge(std::mem::take(&mut c.rec));
    }
    all
}
