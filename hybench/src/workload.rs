//! The three workloads' inputs, all derived from the workload seed: the
//! bike dataset, the HyQL corpora, and the mutation streams. Nothing
//! here talks to the server, so the streams can be checked for
//! determinism on their own.

use crate::rng::Rng;
use hygraph_core::{ElementRef, HyGraph};
use hygraph_datagen::bike::{self, BikeConfig, BikeDataset};
use hygraph_persist::HgMutation;
use hygraph_types::{
    props, Duration, Interval, Label, PropertyValue, SeriesId, Timestamp, Value, VertexId,
};

pub const DAY_MS: i64 = 86_400_000;
/// An upper time bound past every point any stream appends.
pub const FAR_MS: i64 = 10_000_000_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HybridRead,
    IngestDurable,
    MixedTemporal,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hybrid-read" => Some(Workload::HybridRead),
            "ingest-durable" => Some(Workload::IngestDurable),
            "mixed-temporal" => Some(Workload::MixedTemporal),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HybridRead => "hybrid-read",
            Workload::IngestDurable => "ingest-durable",
            Workload::MixedTemporal => "mixed-temporal",
        }
    }

    /// `(stations, days)` of the bike dataset: the paper's Table-1 shape
    /// for `hybrid-read`. `mixed-temporal` is smaller so one cold `AS OF`
    /// reconstruction costs milliseconds and a run collects many;
    /// `ingest-durable` too, so the default checkpoint interval rewrites
    /// a small state and fsync, not checkpoint bulk, sets its pace.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::HybridRead => (200, 30),
            Workload::IngestDurable | Workload::MixedTemporal => (50, 7),
        }
    }
}

/// The served bike dataset.
pub struct Dataset {
    pub hg: HyGraph,
    pub ids: Ids,
    pub edges: usize,
    pub points: usize,
}

/// What the streams address: per-station series ids and the time axis.
#[derive(Clone, Debug)]
pub struct Ids {
    pub availability: Vec<SeriesId>,
    pub docks: Vec<SeriesId>,
    /// One past the last sample of every series.
    pub end_ms: i64,
    pub tick_ms: i64,
    pub days: usize,
}

impl Ids {
    pub fn stations(&self) -> usize {
        self.availability.len()
    }
}

/// Generator seed of the bike dataset. The dataset is fixed, like the
/// paper's; the workload seed drives everything sent to the server, so
/// runs of different seeds differ in their requests, not in the data.
const DATASET_SEED: u64 = 42;

pub fn dataset(w: Workload) -> Dataset {
    let (stations, days) = w.shape();
    let ds: BikeDataset = bike::generate(BikeConfig {
        stations,
        days,
        tick: Duration::from_mins(5),
        avg_degree: 6,
        seed: DATASET_SEED,
    });
    let hg = ds.to_hygraph();
    let series = |key: &str| -> Vec<SeriesId> {
        ds.stations
            .iter()
            .map(|&v| {
                hg.props(ElementRef::Vertex(v))
                    .ok()
                    .and_then(|p| p.series_value(key))
                    .expect("every station carries both series")
            })
            .collect()
    };
    let availability = series("availability");
    let docks = series("docks");
    Dataset {
        edges: ds.graph.edge_count(),
        points: ds.points_per_station() * stations * 2,
        ids: Ids {
            availability,
            docks,
            end_ms: ds.end.millis(),
            tick_ms: ds.tick.millis(),
            days,
        },
        hg,
    }
}

/// A HyQL query of the corpus; `shape` names its Table-1 class.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    pub shape: &'static str,
    pub text: String,
    /// Whether the query has a series term (else it is pattern-only).
    pub series: bool,
}

fn station(i: usize) -> String {
    format!("station-{i}")
}

/// A random one-day window aligned to midnight.
fn day_window(rng: &mut Rng, days: usize) -> (i64, i64) {
    let d = rng.below(days) as i64;
    (d * DAY_MS, (d + 1) * DAY_MS)
}

/// The `hybrid-read` corpus: two seeded instances of each of eight
/// shapes in the Table-1 classes — pattern-only, series aggregates over
/// one day (chunk decode) and over the whole span (rollup), and
/// pattern + series predicate. Sixteen entries, under the engine's
/// 64-entry plan cache. Parameters vary in narrow bands, so a shape
/// costs about the same under every seed.
pub fn read_corpus(seed: u64, stations: usize, days: usize) -> Vec<Query> {
    let mut rng = Rng::derive(seed, 0xC0);
    let end = days as i64 * DAY_MS;
    let mut out = Vec::new();
    for _ in 0..2 {
        let th = rng.range(200, 250);
        let (a, b) = day_window(&mut rng, days);
        let s = station(rng.below(stations));
        let cap = rng.range(28, 32);
        let hub = rng.range(54, 57);
        let x = rng.range(10, 14);
        let q = |shape, series, text: String| Query {
            shape,
            text,
            series,
        };
        out.push(q(
            "trip_filter",
            false,
            format!(
                "MATCH (a:Station)-[t:TRIP]->(b:Station) WHERE t.trips > {th} RETURN COUNT(t) AS n"
            ),
        ));
        out.push(q(
            "reach2",
            false,
            format!(
                "MATCH (a:Station)-[*1..2]->(x) WHERE a.capacity > {hub} RETURN COUNT(x) AS reach"
            ),
        ));
        out.push(q(
            "trip_distinct",
            false,
            format!(
                "MATCH (a:Station)-[t:TRIP]->(b:Station) WHERE t.trips > {th} \
                 RETURN DISTINCT b.name AS name ORDER BY name LIMIT 20"
            ),
        ));
        out.push(q(
            "day_mean",
            true,
            format!(
                "MATCH (s:Station {{name: '{s}'}}) RETURN MEAN(s.availability IN [{a}, {b})) AS m"
            ),
        ));
        out.push(q(
            "day_peak_top",
            true,
            format!(
                "MATCH (s:Station) WHERE s.capacity > {cap} \
                 RETURN s.name AS name, MAX(s.docks IN [{a}, {b})) AS peak ORDER BY peak DESC, name LIMIT 5"
            ),
        ));
        out.push(q(
            "month_mean",
            true,
            format!(
                "MATCH (s:Station {{name: '{s}'}}) \
                 RETURN MEAN(s.availability IN [0, {end})) AS m, MIN(s.docks IN [0, {end})) AS lo"
            ),
        ));
        out.push(q(
            "month_filter",
            true,
            format!(
                "MATCH (s:Station) WHERE MEAN(s.availability IN [0, {end})) > {x} RETURN COUNT(s) AS n"
            ),
        ));
        out.push(trip_series(th, a, b, x));
    }
    out
}

/// The `mixed-temporal` reader's live queries: eight seeded instances of
/// the pattern + series-predicate shape. One shape keeps the live read
/// latency unimodal, so its median is not a mix of two cost classes.
pub fn live_corpus(seed: u64, days: usize) -> Vec<Query> {
    let mut rng = Rng::derive(seed, 0x11);
    (0..8)
        .map(|_| {
            let th = rng.range(200, 250);
            let (a, b) = day_window(&mut rng, days);
            let x = rng.range(10, 14);
            trip_series(th, a, b, x)
        })
        .collect()
}

fn trip_series(th: i64, a: i64, b: i64, x: i64) -> Query {
    Query {
        shape: "trip_series",
        text: format!(
            "MATCH (a:Station)-[t:TRIP]->(b:Station) \
             WHERE t.trips > {th} AND MAX(b.availability IN [{a}, {b})) > {x} \
             RETURN a.name AS src, COUNT(t) AS n ORDER BY n DESC, src LIMIT 10"
        ),
        series: true,
    }
}

/// A light live read: one station's capacity and its peak availability
/// over a seeded day.
pub fn light_read(rng: &mut Rng, stations: usize, days: usize) -> Query {
    let (a, b) = day_window(rng, days);
    let s = station(rng.below(stations));
    Query {
        shape: "light",
        text: format!(
            "MATCH (s:Station {{name: '{s}'}}) RETURN s.capacity AS c, MAX(s.availability IN [{a}, {b})) AS peak"
        ),
        series: true,
    }
}

/// Appends in series order: each owned station's two series advance one
/// tick per visit, so per-series timestamps stay strictly increasing no
/// matter how batches of different owners interleave.
pub struct AppendStream {
    rng: Rng,
    stations: Vec<usize>,
    next_t: Vec<i64>,
    cursor: usize,
    tick_ms: i64,
    pub batches: u64,
}

impl AppendStream {
    pub fn new(rng: Rng, stations: Vec<usize>, start_ms: i64, tick_ms: i64) -> Self {
        let next_t = vec![start_ms; stations.len()];
        AppendStream {
            rng,
            stations,
            next_t,
            cursor: 0,
            tick_ms,
            batches: 0,
        }
    }

    /// Both series of the next `n` owned stations, one new sample each.
    fn appends(&mut self, ids: &Ids, n: usize, out: &mut Vec<HgMutation>) {
        for _ in 0..n {
            let k = self.cursor % self.stations.len();
            self.cursor += 1;
            self.push(ids, k, out);
        }
    }

    fn push(&mut self, ids: &Ids, k: usize, out: &mut Vec<HgMutation>) {
        let s = self.stations[k];
        let t = Timestamp::from_millis(self.next_t[k]);
        self.next_t[k] += self.tick_ms;
        let bikes = 1 + self.rng.below(40) as i64;
        let free = 1 + self.rng.below(40) as i64;
        out.push(HgMutation::Append {
            series: ids.availability[s],
            t,
            row: vec![bikes as f64],
        });
        out.push(HgMutation::Append {
            series: ids.docks[s],
            t,
            row: vec![free as f64],
        });
    }

    /// A TRIP edge between two owned stations.
    fn trip(&mut self) -> HgMutation {
        // distinct endpoints: a self-loop would not change a TRIP count
        let n = self.stations.len();
        let ia = self.rng.below(n);
        let a = self.stations[ia];
        let b = self.stations[(ia + 1 + self.rng.below(n - 1)) % n];
        HgMutation::AddPgEdge {
            src: VertexId::from(a),
            dst: VertexId::from(b),
            labels: vec![Label::new("TRIP")],
            props: props! {"trips" => self.rng.range(1, 500)},
            validity: Interval::ALL,
        }
    }

    /// A new capacity on an owned station.
    fn capacity(&mut self) -> HgMutation {
        let s = self.stations[self.rng.below(self.stations.len())];
        HgMutation::SetProperty {
            el: ElementRef::Vertex(VertexId::from(s)),
            key: "capacity".to_owned(),
            value: PropertyValue::Static(Value::Int(self.rng.range(15, 60))),
        }
    }

    /// An `ingest-durable` batch: 16 appends (8 stations × 2 series);
    /// every 4th batch also adds a TRIP edge, alternating with a
    /// capacity write.
    pub fn ingest_batch(&mut self, ids: &Ids) -> Vec<HgMutation> {
        let mut b = Vec::with_capacity(17);
        self.appends(ids, 8, &mut b);
        self.batches += 1;
        if self.batches.is_multiple_of(4) {
            b.push(if self.batches.is_multiple_of(8) {
                self.capacity()
            } else {
                self.trip()
            });
        }
        b
    }

    /// A `mixed-temporal` batch: the two sentinel series (owned
    /// stations 0 and 1, always positive samples, so every standing
    /// query on them changes), 12 more appends, and every 8th batch a
    /// TRIP edge; every 16th batch a capacity write.
    pub fn mixed_batch(&mut self, ids: &Ids) -> Vec<HgMutation> {
        let mut b = Vec::with_capacity(18);
        self.push(ids, 0, &mut b);
        self.push(ids, 1, &mut b);
        self.appends(ids, 6, &mut b);
        self.batches += 1;
        if self.batches.is_multiple_of(8) {
            b.push(self.trip());
        }
        if self.batches.is_multiple_of(16) {
            b.push(self.capacity());
        }
        b
    }
}

/// `ingest-durable`: client `c` of `clients` owns every station whose
/// index is `c` mod `clients`.
pub fn ingest_stream(seed: u64, ids: &Ids, c: usize, clients: usize) -> AppendStream {
    let n = ids.availability.len();
    let own = (0..n).filter(|s| s % clients == c).collect();
    AppendStream::new(
        Rng::derive(seed, 0x1000 + c as u64),
        own,
        ids.end_ms,
        ids.tick_ms,
    )
}

/// `mixed-temporal`: one writer owns all stations; the set-up commits
/// and the timed writer continue one stream.
pub fn mixed_stream(seed: u64, ids: &Ids) -> AppendStream {
    let n = ids.availability.len();
    AppendStream::new(
        Rng::derive(seed, 0x2000),
        (0..n).collect(),
        ids.end_ms,
        ids.tick_ms,
    )
}

/// The `AS OF` shapes of `mixed-temporal`; each changes under some of
/// the writer's commits.
pub fn asof_shapes(seed: u64, stations: usize) -> Vec<Query> {
    let mut rng = Rng::derive(seed, 0xA5);
    let s = station(rng.below(stations));
    let cap = rng.range(20, 40);
    vec![
        Query {
            shape: "asof_trips",
            text: "MATCH (a:Station)-[t:TRIP]->(b:Station) RETURN COUNT(t) AS n".into(),
            series: false,
        },
        Query {
            shape: "asof_capacity",
            text: format!("MATCH (s:Station) WHERE s.capacity > {cap} RETURN COUNT(s) AS n"),
            series: false,
        },
        Query {
            shape: "asof_series",
            text: format!(
                "MATCH (s:Station {{name: '{s}'}}) \
                 RETURN COUNT(s.availability IN [0, {FAR_MS})) AS n, SUM(s.docks IN [0, {FAR_MS})) AS total"
            ),
            series: true,
        },
    ]
}

/// The standing queries the `mixed-temporal` writer holds: the first two
/// change on every batch (sentinel appends), the third on TRIP adds.
pub fn standing_queries() -> Vec<String> {
    vec![
        format!("MATCH (s:Station {{name: 'station-0'}}) RETURN SUM(s.availability IN [0, {FAR_MS})) AS total"),
        format!("MATCH (s:Station {{name: 'station-1'}}) RETURN SUM(s.docks IN [0, {FAR_MS})) AS total"),
        "MATCH (a:Station)-[t:TRIP]->(b:Station) RETURN COUNT(t) AS n".into(),
    ]
}

/// How many of [`standing_queries`] a batch changes.
pub fn expected_pushes(batch: &[HgMutation]) -> usize {
    2 + usize::from(
        batch
            .iter()
            .any(|m| matches!(m, HgMutation::AddPgEdge { .. })),
    )
}

/// One reader op of `mixed-temporal`.
#[derive(Clone, Debug, PartialEq)]
pub enum ReaderOp {
    Live(usize),
    /// `(shape, set-up commit)`.
    AsOf(usize, usize),
}

/// The `mixed-temporal` reader: one op in four is an `AS OF` read of a
/// seeded shape at a seeded set-up commit; the rest cycle the live
/// corpus.
pub struct ReaderStream {
    rng: Rng,
    live: usize,
    shapes: usize,
    commits: usize,
}

impl ReaderStream {
    pub fn new(seed: u64, live: usize, shapes: usize, commits: usize) -> Self {
        ReaderStream {
            rng: Rng::derive(seed, 0x3000),
            live,
            shapes,
            commits,
        }
    }

    pub fn next_op(&mut self) -> ReaderOp {
        if self.rng.below(4) == 0 {
            ReaderOp::AsOf(self.rng.below(self.shapes), self.rng.below(self.commits))
        } else {
            ReaderOp::Live(self.rng.below(self.live))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Dataset {
        // the stream logic only needs ids, so a small dataset suffices
        let ds = bike::generate(BikeConfig {
            stations: 12,
            days: 2,
            tick: Duration::from_mins(30),
            avg_degree: 3,
            seed,
        });
        let hg = ds.to_hygraph();
        let get = |v: &VertexId, k: &str| {
            hg.props(ElementRef::Vertex(*v))
                .unwrap()
                .series_value(k)
                .unwrap()
        };
        Dataset {
            ids: Ids {
                availability: ds.stations.iter().map(|v| get(v, "availability")).collect(),
                docks: ds.stations.iter().map(|v| get(v, "docks")).collect(),
                end_ms: ds.end.millis(),
                tick_ms: ds.tick.millis(),
                days: 2,
            },
            edges: 0,
            points: 0,
            hg,
        }
    }

    fn ingest_ops(seed: u64, ids: &Ids) -> Vec<Vec<HgMutation>> {
        let mut out = Vec::new();
        for c in 0..2 {
            let mut s = ingest_stream(seed, ids, c, 2);
            out.extend((0..40).map(|_| s.ingest_batch(ids)));
        }
        out
    }

    fn mixed_ops(seed: u64, ids: &Ids) -> (Vec<Vec<HgMutation>>, Vec<ReaderOp>) {
        let mut w = mixed_stream(seed, ids);
        let mut r = ReaderStream::new(seed, 8, 3, 64);
        (
            (0..40).map(|_| w.mixed_batch(ids)).collect(),
            (0..200).map(|_| r.next_op()).collect(),
        )
    }

    #[test]
    fn same_seed_same_streams_other_seed_other_streams() {
        let ds = small(1);
        assert_eq!(read_corpus(7, 200, 30), read_corpus(7, 200, 30));
        assert_ne!(read_corpus(7, 200, 30), read_corpus(8, 200, 30));
        assert_eq!(asof_shapes(7, 50), asof_shapes(7, 50));
        let ids = &ds.ids;
        assert_eq!(ingest_ops(7, ids), ingest_ops(7, ids));
        assert_ne!(ingest_ops(7, ids), ingest_ops(8, ids));
        assert_eq!(mixed_ops(7, ids), mixed_ops(7, ids));
        assert_ne!(mixed_ops(7, ids).0, mixed_ops(8, ids).0);
        assert_ne!(mixed_ops(7, ids).1, mixed_ops(8, ids).1);
    }

    #[test]
    fn corpus_fits_the_plan_cache() {
        let c = read_corpus(3, 200, 30);
        assert!(c.len() <= 16);
        for q in &c {
            hygraph_query::parser::parse(&q.text).expect("corpus parses");
        }
    }

    #[test]
    fn streams_apply_in_order_and_change_every_standing_query() {
        use hygraph_persist::Durable;
        let ds = small(5);
        let mut hg = ds.hg.clone();
        let mut streams: Vec<_> = (0..2).map(|c| ingest_stream(5, &ds.ids, c, 2)).collect();
        for i in 0..30 {
            for m in streams[i % 2].ingest_batch(&ds.ids) {
                hg.apply(&m)
                    .expect("ingest batches apply in any client interleaving");
            }
        }
        let mut w = mixed_stream(5, &ds.ids);
        let mut hg = ds.hg.clone();
        let subs = standing_queries();
        let mut last: Vec<_> = subs
            .iter()
            .map(|q| hygraph_query::query(&hg, q).unwrap())
            .collect();
        for _ in 0..24 {
            let batch = w.mixed_batch(&ds.ids);
            for m in &batch {
                hg.apply(m).expect("mixed batches apply");
            }
            let now: Vec<_> = subs
                .iter()
                .map(|q| hygraph_query::query(&hg, q).unwrap())
                .collect();
            let changed = now.iter().zip(&last).filter(|(a, b)| a != b).count();
            assert_eq!(changed, expected_pushes(&batch));
            last = now;
        }
    }
}
