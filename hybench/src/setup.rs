//! Per-workload set-up (dataset, server in its default configuration,
//! connections) and the correctness gates run after the timed window.

use crate::drive::{encoded, AsOfTargets, Conn, Role};
use crate::rng::Rng;
use crate::workload::{self, Ids, Query, ReaderStream, Workload};
use hygraph_core::HyGraph;
use hygraph_persist::{Durable, HgMutation, ShardedStore};
use hygraph_server::{Backend, Client, Engine, Server};
use hygraph_types::bytes::ByteWriter;
use hygraph_types::net::ServerConfig;
use hygraph_types::Result;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Client connections (and threads) of every workload: two, one per
/// core of the reference 2-core machine.
pub const CLIENTS: usize = 2;
/// `AS OF` targets of `mixed-temporal`: far more than the history's
/// 8-entry snapshot cache, so most reads reconstruct cold.
pub const SETUP_COMMITS: usize = 64;

/// What the gates and the traced replay need beyond the connections.
pub enum Kit {
    Hybrid {
        corpus: Arc<Vec<Query>>,
    },
    Ingest {
        /// The bulk-loaded state, before any acknowledged batch.
        initial: HyGraph,
    },
    Mixed {
        /// The bulk-loaded state when the engine started (the history
        /// base).
        initial: HyGraph,
        /// The set-up commits with their commit timestamps.
        commits: Vec<(i64, Vec<HgMutation>)>,
        asof: Arc<AsOfTargets>,
        live: Arc<Vec<Query>>,
    },
}

/// The on-disk store a durable workload serves.
pub struct Store {
    pub dir: PathBuf,
    pub shards: usize,
}

impl Store {
    /// Bulk-loads `hg` into a fresh sharded store at the configured shard
    /// count (every acknowledged commit fsynced, as shipped) and opens the
    /// default engine over it.
    fn create(dir: PathBuf, hg: HyGraph) -> Result<(Self, Engine)> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let shards = hygraph_types::shard::configured_shards();
        let store = ShardedStore::create(&dir, shards, hg)?;
        Ok((Store { dir, shards }, Engine::new(Backend::sharded(store))))
    }
}

pub struct Bench {
    pub server: Server,
    pub conns: Vec<Conn>,
    pub kit: Kit,
    /// Set for the workloads served from disk.
    pub store: Option<Store>,
    pub ids: Arc<Ids>,
    pub sizes: Vec<(&'static str, String)>,
}

pub fn state_bytes(hg: &HyGraph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    hg.encode_state(&mut w);
    w.into_bytes()
}

/// Serves `engine` on an ephemeral local port with every other setting
/// at its default.
fn serve(engine: Engine) -> Result<Server> {
    Server::serve_engine(engine, &ServerConfig::new().addr("127.0.0.1:0"))
}

fn connect(server: &Server) -> Result<Vec<Client>> {
    (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()))
        .collect()
}

pub fn setup(w: Workload, seed: u64, scratch: &Path) -> Result<Bench> {
    let ds = workload::dataset(w);
    let ids = Arc::new(ds.ids.clone());
    let (stations, days) = w.shape();
    let mut sizes = vec![
        ("stations", stations.to_string()),
        ("days", days.to_string()),
        ("trip_edges", ds.edges.to_string()),
        ("series_points", ds.points.to_string()),
        ("tick_ms", ids.tick_ms.to_string()),
    ];
    match w {
        Workload::HybridRead => {
            let corpus = Arc::new(workload::read_corpus(seed, stations, days));
            let expected = corpus
                .iter()
                .map(|q| hygraph_query::query(&ds.hg, &q.text).map(|r| encoded(&r)))
                .collect::<Result<Vec<_>>>()?;
            let expected = Arc::new(expected);
            sizes.push(("corpus_queries", corpus.len().to_string()));
            let server = serve(Engine::new(Backend::memory(ds.hg)))?;
            let conns = connect(&server)?
                .into_iter()
                .enumerate()
                .map(|(c, client)| {
                    let role = Role::Reader {
                        rng: Rng::derive(seed, 0x100 + c as u64),
                        corpus: Arc::clone(&corpus),
                        expected: Arc::clone(&expected),
                    };
                    Conn::new(client, role, c as u64 + 1)
                })
                .collect();
            Ok(Bench {
                server,
                conns,
                kit: Kit::Hybrid { corpus },
                store: None,
                ids,
                sizes,
            })
        }
        Workload::IngestDurable => {
            let (store, engine) = Store::create(scratch.join("store"), ds.hg.clone())?;
            let server = serve(engine)?;
            let conns = connect(&server)?
                .into_iter()
                .enumerate()
                .map(|(c, client)| {
                    let role = Role::Ingest {
                        stream: workload::ingest_stream(seed, &ids, c, CLIENTS),
                        rng: Rng::derive(seed, 0x200 + c as u64),
                        ids: Arc::clone(&ids),
                        n: 0,
                    };
                    Conn::new(client, role, c as u64 + 1)
                })
                .collect();
            Ok(Bench {
                server,
                conns,
                kit: Kit::Ingest { initial: ds.hg },
                store: Some(store),
                ids,
                sizes,
            })
        }
        Workload::MixedTemporal => {
            let (store, engine) = Store::create(scratch.join("store"), ds.hg.clone())?;
            let server = serve(engine)?;
            let mut stream = workload::mixed_stream(seed, &ids);
            let shapes = workload::asof_shapes(seed, stations);
            let mut answers = vec![Vec::with_capacity(SETUP_COMMITS); shapes.len()];
            let mut batches = Vec::with_capacity(SETUP_COMMITS);
            {
                // through the engine, with nothing else running, so each
                // live answer is the state of exactly that commit
                let local = server.local_client();
                for _ in 0..SETUP_COMMITS {
                    let batch = stream.mixed_batch(&ids);
                    local.mutate_batch(batch.clone())?;
                    batches.push(batch);
                    for (s, q) in shapes.iter().enumerate() {
                        answers[s].push(encoded(&local.query(&q.text)?));
                    }
                }
            }
            let ts = server
                .engine()
                .history_commit_timestamps()
                .expect("history is on in the default configuration");
            assert_eq!(ts.len(), SETUP_COMMITS, "every set-up commit is in history");
            let commits = ts.iter().copied().zip(batches).collect();
            let asof = Arc::new(AsOfTargets {
                shapes,
                ts,
                answers,
            });
            let live = Arc::new(workload::live_corpus(seed, days));
            sizes.push(("setup_commits", SETUP_COMMITS.to_string()));
            sizes.push(("live_corpus_queries", live.len().to_string()));
            let mut clients = connect(&server)?;
            let mut writer = clients.pop().expect("two connections");
            let reader = clients.pop().expect("two connections");
            let subs = workload::standing_queries()
                .into_iter()
                .map(|q| writer.subscribe(q.as_str()).map(|s| (q, s)))
                .collect::<Result<Vec<_>>>()?;
            sizes.push(("standing_queries", subs.len().to_string()));
            let conns = vec![
                Conn::new(
                    reader,
                    Role::MixedReader {
                        stream: ReaderStream::new(
                            seed,
                            live.len(),
                            asof.shapes.len(),
                            SETUP_COMMITS,
                        ),
                        live: Arc::clone(&live),
                        asof: Arc::clone(&asof),
                    },
                    1,
                ),
                Conn::new(
                    writer,
                    Role::MixedWriter {
                        stream,
                        ids: Arc::clone(&ids),
                        subs,
                    },
                    2,
                ),
            ];
            Ok(Bench {
                server,
                conns,
                kit: Kit::Mixed {
                    initial: ds.hg,
                    commits,
                    asof,
                    live,
                },
                store: Some(store),
                ids,
                sizes,
            })
        }
    }
}

impl Bench {
    /// Closes the connections, shuts the server down and removes any
    /// on-disk store — the end of a set-up repetition that is not run.
    pub fn discard(self) -> Result<()> {
        drop(self.conns);
        self.server.shutdown()?;
        if let Some(store) = &self.store {
            std::fs::remove_dir_all(&store.dir)?;
        }
        Ok(())
    }
}

/// Applies `batches` in order on top of `start`.
pub fn replay_all<'a>(
    start: &HyGraph,
    batches: impl IntoIterator<Item = &'a [HgMutation]>,
) -> Result<HyGraph> {
    let mut hg = start.clone();
    for batch in batches {
        for m in batch {
            hg.apply(m)?;
        }
    }
    Ok(hg)
}

/// Durable workloads: after shutdown, the store reopened from disk must
/// hold exactly `start` plus the acknowledged `batches`, in commit order.
/// Removes the store afterwards.
pub fn durability_gate<'a>(
    server: Server,
    store: &Store,
    start: &HyGraph,
    batches: impl IntoIterator<Item = &'a [HgMutation]>,
) -> Result<Vec<String>> {
    let report = server.shutdown()?;
    drop(report.backend);
    let reopened = ShardedStore::<HyGraph>::open(&store.dir, store.shards)?;
    let on_disk = reopened.state_bytes();
    drop(reopened);
    std::fs::remove_dir_all(&store.dir)?;
    let replayed = state_bytes(&replay_all(start, batches)?);
    Ok(if on_disk == replayed {
        Vec::new()
    } else {
        vec![format!(
            "reopened store ({} bytes) differs from a replay of the acknowledged batches ({} bytes)",
            on_disk.len(),
            replayed.len()
        )]
    })
}

/// `mixed-temporal`: once the pushes in flight have landed, every
/// standing query's client-side result must equal a fresh query.
pub fn subscription_gate(conn: &mut Conn) -> Result<Vec<String>> {
    let Role::MixedWriter { subs, .. } = &mut conn.role else {
        return Ok(Vec::new());
    };
    let client = &mut conn.client;
    while let Some((id, push)) = client.recv_push_timeout(std::time::Duration::from_millis(300))? {
        if let Some((_, s)) = subs.iter_mut().find(|(_, s)| s.id() == id) {
            s.apply(&push)?;
        }
    }
    let mut bad = Vec::new();
    for (text, sub) in subs.iter() {
        if encoded(sub.rows()) != encoded(&client.query(text.as_str())?) {
            bad.push(format!(
                "subscription result differs from a fresh query: {text}"
            ));
        }
        if let Some(reason) = sub.closed() {
            bad.push(format!("subscription closed: {reason}"));
        }
    }
    Ok(bad)
}
