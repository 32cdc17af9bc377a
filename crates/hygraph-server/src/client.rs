//! Clients: a blocking TCP [`Client`] speaking the wire protocol, and
//! an in-process [`LocalClient`] that shares a server's engine directly
//! (same locks, same execution paths, no sockets).
//!
//! The TCP client supports pipelining: [`Client::send`] returns the
//! request id immediately, [`Client::recv`] returns the next response
//! off the wire, and [`Client::call`] does a full round trip, holding
//! out-of-order responses aside until the matching id arrives.

use crate::engine::Engine;
use crate::proto::{Push, Request, Response};
use hygraph_persist::HgMutation;
use hygraph_query::incremental::apply_delta;
use hygraph_query::QueryResult;
use hygraph_types::net::{self, Frame, FrameRead, DEFAULT_MAX_FRAME_BYTES};
use hygraph_types::{HyGraphError, Result};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A standing query as the client sees it: the server-assigned id plus
/// a local materialisation of the result, advanced by applying each
/// [`Push`] the server sends for this id (in arrival order).
#[derive(Clone, Debug)]
pub struct Subscription {
    id: u64,
    snapshot: QueryResult,
    closed: Option<String>,
}

impl Subscription {
    /// The server-assigned subscription id ([`Push`] frames carry it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The locally maintained result — after applying every push for
    /// this id, byte-identical to re-running the query server-side.
    pub fn rows(&self) -> &QueryResult {
        &self.snapshot
    }

    /// Why the server dropped this subscription, once it has.
    pub fn closed(&self) -> Option<&str> {
        self.closed.as_deref()
    }

    /// Advances the local result by one push frame.
    pub fn apply(&mut self, push: &Push) -> Result<()> {
        match push {
            Push::Delta(d) => apply_delta(&mut self.snapshot, d),
            Push::Closed { reason } => {
                self.closed = Some(reason.clone());
                Ok(())
            }
        }
    }
}

/// `HYGRAPH_CLIENT_PING_MS`: idle keepalive interval for subscription
/// connections (`0`/unset disables).
fn ping_every_from_env() -> Option<Duration> {
    let ms: u64 = std::env::var("HYGRAPH_CLIENT_PING_MS")
        .ok()?
        .trim()
        .parse()
        .ok()?;
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// A blocking TCP client for the HyGraph wire protocol.
///
/// ```
/// use hygraph_server::{Backend, Client, Server};
/// use hygraph_types::net::ServerConfig;
///
/// let server = Server::serve(
///     Backend::memory(hygraph_core::HyGraph::new()),
///     &ServerConfig::new().addr("127.0.0.1:0").workers(2),
/// )?;
///
/// let mut client = Client::connect(server.local_addr())?;
/// client.ping()?;
/// let rows = client.query("MATCH (n) RETURN COUNT(n) AS n")?;
/// assert_eq!(rows.columns, vec!["n"]);
/// let stats = client.stats()?; // the server's observability snapshot
/// assert!(stats.server.admitted >= 3);
///
/// server.shutdown()?;
/// # Ok::<(), hygraph_types::HyGraphError>(())
/// ```
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    max_frame_bytes: usize,
    /// Responses read while waiting for a different request id.
    pending: HashMap<u64, Response>,
    /// Unsolicited push frames read while waiting for a reply, in
    /// arrival order (the order deltas must be applied in).
    pushes: VecDeque<(u64, Push)>,
    /// Idle keepalive interval (`HYGRAPH_CLIENT_PING_MS`); pings are
    /// only issued from the push-waiting paths, where a connection can
    /// sit idle indefinitely.
    ping_every: Option<Duration>,
    /// Request ids of in-flight keepalive pings; their pongs are
    /// swallowed so they never surface as someone else's reply.
    keepalive_ids: HashSet<u64>,
    /// Last time a frame crossed this connection in either direction.
    last_io: Instant,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Self {
            stream,
            next_id: 1,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            pending: HashMap::new(),
            pushes: VecDeque::new(),
            ping_every: ping_every_from_env(),
            keepalive_ids: HashSet::new(),
            last_io: Instant::now(),
        })
    }

    /// Overrides the frame-size limit (must match the server's to make
    /// use of a raised limit).
    pub fn max_frame_bytes(mut self, n: usize) -> Self {
        self.max_frame_bytes = n;
        self
    }

    /// Overrides the idle keepalive interval (`0` disables), normally
    /// taken from `HYGRAPH_CLIENT_PING_MS` at connect time.
    pub fn ping_every_ms(mut self, ms: u64) -> Self {
        self.ping_every = (ms > 0).then(|| Duration::from_millis(ms));
        self
    }

    /// Sends a request without waiting for its response; returns the
    /// request id to match against [`Client::recv`]. This is the
    /// pipelining half — a load generator can keep several ids in
    /// flight per connection.
    pub fn send(&mut self, req: &Request) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = req.to_frame(id);
        net::write_frame(&mut self.stream, &frame, self.max_frame_bytes)?;
        self.last_io = Instant::now();
        Ok(id)
    }

    /// Reads one frame, mapping stream-level conditions to errors.
    fn read_frame(&mut self) -> Result<Frame> {
        match net::read_frame(&mut self.stream, self.max_frame_bytes)? {
            FrameRead::Frame(frame) => {
                self.last_io = Instant::now();
                Ok(frame)
            }
            FrameRead::Eof => Err(HyGraphError::unavailable(
                "connection closed by server".to_owned(),
            )),
            FrameRead::Corrupt(msg) => Err(HyGraphError::corrupt(format!(
                "response frame corrupt: {msg}"
            ))),
        }
    }

    /// Classifies one frame: push frames land in the push queue (and
    /// return `None`), keepalive pongs are swallowed, everything else is
    /// the `(id, response)` a reply-waiter wants.
    fn classify(&mut self, frame: Frame) -> Result<Option<(u64, Response)>> {
        if Push::is_push_kind(frame.kind) {
            let (sub_id, push) = Push::from_frame(&frame)?;
            self.pushes.push_back((sub_id, push));
            return Ok(None);
        }
        let id = frame.request_id;
        let resp = Response::from_frame(&frame)?;
        if self.keepalive_ids.remove(&id) {
            return Ok(None);
        }
        Ok(Some((id, resp)))
    }

    /// Receives the next *response* off the wire as `(request_id,
    /// response)`. Responses may arrive in any order relative to sends;
    /// unsolicited push frames encountered on the way are queued for
    /// [`Client::recv_push`] — a subscription connection is therefore
    /// NOT fifo at the frame level, and correlation happens by id and
    /// kind, never by arrival position.
    pub fn recv(&mut self) -> Result<(u64, Response)> {
        loop {
            let frame = self.read_frame()?;
            if let Some(pair) = self.classify(frame)? {
                return Ok(pair);
            }
        }
    }

    /// Full round trip: send, then receive until the matching response
    /// arrives. Out-of-order responses for other in-flight ids are held
    /// aside for their own `call`/`recv_for`. A connection-level error
    /// (request id 0, e.g. a frame the server could not CRC-verify)
    /// surfaces immediately — its real id is unknowable.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        let id = self.send(req)?;
        self.recv_for(id)
    }

    /// Receives until the response for `id` arrives (see
    /// [`Client::call`]).
    pub fn recv_for(&mut self, id: u64) -> Result<Response> {
        if let Some(resp) = self.pending.remove(&id) {
            return Ok(resp);
        }
        loop {
            let (got, resp) = self.recv()?;
            if got == id {
                return Ok(resp);
            }
            if got == 0 {
                return resp
                    .into_result()
                    .map(|_| unreachable!("id-0 frames are always connection-level errors"));
            }
            self.pending.insert(got, resp);
        }
    }

    fn expect<T>(
        &mut self,
        req: &Request,
        extract: impl FnOnce(Response) -> Option<T>,
    ) -> Result<T> {
        let resp = self.call(req)?.into_result()?;
        let kind = resp.kind();
        extract(resp).ok_or_else(|| {
            HyGraphError::corrupt(format!("unexpected response kind {kind} for request"))
        })
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.expect(&Request::Ping, |r| {
            matches!(r, Response::Pong).then_some(())
        })
    }

    /// Executes a HyQL query and returns its rows.
    pub fn query(&mut self, text: impl Into<String>) -> Result<QueryResult> {
        self.expect(&Request::Query(text.into()), |r| match r {
            Response::Rows(rows) => Some(rows),
            _ => None,
        })
    }

    /// Executes a HyQL query pinned to the server's state as of
    /// `as_of_ms` (epoch milliseconds of transaction time) — time
    /// travel without splicing `AS OF` into the query text. Errors if
    /// the text already carries a temporal bound or the server keeps no
    /// history (`HYGRAPH_HISTORY=0`).
    pub fn query_as_of(&mut self, text: impl Into<String>, as_of_ms: i64) -> Result<QueryResult> {
        let req = Request::QueryAsOf {
            text: text.into(),
            as_of_ms,
        };
        self.expect(&req, |r| match r {
            Response::Rows(rows) => Some(rows),
            _ => None,
        })
    }

    /// Commits one mutation; returns `(lsn, 1)`.
    pub fn mutate(&mut self, m: HgMutation) -> Result<(u64, u64)> {
        self.expect(&Request::Mutate(m), |r| match r {
            Response::Committed { first_lsn, count } => Some((first_lsn, count)),
            _ => None,
        })
    }

    /// Group-commits a batch; returns `(first_lsn, count)`.
    pub fn mutate_batch(&mut self, ms: Vec<HgMutation>) -> Result<(u64, u64)> {
        self.expect(&Request::MutateBatch(ms), |r| match r {
            Response::Committed { first_lsn, count } => Some((first_lsn, count)),
            _ => None,
        })
    }

    /// Forces a checkpoint; returns its LSN.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.expect(&Request::Checkpoint, |r| match r {
            Response::CheckpointDone { lsn } => Some(lsn),
            _ => None,
        })
    }

    /// Parks a server worker for `ms` milliseconds (capped server-side
    /// at [`crate::proto::MAX_SLEEP_MS`]). Load tests use this to
    /// saturate the pool deterministically.
    pub fn sleep(&mut self, ms: u64) -> Result<()> {
        self.expect(&Request::Sleep(ms), |r| {
            matches!(r, Response::Pong).then_some(())
        })
    }

    /// Fetches the server's observability snapshot (counters, latency
    /// histograms, slow-query log). All zeros when the server runs with
    /// metrics disabled.
    pub fn stats(&mut self) -> Result<hygraph_metrics::Snapshot> {
        self.expect(&Request::Stats, |r| match r {
            Response::Stats(snap) => Some(*snap),
            _ => None,
        })
    }

    /// Registers the HyQL text as a standing query on this connection.
    /// The returned [`Subscription`] holds the initial result; feed it
    /// every [`Client::recv_push`] frame carrying its id (via
    /// [`Subscription::apply`]) to track the server.
    pub fn subscribe(&mut self, text: impl Into<String>) -> Result<Subscription> {
        self.expect(&Request::Subscribe(text.into()), |r| match r {
            Response::Subscribed { sub_id, snapshot } => Some(Subscription {
                id: sub_id,
                snapshot,
                closed: None,
            }),
            _ => None,
        })
    }

    /// Removes a standing query; returns whether the id was registered
    /// on this connection. Pushes already in flight for it may still
    /// arrive afterwards and can be discarded.
    pub fn unsubscribe(&mut self, sub_id: u64) -> Result<bool> {
        self.expect(&Request::Unsubscribe { sub_id }, |r| match r {
            Response::Unsubscribed { existed } => Some(existed),
            _ => None,
        })
    }

    /// Issues a tracked keepalive ping if the connection has sat idle
    /// past `HYGRAPH_CLIENT_PING_MS`. The pong is swallowed by
    /// [`Client::classify`], so keepalives are invisible to reply
    /// correlation.
    fn maybe_keepalive(&mut self) -> Result<()> {
        if let Some(every) = self.ping_every {
            if self.last_io.elapsed() >= every {
                let id = self.send(&Request::Ping)?;
                self.keepalive_ids.insert(id);
            }
        }
        Ok(())
    }

    /// Reads and classifies one frame if any data arrives within
    /// `timeout` (`None` blocks). Returns whether a frame was consumed.
    /// Responses for other requests are held in `pending`; a
    /// connection-level (id 0) error surfaces immediately.
    fn pump_one(&mut self, timeout: Option<Duration>) -> Result<bool> {
        if let Some(d) = timeout {
            // a peek under a read timeout: the frame itself is then read
            // blocking, so a frame is consumed whole or not at all
            self.stream
                .set_read_timeout(Some(d.max(Duration::from_millis(1))))?;
            let mut probe = [0u8; 1];
            let peeked = self.stream.peek(&mut probe);
            self.stream.set_read_timeout(None)?;
            match peeked {
                Ok(0) => {
                    return Err(HyGraphError::unavailable(
                        "connection closed by server".to_owned(),
                    ))
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(e.into()),
            }
        }
        let frame = self.read_frame()?;
        if let Some((id, resp)) = self.classify(frame)? {
            if id == 0 {
                // connection-level error; its real request is unknowable
                resp.into_result()?;
                return Ok(true);
            }
            self.pending.insert(id, resp);
        }
        Ok(true)
    }

    /// Waits up to `timeout` for the next unsolicited push frame,
    /// returning `Ok(None)` on expiry. Replies to in-flight requests
    /// read along the way stay available to their own
    /// [`Client::recv_for`]. Idle keepalive pings
    /// (`HYGRAPH_CLIENT_PING_MS`) are issued from here.
    pub fn recv_push_timeout(&mut self, timeout: Duration) -> Result<Option<(u64, Push)>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.pushes.pop_front() {
                return Ok(Some(p));
            }
            self.maybe_keepalive()?;
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return Ok(None);
            };
            if left.is_zero() {
                return Ok(None);
            }
            // wake at least once per ping interval so long waits still
            // emit keepalives
            let slice = match self.ping_every {
                Some(every) => left.min(every),
                None => left,
            };
            self.pump_one(Some(slice))?;
        }
    }

    /// Blocks until the next unsolicited push frame arrives (issuing
    /// idle keepalives along the way when configured).
    pub fn recv_push(&mut self) -> Result<(u64, Push)> {
        loop {
            let slice = self.ping_every.unwrap_or(Duration::from_millis(500));
            if let Some(p) = self.recv_push_timeout(slice)? {
                return Ok(p);
            }
        }
    }

    /// Closes the connection (dropping the client does the same).
    pub fn close(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.stream.peer_addr().ok())
            .field("next_id", &self.next_id)
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// An in-process client over a shared [`Engine`] — the zero-copy
/// baseline the integration tests compare served results against, and
/// the way embedded callers reach a running server's state without a
/// socket.
///
/// ```
/// use hygraph_server::{Backend, Server};
/// use hygraph_types::net::ServerConfig;
///
/// let server = Server::serve(
///     Backend::memory(hygraph_core::HyGraph::new()),
///     &ServerConfig::new().addr("127.0.0.1:0").workers(2),
/// )?;
///
/// // same engine, same locks, no socket
/// let local = server.local_client();
/// let rows = local.query("MATCH (n) RETURN COUNT(n) AS n")?;
/// assert_eq!(rows.rows[0][0], hygraph_types::Value::Int(0));
/// local.with_graph(|hg| assert_eq!(hg.vertex_count(), 0));
///
/// // the engine is still shared, so shutdown hands back no backend
/// assert!(server.shutdown()?.backend.is_none());
/// # Ok::<(), hygraph_types::HyGraphError>(())
/// ```
///
/// A multi-shard engine serves the same API with snapshot reads:
/// queries pin the latest published epoch (never blocking behind a
/// writer) and answer byte-identically to a single-shard engine.
///
/// ```
/// use hygraph_persist::HgMutation;
/// use hygraph_server::{Backend, Engine, LocalClient};
/// use hygraph_types::{Interval, Label, PropertyMap};
/// use std::sync::Arc;
///
/// let engine = Engine::new(Backend::memory(hygraph_core::HyGraph::new()))
///     .with_shards(4); // pin the partitioning regardless of HYGRAPH_SHARDS
/// assert_eq!(engine.shards(), 4);
///
/// let local = LocalClient::new(Arc::new(engine));
/// local.mutate_batch(vec![
///     HgMutation::AddPgVertex {
///         labels: vec![Label::new("Station")],
///         props: PropertyMap::new(),
///         validity: Interval::ALL,
///     };
///     3
/// ])?;
/// let rows = local.query("MATCH (s:Station) RETURN COUNT(s) AS n")?;
/// assert_eq!(rows.rows[0][0], hygraph_types::Value::Int(3));
/// # Ok::<(), hygraph_types::HyGraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct LocalClient {
    engine: Arc<Engine>,
}

impl LocalClient {
    /// A client over `engine` (see [`crate::Server::local_client`]).
    pub fn new(engine: Arc<Engine>) -> Self {
        Self { engine }
    }

    /// Executes a HyQL query under the engine's read lock.
    pub fn query(&self, text: &str) -> Result<QueryResult> {
        self.engine.query(text)
    }

    /// [`LocalClient::query`] pinned to the state as of `as_of_ms`
    /// (epoch milliseconds of transaction time).
    pub fn query_as_of(&self, text: &str, as_of_ms: i64) -> Result<QueryResult> {
        self.engine.query_as_of(text, as_of_ms)
    }

    /// Commits a batch of mutations; returns `(first_lsn, count)`.
    pub fn mutate_batch(&self, ms: Vec<HgMutation>) -> Result<(u64, u64)> {
        self.engine.mutate_batch(ms)
    }

    /// Forces a checkpoint; returns its LSN.
    pub fn checkpoint(&self) -> Result<u64> {
        self.engine.checkpoint()
    }

    /// Runs `f` against the live graph under the read lock.
    pub fn with_graph<R>(&self, f: impl FnOnce(&hygraph_core::HyGraph) -> R) -> R {
        self.engine.with_graph(f)
    }

    /// The observability snapshot, exactly as [`Client::stats`] would
    /// see it over the wire (all zeros when metrics are disabled).
    pub fn stats(&self) -> hygraph_metrics::Snapshot {
        hygraph_metrics::snapshot().unwrap_or_default()
    }

    /// Executes one protocol request exactly as a worker would (minus
    /// the queue and deadline).
    pub fn handle(&self, req: &Request) -> Response {
        self.engine.handle(req)
    }
}
