//! The subscription registry: standing queries keyed by plan
//! fingerprint, an inverted label/series index for commit routing, and
//! per-commit delta evaluation.
//!
//! # Routing soundness
//!
//! The index is a deliberate over-approximation: a subscription is
//! routed whenever a commit *could* change its result, and a routed
//! subscription whose result did not change produces an empty delta,
//! which is never pushed. Concretely:
//!
//! * a new vertex can only create matches at pattern positions whose
//!   label constraints its own labels satisfy — routing by the new
//!   vertex's labels (plus subscriptions with unconstrained vertex
//!   positions) covers every such position;
//! * likewise new edges by their labels (plus unconstrained edge
//!   slots);
//! * appended series points can only move series aggregates — only
//!   subscriptions whose plan reads any series aggregate are routed,
//!   narrowed further by *shard*: each series-reading subscription
//!   carries a bitmask of the shards
//!   ([`hygraph_types::shard::ShardRouter`]) owning the series it can
//!   reach, and an append touching only disjoint shards skips it
//!   entirely (see the mask-maintenance notes on
//!   [`SubscriptionRegistry::on_commit`]); the routed survivors'
//!   [`IncState`] narrows once more to the entries whose resolved
//!   series ids were touched;
//! * property updates and validity closes can shift filters, pushed
//!   predicates, and match sets in ways additions cannot, so routed
//!   subscriptions take the rebuild path (full recompute, merge-diffed
//!   in canonical match order) — but a property write is first narrowed
//!   by key: only subscriptions whose plan property footprint mentions
//!   the touched key are routed at all (the footprint is exact — HyQL
//!   has no dynamic property access — so this is a no-cost skip, not an
//!   approximation);
//! * subgraph mutations are invisible to HyQL plans and route nowhere.
//!
//! A failed batch may have applied a valid prefix the caller cannot
//! name, so it routes *every* subscription through rebuild —
//! correctness first.

use crate::config::SubConfig;
use hygraph_core::{ElementRef, HyGraph};
use hygraph_persist::HgMutation;
use hygraph_query::ast::Query;
use hygraph_query::incremental::{diff_rows, support, uses_series, Delta, IncState};
use hygraph_query::{execute_planned, plan_query, PlannedQuery, QueryResult, Row};
use hygraph_types::shard::ShardRouter;
use hygraph_types::{EdgeId, HyGraphError, Label, Result, SeriesId, VertexId};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Where a subscription's pushes go — the serving layer implements this
/// over its per-connection bounded push buffers; tests implement it
/// over a collecting vector.
pub trait DeltaSink: Send + Sync {
    /// Enqueues one delta frame for `sub_id`. Returns `false` when the
    /// buffer is full — the registry then drops the subscription as a
    /// slow consumer.
    fn push_delta(&self, sub_id: u64, delta: &Delta) -> bool;

    /// Enqueues a terminal close notice for `sub_id`. Must not fail:
    /// implementations bypass the buffer cap for this single frame so a
    /// dropped subscriber learns *why* it was dropped.
    fn close(&self, sub_id: u64, reason: &str);
}

/// How a subscription is maintained across commits.
enum Mode {
    /// Seeded incremental maintenance (supported plan shapes).
    Incremental(IncState),
    /// Full re-execution + positional diff on every routed commit.
    Rerun {
        planned: PlannedQuery,
        rows: Vec<Row>,
    },
}

impl Mode {
    fn snapshot(&self, columns: &[String]) -> QueryResult {
        match self {
            Mode::Incremental(st) => st.snapshot(),
            Mode::Rerun { rows, .. } => QueryResult {
                columns: columns.to_vec(),
                rows: rows.clone(),
            },
        }
    }
}

/// The label/series footprint of one subscription — what the inverted
/// index holds for it, kept on the subscription so unregistering can
/// remove exactly its entries.
#[derive(Clone, Debug, Default)]
struct RouteKeys {
    vlabels: BTreeSet<String>,
    elabels: BTreeSet<String>,
    v_wild: bool,
    e_wild: bool,
    series: bool,
}

/// Derives the routing footprint from the query's AST patterns. An
/// unlabeled node/edge position accepts elements of any label; a
/// variable-length hop traverses unconstrained intermediate vertices,
/// so it implies the vertex wildcard.
fn route_keys(q: &Query, series: bool) -> RouteKeys {
    let mut keys = RouteKeys {
        series,
        ..RouteKeys::default()
    };
    fn node(keys: &mut RouteKeys, labels: &[String]) {
        if labels.is_empty() {
            keys.v_wild = true;
        } else {
            keys.vlabels.extend(labels.iter().cloned());
        }
    }
    for path in &q.patterns {
        node(&mut keys, &path.start.labels);
        for (edge, n) in &path.hops {
            node(&mut keys, &n.labels);
            if edge.labels.is_empty() {
                keys.e_wild = true;
            } else {
                keys.elabels.extend(edge.labels.iter().cloned());
            }
            if edge.hops != (1, 1) {
                keys.v_wild = true; // intermediate vertices are unconstrained
            }
        }
    }
    keys
}

impl RouteKeys {
    /// Whether a vertex with these labels can bind a pattern position
    /// of this footprint.
    fn admits_vertex(&self, labels: &[Label]) -> bool {
        self.v_wild || labels.iter().any(|l| self.vlabels.contains(l.as_str()))
    }

    /// Whether an edge with these labels can bind an edge slot of this
    /// footprint.
    fn admits_edge(&self, labels: &[Label]) -> bool {
        self.e_wild || labels.iter().any(|l| self.elabels.contains(l.as_str()))
    }
}

/// The shard bit of one series under `router` — safe because the
/// router clamps its shard count to `MAX_SHARDS` (64), one bit each.
fn shard_bit(router: ShardRouter, sid: SeriesId) -> u64 {
    1u64 << router.of_series(sid)
}

/// Every shard bit an element contributes to a footprint's reachable
/// series: its δ-series if it is a ts-element, plus any series-valued
/// properties (`SeriesRef::Property` reads those without δ).
fn element_series_bits(
    hg: &HyGraph,
    el: ElementRef,
    props: &hygraph_types::PropertyMap,
    router: ShardRouter,
) -> u64 {
    let mut bits = 0u64;
    if let Ok(sid) = hg.delta_id(el) {
        bits |= shard_bit(router, sid);
    }
    for (_, v) in props.iter() {
        if let Some(sid) = v.as_series() {
            bits |= shard_bit(router, sid);
        }
    }
    bits
}

/// The shard mask of one footprint against the whole instance: the OR
/// of every series shard reachable from an element the footprint
/// admits. Sound because plans resolve series only through bound
/// elements (`DELTA(var)` via δ, `var.key` via a series-valued
/// property), and bound elements always satisfy their position's label
/// constraint — so every series an evaluation can read contributes its
/// bit here. Non-series footprints get an (unused) empty mask.
fn footprint_mask(hg: &HyGraph, keys: &RouteKeys, router: ShardRouter) -> u64 {
    if !keys.series {
        return 0;
    }
    let mut mask = 0u64;
    let topo = hg.topology();
    for data in topo.vertices() {
        if keys.admits_vertex(&data.labels) {
            mask |= element_series_bits(hg, ElementRef::Vertex(data.id), &data.props, router);
        }
    }
    for data in topo.edges() {
        if keys.admits_edge(&data.labels) {
            mask |= element_series_bits(hg, ElementRef::Edge(data.id), &data.props, router);
        }
    }
    mask
}

struct Sub {
    conn: u64,
    fingerprint: u64,
    columns: Vec<String>,
    sink: Arc<dyn DeltaSink>,
    mode: Mode,
    keys: RouteKeys,
    /// Which shards own series this subscription's evaluation can
    /// reach — `1 << shard` per reachable series, grown monotonically
    /// as commits link new series into the footprint (see
    /// [`SubscriptionRegistry::on_commit`]). Appends route to the
    /// subscription only when they touch an intersecting shard.
    series_mask: u64,
    /// The exact property keys the plan can read
    /// ([`hygraph_query::plan::property_footprint`]): a `SetProperty`
    /// on a key outside this set cannot change the result, so commit
    /// routing skips this subscription for it.
    prop_keys: BTreeSet<String>,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    subs: BTreeMap<u64, Sub>,
    by_vlabel: HashMap<String, HashSet<u64>>,
    by_elabel: HashMap<String, HashSet<u64>>,
    v_wild: HashSet<u64>,
    e_wild: HashSet<u64>,
    series_any: HashSet<u64>,
    by_conn: HashMap<u64, HashSet<u64>>,
    by_fp: HashMap<u64, HashSet<u64>>,
}

impl Inner {
    fn index(&mut self, id: u64) {
        let sub = &self.subs[&id];
        let keys = sub.keys.clone();
        for l in &keys.vlabels {
            self.by_vlabel.entry(l.clone()).or_default().insert(id);
        }
        for l in &keys.elabels {
            self.by_elabel.entry(l.clone()).or_default().insert(id);
        }
        if keys.v_wild {
            self.v_wild.insert(id);
        }
        if keys.e_wild {
            self.e_wild.insert(id);
        }
        if keys.series {
            self.series_any.insert(id);
        }
        self.by_conn.entry(sub.conn).or_default().insert(id);
        self.by_fp.entry(sub.fingerprint).or_default().insert(id);
    }

    fn unindex(&mut self, id: u64, sub: &Sub) {
        let drop_from = |map: &mut HashMap<String, HashSet<u64>>, l: &str| {
            if let Some(set) = map.get_mut(l) {
                set.remove(&id);
                if set.is_empty() {
                    map.remove(l);
                }
            }
        };
        for l in &sub.keys.vlabels {
            drop_from(&mut self.by_vlabel, l);
        }
        for l in &sub.keys.elabels {
            drop_from(&mut self.by_elabel, l);
        }
        self.v_wild.remove(&id);
        self.e_wild.remove(&id);
        self.series_any.remove(&id);
        if let Some(set) = self.by_conn.get_mut(&sub.conn) {
            set.remove(&id);
            if set.is_empty() {
                self.by_conn.remove(&sub.conn);
            }
        }
        if let Some(set) = self.by_fp.get_mut(&sub.fingerprint) {
            set.remove(&id);
            if set.is_empty() {
                self.by_fp.remove(&sub.fingerprint);
            }
        }
    }

    fn remove(&mut self, id: u64) -> Option<Sub> {
        let sub = self.subs.remove(&id)?;
        self.unindex(id, &sub);
        Some(sub)
    }
}

/// All standing queries of one engine (see module docs). Thread-safe;
/// the engine calls [`SubscriptionRegistry::on_commit`] under its write
/// lock, so commit processing is serialised with mutations and
/// subscription snapshots are transactionally consistent.
pub struct SubscriptionRegistry {
    cfg: SubConfig,
    /// Series → shard routing for the append index, built once from
    /// [`SubConfig::shards`]. Only internal consistency matters for
    /// soundness (masks and appends are judged by the *same* router),
    /// but by defaulting to the workspace shard knob it matches the
    /// engine's storage partitioning.
    router: ShardRouter,
    /// Lock-free emptiness check so commit paths with no subscribers
    /// pay one atomic load, not a mutex.
    active: AtomicUsize,
    /// Full recomputations taken so far (rerun-mode advances and forced
    /// incremental rebuilds) — the registry-local twin of the global
    /// `fallback_reruns` metric, so routing precision is observable
    /// per-engine.
    reruns: AtomicUsize,
    inner: Mutex<Inner>,
}

impl SubscriptionRegistry {
    /// A registry with explicit settings.
    pub fn new(cfg: SubConfig) -> Self {
        Self {
            cfg,
            router: ShardRouter::new(cfg.shards),
            active: AtomicUsize::new(0),
            reruns: AtomicUsize::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The series → shard router the append index partitions by.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// How many full recomputations this registry has run across all
    /// commits — the cost the key-narrowed routing avoids.
    pub fn rerun_count(&self) -> usize {
        self.reruns.load(Ordering::Relaxed)
    }

    /// A registry configured from the `HYGRAPH_SUB_*` environment.
    pub fn from_env() -> Self {
        Self::new(SubConfig::from_env())
    }

    /// The effective configuration.
    pub fn config(&self) -> SubConfig {
        self.cfg
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Whether no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a standing query for `conn` and returns its id plus
    /// the initial materialised snapshot. Must be called with `hg`
    /// stable (the engine's read lock suffices): the snapshot and the
    /// registration are then atomic with respect to commits.
    pub fn subscribe(
        &self,
        hg: &HyGraph,
        text: &str,
        conn: u64,
        sink: Arc<dyn DeltaSink>,
    ) -> Result<(u64, QueryResult)> {
        let q = hygraph_query::parser::parse(text)?;
        if q.explain {
            return Err(HyGraphError::query(
                "cannot subscribe to an EXPLAIN query; EXPLAIN it separately to see \
                 the Subscribe: incremental/rerun decision"
                    .to_string(),
            ));
        }
        let planned = plan_query(&q)?;
        let columns: Vec<String> = q.returns.iter().map(|r| r.alias.clone()).collect();
        let keys = route_keys(&q, uses_series(&planned.plan));
        let prop_keys = hygraph_query::plan::property_footprint(&planned.plan);
        let fingerprint = planned.plan.fingerprint;

        let mut inner = self.lock();
        if inner.subs.len() >= self.cfg.max_subscriptions {
            return Err(HyGraphError::unavailable(format!(
                "subscription limit reached ({}); raise HYGRAPH_SUB_MAX",
                self.cfg.max_subscriptions
            )));
        }
        // a fingerprint twin already maintains this exact plan: clone
        // its state instead of re-materialising from scratch
        let twin = inner
            .by_fp
            .get(&fingerprint)
            .and_then(|set| set.iter().next().copied());
        let mode = match twin {
            Some(tid) => match &inner.subs[&tid].mode {
                Mode::Incremental(st) => Mode::Incremental(st.clone()),
                Mode::Rerun { planned, rows } => Mode::Rerun {
                    planned: planned.clone(),
                    rows: rows.clone(),
                },
            },
            None => match support(&planned.plan) {
                Ok(()) => {
                    let (st, _) = IncState::new(&planned, hg)?;
                    Mode::Incremental(st)
                }
                Err(_) => {
                    let res = execute_planned(hg, &planned)?;
                    Mode::Rerun {
                        planned,
                        rows: res.rows,
                    }
                }
            },
        };
        let snapshot = mode.snapshot(&columns);
        let series_mask = footprint_mask(hg, &keys, self.router);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.subs.insert(
            id,
            Sub {
                conn,
                fingerprint,
                columns,
                sink,
                mode,
                keys,
                series_mask,
                prop_keys,
            },
        );
        inner.index(id);
        self.active.store(inner.subs.len(), Ordering::Release);
        // a delta, not `set`: the registry gauge is process-global and
        // several engines may share it
        if let Some(m) = hygraph_metrics::get() {
            m.sub.active.inc();
        }
        Ok((id, snapshot))
    }

    /// Removes subscription `sub_id` if it exists and belongs to
    /// `conn`; returns whether it did.
    pub fn unsubscribe(&self, conn: u64, sub_id: u64) -> bool {
        let mut inner = self.lock();
        if inner.subs.get(&sub_id).is_none_or(|s| s.conn != conn) {
            return false;
        }
        inner.remove(sub_id);
        self.active.store(inner.subs.len(), Ordering::Release);
        if let Some(m) = hygraph_metrics::get() {
            m.sub.active.dec();
        }
        true
    }

    /// Drops every subscription of a disconnected client. No close
    /// frames are pushed — the connection is gone.
    pub fn drop_conn(&self, conn: u64) {
        let mut inner = self.lock();
        let ids: Vec<u64> = inner
            .by_conn
            .get(&conn)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        for id in ids {
            if inner.remove(id).is_some() {
                if let Some(m) = hygraph_metrics::get() {
                    m.sub.active.dec();
                }
            }
        }
        self.active.store(inner.subs.len(), Ordering::Release);
    }

    /// Processes one committed (or partially applied, `batch_failed`)
    /// mutation batch: routes it through the inverted index, advances
    /// every affected subscription, and pushes non-empty deltas. Call
    /// under the engine's write lock, after the batch is applied, with
    /// `pre_vcap`/`pre_ecap` the topology capacities captured before.
    ///
    /// # Shard-mask maintenance
    ///
    /// Append routing consults each series-reading subscription's shard
    /// mask, so the mask must already cover every element → series link
    /// this batch created *before* its appends are routed. Three kinds
    /// of mutation create links: new ts-elements (δ), new elements
    /// carrying series-valued properties, and `SetProperty` writes of a
    /// series value. All three are folded into the masks of admitting
    /// subscriptions at the top of this call — batches that link a
    /// series and append to it in one transaction route correctly. The
    /// extension runs even for failed batches (the applied prefix may
    /// have created links) and never narrows: masks only grow, so a
    /// stale over-wide mask costs an empty delta, never a missed one.
    pub fn on_commit(
        &self,
        hg: &HyGraph,
        muts: &[HgMutation],
        pre_vcap: usize,
        pre_ecap: usize,
        batch_failed: bool,
    ) {
        if self.is_empty() {
            return;
        }
        let topo = hg.topology();
        let new_vertices: Vec<VertexId> = (pre_vcap..topo.vertex_capacity())
            .map(VertexId::from)
            .collect();
        let new_edges: Vec<EdgeId> = (pre_ecap..topo.edge_capacity()).map(EdgeId::from).collect();
        let mut appended: Vec<SeriesId> = muts
            .iter()
            .filter_map(|m| match m {
                HgMutation::Append { series, .. } => Some(*series),
                _ => None,
            })
            .collect();
        appended.sort_unstable();
        appended.dedup();
        let appended_mask: u64 = appended
            .iter()
            .map(|&sid| shard_bit(self.router, sid))
            .fold(0, |m, b| m | b);

        let mut inner = self.lock();

        // fold this batch's new element → series links into the shard
        // masks before anything routes (see the doc-comment): the link
        // sources are new elements (δ or series-valued props) and
        // series-valued property writes.
        if !inner.series_any.is_empty() {
            let mut links: Vec<(bool, Vec<hygraph_types::Label>, u64)> = Vec::new();
            for &v in &new_vertices {
                if let Ok(data) = topo.vertex(v) {
                    let bits =
                        element_series_bits(hg, ElementRef::Vertex(v), &data.props, self.router);
                    if bits != 0 {
                        links.push((true, data.labels.clone(), bits));
                    }
                }
            }
            for &e in &new_edges {
                if let Ok(data) = topo.edge(e) {
                    let bits =
                        element_series_bits(hg, ElementRef::Edge(e), &data.props, self.router);
                    if bits != 0 {
                        links.push((false, data.labels.clone(), bits));
                    }
                }
            }
            for m in muts {
                if let HgMutation::SetProperty {
                    el,
                    value: hygraph_types::PropertyValue::Series(sid),
                    ..
                } = m
                {
                    // conservative even when the batch failed before
                    // this write landed: a too-wide mask is sound
                    let bits = shard_bit(self.router, *sid);
                    match el {
                        ElementRef::Vertex(v) => {
                            if let Ok(data) = topo.vertex(*v) {
                                links.push((true, data.labels.clone(), bits));
                            }
                        }
                        ElementRef::Edge(e) => {
                            if let Ok(data) = topo.edge(*e) {
                                links.push((false, data.labels.clone(), bits));
                            }
                        }
                        ElementRef::Subgraph(_) => {}
                    }
                }
            }
            if !links.is_empty() {
                let readers: Vec<u64> = inner.series_any.iter().copied().collect();
                for id in readers {
                    let Some(sub) = inner.subs.get_mut(&id) else {
                        continue;
                    };
                    for (is_vertex, labels, bits) in &links {
                        let admits = if *is_vertex {
                            sub.keys.admits_vertex(labels)
                        } else {
                            sub.keys.admits_edge(labels)
                        };
                        if admits {
                            sub.series_mask |= bits;
                        }
                    }
                }
            }
        }

        // route: which subscriptions does this batch touch, and do any
        // of its mutations force their rebuild path?
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        let mut rebuild: BTreeSet<u64> = BTreeSet::new();
        if batch_failed {
            // an unknown prefix applied; recompute everything
            rebuild.extend(inner.subs.keys().copied());
            touched.extend(inner.subs.keys().copied());
        } else {
            let route_v =
                |inner: &Inner, labels: &[hygraph_types::Label], out: &mut BTreeSet<u64>| {
                    out.extend(inner.v_wild.iter().copied());
                    for l in labels {
                        if let Some(set) = inner.by_vlabel.get(l.as_str()) {
                            out.extend(set.iter().copied());
                        }
                    }
                };
            let route_e =
                |inner: &Inner, labels: &[hygraph_types::Label], out: &mut BTreeSet<u64>| {
                    out.extend(inner.e_wild.iter().copied());
                    for l in labels {
                        if let Some(set) = inner.by_elabel.get(l.as_str()) {
                            out.extend(set.iter().copied());
                        }
                    }
                };
            for &v in &new_vertices {
                match topo.vertex(v) {
                    Ok(data) => route_v(&inner, &data.labels, &mut touched),
                    Err(_) => touched.extend(inner.subs.keys().copied()),
                }
            }
            for &e in &new_edges {
                match topo.edge(e) {
                    Ok(data) => route_e(&inner, &data.labels, &mut touched),
                    Err(_) => touched.extend(inner.subs.keys().copied()),
                }
            }
            if !appended.is_empty() {
                if self.router.is_single() {
                    // one shard: every reachable series shares bit 0
                    // with every reader — the flat pre-shard route
                    touched.extend(inner.series_any.iter().copied());
                } else {
                    // per-shard index: only series-readers whose mask
                    // intersects the appended shards can change
                    touched.extend(inner.series_any.iter().copied().filter(|id| {
                        inner
                            .subs
                            .get(id)
                            .is_none_or(|s| s.series_mask & appended_mask != 0)
                    }));
                }
            }
            for m in muts {
                let (el, prop_key) = match m {
                    HgMutation::SetProperty { el, key, .. } => (Some(*el), Some(key.as_str())),
                    HgMutation::CloseVertex { v, .. } => (Some(ElementRef::Vertex(*v)), None),
                    HgMutation::CloseEdge { e, .. } => (Some(ElementRef::Edge(*e)), None),
                    _ => (None, None),
                };
                let mut routed: BTreeSet<u64> = BTreeSet::new();
                match el {
                    None => continue,
                    Some(ElementRef::Subgraph(_)) => continue, // invisible to plans
                    Some(ElementRef::Vertex(v)) => match topo.vertex(v) {
                        Ok(data) => {
                            route_v(&inner, &data.labels, &mut routed);
                            // closing a vertex cascades to incident
                            // edges; property changes can flip pushed
                            // edge predicates only via that vertex's own
                            // matches, but route incident edge labels
                            // for both — over-approximation is free
                            let elabels: Vec<hygraph_types::Label> = topo
                                .incident_edges(v)
                                .flat_map(|e| e.labels.iter().cloned())
                                .collect();
                            route_e(&inner, &elabels, &mut routed);
                        }
                        Err(_) => routed.extend(inner.subs.keys().copied()),
                    },
                    Some(ElementRef::Edge(e)) => match topo.edge(e) {
                        Ok(data) => route_e(&inner, &data.labels, &mut routed),
                        Err(_) => routed.extend(inner.subs.keys().copied()),
                    },
                }
                // a property rewrite only matters to plans that read
                // that key — the footprint is exact (see
                // `property_footprint`), so dropping the rest is sound,
                // not an approximation. Closes keep the broad route:
                // validity shifts match sets regardless of properties.
                if let Some(key) = prop_key {
                    routed
                        .retain(|id| inner.subs.get(id).is_none_or(|s| s.prop_keys.contains(key)));
                }
                touched.extend(routed.iter().copied());
                rebuild.extend(routed);
            }
        }

        // advance each touched subscription and push its delta
        let mut dead: Vec<(u64, String)> = Vec::new();
        for id in touched {
            let Some(sub) = inner.subs.get_mut(&id) else {
                continue;
            };
            let forced = rebuild.contains(&id);
            let delta = match &mut sub.mode {
                Mode::Incremental(st) => {
                    if forced {
                        self.reruns.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = hygraph_metrics::get() {
                            m.sub.fallback_reruns.inc();
                        }
                    }
                    st.apply_batch(hg, &new_vertices, &new_edges, &appended, forced)
                }
                Mode::Rerun { planned, rows } => {
                    self.reruns.fetch_add(1, Ordering::Relaxed);
                    if let Some(m) = hygraph_metrics::get() {
                        m.sub.fallback_reruns.inc();
                    }
                    match execute_planned(hg, planned) {
                        Ok(res) => {
                            let d = diff_rows(rows, &res.rows);
                            *rows = res.rows;
                            Ok(d)
                        }
                        Err(e) => Err(e),
                    }
                }
            };
            match delta {
                Ok(d) if d.is_empty() => {}
                Ok(d) => {
                    if sub.sink.push_delta(id, &d) {
                        if let Some(m) = hygraph_metrics::get() {
                            m.sub.deltas_pushed.inc();
                        }
                    } else {
                        if let Some(m) = hygraph_metrics::get() {
                            m.sub.slow_consumer_drops.inc();
                        }
                        dead.push((id, "slow consumer: push buffer full".to_string()));
                    }
                }
                Err(e) => dead.push((id, format!("standing query failed: {e}"))),
            }
        }
        for (id, reason) in dead {
            if let Some(sub) = inner.remove(id) {
                sub.sink.close(id, &reason);
                if let Some(m) = hygraph_metrics::get() {
                    m.sub.active.dec();
                }
            }
        }
        self.active.store(inner.subs.len(), Ordering::Release);
    }

    /// The current materialised snapshot of `sub_id` — what a client
    /// that applied every pushed delta must hold. Test/diagnostic hook.
    pub fn snapshot_of(&self, sub_id: u64) -> Option<QueryResult> {
        let inner = self.lock();
        let sub = inner.subs.get(&sub_id)?;
        Some(sub.mode.snapshot(&sub.columns))
    }

    /// The shard bitmask appends are routed against for `sub_id`
    /// (`1 << shard` per reachable series; `0` for plans that read no
    /// series). Test/diagnostic hook.
    pub fn series_shard_mask(&self, sub_id: u64) -> Option<u64> {
        self.lock().subs.get(&sub_id).map(|s| s.series_mask)
    }
}

impl std::fmt::Debug for SubscriptionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriptionRegistry")
            .field("active", &self.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_core::HyGraphBuilder;
    use hygraph_persist::Durable;
    use hygraph_query::incremental::apply_delta;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Duration, Interval, Label, PropertyMap, Timestamp, Value};

    /// A sink recording every push; `cap` makes it refuse deltas to
    /// exercise the slow-consumer path.
    #[derive(Default)]
    struct RecordingSink {
        cap: Option<usize>,
        deltas: Mutex<Vec<(u64, Delta)>>,
        closed: Mutex<Vec<(u64, String)>>,
    }

    impl DeltaSink for RecordingSink {
        fn push_delta(&self, sub_id: u64, delta: &Delta) -> bool {
            let mut q = self.deltas.lock().unwrap();
            if self.cap.is_some_and(|c| q.len() >= c) {
                return false;
            }
            q.push((sub_id, delta.clone()));
            true
        }

        fn close(&self, sub_id: u64, reason: &str) {
            self.closed
                .lock()
                .unwrap()
                .push((sub_id, reason.to_string()));
        }
    }

    fn instance() -> HyGraph {
        let spend =
            TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 20, |i| i as f64);
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

    /// Applies `muts` to `hg` and runs them through the registry the way
    /// the engine does: capture capacities, apply, notify.
    fn commit(reg: &SubscriptionRegistry, hg: &mut HyGraph, muts: Vec<HgMutation>) {
        let pre_v = hg.topology().vertex_capacity();
        let pre_e = hg.topology().edge_capacity();
        let mut failed = false;
        for m in &muts {
            if hg.apply(m).is_err() {
                failed = true;
                break;
            }
        }
        reg.on_commit(hg, &muts, pre_v, pre_e, failed);
    }

    fn add_user(name: &str) -> HgMutation {
        HgMutation::AddPgVertex {
            labels: vec![Label::new("User")],
            props: props! {"name" => name, "age" => 50i64},
            validity: Interval::ALL,
        }
    }

    #[test]
    fn routed_subscription_tracks_and_unrelated_stays_silent() {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(RecordingSink::default());
        let (users, mut local) = reg
            .subscribe(&hg, "MATCH (u:User) RETURN u.name AS name", 1, sink.clone())
            .unwrap();
        let (stations, station_snap) = reg
            .subscribe(
                &hg,
                "MATCH (s:Station) RETURN s.name AS name",
                1,
                sink.clone(),
            )
            .unwrap();
        assert_eq!(local.rows.len(), 1);
        assert_eq!(reg.len(), 2);

        commit(&reg, &mut hg, vec![add_user("grace"), add_user("alan")]);
        let pushed = sink.deltas.lock().unwrap().clone();
        assert_eq!(pushed.len(), 1, "one delta frame for the one affected sub");
        assert_eq!(pushed[0].0, users);
        apply_delta(&mut local, &pushed[0].1).unwrap();
        assert_eq!(
            local.rows.iter().map(|r| &r[0]).collect::<Vec<_>>(),
            vec![
                &Value::Str("ada".into()),
                &Value::Str("grace".into()),
                &Value::Str("alan".into()),
            ]
        );
        assert_eq!(reg.snapshot_of(users).unwrap(), local);
        // the Station standing query saw zero frames and kept its rows
        assert_eq!(reg.snapshot_of(stations).unwrap(), station_snap);
    }

    #[test]
    fn rerun_mode_handles_unsupported_plans() {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(RecordingSink::default());
        let (id, mut local) = reg
            .subscribe(&hg, "MATCH (u:User) RETURN COUNT(u) AS n", 7, sink.clone())
            .unwrap();
        assert_eq!(local.rows, vec![vec![Value::Int(1)]]);
        commit(&reg, &mut hg, vec![add_user("grace")]);
        let pushed = sink.deltas.lock().unwrap().clone();
        assert_eq!(pushed.len(), 1);
        apply_delta(&mut local, &pushed[0].1).unwrap();
        assert_eq!(local.rows, vec![vec![Value::Int(2)]]);
        assert_eq!(reg.snapshot_of(id).unwrap(), local);
    }

    #[test]
    fn property_update_takes_rebuild_path() {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(RecordingSink::default());
        let (_, mut local) = reg
            .subscribe(
                &hg,
                "MATCH (u:User) WHERE u.age > 40 RETURN u.name AS name",
                1,
                sink.clone(),
            )
            .unwrap();
        assert!(local.rows.is_empty());
        let ada = hg.topology().vertices_with_label("User").next().unwrap().id;
        commit(
            &reg,
            &mut hg,
            vec![HgMutation::SetProperty {
                el: ElementRef::Vertex(ada),
                key: "age".into(),
                value: hygraph_types::PropertyValue::Static(70i64.into()),
            }],
        );
        let pushed = sink.deltas.lock().unwrap().clone();
        assert_eq!(pushed.len(), 1);
        apply_delta(&mut local, &pushed[0].1).unwrap();
        assert_eq!(local.rows, vec![vec![Value::Str("ada".into())]]);
    }

    #[test]
    fn untouched_property_key_skips_the_rebuild_entirely() {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(RecordingSink::default());
        let (_, local) = reg
            .subscribe(
                &hg,
                "MATCH (u:User) WHERE u.age > 40 RETURN u.name AS name",
                1,
                sink.clone(),
            )
            .unwrap();
        assert!(local.rows.is_empty());
        let baseline = reg.rerun_count();
        let ada = hg.topology().vertices_with_label("User").next().unwrap().id;
        // a write to a key the plan never reads: not routed, no rerun
        commit(
            &reg,
            &mut hg,
            vec![HgMutation::SetProperty {
                el: ElementRef::Vertex(ada),
                key: "nickname".into(),
                value: hygraph_types::PropertyValue::Static("addie".into()),
            }],
        );
        assert_eq!(reg.rerun_count(), baseline, "untouched key must not rerun");
        assert!(sink.deltas.lock().unwrap().is_empty());
        // the same element, a key in the footprint: rerun fires and the
        // result delta arrives
        commit(
            &reg,
            &mut hg,
            vec![HgMutation::SetProperty {
                el: ElementRef::Vertex(ada),
                key: "age".into(),
                value: hygraph_types::PropertyValue::Static(70i64.into()),
            }],
        );
        assert_eq!(reg.rerun_count(), baseline + 1, "footprint key reruns");
        assert_eq!(sink.deltas.lock().unwrap().len(), 1);
    }

    #[test]
    fn slow_consumer_is_dropped_with_typed_close() {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(RecordingSink {
            cap: Some(0),
            ..RecordingSink::default()
        });
        let (id, _) = reg
            .subscribe(&hg, "MATCH (u:User) RETURN u.name AS n", 1, sink.clone())
            .unwrap();
        commit(&reg, &mut hg, vec![add_user("grace")]);
        assert_eq!(reg.len(), 0, "slow consumer removed");
        let closed = sink.closed.lock().unwrap().clone();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].0, id);
        assert!(closed[0].1.contains("slow consumer"), "{}", closed[0].1);
    }

    #[test]
    fn subscription_cap_and_lifecycle() {
        let hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default().max_subscriptions(1));
        let sink = Arc::new(RecordingSink::default());
        let (id, _) = reg
            .subscribe(&hg, "MATCH (u:User) RETURN u.name AS n", 1, sink.clone())
            .unwrap();
        let err = reg
            .subscribe(
                &hg,
                "MATCH (m:Merchant) RETURN m.name AS n",
                1,
                sink.clone(),
            )
            .unwrap_err();
        assert!(matches!(err, HyGraphError::Unavailable(_)), "{err:?}");
        assert!(!reg.unsubscribe(2, id), "wrong connection cannot remove");
        assert!(reg.unsubscribe(1, id));
        assert!(reg.is_empty());
        // EXPLAIN is refused with guidance
        let err = reg
            .subscribe(&hg, "EXPLAIN MATCH (u:User) RETURN u.name AS n", 1, sink)
            .unwrap_err();
        assert!(err.to_string().contains("EXPLAIN"), "{err}");
    }

    #[test]
    fn fingerprint_twin_shares_state_and_drop_conn_cleans_up() {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(RecordingSink::default());
        let text = "MATCH (u:User)-[:USES]->(c:Card) RETURN u.name AS n";
        let (a, snap_a) = reg.subscribe(&hg, text, 1, sink.clone()).unwrap();
        let (b, snap_b) = reg.subscribe(&hg, text, 2, sink.clone()).unwrap();
        assert_eq!(snap_a, snap_b, "twin subscribe clones the snapshot");
        let src = hg.topology().vertices_with_label("User").next().unwrap().id;
        let dst = hg.topology().vertices_with_label("Card").next().unwrap().id;
        commit(
            &reg,
            &mut hg,
            vec![HgMutation::AddPgEdge {
                src,
                dst,
                labels: vec![Label::new("USES")],
                props: PropertyMap::new(),
                validity: Interval::ALL,
            }],
        );
        let pushed = sink.deltas.lock().unwrap().clone();
        let ids: BTreeSet<u64> = pushed.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, BTreeSet::from([a, b]), "both twins got the delta");
        reg.drop_conn(1);
        assert_eq!(reg.len(), 1);
        reg.drop_conn(2);
        assert!(reg.is_empty());
    }

    /// An instance with two ts-vertices whose series land on different
    /// shards under a 2-way router (ids are dense from 0, routing is
    /// `id % shards`). All-ts so a wildcard `DELTA(x)` read is valid.
    fn two_series_instance() -> HyGraph {
        let spend =
            TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 20, |i| i as f64);
        let temp = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 20, |i| {
            2.0 * i as f64
        });
        HyGraphBuilder::new()
            .univariate("spend", &spend)
            .univariate("temp", &temp)
            .ts_vertex("c1", ["Card"], "spend")
            .ts_vertex("s1", ["Sensor"], "temp")
            .build()
            .unwrap()
            .hygraph
    }

    #[test]
    fn series_masks_partition_by_footprint_and_route_appends_by_shard() {
        let mut hg = two_series_instance();
        let reg = SubscriptionRegistry::new(SubConfig::default().shards(2));
        let sink = Arc::new(RecordingSink::default());
        let card = hg.topology().vertices_with_label("Card").next().unwrap().id;
        let sensor = hg
            .topology()
            .vertices_with_label("Sensor")
            .next()
            .unwrap()
            .id;
        let spend = hg.delta_id(ElementRef::Vertex(card)).unwrap();
        let temp = hg.delta_id(ElementRef::Vertex(sensor)).unwrap();
        let spend_bit = 1u64 << reg.router().of_series(spend);
        let temp_bit = 1u64 << reg.router().of_series(temp);
        assert_ne!(spend_bit, temp_bit, "dense ids must straddle 2 shards");

        let (cards, _) = reg
            .subscribe(
                &hg,
                "MATCH (c:Card) RETURN SUM(DELTA(c) IN [0, 1000)) AS s",
                1,
                sink.clone(),
            )
            .unwrap();
        let (sensors, _) = reg
            .subscribe(
                &hg,
                "MATCH (s:Sensor) RETURN SUM(DELTA(s) IN [0, 1000)) AS s",
                1,
                sink.clone(),
            )
            .unwrap();
        let (wild, _) = reg
            .subscribe(
                &hg,
                "MATCH (x) RETURN SUM(DELTA(x) IN [0, 1000)) AS s",
                1,
                sink.clone(),
            )
            .unwrap();
        let (users, _) = reg
            .subscribe(&hg, "MATCH (u:User) RETURN u.name AS n", 1, sink.clone())
            .unwrap(); // no User exists yet: empty snapshot, no series

        // subscribe-time masks: exactly the shards of admitted series
        assert_eq!(reg.series_shard_mask(cards), Some(spend_bit));
        assert_eq!(reg.series_shard_mask(sensors), Some(temp_bit));
        assert_eq!(reg.series_shard_mask(wild), Some(spend_bit | temp_bit));
        assert_eq!(reg.series_shard_mask(users), Some(0), "no series read");

        // an append to spend reaches the Card and wildcard readers only
        commit(
            &reg,
            &mut hg,
            vec![HgMutation::Append {
                series: spend,
                t: Timestamp::from_millis(500),
                row: vec![100.0],
            }],
        );
        let pushed = sink.deltas.lock().unwrap().clone();
        let ids: BTreeSet<u64> = pushed.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, BTreeSet::from([cards, wild]));
    }

    #[test]
    fn commit_linking_and_appending_in_one_batch_extends_the_mask_first() {
        let mut hg = two_series_instance();
        let reg = SubscriptionRegistry::new(SubConfig::default().shards(2));
        let sink = Arc::new(RecordingSink::default());
        // subscribe while no Meter exists: the mask starts empty
        let (meters, mut local) = reg
            .subscribe(
                &hg,
                "MATCH (m:Meter) RETURN SUM(DELTA(m) IN [0, 1000)) AS s",
                1,
                sink.clone(),
            )
            .unwrap();
        assert_eq!(reg.series_shard_mask(meters), Some(0));
        assert!(local.rows.is_empty());

        // one batch: register a series, bind a Meter to it, append —
        // the link must be folded into the mask before append routing
        let next = SeriesId::new(2); // two series exist; ids are dense
        commit(
            &reg,
            &mut hg,
            vec![
                HgMutation::AddSeries {
                    names: vec!["kwh".into()],
                    rows: vec![(Timestamp::from_millis(0), vec![1.0])],
                },
                HgMutation::AddTsVertex {
                    labels: vec![Label::new("Meter")],
                    series: next,
                },
                HgMutation::Append {
                    series: next,
                    t: Timestamp::from_millis(10),
                    row: vec![5.0],
                },
            ],
        );
        assert_eq!(
            reg.series_shard_mask(meters),
            Some(1u64 << reg.router().of_series(next))
        );
        let pushed = sink.deltas.lock().unwrap().clone();
        assert!(!pushed.is_empty(), "the new Meter's rows must arrive");
        for (id, d) in &pushed {
            assert_eq!(*id, meters);
            apply_delta(&mut local, d).unwrap();
        }
        assert_eq!(local.rows, vec![vec![Value::Float(6.0)]]);
    }

    #[test]
    fn failed_batch_rebuilds_through_the_applied_prefix() {
        let mut hg = instance();
        let reg = SubscriptionRegistry::new(SubConfig::default());
        let sink = Arc::new(RecordingSink::default());
        let (id, mut local) = reg
            .subscribe(&hg, "MATCH (u:User) RETURN u.name AS n", 1, sink.clone())
            .unwrap();
        // prefix applies (new user), then a bad append fails the batch
        commit(
            &reg,
            &mut hg,
            vec![
                add_user("grace"),
                HgMutation::Append {
                    series: SeriesId::new(999),
                    t: Timestamp::from_millis(1),
                    row: vec![1.0],
                },
            ],
        );
        let pushed = sink.deltas.lock().unwrap().clone();
        assert_eq!(
            pushed.len(),
            1,
            "prefix change still reaches the subscriber"
        );
        apply_delta(&mut local, &pushed[0].1).unwrap();
        assert_eq!(local.rows.len(), 2);
        assert_eq!(reg.snapshot_of(id).unwrap(), local);
    }
}
