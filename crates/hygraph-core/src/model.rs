//! The [`HyGraph`] type: the HGM tuple as a data structure.
//!
//! Internally the unified graph topology (both pg- and ts-elements) lives
//! in one [`TemporalGraph`], so every graph algorithm from
//! `hygraph-graph` runs unchanged over a HyGraph. Side tables record
//! each element's [`ElementKind`] and the δ mapping from ts-elements to
//! their series. The series set TS is a `BTreeMap` of [`MultiSeries`]
//! (deterministic iteration, dense ids).

use crate::subgraph::Subgraph;
use hygraph_graph::TemporalGraph;
use hygraph_ts::{MultiSeries, TimeSeries};
use hygraph_types::pmap::{SnapMap, SnapshotImpl};
use hygraph_types::{
    EdgeId, HyGraphError, Interval, Label, PropertyMap, PropertyValue, Result, SeriesId,
    SubgraphId, Timestamp, VertexId,
};
use std::sync::Arc;

/// Whether an element belongs to the property-graph or the time-series
/// partition of V/E.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// Property-graph element (`v_pg` / `e_pg`).
    Pg,
    /// Time-series element (`v_ts` / `e_ts`): the element *is* a series.
    Ts,
}

impl ElementKind {
    fn name(self) -> &'static str {
        match self {
            ElementKind::Pg => "pg",
            ElementKind::Ts => "ts",
        }
    }
}

/// A reference to any addressable HyGraph element.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElementRef {
    /// A vertex.
    Vertex(VertexId),
    /// An edge.
    Edge(EdgeId),
    /// A subgraph.
    Subgraph(SubgraphId),
}

/// A unified hybrid graph + time-series instance.
///
/// # Snapshot semantics
///
/// Every interior collection is structurally shared ([`SnapMap`] /
/// the dual-mode storage inside [`TemporalGraph`]), so `clone()` is a
/// handful of reference-count bumps — O(pointers), not O(data). In the
/// default `pmap` mode a mutation path-copies only the O(log n) trie
/// nodes it touches, so a commit costs O(batch) *no matter how many
/// older clones are pinned*. In the legacy `cow` mode
/// (`HYGRAPH_SNAPSHOT_IMPL=cow`) the first write after a clone
/// deep-copies the touched collection instead. Either way, this is what
/// lets the sharded engine publish an immutable snapshot per commit and
/// hand lock-free `&HyGraph` views to readers: a reader's pinned clone
/// is never affected by later writes to the live instance, and vice
/// versa. Series payloads stay behind their own `Arc<MultiSeries>`, so
/// an append copies one series, never the set.
#[derive(Clone, Debug)]
pub struct HyGraph {
    pub(crate) graph: TemporalGraph,
    pub(crate) vertex_kind: SnapMap<VertexId, ElementKind>,
    pub(crate) edge_kind: SnapMap<EdgeId, ElementKind>,
    pub(crate) series: SnapMap<SeriesId, Arc<MultiSeries>>,
    pub(crate) delta_v: SnapMap<VertexId, SeriesId>,
    pub(crate) delta_e: SnapMap<EdgeId, SeriesId>,
    pub(crate) subgraphs: SnapMap<SubgraphId, Subgraph>,
    pub(crate) next_series: u64,
    pub(crate) next_subgraph: u64,
}

impl Default for HyGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl HyGraph {
    /// An empty HyGraph in the process-configured snapshot mode.
    pub fn new() -> Self {
        Self::with_snapshot_impl(SnapshotImpl::configured())
    }

    /// An empty HyGraph with an explicit snapshot implementation. Tests
    /// and the bench pin modes this way; everything else should use
    /// [`Self::new`] and the `HYGRAPH_SNAPSHOT_IMPL` environment knob.
    pub fn with_snapshot_impl(mode: SnapshotImpl) -> Self {
        Self {
            graph: TemporalGraph::new_with_impl(mode),
            vertex_kind: SnapMap::new_with(mode),
            edge_kind: SnapMap::new_with(mode),
            series: SnapMap::new_with(mode),
            delta_v: SnapMap::new_with(mode),
            delta_e: SnapMap::new_with(mode),
            subgraphs: SnapMap::new_with(mode),
            next_series: 0,
            next_subgraph: 0,
        }
    }

    /// The snapshot implementation this instance's storage was built in.
    pub fn snapshot_impl(&self) -> SnapshotImpl {
        self.graph.snapshot_impl()
    }

    // ---- TS: the series set ------------------------------------------

    /// Registers a multivariate series; returns its id.
    pub fn add_series(&mut self, s: MultiSeries) -> SeriesId {
        let id = SeriesId::new(self.next_series);
        self.next_series += 1;
        self.series.insert(id, Arc::new(s));
        id
    }

    /// Registers a univariate series under variable name `name`.
    pub fn add_univariate_series(&mut self, name: &str, s: &TimeSeries) -> SeriesId {
        self.add_series(MultiSeries::from_univariate(name, s))
    }

    /// The series with id `id`.
    pub fn series(&self, id: SeriesId) -> Result<&MultiSeries> {
        self.series
            .get(&id)
            .map(|s| &**s)
            .ok_or(HyGraphError::SeriesNotFound(id))
    }

    /// Mutable access to a series (for appends — R3 ingest path).
    ///
    /// One map traversal: [`SnapMap::get_mut`] probes presence itself,
    /// so a miss neither copies nor un-shares anything, and a hit
    /// path-copies only the touched trie path (pmap mode) before the
    /// per-series `Arc::make_mut` un-shares just that series.
    pub fn series_mut(&mut self, id: SeriesId) -> Result<&mut MultiSeries> {
        self.series
            .get_mut(&id)
            .map(Arc::make_mut)
            .ok_or(HyGraphError::SeriesNotFound(id))
    }

    /// Appends one observation tuple to a series.
    pub fn append(&mut self, id: SeriesId, t: Timestamp, row: &[f64]) -> Result<()> {
        self.series_mut(id)?.push(t, row)
    }

    /// Iterates all `(id, series)` pairs in id order.
    pub fn all_series(&self) -> impl Iterator<Item = (SeriesId, &MultiSeries)> {
        self.series.iter().map(|(&id, s)| (id, &**s))
    }

    /// Number of registered series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    // ---- V: vertices ---------------------------------------------------

    /// Adds a property-graph vertex (ρ = all of time).
    pub fn add_pg_vertex(
        &mut self,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
    ) -> VertexId {
        self.add_pg_vertex_valid(labels, props, Interval::ALL)
    }

    /// Adds a property-graph vertex with explicit validity.
    pub fn add_pg_vertex_valid(
        &mut self,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
        validity: Interval,
    ) -> VertexId {
        let v = self.graph.add_vertex_valid(labels, props, validity);
        self.vertex_kind.insert(v, ElementKind::Pg);
        v
    }

    /// Adds a time-series vertex: an entity whose identity *is* the
    /// evolution of `series` (δ(v) = series).
    pub fn add_ts_vertex(
        &mut self,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        series: SeriesId,
    ) -> Result<VertexId> {
        self.series(series)?;
        let v = self
            .graph
            .add_vertex_valid(labels, PropertyMap::new(), Interval::ALL);
        self.vertex_kind.insert(v, ElementKind::Ts);
        self.delta_v.insert(v, series);
        Ok(v)
    }

    // ---- E: edges --------------------------------------------------------

    /// Adds a property-graph edge.
    pub fn add_pg_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
    ) -> Result<EdgeId> {
        self.add_pg_edge_valid(src, dst, labels, props, Interval::ALL)
    }

    /// Adds a property-graph edge with explicit validity.
    pub fn add_pg_edge_valid(
        &mut self,
        src: VertexId,
        dst: VertexId,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
        validity: Interval,
    ) -> Result<EdgeId> {
        let e = self
            .graph
            .add_edge_valid(src, dst, labels, props, validity)?;
        self.edge_kind.insert(e, ElementKind::Pg);
        Ok(e)
    }

    /// Adds a time-series edge: a relationship whose content *is* the
    /// evolution of `series` (δ(e) = series) — e.g. the transaction flow
    /// between a credit card and a merchant, or the similarity between
    /// two cards.
    pub fn add_ts_edge(
        &mut self,
        src: VertexId,
        dst: VertexId,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        series: SeriesId,
    ) -> Result<EdgeId> {
        self.series(series)?;
        let e = self
            .graph
            .add_edge_valid(src, dst, labels, PropertyMap::new(), Interval::ALL)?;
        self.edge_kind.insert(e, ElementKind::Ts);
        self.delta_e.insert(e, series);
        Ok(e)
    }

    // ---- model functions -------------------------------------------------

    /// The kind of vertex `v` (partition of V).
    pub fn vertex_kind(&self, v: VertexId) -> Result<ElementKind> {
        self.vertex_kind
            .get(&v)
            .copied()
            .ok_or(HyGraphError::VertexNotFound(v))
    }

    /// The kind of edge `e` (partition of E).
    pub fn edge_kind(&self, e: EdgeId) -> Result<ElementKind> {
        self.edge_kind
            .get(&e)
            .copied()
            .ok_or(HyGraphError::EdgeNotFound(e))
    }

    /// η(e): the endpoints of edge `e`.
    pub fn eta(&self, e: EdgeId) -> Result<(VertexId, VertexId)> {
        let data = self.graph.edge(e)?;
        Ok((data.src, data.dst))
    }

    /// λ(x): the label set of a vertex, edge or subgraph.
    pub fn lambda(&self, el: ElementRef) -> Result<Vec<Label>> {
        match el {
            ElementRef::Vertex(v) => Ok(self.graph.vertex(v)?.labels.clone()),
            ElementRef::Edge(e) => Ok(self.graph.edge(e)?.labels.clone()),
            ElementRef::Subgraph(s) => Ok(self.subgraph(s)?.labels.clone()),
        }
    }

    /// φ(x, k): the property value of a pg-element or subgraph.
    pub fn phi(&self, el: ElementRef, key: &str) -> Result<Option<PropertyValue>> {
        let props = self.props(el)?;
        Ok(props.get_str(key).cloned())
    }

    /// The full property map of a pg-element or subgraph. Ts-elements
    /// carry no properties — their content is δ.
    pub fn props(&self, el: ElementRef) -> Result<&PropertyMap> {
        match el {
            ElementRef::Vertex(v) => {
                self.require_kind_v(v, ElementKind::Pg)?;
                Ok(&self.graph.vertex(v)?.props)
            }
            ElementRef::Edge(e) => {
                self.require_kind_e(e, ElementKind::Pg)?;
                Ok(&self.graph.edge(e)?.props)
            }
            ElementRef::Subgraph(s) => Ok(&self.subgraph(s)?.props),
        }
    }

    /// Sets a property on a pg-element or subgraph. The value may be a
    /// static scalar or a series reference (series-valued properties are
    /// how supplementary time series attach to entities).
    pub fn set_property(
        &mut self,
        el: ElementRef,
        key: impl Into<hygraph_types::PropertyKey>,
        value: impl Into<PropertyValue>,
    ) -> Result<()> {
        let value = value.into();
        if let PropertyValue::Series(id) = value {
            self.series(id)?;
        }
        match el {
            ElementRef::Vertex(v) => {
                self.require_kind_v(v, ElementKind::Pg)?;
                self.graph.vertex_mut(v)?.props.set(key, value);
            }
            ElementRef::Edge(e) => {
                self.require_kind_e(e, ElementKind::Pg)?;
                self.graph.edge_mut(e)?.props.set(key, value);
            }
            ElementRef::Subgraph(s) => {
                self.subgraph_mut(s)?.props.set(key, value);
            }
        }
        Ok(())
    }

    /// Errors with [`HyGraphError::SeriesNotFound`] unless every
    /// series-valued property in `props` names a series of this
    /// instance — the property invariant [`HyGraph::validate`] checks.
    pub fn check_series_refs(&self, props: &PropertyMap) -> Result<()> {
        props
            .series_entries()
            .try_for_each(|(_, id)| self.series(id).map(|_| ()))
    }

    /// ρ(x): the validity interval of a pg-element or subgraph.
    pub fn rho(&self, el: ElementRef) -> Result<Interval> {
        match el {
            ElementRef::Vertex(v) => {
                self.require_kind_v(v, ElementKind::Pg)?;
                Ok(self.graph.vertex(v)?.validity)
            }
            ElementRef::Edge(e) => {
                self.require_kind_e(e, ElementKind::Pg)?;
                Ok(self.graph.edge(e)?.validity)
            }
            ElementRef::Subgraph(s) => Ok(self.subgraph(s)?.validity),
        }
    }

    /// δ(x): the series of a ts-vertex or ts-edge.
    pub fn delta(&self, el: ElementRef) -> Result<&MultiSeries> {
        let id = self.delta_id(el)?;
        self.series(id)
    }

    /// The series *id* behind δ(x).
    pub fn delta_id(&self, el: ElementRef) -> Result<SeriesId> {
        match el {
            ElementRef::Vertex(v) => {
                self.require_kind_v(v, ElementKind::Ts)?;
                self.delta_v
                    .get(&v)
                    .copied()
                    .ok_or(HyGraphError::VertexNotFound(v))
            }
            ElementRef::Edge(e) => {
                self.require_kind_e(e, ElementKind::Ts)?;
                self.delta_e
                    .get(&e)
                    .copied()
                    .ok_or(HyGraphError::EdgeNotFound(e))
            }
            ElementRef::Subgraph(s) => Err(HyGraphError::SubgraphNotFound(s)),
        }
    }

    fn require_kind_v(&self, v: VertexId, want: ElementKind) -> Result<()> {
        let got = self.vertex_kind(v)?;
        if got != want {
            return Err(HyGraphError::KindMismatch {
                expected: want.name(),
                got: got.name(),
            });
        }
        Ok(())
    }

    fn require_kind_e(&self, e: EdgeId, want: ElementKind) -> Result<()> {
        let got = self.edge_kind(e)?;
        if got != want {
            return Err(HyGraphError::KindMismatch {
                expected: want.name(),
                got: got.name(),
            });
        }
        Ok(())
    }

    // ---- S: subgraphs -----------------------------------------------------

    /// Creates a logical subgraph.
    pub fn create_subgraph(
        &mut self,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        props: PropertyMap,
        validity: Interval,
    ) -> SubgraphId {
        let id = SubgraphId::new(self.next_subgraph);
        self.next_subgraph += 1;
        self.subgraphs.insert(
            id,
            Subgraph::new(
                id,
                labels.into_iter().map(Into::into).collect(),
                props,
                validity,
            ),
        );
        id
    }

    /// The subgraph with id `s`.
    pub fn subgraph(&self, s: SubgraphId) -> Result<&Subgraph> {
        self.subgraphs
            .get(&s)
            .ok_or(HyGraphError::SubgraphNotFound(s))
    }

    /// Mutable access to a subgraph.
    pub fn subgraph_mut(&mut self, s: SubgraphId) -> Result<&mut Subgraph> {
        self.subgraphs
            .get_mut(&s)
            .ok_or(HyGraphError::SubgraphNotFound(s))
    }

    /// Iterates all subgraphs in id order.
    pub fn subgraphs(&self) -> impl Iterator<Item = &Subgraph> {
        self.subgraphs.values()
    }

    /// Adds vertex `v` to subgraph `s` for `during`.
    pub fn add_subgraph_vertex(
        &mut self,
        s: SubgraphId,
        v: VertexId,
        during: Interval,
    ) -> Result<()> {
        self.graph.vertex(v)?;
        self.subgraph_mut(s)?.add_vertex(v, during);
        Ok(())
    }

    /// Adds edge `e` to subgraph `s` for `during`.
    pub fn add_subgraph_edge(&mut self, s: SubgraphId, e: EdgeId, during: Interval) -> Result<()> {
        self.graph.edge(e)?;
        self.subgraph_mut(s)?.add_edge(e, during);
        Ok(())
    }

    /// γ(s, t): the member vertices and edges of subgraph `s` at time `t`.
    pub fn gamma(&self, s: SubgraphId, t: Timestamp) -> Result<(Vec<VertexId>, Vec<EdgeId>)> {
        Ok(self.subgraph(s)?.members_at(t))
    }

    // ---- topology access ---------------------------------------------------

    /// The unified underlying temporal graph (both pg- and ts-elements).
    /// Every `hygraph-graph` algorithm runs directly on this.
    pub fn topology(&self) -> &TemporalGraph {
        &self.graph
    }

    /// Number of vertices (both kinds).
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges (both kinds).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Ids of all vertices of `kind`.
    pub fn vertices_of_kind(&self, kind: ElementKind) -> impl Iterator<Item = VertexId> + '_ {
        self.graph
            .vertex_ids()
            .filter(move |v| self.vertex_kind.get(v) == Some(&kind))
    }

    /// Ids of all edges of `kind`.
    pub fn edges_of_kind(&self, kind: ElementKind) -> impl Iterator<Item = EdgeId> + '_ {
        self.graph
            .edge_ids()
            .filter(move |e| self.edge_kind.get(e) == Some(&kind))
    }

    // ---- structural updates (R3) -------------------------------------------

    /// Closes a vertex's validity at `t` (pg vertices only — ts vertices
    /// live as long as their series).
    pub fn close_vertex(&mut self, v: VertexId, t: Timestamp) -> Result<()> {
        self.require_kind_v(v, ElementKind::Pg)?;
        self.graph.close_vertex(v, t)
    }

    /// Closes an edge's validity at `t`.
    pub fn close_edge(&mut self, e: EdgeId, t: Timestamp) -> Result<()> {
        self.require_kind_e(e, ElementKind::Pg)?;
        self.graph.close_edge(e, t)
    }

    // ---- integrity (R2) -------------------------------------------------------

    /// Validates the whole instance:
    /// * graph temporal integrity (pg-edge validity ⊆ pg-endpoint
    ///   validity — ts-elements are timeless, ρ is not defined for them,
    ///   so they impose and obey no interval bounds);
    /// * every series is chronologically sound;
    /// * every ts-element has a δ target that exists;
    /// * every series-valued property references an existing series;
    /// * subgraph members exist and their membership intervals lie within
    ///   the subgraph's validity.
    pub fn validate(&self) -> Result<()> {
        // kind-aware temporal integrity (the raw graph check would wrongly
        // constrain timeless ts-elements)
        for e in self.graph.edges() {
            if self.edge_kind(e.id)? != ElementKind::Pg {
                continue;
            }
            for endpoint in [e.src, e.dst] {
                if self.vertex_kind(endpoint)? != ElementKind::Pg {
                    continue; // ts vertices are timeless
                }
                let vd = self.graph.vertex(endpoint)?;
                if !vd.validity.contains_interval(&e.validity) {
                    return Err(HyGraphError::TemporalIntegrity(format!(
                        "edge {} validity {} exceeds vertex {} validity {}",
                        e.id, e.validity, endpoint, vd.validity
                    )));
                }
            }
        }
        for (_, s) in self.all_series() {
            s.validate()?;
        }
        for v in self.vertices_of_kind(ElementKind::Ts) {
            let id = self
                .delta_v
                .get(&v)
                .copied()
                .ok_or(HyGraphError::VertexNotFound(v))?;
            self.series(id)?;
        }
        for e in self.edges_of_kind(ElementKind::Ts) {
            let id = self
                .delta_e
                .get(&e)
                .copied()
                .ok_or(HyGraphError::EdgeNotFound(e))?;
            self.series(id)?;
        }
        for vtx in self.graph.vertices() {
            for (_, sid) in vtx.props.series_entries() {
                self.series(sid)?;
            }
        }
        for edge in self.graph.edges() {
            for (_, sid) in edge.props.series_entries() {
                self.series(sid)?;
            }
        }
        for sg in self.subgraphs() {
            sg.validate(&self.graph)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::props;

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn balance_series() -> MultiSeries {
        let mut m = MultiSeries::new(["balance"]);
        m.push(ts(0), &[100.0]).unwrap();
        m.push(ts(10), &[90.0]).unwrap();
        m.push(ts(20), &[250.0]).unwrap();
        m
    }

    #[test]
    fn pg_and_ts_vertices_coexist() {
        let mut hg = HyGraph::new();
        let user = hg.add_pg_vertex(["User"], props! {"name" => "alice"});
        let sid = hg.add_series(balance_series());
        let card = hg.add_ts_vertex(["CreditCard"], sid).unwrap();
        assert_eq!(hg.vertex_kind(user).unwrap(), ElementKind::Pg);
        assert_eq!(hg.vertex_kind(card).unwrap(), ElementKind::Ts);
        assert_eq!(hg.vertex_count(), 2);
        // δ of the ts vertex is the balance series
        let s = hg.delta(ElementRef::Vertex(card)).unwrap();
        assert_eq!(s.len(), 3);
        // δ of a pg vertex is a kind mismatch
        assert_eq!(
            hg.delta(ElementRef::Vertex(user)).unwrap_err(),
            HyGraphError::KindMismatch {
                expected: "ts",
                got: "pg"
            }
        );
        // φ of a ts vertex is a kind mismatch
        assert!(hg.props(ElementRef::Vertex(card)).is_err());
    }

    #[test]
    fn ts_edge_carries_series() {
        let mut hg = HyGraph::new();
        let sid = hg.add_series(balance_series());
        let card = hg.add_ts_vertex(["CreditCard"], sid).unwrap();
        let merchant = hg.add_pg_vertex(["Merchant"], props! {});
        let flow = hg.add_series(balance_series());
        let e = hg.add_ts_edge(card, merchant, ["TX_FLOW"], flow).unwrap();
        assert_eq!(hg.edge_kind(e).unwrap(), ElementKind::Ts);
        assert_eq!(hg.delta_id(ElementRef::Edge(e)).unwrap(), flow);
        assert_eq!(hg.eta(e).unwrap(), (card, merchant));
    }

    #[test]
    fn ts_vertex_requires_existing_series() {
        let mut hg = HyGraph::new();
        let err = hg.add_ts_vertex(["X"], SeriesId::new(42)).unwrap_err();
        assert_eq!(err, HyGraphError::SeriesNotFound(SeriesId::new(42)));
    }

    #[test]
    fn series_valued_properties() {
        let mut hg = HyGraph::new();
        let station = hg.add_pg_vertex(["Station"], props! {"name" => "st-1"});
        let sid = hg.add_series(balance_series());
        hg.set_property(ElementRef::Vertex(station), "availability", sid)
            .unwrap();
        let pv = hg
            .phi(ElementRef::Vertex(station), "availability")
            .unwrap()
            .unwrap();
        assert_eq!(pv.as_series(), Some(sid));
        // static property still readable
        let name = hg
            .phi(ElementRef::Vertex(station), "name")
            .unwrap()
            .unwrap();
        assert_eq!(name.as_static().unwrap().as_str(), Some("st-1"));
        // dangling series reference is rejected at set time
        let err = hg
            .set_property(ElementRef::Vertex(station), "bad", SeriesId::new(99))
            .unwrap_err();
        assert_eq!(err, HyGraphError::SeriesNotFound(SeriesId::new(99)));
    }

    #[test]
    fn append_ingest_path() {
        let mut hg = HyGraph::new();
        let sid = hg.add_series(balance_series());
        hg.append(sid, ts(30), &[300.0]).unwrap();
        assert_eq!(hg.series(sid).unwrap().len(), 4);
        // out-of-order append is rejected (chronological integrity)
        assert!(matches!(
            hg.append(sid, ts(5), &[0.0]).unwrap_err(),
            HyGraphError::OutOfOrder { .. }
        ));
        // arity mismatch rejected
        assert!(matches!(
            hg.append(sid, ts(40), &[1.0, 2.0]).unwrap_err(),
            HyGraphError::ArityMismatch { .. }
        ));
    }

    #[test]
    fn subgraph_membership_over_time() {
        let mut hg = HyGraph::new();
        let a = hg.add_pg_vertex(["N"], props! {});
        let b = hg.add_pg_vertex(["N"], props! {});
        let e = hg.add_pg_edge(a, b, ["E"], props! {}).unwrap();
        let s = hg.create_subgraph(["Cluster"], props! {"cluster_id" => 1i64}, Interval::ALL);
        hg.add_subgraph_vertex(s, a, Interval::new(ts(0), ts(100)))
            .unwrap();
        hg.add_subgraph_vertex(s, b, Interval::from(ts(50)))
            .unwrap();
        hg.add_subgraph_edge(s, e, Interval::new(ts(50), ts(100)))
            .unwrap();
        let (vs, es) = hg.gamma(s, ts(25)).unwrap();
        assert_eq!(vs, vec![a]);
        assert!(es.is_empty());
        let (vs, es) = hg.gamma(s, ts(75)).unwrap();
        assert_eq!(vs, vec![a, b]);
        assert_eq!(es, vec![e]);
        let (vs, _) = hg.gamma(s, ts(500)).unwrap();
        assert_eq!(vs, vec![b]);
        // λ and ρ of a subgraph
        assert_eq!(
            hg.lambda(ElementRef::Subgraph(s)).unwrap(),
            vec![Label::new("Cluster")]
        );
        assert_eq!(hg.rho(ElementRef::Subgraph(s)).unwrap(), Interval::ALL);
    }

    #[test]
    fn close_vertex_kind_checked() {
        let mut hg = HyGraph::new();
        let sid = hg.add_series(balance_series());
        let card = hg.add_ts_vertex(["Card"], sid).unwrap();
        assert!(hg.close_vertex(card, ts(10)).is_err());
        let user = hg.add_pg_vertex(["User"], props! {});
        hg.close_vertex(user, ts(10)).unwrap();
        assert!(!hg.rho(ElementRef::Vertex(user)).unwrap().contains(ts(10)));
    }

    #[test]
    fn kind_partition_iterators() {
        let mut hg = HyGraph::new();
        let sid = hg.add_series(balance_series());
        hg.add_pg_vertex(["A"], props! {});
        hg.add_ts_vertex(["B"], sid).unwrap();
        hg.add_pg_vertex(["C"], props! {});
        assert_eq!(hg.vertices_of_kind(ElementKind::Pg).count(), 2);
        assert_eq!(hg.vertices_of_kind(ElementKind::Ts).count(), 1);
    }

    #[test]
    fn validate_full_instance() {
        let mut hg = HyGraph::new();
        let sid = hg.add_series(balance_series());
        let a = hg.add_pg_vertex(["A"], props! {});
        let card = hg.add_ts_vertex(["Card"], sid).unwrap();
        hg.add_pg_edge(a, card, ["OWNS"], props! {}).unwrap();
        hg.set_property(ElementRef::Vertex(a), "metric", sid)
            .unwrap();
        let s = hg.create_subgraph(["G"], props! {}, Interval::new(ts(0), ts(100)));
        hg.add_subgraph_vertex(s, a, Interval::new(ts(0), ts(50)))
            .unwrap();
        assert!(hg.validate().is_ok());
        // membership outside subgraph validity fails validation
        hg.add_subgraph_vertex(s, a, Interval::new(ts(0), ts(200)))
            .unwrap();
        assert!(matches!(
            hg.validate().unwrap_err(),
            HyGraphError::TemporalIntegrity(_)
        ));
    }

    #[test]
    fn topology_runs_graph_algorithms() {
        let mut hg = HyGraph::new();
        let sid = hg.add_series(balance_series());
        let a = hg.add_pg_vertex(["A"], props! {});
        let b = hg.add_ts_vertex(["B"], sid).unwrap();
        hg.add_pg_edge(a, b, ["E"], props! {}).unwrap();
        // graph algorithms see both kinds uniformly
        let (assign, n) =
            hygraph_graph::algorithms::components::connected_components(hg.topology());
        assert_eq!(n, 1);
        assert_eq!(assign.len(), 2);
    }
}
