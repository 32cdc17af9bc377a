//! Subgraph pattern matching (Table 2, row Q1 — graph side; the
//! machinery behind the paper's Listing 1 fraud query).
//!
//! A [`Pattern`] is a small graph of variables with label and property
//! constraints. Matching follows Cypher semantics: *edge-isomorphic*
//! (each graph edge binds at most one pattern edge per match) with vertex
//! repetition allowed unless [`Pattern::distinct_vertices`] is set.
//! Matching is backtracking search seeded from the most selective
//! pattern vertex, extending along pattern edges through adjacency lists.
//!
//! Every variable owns a numbered slot ([`Vars`]), fixed when the
//! pattern is built, and a [`Binding`] is one slot array: the search
//! writes element ids into slots and never hashes or clones a name.

use crate::graph::{EdgeData, TemporalGraph, VertexData};
use hygraph_types::{EdgeId, Label, Timestamp, Value, VertexId};
use std::collections::BTreeMap;
use std::ops::Range;

/// Comparison operator for property predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs op rhs` with SQL-ish null semantics (null never
    /// matches).
    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        if lhs.is_null() || rhs.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => lhs.sql_eq(rhs).unwrap_or(false),
            CmpOp::Ne => lhs.sql_eq(rhs).map(|b| !b).unwrap_or(false),
            CmpOp::Lt => lhs.total_cmp(rhs).is_lt(),
            CmpOp::Le => lhs.total_cmp(rhs).is_le(),
            CmpOp::Gt => lhs.total_cmp(rhs).is_gt(),
            CmpOp::Ge => lhs.total_cmp(rhs).is_ge(),
        }
    }
}

/// A static-property predicate `element.key op value`.
#[derive(Clone, Debug, PartialEq)]
pub struct PropPredicate {
    /// Property key to read.
    pub key: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: Value,
}

impl PropPredicate {
    /// Builds a predicate.
    pub fn new(key: impl Into<String>, op: CmpOp, value: impl Into<Value>) -> Self {
        Self {
            key: key.into(),
            op,
            value: value.into(),
        }
    }

    fn holds(&self, props: &hygraph_types::PropertyMap) -> bool {
        props
            .static_value(&self.key)
            .is_some_and(|v| self.op.eval(v, &self.value))
    }
}

/// Direction constraint of a pattern edge relative to its `from` vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `(from)-[]->(to)`
    Out,
    /// `(from)<-[]-(to)`
    In,
    /// `(from)-[]-(to)`
    Any,
}

/// A pattern vertex: a variable slot with optional label and property
/// constraints.
#[derive(Clone, Debug)]
pub struct PatternVertex {
    /// The [`Binding`] slot the match writes this vertex into.
    pub slot: usize,
    /// Required labels (all must be present).
    pub labels: Vec<Label>,
    /// Static property predicates.
    pub preds: Vec<PropPredicate>,
    /// Predicates pushed down from a query-level filter. Enforced during
    /// matching exactly like `preds`, but excluded from the selectivity
    /// estimate, so pushing a predicate never changes the enumeration
    /// order — the surviving bindings are an order-preserving subsequence
    /// of the un-pushed pattern's bindings.
    pub pushed: Vec<PropPredicate>,
}

/// A pattern edge between two pattern vertices (referenced by index).
#[derive(Clone, Debug)]
pub struct PatternEdge {
    /// The [`Binding`] slot of the edge's variable (`None`: anonymous,
    /// matched but not reported).
    pub slot: Option<usize>,
    /// Index of the source pattern vertex.
    pub from: usize,
    /// Index of the target pattern vertex.
    pub to: usize,
    /// Required labels (all must be present).
    pub labels: Vec<Label>,
    /// Static property predicates.
    pub preds: Vec<PropPredicate>,
    /// Pushed-down filter predicates (see [`PatternVertex::pushed`]).
    pub pushed: Vec<PropPredicate>,
    /// Direction constraint.
    pub direction: Direction,
}

/// Canonical key of one match emission: a pure function of the
/// assignment (vertex/edge choices plus, for each edge slot, which
/// adjacency-list occurrence produced it).
///
/// Layout: for each depth of the pattern's canonical [`plan
/// order`](Pattern::find), the bound vertex id, followed by one
/// occurrence word `(side << 63) | edge_id` per pattern-edge slot whose
/// later endpoint is that depth (slots in ascending index order; side 0
/// = found in the `from` vertex's out-adjacency, side 1 = in-adjacency).
/// Because all candidate orders inside [`Pattern::find`] are ascending
/// (append-only adjacency lists, sorted anchored candidates, insertion
/// -ordered label index), iterating matches in ascending key order
/// reproduces `find`'s emission order *including multiplicity*: a
/// self-loop graph edge occurs in both adjacency lists, is emitted
/// twice by `find`, and yields two keys differing only in the side bit.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchKey(pub Vec<u64>);

/// The element held by one [`Binding`] slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bound {
    /// A vertex variable's match.
    Vertex(VertexId),
    /// An edge variable's match.
    Edge(EdgeId),
}

/// The numbering of match variables into [`Binding`] slots: slot `i`
/// belongs to the `i`-th distinct `(name, kind)` registered. A vertex
/// and an edge variable of the same name get separate slots. Numbering
/// only ever appends, so several patterns built over one growing table
/// agree on every slot they share.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Vars {
    /// `(name, is_edge)` per slot.
    names: Vec<(String, bool)>,
}

impl Vars {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, name: &str, edge: bool) -> Option<usize> {
        self.names.iter().position(|(n, e)| *e == edge && n == name)
    }

    /// The slot of `name` (an edge variable when `edge`), registering it
    /// if new.
    fn slot(&mut self, name: &str, edge: bool) -> usize {
        self.find(name, edge).unwrap_or_else(|| {
            self.names.push((name.to_owned(), edge));
            self.names.len() - 1
        })
    }

    /// The slot of vertex variable `name`, if registered.
    pub fn vertex(&self, name: &str) -> Option<usize> {
        self.find(name, false)
    }

    /// The slot of edge variable `name`, if registered.
    pub fn edge(&self, name: &str) -> Option<usize> {
        self.find(name, true)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no variable is registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One match: the element bound to each variable slot (see [`Vars`]).
/// Slots of variables the producing pattern does not have stay `None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Binding {
    slots: Box<[Option<Bound>]>,
}

impl From<Vec<Option<Bound>>> for Binding {
    fn from(slots: Vec<Option<Bound>>) -> Self {
        Self {
            slots: slots.into_boxed_slice(),
        }
    }
}

impl Binding {
    /// All slots, in slot order.
    pub fn slots(&self) -> &[Option<Bound>] {
        &self.slots
    }

    /// The vertex in `slot`, if it holds one.
    pub fn vertex(&self, slot: usize) -> Option<VertexId> {
        match self.slots.get(slot) {
            Some(Some(Bound::Vertex(v))) => Some(*v),
            _ => None,
        }
    }

    /// The edge in `slot`, if it holds one.
    pub fn edge(&self, slot: usize) -> Option<EdgeId> {
        match self.slots.get(slot) {
            Some(Some(Bound::Edge(e))) => Some(*e),
            _ => None,
        }
    }

    /// Every bound vertex, in slot order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Some(Bound::Vertex(v)) => Some(*v),
            _ => None,
        })
    }

    /// Every bound edge, in slot order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Some(Bound::Edge(e)) => Some(*e),
            _ => None,
        })
    }

    /// The element bound to variable `name` under `vars`: the vertex
    /// variable of that name when bound, else the edge variable.
    pub fn get(&self, vars: &Vars, name: &str) -> Option<Bound> {
        vars.vertex(name)
            .and_then(|s| self.vertex(s))
            .map(Bound::Vertex)
            .or_else(|| vars.edge(name).and_then(|s| self.edge(s)).map(Bound::Edge))
    }
}

/// A declarative subgraph pattern.
#[derive(Clone, Debug, Default)]
pub struct Pattern {
    vertices: Vec<PatternVertex>,
    edges: Vec<PatternEdge>,
    vars: Vars,
    valid_at: Option<Timestamp>,
    distinct_vertices: bool,
}

/// One depth of a compiled search order.
#[derive(Clone, Debug)]
struct Step {
    /// The pattern vertex bound at this depth.
    pv: usize,
    /// The first pending edge that is not a pattern self-loop: the
    /// vertex's candidates come from expanding it.
    anchor: Option<Anchor>,
    /// The pattern edges whose later endpoint is this depth, ascending.
    /// They are bound here, in this nesting order (the anchor included).
    pending: Vec<usize>,
}

#[derive(Clone, Copy, Debug)]
struct Anchor {
    /// The anchor pattern edge.
    edge: usize,
    /// Its endpoint bound at an earlier depth.
    bound: usize,
    /// Whether `bound` is the edge's `from` vertex.
    bound_is_from: bool,
}

/// One entry of an anchor expansion: `(neighbour, part, edge)`, where
/// part `false`/`true` is the first/second adjacency list walked.
/// Ascending order is candidates by id, each candidate's edges in the
/// order `find` binds them.
type Occurrence = (VertexId, bool, EdgeId);

/// Receives each complete assignment (pattern-vertex and pattern-edge
/// order); returns `false` to stop the search.
trait Emit: FnMut(&[Option<VertexId>], &[Option<EdgeId>]) -> bool {}
impl<F: FnMut(&[Option<VertexId>], &[Option<EdgeId>]) -> bool> Emit for F {}

/// The backtracking state of one search: the one expansion routine
/// behind both [`Pattern::find`] and the keyed (pinned) searches.
struct Search<'a> {
    p: &'a Pattern,
    g: &'a TemporalGraph,
    steps: Vec<Step>,
    /// Per pattern vertex / edge: the only element it may bind (empty
    /// slices pin nothing).
    vpin: &'a [Option<VertexId>],
    epin: &'a [Option<EdgeId>],
    vbind: Vec<Option<VertexId>>,
    ebind: Vec<Option<EdgeId>>,
    /// Per-depth anchor expansion buffers, reused across siblings.
    expansions: Vec<Vec<Occurrence>>,
}

impl<'a> Search<'a> {
    fn run(
        p: &'a Pattern,
        g: &'a TemporalGraph,
        order: &[usize],
        vpin: &'a [Option<VertexId>],
        epin: &'a [Option<EdgeId>],
        emit: &mut impl Emit,
    ) {
        let mut s = Search {
            p,
            g,
            steps: p.steps(order),
            vpin,
            epin,
            vbind: vec![None; p.vertices.len()],
            ebind: vec![None; p.edges.len()],
            expansions: vec![Vec::new(); order.len()],
        };
        s.descend(0, emit);
    }

    /// Binds the vertex of depth `d` to each candidate in turn.
    fn descend(&mut self, d: usize, emit: &mut impl Emit) -> bool {
        let Some(step) = self.steps.get(d) else {
            return emit(&self.vbind, &self.ebind);
        };
        let (pv, anchor, g) = (step.pv, step.anchor, self.g);
        if let Some(a) = anchor {
            self.expand(d, pv, a);
            let mut i = 0;
            while let Some(&(cand, ..)) = self.expansions[d].get(i) {
                let end = i + self.expansions[d][i..]
                    .iter()
                    .take_while(|o| o.0 == cand)
                    .count();
                if let Ok(v) = g.vertex(cand) {
                    if !self.try_vertex(d, v, i..end, emit) {
                        return false;
                    }
                }
                i = end;
            }
            return true;
        }
        if let Some(pin) = self.vpin.get(pv).copied().flatten() {
            return g
                .vertex(pin)
                .map_or(true, |v| self.try_vertex(d, v, 0..0, emit));
        }
        // unanchored: seed from the label index when the pattern vertex
        // is labelled, else the full vertex scan (exactly one of the two
        // chained iterators is non-empty)
        let label = self.p.vertices[pv].labels.first();
        let labelled = label.map(|l| g.vertices_with_label(l.as_str()));
        let all = label.is_none().then(|| g.vertices());
        for v in labelled
            .into_iter()
            .flatten()
            .chain(all.into_iter().flatten())
        {
            if !self.try_vertex(d, v, 0..0, emit) {
                return false;
            }
        }
        true
    }

    /// Fills `expansions[d]` from one walk of the bound endpoint's
    /// adjacency: every edge that can bind the anchor, with the
    /// neighbour it leads to, sorted into `find`'s order. `find` binds an
    /// edge in the order of its `from` vertex's incident list (out, then
    /// in); seen from the bound endpoint `b`, that is out-then-in when
    /// `b` is `from`, in-then-out otherwise. The first list holds the
    /// forward (`Out`) edges, the second the backward (`In`) ones, and a
    /// directed anchor walks only its own list. A graph self-loop sits in
    /// both lists and matches either way, so it is kept twice (once per
    /// adjacency occurrence, as [`MatchKey`] counts it), the unwalked
    /// list's occurrence included.
    fn expand(&mut self, d: usize, pv: usize, a: Anchor) {
        let (p, g) = (self.p, self.g);
        let pe = &p.edges[a.edge];
        let b = self.vbind[a.bound].expect("anchor endpoint bound");
        let vpin = self.vpin.get(pv).copied().flatten();
        let epin = self.epin.get(a.edge).copied().flatten();
        let buf = &mut self.expansions[d];
        buf.clear();
        let mut push = |second: bool, e: &EdgeData| {
            let nbr = e.other(b);
            if vpin.is_none_or(|v| v == nbr) && epin.is_none_or(|id| id == e.id) && p.edge_ok(pe, e)
            {
                buf.push((nbr, second, e.id));
                if nbr == b && pe.direction != Direction::Any {
                    buf.push((nbr, !second, e.id));
                }
            }
        };
        // which of the two lists (false = first) out(b) and in(b) are
        let (out_part, in_part) = (!a.bound_is_from, a.bound_is_from);
        let walks = |second: bool| match pe.direction {
            Direction::Any => true,
            Direction::Out => !second,
            Direction::In => second,
        };
        if walks(out_part) {
            g.out_edges(b).for_each(|e| push(out_part, e));
        }
        if walks(in_part) {
            g.in_edges(b).for_each(|e| push(in_part, e));
        }
        buf.sort_unstable();
    }

    /// Binds depth `d`'s vertex to `v`, then its pending edges; `group`
    /// is `v`'s range of `expansions[d]` (the anchor's candidate edges).
    fn try_vertex(
        &mut self,
        d: usize,
        v: &VertexData,
        group: Range<usize>,
        emit: &mut impl Emit,
    ) -> bool {
        let pv = self.steps[d].pv;
        if !self.p.vertex_ok(&self.p.vertices[pv], v) {
            return true;
        }
        if self.p.distinct_vertices && self.vbind.contains(&Some(v.id)) {
            return true;
        }
        self.vbind[pv] = Some(v.id);
        let go = self.bind_edges(d, 0, group, emit);
        self.vbind[pv] = None;
        go
    }

    /// Binds pending edge `k` of depth `d` to each candidate in turn:
    /// the anchor from its expansion group, any other edge (a cycle
    /// closer, a parallel pattern edge, a pattern self-loop) by scanning
    /// its `from` vertex's incident edges.
    fn bind_edges(
        &mut self,
        d: usize,
        k: usize,
        group: Range<usize>,
        emit: &mut impl Emit,
    ) -> bool {
        let step = &self.steps[d];
        let Some(&ei) = step.pending.get(k) else {
            return self.descend(d + 1, emit);
        };
        if step.anchor.is_some_and(|a| a.edge == ei) {
            for i in group.clone() {
                let id = self.expansions[d][i].2;
                if !self.try_edge(d, k, ei, id, group.clone(), emit) {
                    return false;
                }
            }
            return true;
        }
        let (p, g) = (self.p, self.g);
        let pe = &p.edges[ei];
        let from_v = self.vbind[pe.from].expect("bound");
        let to_v = self.vbind[pe.to].expect("bound");
        let pin = self.epin.get(ei).copied().flatten();
        for e in g.incident_edges(from_v) {
            let fwd = e.src == from_v && e.dst == to_v;
            let bwd = e.src == to_v && e.dst == from_v;
            let dir_ok = match pe.direction {
                Direction::Out => fwd,
                Direction::In => bwd,
                Direction::Any => fwd || bwd,
            };
            if !dir_ok || pin.is_some_and(|id| id != e.id) || !p.edge_ok(pe, e) {
                continue;
            }
            if !self.try_edge(d, k, ei, e.id, group.clone(), emit) {
                return false;
            }
        }
        true
    }

    fn try_edge(
        &mut self,
        d: usize,
        k: usize,
        ei: usize,
        id: EdgeId,
        group: Range<usize>,
        emit: &mut impl Emit,
    ) -> bool {
        // Cypher semantics: edges are used at most once per match
        if self.ebind.contains(&Some(id)) {
            return true;
        }
        self.ebind[ei] = Some(id);
        let go = self.bind_edges(d, k + 1, group, emit);
        self.ebind[ei] = None;
        go
    }
}

impl Pattern {
    /// An empty pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pattern whose variables are numbered in (and extend)
    /// `vars` — how a query's patterns share one slot layout.
    pub fn with_vars(vars: Vars) -> Self {
        Self {
            vars,
            ..Self::default()
        }
    }

    /// The variable → slot table of this pattern's bindings.
    pub fn vars(&self) -> &Vars {
        &self.vars
    }

    /// Adds a pattern vertex bound to variable `var`; returns its index
    /// for edge construction.
    pub fn vertex(
        &mut self,
        var: impl AsRef<str>,
        labels: impl IntoIterator<Item = impl Into<Label>>,
    ) -> usize {
        self.vertices.push(PatternVertex {
            slot: self.vars.slot(var.as_ref(), false),
            labels: labels.into_iter().map(Into::into).collect(),
            preds: Vec::new(),
            pushed: Vec::new(),
        });
        self.vertices.len() - 1
    }

    /// Adds a property predicate to pattern vertex `idx`.
    pub fn vertex_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.vertices[idx].preds.push(pred);
        self
    }

    /// Adds a *pushed-down* predicate to pattern vertex `idx`: enforced
    /// during matching but invisible to the planner's selectivity
    /// ordering, so the result is an order-preserving pruned subsequence
    /// of the matches without the predicate.
    pub fn vertex_pushed_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.vertices[idx].pushed.push(pred);
        self
    }

    /// Adds a pattern edge; returns its index.
    pub fn edge(
        &mut self,
        var: Option<&str>,
        from: usize,
        to: usize,
        labels: impl IntoIterator<Item = impl Into<Label>>,
        direction: Direction,
    ) -> usize {
        assert!(from < self.vertices.len() && to < self.vertices.len());
        self.edges.push(PatternEdge {
            slot: var.map(|v| self.vars.slot(v, true)),
            from,
            to,
            labels: labels.into_iter().map(Into::into).collect(),
            preds: Vec::new(),
            pushed: Vec::new(),
            direction,
        });
        self.edges.len() - 1
    }

    /// Adds a property predicate to pattern edge `idx`.
    pub fn edge_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.edges[idx].preds.push(pred);
        self
    }

    /// Adds a *pushed-down* predicate to pattern edge `idx` (see
    /// [`Self::vertex_pushed_pred`]).
    pub fn edge_pushed_pred(&mut self, idx: usize, pred: PropPredicate) -> &mut Self {
        self.edges[idx].pushed.push(pred);
        self
    }

    /// Restricts matches to elements valid at `t` (ρ-aware matching).
    pub fn valid_at(&mut self, t: Timestamp) -> &mut Self {
        self.valid_at = Some(t);
        self
    }

    /// Requires all vertex variables to bind distinct vertices
    /// (isomorphic matching).
    pub fn distinct_vertices(&mut self, on: bool) -> &mut Self {
        self.distinct_vertices = on;
        self
    }

    /// Number of pattern vertices.
    pub fn vertex_len(&self) -> usize {
        self.vertices.len()
    }

    fn vertex_ok(&self, pv: &PatternVertex, v: &VertexData) -> bool {
        if let Some(t) = self.valid_at {
            if !v.validity.contains(t) {
                return false;
            }
        }
        pv.labels.iter().all(|l| v.has_label(l.as_str()))
            && pv.preds.iter().all(|p| p.holds(&v.props))
            && pv.pushed.iter().all(|p| p.holds(&v.props))
    }

    fn edge_ok(&self, pe: &PatternEdge, e: &EdgeData) -> bool {
        if let Some(t) = self.valid_at {
            if !e.validity.contains(t) {
                return false;
            }
        }
        pe.labels.iter().all(|l| e.has_label(l.as_str()))
            && pe.preds.iter().all(|p| p.holds(&e.props))
            && pe.pushed.iter().all(|p| p.holds(&e.props))
    }

    /// Finds all matches of the pattern in `g`, visiting each via
    /// `on_match`. Return `false` from the callback to stop early. The
    /// visited binding is one buffer rewritten in place per match.
    pub fn find(&self, g: &TemporalGraph, mut on_match: impl FnMut(&Binding) -> bool) {
        if self.vertices.is_empty() {
            return;
        }
        let mut b = Binding::from(vec![None; self.vars.len()]);
        Search::run(self, g, &self.plan_order(&[]), &[], &[], &mut |vb, eb| {
            self.fill(&mut b.slots, vb, eb);
            on_match(&b)
        });
    }

    /// Collects all matches (convenience over [`Self::find`]); each match
    /// is materialised once, straight from the search state.
    pub fn find_all(&self, g: &TemporalGraph) -> Vec<Binding> {
        let mut out = Vec::new();
        if !self.vertices.is_empty() {
            Search::run(self, g, &self.plan_order(&[]), &[], &[], &mut |vb, eb| {
                out.push(self.binding(vb, eb));
                true
            });
        }
        out
    }

    /// Writes a complete assignment into binding slots. Every slot of
    /// this pattern is written; a slot shared by several pattern edges
    /// ends up holding the highest-indexed one.
    fn fill(&self, slots: &mut [Option<Bound>], vb: &[Option<VertexId>], eb: &[Option<EdgeId>]) {
        for (pv, v) in self.vertices.iter().zip(vb) {
            slots[pv.slot] = v.map(Bound::Vertex);
        }
        for (pe, e) in self.edges.iter().zip(eb) {
            if let Some(s) = pe.slot {
                slots[s] = e.map(Bound::Edge);
            }
        }
    }

    fn binding(&self, vb: &[Option<VertexId>], eb: &[Option<EdgeId>]) -> Binding {
        let mut slots = vec![None; self.vars.len()];
        self.fill(&mut slots, vb, eb);
        Binding::from(slots)
    }

    fn selectivity(&self, idx: usize) -> usize {
        self.vertices[idx].labels.len() * 2 + self.vertices[idx].preds.len() * 3
    }

    /// The search order of the pattern vertices. Unpinned (the canonical
    /// order of [`Self::find`]): seed with the most label/pred-constrained
    /// vertex. Pinned: start from the pinned positions, so search cost
    /// radiates outward from the seed element. Then repeatedly add the
    /// vertex most connected to the chosen set.
    fn plan_order(&self, pinned: &[bool]) -> Vec<usize> {
        let n = self.vertices.len();
        let mut order: Vec<usize> = (0..n).filter(|&i| pinned.get(i) == Some(&true)).collect();
        if order.is_empty() {
            let seed = (0..n)
                .max_by_key(|&i| self.selectivity(i))
                .expect("non-empty");
            order.push(seed);
        }
        let mut chosen = vec![false; n];
        for &i in &order {
            chosen[i] = true;
        }
        while order.len() < n {
            // prefer connected-to-chosen vertices, tie-break on selectivity
            let next = (0..n)
                .filter(|&i| !chosen[i])
                .max_by_key(|&i| {
                    let connected = self
                        .edges
                        .iter()
                        .any(|e| (e.from == i && chosen[e.to]) || (e.to == i && chosen[e.from]));
                    (connected as usize, self.selectivity(i))
                })
                .expect("remaining vertex exists");
            order.push(next);
            chosen[next] = true;
        }
        order
    }

    /// Compiles a vertex order into search steps: each pattern edge is
    /// pending at the depth of its later endpoint, and the first pending
    /// edge that is not a pattern self-loop anchors that depth.
    fn steps(&self, order: &[usize]) -> Vec<Step> {
        let mut pos = vec![0usize; self.vertices.len()];
        for (d, &vi) in order.iter().enumerate() {
            pos[vi] = d;
        }
        let mut steps: Vec<Step> = order
            .iter()
            .map(|&pv| Step {
                pv,
                anchor: None,
                pending: Vec::new(),
            })
            .collect();
        for (ei, pe) in self.edges.iter().enumerate() {
            let step = &mut steps[pos[pe.from].max(pos[pe.to])];
            step.pending.push(ei);
            if step.anchor.is_none() && pe.from != pe.to {
                let bound_is_from = pe.to == step.pv;
                step.anchor = Some(Anchor {
                    edge: ei,
                    bound: if bound_is_from { pe.from } else { pe.to },
                    bound_is_from,
                });
            }
        }
        steps
    }

    // ---- keyed matching (incremental-maintenance support) -------------

    /// All matches, keyed by [`MatchKey`]: iterating the returned map in
    /// key order visits exactly the bindings [`Self::find`] emits, in
    /// the same order and with the same multiplicity (each self-loop
    /// occurrence gets its own key).
    pub fn find_keyed(&self, g: &TemporalGraph) -> BTreeMap<MatchKey, Binding> {
        let mut out = BTreeMap::new();
        self.collect_keyed(g, &[], &[], &mut out);
        out
    }

    /// Collects (into `out`) every match whose assignment binds vertex
    /// `v` at one or more pattern-vertex positions. Search cost radiates
    /// from `v` rather than scanning the graph; results already present
    /// in `out` are kept as-is (keys are unique per assignment).
    pub fn find_keyed_with_vertex(
        &self,
        g: &TemporalGraph,
        v: VertexId,
        out: &mut BTreeMap<MatchKey, Binding>,
    ) {
        for i in 0..self.vertices.len() {
            let mut vpin = vec![None; self.vertices.len()];
            vpin[i] = Some(v);
            self.collect_keyed(g, &vpin, &[], out);
        }
    }

    /// Collects (into `out`) every match whose assignment binds graph
    /// edge `id` at one or more pattern-edge slots (both orientations
    /// for [`Direction::Any`] slots).
    pub fn find_keyed_with_edge(
        &self,
        g: &TemporalGraph,
        id: EdgeId,
        out: &mut BTreeMap<MatchKey, Binding>,
    ) {
        let Ok(e) = g.edge(id) else { return };
        for (ei, pe) in self.edges.iter().enumerate() {
            // candidate (from, to) vertex assignments for this slot
            let mut orients: Vec<(VertexId, VertexId)> = Vec::new();
            match pe.direction {
                Direction::Out => orients.push((e.src, e.dst)),
                Direction::In => orients.push((e.dst, e.src)),
                Direction::Any => {
                    orients.push((e.src, e.dst));
                    if e.src != e.dst {
                        orients.push((e.dst, e.src));
                    }
                }
            }
            for (fv, tv) in orients {
                if pe.from == pe.to && fv != tv {
                    continue; // pattern self-loop slot needs a graph self-loop
                }
                let mut vpin = vec![None; self.vertices.len()];
                vpin[pe.from] = Some(fv);
                vpin[pe.to] = Some(tv);
                let mut epin = vec![None; self.edges.len()];
                epin[ei] = Some(id);
                self.collect_keyed(g, &vpin, &epin, out);
            }
        }
    }

    /// Shared engine behind the keyed entry points: runs the search
    /// honouring the pins in an order radiating from them, computes each
    /// assignment's canonical key(s) post-hoc and inserts into `out`
    /// (insert-if-absent, so overlapping pinned searches — and the
    /// search's own second emission of a self-loop — dedupe naturally).
    fn collect_keyed(
        &self,
        g: &TemporalGraph,
        vpin: &[Option<VertexId>],
        epin: &[Option<EdgeId>],
        out: &mut BTreeMap<MatchKey, Binding>,
    ) {
        if self.vertices.is_empty() {
            return;
        }
        let canon = self.steps(&self.plan_order(&[]));
        let pinned: Vec<bool> = vpin.iter().map(Option::is_some).collect();
        Search::run(
            self,
            g,
            &self.plan_order(&pinned),
            vpin,
            epin,
            &mut |vb, eb| {
                for key in self.canonical_keys(g, &canon, vb, eb) {
                    out.entry(key).or_insert_with(|| self.binding(vb, eb));
                }
                true
            },
        );
    }

    /// Computes the canonical key(s) of a complete assignment, walking
    /// the canonical steps: one key normally; 2^k keys when k slots bind
    /// graph self-loops (one per adjacency-occurrence combination,
    /// mirroring `find`'s emissions).
    fn canonical_keys(
        &self,
        g: &TemporalGraph,
        canon: &[Step],
        vbind: &[Option<VertexId>],
        ebind: &[Option<EdgeId>],
    ) -> Vec<MatchKey> {
        let mut keys: Vec<Vec<u64>> = vec![Vec::with_capacity(canon.len() + self.edges.len())];
        for step in canon {
            let v = vbind[step.pv].expect("complete assignment");
            for k in &mut keys {
                k.push(v.index() as u64);
            }
            for &ei in &step.pending {
                let id = ebind[ei].expect("complete assignment");
                let Ok(e) = g.edge(id) else { continue };
                let from_v = vbind[self.edges[ei].from].expect("bound");
                let occ0 = id.index() as u64;
                let occ1 = (1u64 << 63) | occ0;
                if e.src == e.dst {
                    let drained = std::mem::take(&mut keys);
                    for k in drained {
                        let mut k2 = k.clone();
                        let mut k1 = k;
                        k1.push(occ0);
                        k2.push(occ1);
                        keys.push(k1);
                        keys.push(k2);
                    }
                } else {
                    let occ = if e.src == from_v { occ0 } else { occ1 };
                    for k in &mut keys {
                        k.push(occ);
                    }
                }
            }
        }
        keys.into_iter().map(MatchKey).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_types::{props, Interval};
    use std::collections::HashMap;

    /// The vertex `b` binds to variable `name` of `p`.
    fn vx(p: &Pattern, b: &Binding, name: &str) -> VertexId {
        b.vertex(p.vars().vertex(name).expect("vertex var"))
            .expect("bound vertex")
    }

    /// The edge `b` binds to variable `name` of `p`.
    fn ex(p: &Pattern, b: &Binding, name: &str) -> EdgeId {
        b.edge(p.vars().edge(name).expect("edge var"))
            .expect("bound edge")
    }

    fn ts(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    /// user1 -USES-> card1 -TX{amount}-> m1/m2 ; user2 -USES-> card2 -TX-> m1
    fn fraud_graph() -> (TemporalGraph, HashMap<&'static str, VertexId>) {
        let mut g = TemporalGraph::new();
        let u1 = g.add_vertex(["User"], props! {"name" => "user1"});
        let u2 = g.add_vertex(["User"], props! {"name" => "user2"});
        let c1 = g.add_vertex(["CreditCard"], props! {"num" => "c1"});
        let c2 = g.add_vertex(["CreditCard"], props! {"num" => "c2"});
        let m1 = g.add_vertex(["Merchant"], props! {"name" => "m1"});
        let m2 = g.add_vertex(["Merchant"], props! {"name" => "m2"});
        g.add_edge(u1, c1, ["USES"], props! {}).unwrap();
        g.add_edge(u2, c2, ["USES"], props! {}).unwrap();
        g.add_edge(c1, m1, ["TX"], props! {"amount" => 1500.0})
            .unwrap();
        g.add_edge(c1, m2, ["TX"], props! {"amount" => 2000.0})
            .unwrap();
        g.add_edge(c2, m1, ["TX"], props! {"amount" => 30.0})
            .unwrap();
        let mut ids = HashMap::new();
        ids.insert("u1", u1);
        ids.insert("u2", u2);
        ids.insert("c1", c1);
        ids.insert("c2", c2);
        ids.insert("m1", m1);
        ids.insert("m2", m2);
        (g, ids)
    }

    #[test]
    fn single_vertex_pattern() {
        let (g, _) = fraud_graph();
        let mut p = Pattern::new();
        p.vertex("u", ["User"]);
        assert_eq!(p.find_all(&g).len(), 2);
        let mut p = Pattern::new();
        p.vertex("x", ["Nothing"]);
        assert!(p.find_all(&g).is_empty());
    }

    #[test]
    fn listing1_style_high_amount_tx() {
        // MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX WHERE t.amount>1000]->(m:Merchant)
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        let c = p.vertex("c", ["CreditCard"]);
        let m = p.vertex("m", ["Merchant"]);
        p.edge(None, u, c, ["USES"], Direction::Out);
        let tx = p.edge(Some("t"), c, m, ["TX"], Direction::Out);
        p.edge_pred(tx, PropPredicate::new("amount", CmpOp::Gt, 1000.0));
        let matches = p.find_all(&g);
        assert_eq!(
            matches.len(),
            2,
            "two high-amount transactions, both by user1"
        );
        for b in &matches {
            assert_eq!(vx(&p, b, "u"), ids["u1"]);
            ex(&p, b, "t");
        }
    }

    #[test]
    fn vertex_predicate() {
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        p.vertex_pred(u, PropPredicate::new("name", CmpOp::Eq, "user2"));
        let matches = p.find_all(&g);
        assert_eq!(matches.len(), 1);
        assert_eq!(vx(&p, &matches[0], "u"), ids["u2"]);
    }

    #[test]
    fn direction_constraints() {
        let (g, ids) = fraud_graph();
        // merchants reached FROM cards: (m)<-[:TX]-(c)
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(None, m, c, ["TX"], Direction::In);
        let ms: Vec<VertexId> = p.find_all(&g).iter().map(|b| vx(&p, b, "m")).collect();
        assert_eq!(ms.len(), 3);
        assert!(ms.contains(&ids["m1"]) && ms.contains(&ids["m2"]));
        // wrong direction yields nothing
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(None, m, c, ["TX"], Direction::Out);
        assert!(p.find_all(&g).is_empty());
        // Any matches regardless
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(None, m, c, ["TX"], Direction::Any);
        assert_eq!(p.find_all(&g).len(), 3);
    }

    #[test]
    fn edge_uniqueness_cypher_semantics() {
        // pattern (a)-[e1]->(b), (a)-[e2]->(c): e1 != e2 enforced, so a card
        // with two TX edges yields exactly the 2 ordered pairs
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let c = p.vertex("c", ["CreditCard"]);
        let m1 = p.vertex("m1", ["Merchant"]);
        let m2 = p.vertex("m2", ["Merchant"]);
        p.edge(Some("t1"), c, m1, ["TX"], Direction::Out);
        p.edge(Some("t2"), c, m2, ["TX"], Direction::Out);
        let matches = p.find_all(&g);
        // only card1 has two TX edges; ordered pairs (m1,m2) and (m2,m1)
        assert_eq!(matches.len(), 2);
        for b in &matches {
            assert_eq!(vx(&p, b, "c"), ids["c1"]);
            assert_ne!(ex(&p, b, "t1"), ex(&p, b, "t2"));
        }
    }

    #[test]
    fn distinct_vertices_flag() {
        let (g, _) = fraud_graph();
        // (a:Merchant), (b:Merchant) without edges: homomorphic gives 4
        let mut p = Pattern::new();
        p.vertex("a", ["Merchant"]);
        p.vertex("b", ["Merchant"]);
        assert_eq!(p.find_all(&g).len(), 4);
        p.distinct_vertices(true);
        assert_eq!(p.find_all(&g).len(), 2);
    }

    #[test]
    fn temporal_pattern_matching() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex_valid(["N"], props! {}, Interval::new(ts(0), ts(100)));
        let b = g.add_vertex(["N"], props! {});
        g.add_edge_valid(a, b, ["E"], props! {}, Interval::new(ts(0), ts(50)))
            .unwrap();
        let mut p = Pattern::new();
        let x = p.vertex("x", ["N"]);
        let y = p.vertex("y", ["N"]);
        p.edge(None, x, y, ["E"], Direction::Out);
        p.valid_at(ts(25));
        assert_eq!(p.find_all(&g).len(), 1);
        p.valid_at(ts(75));
        assert!(p.find_all(&g).is_empty(), "edge expired at t=50");
    }

    #[test]
    fn early_stop() {
        let (g, _) = fraud_graph();
        let mut p = Pattern::new();
        p.vertex("u", ["User"]);
        let mut count = 0;
        p.find(&g, |_| {
            count += 1;
            false // stop after first
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn multi_hop_path_pattern() {
        // (u:User)-[:USES]->(c)-[:TX]->(m:Merchant {name=m1})
        let (g, ids) = fraud_graph();
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        let c = p.vertex("c", ["CreditCard"]);
        let m = p.vertex("m", ["Merchant"]);
        p.vertex_pred(m, PropPredicate::new("name", CmpOp::Eq, "m1"));
        p.edge(None, u, c, ["USES"], Direction::Out);
        p.edge(None, c, m, ["TX"], Direction::Out);
        let matches = p.find_all(&g);
        let users: Vec<VertexId> = matches.iter().map(|b| vx(&p, b, "u")).collect();
        assert_eq!(users.len(), 2, "both users transact with m1");
        assert!(users.contains(&ids["u1"]) && users.contains(&ids["u2"]));
    }

    #[test]
    fn pushed_preds_prune_without_reordering() {
        let (g, _) = fraud_graph();
        let build = |pushed: bool| {
            let mut p = Pattern::new();
            let u = p.vertex("u", ["User"]);
            let c = p.vertex("c", ["CreditCard"]);
            let m = p.vertex("m", ["Merchant"]);
            p.edge(None, u, c, ["USES"], Direction::Out);
            let tx = p.edge(Some("t"), c, m, ["TX"], Direction::Out);
            if pushed {
                p.edge_pushed_pred(tx, PropPredicate::new("amount", CmpOp::Gt, 1000.0));
                p.vertex_pushed_pred(m, PropPredicate::new("name", CmpOp::Eq, "m1"));
            }
            p
        };
        let all = build(false).find_all(&g);
        let pruned = build(true).find_all(&g);
        assert_eq!(pruned.len(), 1, "only user1's 1500.0 TX to m1 survives");
        // the pruned result is a subsequence of the un-pushed bindings,
        // in the same relative order
        let mut cursor = 0;
        for b in &pruned {
            let pos = all[cursor..]
                .iter()
                .position(|a| a == b)
                .expect("pruned binding present in full enumeration");
            cursor += pos + 1;
        }
    }

    /// Keyed enumeration must replay `find`'s emission sequence exactly
    /// — same bindings, same order, same multiplicity — when iterated
    /// in ascending key order.
    fn assert_keyed_matches_find(p: &Pattern, g: &TemporalGraph) {
        let sequential = p.find_all(g);
        let keyed: Vec<Binding> = p.find_keyed(g).into_values().collect();
        assert_eq!(
            sequential, keyed,
            "keyed map in key order must equal find() emission order"
        );
    }

    #[test]
    fn keyed_equals_find_on_fraud_patterns() {
        let (g, _) = fraud_graph();
        // multi-hop with edge var + preds
        let mut p = Pattern::new();
        let u = p.vertex("u", ["User"]);
        let c = p.vertex("c", ["CreditCard"]);
        let m = p.vertex("m", ["Merchant"]);
        p.edge(None, u, c, ["USES"], Direction::Out);
        let tx = p.edge(Some("t"), c, m, ["TX"], Direction::Out);
        p.edge_pred(tx, PropPredicate::new("amount", CmpOp::Gt, 10.0));
        assert_keyed_matches_find(&p, &g);
        // Any direction
        let mut p = Pattern::new();
        let m = p.vertex("m", ["Merchant"]);
        let c = p.vertex("c", ["CreditCard"]);
        p.edge(Some("t"), m, c, ["TX"], Direction::Any);
        assert_keyed_matches_find(&p, &g);
        // unlabeled full-scan seed + two slots sharing a vertex
        let mut p = Pattern::new();
        let c = p.vertex("c", [] as [&str; 0]);
        let m1 = p.vertex("m1", ["Merchant"]);
        let m2 = p.vertex("m2", ["Merchant"]);
        p.edge(Some("t1"), c, m1, ["TX"], Direction::Out);
        p.edge(Some("t2"), c, m2, ["TX"], Direction::Out);
        assert_keyed_matches_find(&p, &g);
    }

    #[test]
    fn keyed_self_loops_and_parallel_edges() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["N"], props! {});
        let b = g.add_vertex(["N"], props! {});
        g.add_edge(a, a, ["E"], props! {}).unwrap(); // self-loop
        g.add_edge(a, b, ["E"], props! {}).unwrap();
        g.add_edge(a, b, ["E"], props! {}).unwrap(); // parallel
        g.add_edge(b, a, ["E"], props! {}).unwrap();
        for dir in [Direction::Out, Direction::In, Direction::Any] {
            let mut p = Pattern::new();
            let x = p.vertex("x", ["N"]);
            let y = p.vertex("y", ["N"]);
            p.edge(Some("e"), x, y, ["E"], dir);
            assert_keyed_matches_find(&p, &g);
        }
        // the homomorphic self-loop match is emitted twice by find and
        // must occupy two keys in the map
        let mut p = Pattern::new();
        let x = p.vertex("x", ["N"]);
        let y = p.vertex("y", ["N"]);
        p.edge(Some("e"), x, y, ["E"], Direction::Out);
        let loops = p
            .find_all(&g)
            .iter()
            .filter(|m| vx(&p, m, "x") == a && vx(&p, m, "y") == a)
            .count();
        assert_eq!(loops, 2, "self-loop emitted once per adjacency occurrence");
    }

    /// Seeded (pinned) search over the new elements of a growth step
    /// must discover exactly the matches that appeared.
    #[test]
    fn seeded_search_covers_exactly_the_new_matches() {
        let build_pattern = |dir| {
            let mut p = Pattern::new();
            let u = p.vertex("u", ["User"]);
            let c = p.vertex("c", ["CreditCard"]);
            let m = p.vertex("m", [] as [&str; 0]);
            p.edge(Some("s"), u, c, ["USES"], Direction::Out);
            p.edge(Some("t"), c, m, ["TX"], dir);
            p
        };
        for dir in [Direction::Out, Direction::Any, Direction::In] {
            let p = build_pattern(dir);
            let (mut g, ids) = fraud_graph();
            let before = p.find_keyed(&g);
            // growth step: one new card wired to an existing user, one
            // new merchant, three new edges incl. one into existing m1
            let v0 = g.vertex_capacity();
            let e0 = g.edge_capacity();
            let c3 = g.add_vertex(["CreditCard"], props! {"num" => "c3"});
            let m3 = g.add_vertex(["Merchant"], props! {"name" => "m3"});
            g.add_edge(ids["u2"], c3, ["USES"], props! {}).unwrap();
            g.add_edge(c3, m3, ["TX"], props! {"amount" => 7.0})
                .unwrap();
            g.add_edge(c3, ids["m1"], ["TX"], props! {"amount" => 8.0})
                .unwrap();
            // reversed TX so the In/Any shapes also gain matches
            g.add_edge(m3, c3, ["TX"], props! {"amount" => 9.0})
                .unwrap();
            let after = p.find_keyed(&g);

            let mut grown = before.clone();
            for vi in v0..g.vertex_capacity() {
                p.find_keyed_with_vertex(&g, VertexId::from(vi), &mut grown);
            }
            for ei in e0..g.edge_capacity() {
                p.find_keyed_with_edge(&g, EdgeId::from(ei), &mut grown);
            }
            assert_eq!(
                grown, after,
                "old matches + seeded discoveries == full re-enumeration ({dir:?})"
            );
            // sanity: growth actually added matches, and none vanished
            assert!(after.len() > before.len());
            assert!(before.keys().all(|k| after.contains_key(k)));
        }
    }

    /// A vertex and an edge variable of one name get separate slots and
    /// name lookup prefers the vertex; two pattern edges sharing a
    /// variable leave the higher-indexed one's match in its slot.
    #[test]
    fn slots_resolve_names_like_the_variable_maps_did() {
        let mut g = TemporalGraph::new();
        let a = g.add_vertex(["A"], props! {});
        let b = g.add_vertex(["B"], props! {});
        let e0 = g.add_edge(a, b, ["E"], props! {}).unwrap();
        let e1 = g.add_edge(a, b, ["E"], props! {}).unwrap();
        let mut p = Pattern::new();
        let x = p.vertex("x", ["A"]);
        let y = p.vertex("y", ["B"]);
        p.edge(Some("x"), x, y, ["E"], Direction::Out);
        p.edge(Some("x"), x, y, ["E"], Direction::Out);
        let vars = p.vars();
        assert_eq!(vars.len(), 3, "vertex x, vertex y, edge x");
        assert_ne!(vars.vertex("x"), vars.edge("x"));
        let matches = p.find_all(&g);
        let in_slot: Vec<EdgeId> = matches.iter().map(|m| ex(&p, m, "x")).collect();
        assert_eq!(
            in_slot,
            vec![e1, e0],
            "(e0, e1) then (e1, e0): the second edge's"
        );
        for m in &matches {
            assert_eq!(m.get(vars, "x"), Some(Bound::Vertex(a)));
            assert_eq!(m.get(vars, "y"), Some(Bound::Vertex(b)));
            assert!(m.get(vars, "nope").is_none());
        }
    }

    #[test]
    fn cmp_op_eval() {
        use CmpOp::*;
        assert!(Eq.eval(&Value::Int(1), &Value::Float(1.0)));
        assert!(Ne.eval(&Value::Int(1), &Value::Int(2)));
        assert!(Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(Ge.eval(&Value::Float(2.0), &Value::Int(2)));
        assert!(!Eq.eval(&Value::Null, &Value::Null), "null never matches");
        assert!(!Gt.eval(&Value::Null, &Value::Int(0)));
    }
}
