//! Randomized oracle for the subgraph matcher.
//!
//! Random small multigraphs (parallel edges, self-loops, tombstoned
//! edges, bounded validity) meet random 1–3-vertex patterns (every
//! direction, pattern self-loop edges, plain and pushed predicates,
//! `distinct_vertices`, `valid_at`). Three properties:
//!
//! 1. on every graph, `find` emits exactly the `find_keyed` map's
//!    bindings in key order — same order, same multiplicity;
//! 2. the pinned searches, run from every vertex, rediscover exactly
//!    that map;
//! 3. on loop-free graphs, `find` equals, as a multiset, a brute-force
//!    enumeration of all vertex and edge assignments.

use hygraph::graph::pattern::{Binding, Bound, CmpOp, MatchKey, PropPredicate};
use hygraph::graph::{Direction, Pattern, TemporalGraph};
use hygraph::prelude::*;
use hygraph::types::props;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// splitmix64: a self-contained stream per case seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn coin(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

fn ts(ms: i64) -> Timestamp {
    Timestamp::from_millis(ms)
}

/// Validity over all time, or one of a few overlapping windows.
fn validity(r: &mut Rng) -> Interval {
    if r.coin(2) {
        Interval::ALL
    } else {
        let s = r.below(3) as i64 * 10;
        Interval::new(ts(s), ts(s + 15))
    }
}

fn labels(r: &mut Rng, pool: &[&'static str]) -> Vec<&'static str> {
    pool.iter().copied().filter(|_| r.coin(2)).collect()
}

fn graph(r: &mut Rng, loops: bool) -> TemporalGraph {
    let mut g = TemporalGraph::new();
    let n = 1 + r.below(5);
    let vs: Vec<VertexId> = (0..n)
        .map(|_| {
            let l = labels(r, &["A", "B"]);
            let w = r.below(3) as i64;
            let v = validity(r);
            g.add_vertex_valid(l, props! {"w" => w}, v)
        })
        .collect();
    let mut es = Vec::new();
    for _ in 0..r.below(11) {
        let src = vs[r.below(n) as usize];
        // self-loops are frequent enough to meet every anchor shape
        let mut dst = if loops && r.coin(3) {
            src
        } else {
            vs[r.below(n) as usize]
        };
        if src == dst && !loops {
            if n == 1 {
                continue;
            }
            dst = vs[(src.index() + 1) % n as usize];
        }
        let l = labels(r, &["E", "F"]);
        let w = r.below(3) as i64;
        let v = validity(r);
        es.push(g.add_edge_valid(src, dst, l, props! {"w" => w}, v).unwrap());
    }
    // a tombstone or two: adjacency lists lose entries mid-list
    for e in es {
        if r.coin(6) {
            g.remove_edge(e).unwrap();
        }
    }
    g
}

fn pred(r: &mut Rng) -> PropPredicate {
    let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Gt, CmpOp::Le][r.below(4) as usize];
    PropPredicate::new("w", op, r.below(3) as i64)
}

/// A pattern description the brute force reads back: per vertex its
/// constraints, per edge its endpoints, direction and constraints.
struct Spec {
    pattern: Pattern,
    vertices: Vec<(Option<&'static str>, Vec<PropPredicate>)>,
    edges: Vec<EdgeSpec>,
    valid_at: Option<Timestamp>,
    distinct: bool,
}

struct EdgeSpec {
    var: Option<String>,
    from: usize,
    to: usize,
    dir: Direction,
    label: Option<&'static str>,
    preds: Vec<PropPredicate>,
}

fn pattern(r: &mut Rng) -> Spec {
    let mut p = Pattern::new();
    let mut vertices = Vec::new();
    for i in 0..1 + r.below(3) as usize {
        let label = r.coin(2).then(|| ["A", "B"][r.below(2) as usize]);
        let idx = p.vertex(format!("v{i}"), label);
        let mut preds = Vec::new();
        if r.coin(4) {
            let q = pred(r);
            p.vertex_pred(idx, q.clone());
            preds.push(q);
        }
        if r.coin(4) {
            let q = pred(r);
            p.vertex_pushed_pred(idx, q.clone());
            preds.push(q);
        }
        vertices.push((label, preds));
    }
    let k = vertices.len() as u64;
    let mut edges = Vec::new();
    for i in 0..r.below(4) as usize {
        let from = r.below(k) as usize;
        // mostly between distinct pattern vertices; now and then a
        // pattern self-loop
        let to = if k > 1 && !r.coin(5) {
            (from + 1 + r.below(k - 1) as usize) % k as usize
        } else {
            from
        };
        let dir = [Direction::Out, Direction::In, Direction::Any][r.below(3) as usize];
        let label = r.coin(2).then(|| ["E", "F"][r.below(2) as usize]);
        let var = (!r.coin(4)).then(|| format!("e{i}"));
        let idx = p.edge(var.as_deref(), from, to, label, dir);
        let mut preds = Vec::new();
        if r.coin(4) {
            let q = pred(r);
            p.edge_pred(idx, q.clone());
            preds.push(q);
        }
        if r.coin(4) {
            let q = pred(r);
            p.edge_pushed_pred(idx, q.clone());
            preds.push(q);
        }
        edges.push(EdgeSpec {
            var,
            from,
            to,
            dir,
            label,
            preds,
        });
    }
    let valid_at = r.coin(3).then(|| ts(r.below(40) as i64));
    if let Some(t) = valid_at {
        p.valid_at(t);
    }
    let distinct = r.coin(3);
    p.distinct_vertices(distinct);
    Spec {
        pattern: p,
        vertices,
        edges,
        valid_at,
        distinct,
    }
}

fn holds(preds: &[PropPredicate], props: &PropertyMap) -> bool {
    preds.iter().all(|q| {
        props
            .static_value(&q.key)
            .is_some_and(|v| q.op.eval(v, &q.value))
    })
}

fn valid(t: Option<Timestamp>, iv: &Interval) -> bool {
    t.is_none_or(|t| iv.contains(t))
}

/// Every assignment of graph vertices to pattern vertices and graph
/// edges to pattern edges that satisfies the pattern, as bindings.
fn brute_force(s: &Spec, g: &TemporalGraph) -> Vec<Binding> {
    let vars = s.pattern.vars();
    let vertex_ok = |i: usize, v: VertexId| {
        let d = g.vertex(v).unwrap();
        let (label, preds) = &s.vertices[i];
        valid(s.valid_at, &d.validity)
            && label.is_none_or(|l| d.has_label(l))
            && holds(preds, &d.props)
    };
    let mut out = Vec::new();
    let mut vb: Vec<VertexId> = Vec::new();
    let mut eb: Vec<EdgeId> = Vec::new();
    fn edges_rec(
        s: &Spec,
        g: &TemporalGraph,
        vb: &[VertexId],
        eb: &mut Vec<EdgeId>,
        emit: &mut dyn FnMut(&[EdgeId]),
    ) {
        let Some(pe) = s.edges.get(eb.len()) else {
            emit(eb);
            return;
        };
        let (f, t) = (vb[pe.from], vb[pe.to]);
        for e in g.edges() {
            let fwd = e.src == f && e.dst == t;
            let bwd = e.src == t && e.dst == f;
            let dir_ok = match pe.dir {
                Direction::Out => fwd,
                Direction::In => bwd,
                Direction::Any => fwd || bwd,
            };
            if dir_ok
                && !eb.contains(&e.id)
                && valid(s.valid_at, &e.validity)
                && pe.label.is_none_or(|l| e.has_label(l))
                && holds(&pe.preds, &e.props)
            {
                eb.push(e.id);
                edges_rec(s, g, vb, eb, emit);
                eb.pop();
            }
        }
    }
    fn vertices_rec(
        s: &Spec,
        g: &TemporalGraph,
        ok: &dyn Fn(usize, VertexId) -> bool,
        vb: &mut Vec<VertexId>,
        eb: &mut Vec<EdgeId>,
        emit: &mut dyn FnMut(&[VertexId], &[EdgeId]),
    ) {
        if vb.len() == s.vertices.len() {
            let vb2 = vb.clone();
            edges_rec(s, g, vb, eb, &mut |e| emit(&vb2, e));
            return;
        }
        for v in g.vertex_ids().collect::<Vec<_>>() {
            if ok(vb.len(), v) && !(s.distinct && vb.contains(&v)) {
                vb.push(v);
                vertices_rec(s, g, ok, vb, eb, emit);
                vb.pop();
            }
        }
    }
    vertices_rec(s, g, &vertex_ok, &mut vb, &mut eb, &mut |vs, es| {
        let mut slots = vec![None; vars.len()];
        for (i, &v) in vs.iter().enumerate() {
            slots[vars.vertex(&format!("v{i}")).unwrap()] = Some(Bound::Vertex(v));
        }
        for (pe, &e) in s.edges.iter().zip(es) {
            if let Some(var) = &pe.var {
                slots[vars.edge(var).unwrap()] = Some(Bound::Edge(e));
            }
        }
        out.push(Binding::from(slots));
    });
    out
}

fn sorted(bs: &[Binding]) -> Vec<Vec<Option<Bound>>> {
    let mut v: Vec<Vec<Option<Bound>>> = bs.iter().map(|b| b.slots().to_vec()).collect();
    v.sort();
    v
}

/// Patterns tried against each generated graph.
const PATTERNS_PER_GRAPH: usize = 8;

proptest! {
    #[test]
    fn find_replays_keyed_order_on_multigraphs(seed in 0u64..u64::MAX) {
        let mut r = Rng(seed);
        let g = graph(&mut r, true);
        for _ in 0..PATTERNS_PER_GRAPH {
            let s = pattern(&mut r);
            let found = s.pattern.find_all(&g);
            let keyed = s.pattern.find_keyed(&g);
            let replay: Vec<Binding> = keyed.values().cloned().collect();
            prop_assert_eq!(&found, &replay);
            // the callback form visits the same sequence
            let mut visited = Vec::new();
            s.pattern.find(&g, |b| {
                visited.push(b.clone());
                true
            });
            prop_assert_eq!(&found, &visited);
            // pinned searches from every vertex rediscover the whole map
            let mut pinned: BTreeMap<MatchKey, Binding> = BTreeMap::new();
            for v in g.vertex_ids() {
                s.pattern.find_keyed_with_vertex(&g, v, &mut pinned);
            }
            prop_assert_eq!(&pinned, &keyed);
            // ... and from every edge, every match that binds an edge
            if !s.edges.is_empty() {
                let mut by_edge: BTreeMap<MatchKey, Binding> = BTreeMap::new();
                for e in g.edge_ids() {
                    s.pattern.find_keyed_with_edge(&g, e, &mut by_edge);
                }
                prop_assert_eq!(&by_edge, &keyed);
            }
        }
    }

    #[test]
    fn find_equals_brute_force_on_loop_free_graphs(seed in 0u64..u64::MAX) {
        let mut r = Rng(seed);
        let g = graph(&mut r, false);
        for _ in 0..PATTERNS_PER_GRAPH {
            let s = pattern(&mut r);
            let found = s.pattern.find_all(&g);
            prop_assert_eq!(sorted(&found), sorted(&brute_force(&s, &g)));
        }
    }
}
