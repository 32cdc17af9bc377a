//! Physical execution of optimized logical plans.
//!
//! A [`PlannedQuery`] bundles the optimized [`LogicalPlan`] with its
//! compiled match [`Pattern`]s and its slot program — everything
//! about it is a function of the query text alone (no data dependence),
//! which is what makes server-side plan caching sound.
//! [`execute_planned`] runs the operator pipeline (Match → Filter →
//! Project|Aggregate → Distinct → Sort → Limit) as one sequential pass:
//! every match is filtered and projected, or folded into its group,
//! inside the matcher's callback, and only Sort and Limit run after it.
//! It preserves the reference interpreter's semantics exactly: rows,
//! row order, and the first error in binding order.

use crate::ast::Query;
use crate::exec::{compile_patterns, contains_rowagg, rows_equal, sort_rows, QueryResult, Row};
use crate::optimize::optimize;
use crate::plan::{lower, LogicalPlan};
use crate::program::{Eval, Program};
use hygraph_core::HyGraph;
use hygraph_graph::pattern::{Binding, Vars};
use hygraph_graph::Pattern;
use hygraph_metrics::PlanOp;
use hygraph_types::parallel::ExecMode;
use hygraph_types::shard::ShardRouter;
use hygraph_types::{HyGraphError, Result, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// An optimized, compiled, data-independent execution plan — the unit
/// the server-side plan cache stores.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// The optimized logical plan.
    pub plan: LogicalPlan,
    /// Compiled match patterns (one per variable-length expansion).
    pub patterns: Vec<Pattern>,
    /// The query's variable → binding-slot table, shared by every
    /// pattern in `patterns`.
    pub vars: Vars,
    /// The residual query's per-binding work, compiled against `vars`.
    pub(crate) program: Program,
}

/// Plans a parsed query: validates, lowers, optimizes, and compiles
/// the patterns and the slot program. Error cases (row aggregate in
/// WHERE, variable-length expansion cap) match the interpreter's, in
/// the same order.
pub fn plan_query(q: &Query) -> Result<PlannedQuery> {
    if let Some(filter) = &q.filter {
        if contains_rowagg(filter) {
            return Err(HyGraphError::query(
                "row aggregates are not allowed in WHERE; use HAVING",
            ));
        }
    }
    let plan = optimize(lower(q));
    let (patterns, vars) = compile_patterns(&plan.query, &plan.pushed)?;
    let program = Program::compile(&plan.query, plan.grouped, &vars);
    Ok(PlannedQuery {
        plan,
        patterns,
        vars,
        program,
    })
}

fn op_start() -> Option<Instant> {
    hygraph_metrics::enabled().then(Instant::now)
}

fn record_op(op: PlanOp, start: Option<Instant>, rows: usize) {
    if let (Some(m), Some(s)) = (hygraph_metrics::get(), start) {
        m.query.operator(op).time_us.observe_duration(s.elapsed());
    }
    record_rows(op, rows);
}

/// Counts one invocation of an operator fused into the match pass: its
/// time is the pass's, recorded once under Match.
fn record_rows(op: PlanOp, rows: usize) {
    if let Some(m) = hygraph_metrics::get() {
        let om = m.query.operator(op);
        om.invocations.inc();
        om.rows_out.add(rows as u64);
    }
}

/// Executes a planned query in one sequential pass over the matches of
/// each compiled pattern, in pattern-then-match order. Each match runs
/// the filter, then the projection (with the DISTINCT probe) or the
/// group fold, inside the matcher's callback; no binding is stored.
/// The pass stops at the first error, so the error reported is the
/// first in binding order, the filter's before the projection's.
pub fn execute_planned(hg: &HyGraph, planned: &PlannedQuery) -> Result<QueryResult> {
    let q = &planned.plan.query;
    let columns: Vec<String> = q.returns.iter().map(|r| r.alias.clone()).collect();
    let program = &planned.program;
    let mut ev = Eval::new(hg);
    let mut groups = program.groups();
    let mut rows: Vec<Row> = Vec::new();
    let mut distinct = q.distinct.then(RowIndex::default);
    let (mut matched, mut passed) = (0usize, 0usize);
    let mut failed = None;

    let t = op_start();
    let mut visit = |b: &Binding| -> Result<()> {
        matched += 1;
        if let Some(groups) = &mut groups {
            if program.passes(&mut ev, b)? {
                passed += 1;
                groups.fold(&mut ev, b)?;
            }
        } else if let Some(row) = program.row(&mut ev, b)? {
            passed += 1;
            let seen = distinct.as_mut().and_then(|ix| ix.first_equal(&rows, &row));
            if seen.is_none() {
                rows.push(row);
            }
        }
        Ok(())
    };
    for p in &planned.patterns {
        p.find(hg.topology(), |b| match visit(b) {
            Ok(()) => true,
            Err(e) => {
                failed = Some(e);
                false
            }
        });
        if failed.is_some() {
            break;
        }
    }
    record_op(PlanOp::Match, t, matched);
    if program.has_filter() {
        record_rows(PlanOp::Filter, passed);
    }
    if let Some(e) = failed {
        return Err(e);
    }
    match groups {
        Some(groups) => {
            rows = groups.finish()?;
            record_rows(PlanOp::Aggregate, rows.len());
            if q.distinct {
                // `distinct-elim` clears this flag on grouped plans; a
                // plan edited after planning still gets what it asks for
                distinct_rows(&mut rows);
                record_rows(PlanOp::Distinct, rows.len());
            }
        }
        None => {
            record_rows(PlanOp::Project, passed);
            if q.distinct {
                record_rows(PlanOp::Distinct, rows.len());
            }
        }
    }
    if !q.order_by.is_empty() {
        let t = op_start();
        sort_rows(&mut rows, &columns, &q.order_by)?;
        record_op(PlanOp::Sort, t, rows.len());
    }
    if let Some(limit) = q.limit {
        let t = op_start();
        rows.truncate(limit);
        record_op(PlanOp::Limit, t, rows.len());
    }
    Ok(QueryResult { columns, rows })
}

/// [`execute_planned`] under its former sharded name. The shard layout
/// no longer changes how a query executes.
pub fn execute_planned_sharded(
    hg: &HyGraph,
    planned: &PlannedQuery,
    _mode: ExecMode,
    _router: ShardRouter,
) -> Result<QueryResult> {
    execute_planned(hg, planned)
}

/// A hash of `row` that agrees with [`rows_equal`]: rows it calls equal
/// hash equal. `Value::total_cmp` equates `Int(i)` with `Float(f)` when
/// `i as f64` and `f` have the same bits, so every numeric hashes as its
/// `f64` bits; `-0.0` and `0.0` (unequal there) may hash apart. Row
/// values can come from clients, so their contents are SipHashed; the
/// index map then uses that hash as is ([`PassThrough`]).
fn row_hash(row: &Row) -> u64 {
    let mut h = DefaultHasher::new();
    row.len().hash(&mut h);
    for v in row {
        value_hash(v, &mut h);
    }
    h.finish()
}

fn value_hash(v: &Value, h: &mut DefaultHasher) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Bool(b) => (1u8, b).hash(h),
        Value::Int(i) => (2u8, (*i as f64).to_bits()).hash(h),
        Value::Float(f) => (2u8, f.to_bits()).hash(h),
        Value::Str(s) => (3u8, s).hash(h),
        Value::Time(t) => (4u8, t).hash(h),
        Value::Span(d) => (5u8, d).hash(h),
    }
}

/// A [`Hasher`] for keys that already are hashes: it passes the `u64`
/// through instead of hashing it again.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A hash index over an append-only row list, answering "the first
/// earlier row `rows_equal` to this one" in expected O(1) instead of a
/// linear scan. Each bucket keeps its first position inline and any
/// colliding ones after it in insertion order; every row equal to a
/// probe shares its bucket, so the answer is the linear scan's.
#[derive(Default)]
pub(crate) struct RowIndex(HashMap<u64, (usize, Vec<usize>), BuildHasherDefault<PassThrough>>);

impl RowIndex {
    /// The position in `rows` of the first row equal to `row`. On a
    /// miss, records `row` at position `rows.len()`: the caller must
    /// push it next.
    pub(crate) fn first_equal(&mut self, rows: &[Row], row: &Row) -> Option<usize> {
        self.probe(row_hash(row), rows.len(), |i| rows_equal(&rows[i], row))
    }

    /// [`Self::first_equal`] over single values, under `total_cmp`
    /// equality.
    pub(crate) fn first_equal_value(&mut self, vals: &[Value], v: &Value) -> Option<usize> {
        let mut h = DefaultHasher::new();
        value_hash(v, &mut h);
        self.probe(h.finish(), vals.len(), |i| vals[i].total_cmp(v).is_eq())
    }

    fn probe(&mut self, hash: u64, next: usize, eq: impl Fn(usize) -> bool) -> Option<usize> {
        use std::collections::hash_map::Entry;
        match self.0.entry(hash) {
            Entry::Vacant(e) => {
                e.insert((next, Vec::new()));
                None
            }
            Entry::Occupied(mut e) => {
                let (first, rest) = e.get_mut();
                let hit = std::iter::once(*first)
                    .chain(rest.iter().copied())
                    .find(|&i| eq(i));
                if hit.is_none() {
                    rest.push(next);
                }
                hit
            }
        }
    }
}

/// `RETURN DISTINCT`: drops every row equal to an earlier kept row,
/// keeping order.
pub(crate) fn distinct_rows(rows: &mut Vec<Row>) {
    let mut index = RowIndex::default();
    let mut kept: Vec<Row> = Vec::with_capacity(rows.len());
    for r in rows.drain(..) {
        if index.first_equal(&kept, &r).is_none() {
            kept.push(r);
        }
    }
    *rows = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_interpreted_mode};
    use crate::parser::parse;
    use hygraph_core::HyGraphBuilder;
    use hygraph_ts::TimeSeries;
    use hygraph_types::{props, Duration, Timestamp};

    fn instance() -> hygraph_core::builder::BuiltHyGraph {
        let hot = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |i| {
            if i >= 50 {
                900.0
            } else {
                10.0
            }
        });
        let cold = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 100, |_| 12.0);
        HyGraphBuilder::new()
            .univariate("hot", &hot)
            .univariate("cold", &cold)
            .pg_vertex(
                "alice",
                ["User"],
                props! {"name" => "alice", "age" => 34i64},
            )
            .pg_vertex("bob", ["User"], props! {"name" => "bob", "age" => 19i64})
            .pg_vertex("m1", ["Merchant"], props! {"name" => "m1"})
            .pg_vertex("m2", ["Merchant"], props! {"name" => "m2"})
            .ts_vertex("c1", ["CreditCard"], "hot")
            .ts_vertex("c2", ["CreditCard"], "cold")
            .pg_edge(None, "alice", "c1", ["USES"], props! {})
            .pg_edge(None, "bob", "c2", ["USES"], props! {})
            .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 1500.0})
            .pg_edge(Some("t2"), "c1", "m2", ["TX"], props! {"amount" => 30.0})
            .pg_edge(Some("t3"), "c2", "m1", ["TX"], props! {"amount" => 20.0})
            .build()
            .unwrap()
    }

    /// The Table-1-shaped query set every planner change must stay
    /// bit-identical on (success and error cases).
    const QUERIES: &[&str] = &[
        "MATCH (u:User) RETURN u.name AS name ORDER BY name",
        "MATCH (u:User {name: 'alice'})-[:USES]->(c:CreditCard) RETURN u.age AS age",
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         WHERE t.amount > 1000 RETURN u.name AS who, t.amount AS amt",
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         WHERE MEAN(DELTA(c) IN [0, 1000)) > 400 RETURN u.name AS who",
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         RETURN u.name AS who, MAX(DELTA(c) IN [0, 1000)) AS peak, \
         COUNT(DELTA(c) IN [0, 250)) AS n ORDER BY who",
        "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) RETURN DISTINCT m.name AS m ORDER BY m",
        "MATCH (c:CreditCard)-[t:TX]->(m) RETURN t.amount AS a ORDER BY a DESC LIMIT 2",
        "MATCH (u:User) WHERE u.ghost > 1 RETURN u",
        "MATCH (u:User) WHERE u.name = 'alice' RETURN u.age * 2 + 1 AS x, u.age / 0 AS z",
        "MATCH (u:User)-[:USES]->(c:CreditCard), (c)-[t:TX]->(m:Merchant) \
         WHERE m.name = 'm1' RETURN u.name AS who ORDER BY who",
        "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
         RETURN u.name AS who, COUNT(t) AS n HAVING COUNT(t) > 1 ORDER BY who",
        "MATCH (c:CreditCard)-[t:TX]->(m:Merchant) \
         RETURN COUNT(m.name) AS all_rows, COUNT(DISTINCT m.name) AS uniq",
        "MATCH (u:User) RETURN COUNT(*) AS n",
        "MATCH (u:Ghost) RETURN COUNT(*) AS n",
        "MATCH (u:User {name: 'alice'})-[*1..2]->(x) RETURN DISTINCT x ORDER BY x",
        "MATCH (c:CreditCard)-[:TX*1..3]->(m) RETURN COUNT(*) AS n",
        "MATCH (u:User)-[:USES]->(c:CreditCard) \
         RETURN AVG(MEAN(DELTA(c) IN [0, 1000)) ) AS fleet_mean",
        "MATCH (u:User) RETURN u.name AS n ORDER BY zzz",
        "MATCH (c:CreditCard) WHERE MEAN(DELTA(c) IN [100, 0)) > 1 RETURN c",
        "MATCH (u:User) WHERE u.age > 18 AND 1 < 2 RETURN u.name AS n ORDER BY n",
    ];

    #[test]
    fn planner_matches_interpreter_on_query_set() {
        let b = instance();
        for text in QUERIES {
            let q = parse(text).unwrap();
            for mode in [ExecMode::Sequential, ExecMode::Parallel] {
                let legacy = execute_interpreted_mode(&b.hygraph, &q, mode);
                let planned = execute(&b.hygraph, &q);
                match (legacy, planned) {
                    (Ok(l), Ok(p)) => {
                        let mut wl = hygraph_types::bytes::ByteWriter::new();
                        l.encode(&mut wl);
                        let mut wp = hygraph_types::bytes::ByteWriter::new();
                        p.encode(&mut wp);
                        assert_eq!(
                            wl.as_bytes(),
                            wp.as_bytes(),
                            "wire bytes diverge ({mode:?}): {text}"
                        );
                    }
                    (Err(le), Err(pe)) => {
                        assert_eq!(
                            le.to_string(),
                            pe.to_string(),
                            "error text diverges ({mode:?}): {text}"
                        );
                    }
                    (l, p) => panic!("outcome diverges ({mode:?}) on {text}: {l:?} vs {p:?}"),
                }
            }
        }
    }

    #[test]
    fn explain_renders_instead_of_executing() {
        let b = instance();
        let r = crate::query(
            &b.hygraph,
            "EXPLAIN MATCH (u:User)-[t:TX]->(m) WHERE u.age > 18 \
             RETURN u.name AS n ORDER BY n LIMIT 5",
        )
        .unwrap();
        assert_eq!(r.columns, vec!["plan"]);
        let text: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
        assert!(text[0].starts_with("Plan fingerprint=0x"), "{text:?}");
        assert!(
            text.iter().any(|l| l.contains("predicate-pushdown(1)")),
            "{text:?}"
        );
        assert!(
            text.iter().any(|l| l.trim_start().starts_with("Match")),
            "{text:?}"
        );
        // EXPLAIN output never contains data rows
        assert!(text.iter().all(|l| !l.contains("alice")), "{text:?}");
    }

    #[test]
    fn pushdown_prunes_bindings_with_identical_results() {
        let b = instance();
        let q = parse(
            "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
             WHERE u.age > 20 AND t.amount > 100 RETURN u.name AS who, t.amount AS a",
        )
        .unwrap();
        let planned = plan_query(&q).unwrap();
        assert_eq!(planned.plan.pushed.len(), 2);
        assert!(planned.plan.query.filter.is_none());
        let r = execute_planned(&b.hygraph, &planned).unwrap();
        let l = execute_interpreted_mode(&b.hygraph, &q, ExecMode::Sequential).unwrap();
        assert_eq!(r, l);
        assert_eq!(
            r.rows,
            vec![vec![Value::Str("alice".into()), Value::Float(1500.0)]]
        );
    }

    /// The hash index answers exactly what a linear `rows_equal` scan
    /// answers, on the values where hashing and `total_cmp` equality are
    /// easiest to get wrong.
    #[test]
    fn row_index_agrees_with_linear_scan() {
        let keys = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(-f64::NAN),
            Value::Null,
            Value::Null,
            Value::Int(1 << 53),
            Value::Int((1 << 53) + 1),
            Value::Float(9007199254740992.0),
            Value::Bool(true),
            Value::Str("1".into()),
            Value::Time(Timestamp::from_millis(1)),
            Value::Span(Duration::from_millis(1)),
        ];
        // every ordered pair, as one-column and two-column rows
        let mut probes: Vec<Row> = Vec::new();
        for a in &keys {
            probes.push(vec![a.clone()]);
            for b in &keys {
                probes.push(vec![a.clone(), b.clone()]);
            }
        }
        // rows are only ever compared against earlier ones: replay the
        // probes twice so every value meets its twins on both sides
        let probes: Vec<Row> = probes.iter().chain(probes.iter().rev()).cloned().collect();
        let mut rows: Vec<Row> = Vec::new();
        let mut index = RowIndex::default();
        for p in &probes {
            let linear = rows.iter().position(|r| rows_equal(r, p));
            assert_eq!(index.first_equal(&rows, p), linear, "probe {p:?}");
            if linear.is_none() {
                rows.push(p.clone());
            }
        }
        // Int/Float twins and the NaNs collapse; -0.0 and 0.0 stay apart
        assert!(rows.iter().all(|r| r != &vec![Value::Float(1.0)]));
        assert!(rows.contains(&vec![Value::Float(-0.0)]));
        // DISTINCT keeps the linear scan's first-of-each-class rows
        let mut distinct = probes.clone();
        distinct_rows(&mut distinct);
        assert_eq!(distinct.len(), rows.len());
        assert!(distinct.iter().zip(&rows).all(|(a, b)| rows_equal(a, b)));
    }

    /// Two vertices, a ts-vertex and a pg-vertex, in the given id order.
    /// `DELTA(x)` errors on the pg one; a reversed range errors wherever
    /// it is evaluated.
    fn mixed(ts_first: bool) -> HyGraph {
        let mut hg = HyGraph::new();
        let s = TimeSeries::generate(Timestamp::ZERO, Duration::from_millis(10), 10, |i| {
            1.0 + i as f64
        });
        let sid = hg.add_univariate_series("s", &s);
        for ts in [ts_first, !ts_first] {
            if ts {
                hg.add_ts_vertex(["N"], sid).unwrap();
            } else {
                hg.add_pg_vertex(["N"], props! {"name" => "p"});
            }
        }
        hg
    }

    /// The streaming pass stops at the first failing binding and, within
    /// a binding, at the first failing stage: `text` must fail with the
    /// interpreter's error, which contains `want`.
    fn assert_first_error(hg: &HyGraph, text: &str, want: &str) {
        let q = parse(text).unwrap();
        let planned = execute_planned(hg, &plan_query(&q).unwrap()).unwrap_err();
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let oracle = execute_interpreted_mode(hg, &q, mode).unwrap_err();
            assert_eq!(planned.to_string(), oracle.to_string(), "{text}");
        }
        assert!(planned.to_string().contains(want), "{text}: {planned}");
    }

    #[test]
    fn flat_pass_reports_the_first_failing_binding() {
        let text = "MATCH (x:N) WHERE MEAN(DELTA(x) IN [0, 1000)) > 0 \
                    RETURN MEAN(DELTA(x) IN [5, 0)) AS bad";
        // binding 0 passes the filter and fails in projection; binding 1
        // fails in the filter
        assert_first_error(&mixed(true), text, "reversed");
        // binding 0 fails in the filter, before its projection could
        assert_first_error(&mixed(false), text, "kind mismatch");
    }

    #[test]
    fn grouped_pass_reports_the_first_failing_binding() {
        let text = "MATCH (x:N) RETURN MEAN(DELTA(x) IN [0, 1000)) AS k, \
                    SUM(MEAN(DELTA(x) IN [5, 0))) AS bad";
        // binding 0 has a key and fails in its argument; binding 1 fails
        // in its key
        assert_first_error(&mixed(true), text, "reversed");
        // binding 0 fails in its key, before its argument could
        assert_first_error(&mixed(false), text, "kind mismatch");
    }

    #[test]
    fn planned_query_is_reusable() {
        let b = instance();
        let q = parse("MATCH (u:User) RETURN COUNT(*) AS n").unwrap();
        let planned = plan_query(&q).unwrap();
        let r1 = execute_planned(&b.hygraph, &planned).unwrap();
        let r2 = execute_planned(&b.hygraph, &planned).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(r1.rows, vec![vec![Value::Int(2)]]);
    }
}
