//! Logical query plans: lowering from the AST, canonical fingerprints
//! for plan caching, and the stable `EXPLAIN` rendering.
//!
//! A [`LogicalPlan`] is the optimizer's working representation: the
//! residual [`Query`] (the AST minus whatever the rewrite rules moved
//! elsewhere), the predicates pushed into pattern matching, and a
//! record of which rules fired. The [fingerprint] is a
//! stable 64-bit hash of the *input* query's canonical binary encoding
//! — two textually different query strings that parse to the same AST
//! share a fingerprint, and therefore a plan-cache entry. The
//! `explain` flag is excluded from the hash so `EXPLAIN q` and `q`
//! share one cached plan.

use crate::ast::{
    AggFunc, BinOp, EdgeDir, Expr, OrderItem, PathPattern, Query, ReturnItem, RowAggFunc,
    SeriesRef, TemporalBound,
};
use crate::exec::{contains_rowagg, QueryResult};
use hygraph_graph::pattern::{CmpOp, PropPredicate};
use hygraph_metrics::PlanOp;
use hygraph_types::bytes::ByteWriter;
use hygraph_types::Value;

/// A WHERE conjunct the optimizer moved into pattern matching: the
/// predicate is enforced while enumerating candidate elements for
/// `var` instead of after a full binding is materialised.
#[derive(Clone, Debug, PartialEq)]
pub struct PushedPred {
    /// Pattern variable the predicate constrains.
    pub var: String,
    /// The property predicate, in the graph layer's vocabulary.
    pub pred: PropPredicate,
}

/// The logical plan for one query: residual AST + rewrite products.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalPlan {
    /// The residual query: the input AST with pushed/eliminated parts
    /// removed. Executing this with `pushed` applied to the patterns is
    /// equivalent to interpreting the original AST.
    pub query: Query,
    /// WHERE conjuncts pushed into pattern matching.
    pub pushed: Vec<PushedPred>,
    /// Whether execution goes through the grouped (row-aggregate) path.
    pub grouped: bool,
    /// Canonical fingerprint of the *input* query (pre-optimization,
    /// `explain` excluded) — the plan-cache key.
    pub fingerprint: u64,
    /// Names of the rewrite rules that fired, in application order.
    pub rules: Vec<String>,
}

/// Lowers a parsed query into an unoptimized logical plan.
pub fn lower(q: &Query) -> LogicalPlan {
    LogicalPlan {
        query: q.clone(),
        pushed: Vec::new(),
        grouped: q.having.is_some() || q.returns.iter().any(|r| contains_rowagg(&r.expr)),
        fingerprint: fingerprint(q),
        rules: Vec::new(),
    }
}

/// Canonical fingerprint of a query: FNV-1a 64 over a canonical binary
/// encoding of every semantic field. `explain` is deliberately
/// excluded so an EXPLAIN and its executable twin share a cache entry.
pub fn fingerprint(q: &Query) -> u64 {
    let mut w = ByteWriter::new();
    encode_query(&mut w, q);
    fnv1a(w.as_bytes())
}

/// The exact set of property keys this plan can read: `var.key`
/// accesses and series-property aggregates in the residual filter,
/// projections, and HAVING; inline node property maps; and predicates
/// pushed into pattern matching. HyQL has no dynamic property access
/// (a bare variable evaluates to the element's id only), so the
/// footprint is exact: a property write on a key outside it cannot
/// change the plan's result — which is what lets the subscription
/// layer skip re-running standing queries on untouched keys.
pub fn property_footprint(plan: &LogicalPlan) -> std::collections::BTreeSet<String> {
    fn walk(e: &Expr, out: &mut std::collections::BTreeSet<String>) {
        match e {
            Expr::Prop { key, .. } => {
                out.insert(key.clone());
            }
            Expr::Agg { series, .. } => {
                if let SeriesRef::Property { key, .. } = series {
                    out.insert(key.clone());
                }
            }
            Expr::RowAgg { arg, .. } => {
                if let Some(a) = arg {
                    walk(a, out);
                }
            }
            Expr::Not(inner) => walk(inner, out),
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            Expr::Literal(_) | Expr::Var(_) => {}
        }
    }
    let mut out = std::collections::BTreeSet::new();
    let q = &plan.query;
    if let Some(f) = &q.filter {
        walk(f, &mut out);
    }
    if let Some(h) = &q.having {
        walk(h, &mut out);
    }
    for r in &q.returns {
        walk(&r.expr, &mut out);
    }
    for p in &q.patterns {
        for (k, _) in &p.start.props {
            out.insert(k.clone());
        }
        for (_, n) in &p.hops {
            for (k, _) in &n.props {
                out.insert(k.clone());
            }
        }
    }
    for p in &plan.pushed {
        out.insert(p.pred.key.clone());
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn encode_query(w: &mut ByteWriter, q: &Query) {
    w.len_of(q.patterns.len());
    for p in &q.patterns {
        encode_path(w, p);
    }
    w.bool(q.filter.is_some());
    if let Some(f) = &q.filter {
        encode_expr(w, f);
    }
    w.bool(q.valid_at.is_some());
    if let Some(t) = q.valid_at {
        w.timestamp(t);
    }
    w.len_of(q.returns.len());
    for ReturnItem { expr, alias } in &q.returns {
        encode_expr(w, expr);
        w.str(alias);
    }
    w.bool(q.distinct);
    w.len_of(q.order_by.len());
    for OrderItem { column, descending } in &q.order_by {
        w.str(column);
        w.bool(*descending);
    }
    w.bool(q.limit.is_some());
    if let Some(n) = q.limit {
        w.len_of(n);
    }
    w.bool(q.having.is_some());
    if let Some(h) = &q.having {
        encode_expr(w, h);
    }
    // The temporal bound is encoded only when present: a bound-free
    // query's canonical bytes (and therefore its fingerprint and cache
    // entry) are identical to what they were before `AS OF` existed,
    // while two queries differing only in the bound hash apart — the
    // plan cache can never serve one epoch's plan for another.
    match &q.temporal {
        None => {}
        Some(TemporalBound::AsOfNow) => w.u8(1),
        Some(TemporalBound::AsOf(t)) => {
            w.u8(2);
            w.timestamp(*t);
        }
        Some(TemporalBound::Between(t1, t2)) => {
            w.u8(3);
            w.timestamp(*t1);
            w.timestamp(*t2);
        }
    }
}

fn encode_path(w: &mut ByteWriter, p: &PathPattern) {
    w.str(&p.start.var);
    w.len_of(p.start.labels.len());
    for l in &p.start.labels {
        w.str(l);
    }
    w.len_of(p.start.props.len());
    for (k, v) in &p.start.props {
        w.str(k);
        w.value(v);
    }
    w.len_of(p.hops.len());
    for (e, n) in &p.hops {
        w.str(&e.var);
        w.len_of(e.labels.len());
        for l in &e.labels {
            w.str(l);
        }
        w.u8(match e.dir {
            EdgeDir::Right => 0,
            EdgeDir::Left => 1,
            EdgeDir::Undirected => 2,
        });
        w.len_of(e.hops.0);
        w.len_of(e.hops.1);
        w.str(&n.var);
        w.len_of(n.labels.len());
        for l in &n.labels {
            w.str(l);
        }
        w.len_of(n.props.len());
        for (k, v) in &n.props {
            w.str(k);
            w.value(v);
        }
    }
}

fn encode_expr(w: &mut ByteWriter, e: &Expr) {
    match e {
        Expr::Literal(v) => {
            w.u8(0);
            w.value(v);
        }
        Expr::Prop { var, key } => {
            w.u8(1);
            w.str(var);
            w.str(key);
        }
        Expr::Var(v) => {
            w.u8(2);
            w.str(v);
        }
        Expr::Agg {
            func,
            series,
            from,
            to,
        } => {
            w.u8(3);
            w.u8(match func {
                AggFunc::Mean => 0,
                AggFunc::Sum => 1,
                AggFunc::Min => 2,
                AggFunc::Max => 3,
                AggFunc::Count => 4,
            });
            match series {
                SeriesRef::Delta(var) => {
                    w.u8(0);
                    w.str(var);
                }
                SeriesRef::Property { var, key } => {
                    w.u8(1);
                    w.str(var);
                    w.str(key);
                }
            }
            w.i64(*from);
            w.i64(*to);
        }
        Expr::RowAgg {
            func,
            arg,
            distinct,
        } => {
            w.u8(4);
            w.u8(match func {
                RowAggFunc::Count => 0,
                RowAggFunc::Sum => 1,
                RowAggFunc::Avg => 2,
                RowAggFunc::Min => 3,
                RowAggFunc::Max => 4,
            });
            w.bool(*distinct);
            w.bool(arg.is_some());
            if let Some(a) = arg {
                encode_expr(w, a);
            }
        }
        Expr::Not(inner) => {
            w.u8(5);
            encode_expr(w, inner);
        }
        Expr::Binary { op, lhs, rhs } => {
            w.u8(6);
            w.u8(*op as u8);
            encode_expr(w, lhs);
            encode_expr(w, rhs);
        }
    }
}

/// One operator in the rendered plan pipeline (root-first order).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanNode {
    /// Which physical operator this corresponds to (the metrics key).
    pub op: PlanOp,
    /// Human-readable operator detail.
    pub detail: String,
}

impl LogicalPlan {
    /// The operator pipeline, root (output side) first: Limit, Sort,
    /// Distinct, Aggregate|Project, Filter, Match — nodes that would be
    /// no-ops for this query are omitted.
    pub fn nodes(&self) -> Vec<PlanNode> {
        let q = &self.query;
        let mut out = Vec::new();
        if let Some(n) = q.limit {
            out.push(PlanNode {
                op: PlanOp::Limit,
                detail: n.to_string(),
            });
        }
        if !q.order_by.is_empty() {
            let keys: Vec<String> = q
                .order_by
                .iter()
                .map(|o| format!("{} {}", o.column, if o.descending { "DESC" } else { "ASC" }))
                .collect();
            out.push(PlanNode {
                op: PlanOp::Sort,
                detail: keys.join(", "),
            });
        }
        if q.distinct {
            out.push(PlanNode {
                op: PlanOp::Distinct,
                detail: String::new(),
            });
        }
        let items: Vec<String> = q
            .returns
            .iter()
            .map(|r| format!("{} := {}", r.alias, render_expr(&r.expr)))
            .collect();
        if self.grouped {
            let keys: Vec<String> = q
                .returns
                .iter()
                .filter(|r| !contains_rowagg(&r.expr))
                .map(|r| r.alias.clone())
                .collect();
            let mut detail = format!("group=[{}] out=[{}]", keys.join(", "), items.join(", "));
            if let Some(h) = &q.having {
                detail.push_str(&format!(" having={}", render_expr(h)));
            }
            out.push(PlanNode {
                op: PlanOp::Aggregate,
                detail,
            });
        } else {
            out.push(PlanNode {
                op: PlanOp::Project,
                detail: items.join(", "),
            });
        }
        if let Some(f) = &q.filter {
            out.push(PlanNode {
                op: PlanOp::Filter,
                detail: render_expr(f),
            });
        }
        let mut match_detail = q
            .patterns
            .iter()
            .map(render_path)
            .collect::<Vec<_>>()
            .join(", ");
        if !self.pushed.is_empty() {
            let preds: Vec<String> = self.pushed.iter().map(render_pushed).collect();
            match_detail.push_str(&format!(" pushed=[{}]", preds.join(", ")));
        }
        if let Some(t) = q.valid_at {
            match_detail.push_str(&format!(" valid_at={}ms", t.millis()));
        }
        match &q.temporal {
            None => {}
            Some(TemporalBound::AsOfNow) => match_detail.push_str(" as_of=now"),
            Some(TemporalBound::AsOf(t)) => {
                match_detail.push_str(&format!(" as_of={}ms", t.millis()));
            }
            Some(TemporalBound::Between(t1, t2)) => {
                match_detail.push_str(&format!(" between=[{}ms, {}ms]", t1.millis(), t2.millis()));
            }
        }
        out.push(PlanNode {
            op: PlanOp::Match,
            detail: match_detail,
        });
        out
    }

    /// Stable multi-line rendering: a fingerprint/rules header followed
    /// by the operator pipeline, indented by depth. This is the text
    /// `EXPLAIN` returns, so its shape is part of the wire contract —
    /// covered by tests, change with care.
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!("Plan fingerprint=0x{:016x}", self.fingerprint)];
        if self.rules.is_empty() {
            lines.push("rules: (none)".to_string());
        } else {
            lines.push(format!("rules: {}", self.rules.join(", ")));
        }
        for (depth, node) in self.nodes().into_iter().enumerate() {
            let indent = "  ".repeat(depth);
            if node.detail.is_empty() {
                lines.push(format!("{indent}{}", op_title(node.op)));
            } else {
                lines.push(format!("{indent}{} {}", op_title(node.op), node.detail));
            }
        }
        lines.push(match crate::incremental::support(self) {
            Ok(()) => "Subscribe: incremental".to_string(),
            Err(reason) => format!("Subscribe: rerun ({reason})"),
        });
        lines
    }
}

fn op_title(op: PlanOp) -> &'static str {
    match op {
        PlanOp::Match => "Match",
        PlanOp::Filter => "Filter",
        PlanOp::Project => "Project",
        PlanOp::Aggregate => "Aggregate",
        PlanOp::Distinct => "Distinct",
        PlanOp::Sort => "Sort",
        PlanOp::Limit => "Limit",
    }
}

/// Renders an optimized plan as a [`QueryResult`]: one `plan` column,
/// one row per rendered line. This is what an `EXPLAIN`-prefixed query
/// returns instead of executing, locally and over the wire.
pub fn explain_result(planned: &crate::physical::PlannedQuery) -> QueryResult {
    QueryResult {
        columns: vec!["plan".to_string()],
        rows: planned
            .plan
            .render()
            .into_iter()
            .map(|l| vec![Value::Str(l)])
            .collect(),
    }
}

fn render_pushed(p: &PushedPred) -> String {
    format!(
        "{}.{} {} {}",
        p.var,
        p.pred.key,
        cmp_symbol(p.pred.op),
        render_value(&p.pred.value)
    )
}

fn cmp_symbol(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "=",
        CmpOp::Ne => "<>",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

fn render_path(p: &PathPattern) -> String {
    use std::fmt::Write;
    fn node(out: &mut String, n: &crate::ast::NodePattern) {
        let _ = write!(out, "({}", n.var);
        for l in &n.labels {
            let _ = write!(out, ":{l}");
        }
        if !n.props.is_empty() {
            let props: Vec<String> = n
                .props
                .iter()
                .map(|(k, v)| format!("{k}: {}", render_value(v)))
                .collect();
            let _ = write!(out, " {{{}}}", props.join(", "));
        }
        out.push(')');
    }
    let mut out = String::new();
    node(&mut out, &p.start);
    for (e, n) in &p.hops {
        let mut body = e.var.clone();
        for l in &e.labels {
            let _ = write!(body, ":{l}");
        }
        if e.hops != (1, 1) {
            let _ = write!(body, "*{}..{}", e.hops.0, e.hops.1);
        }
        match e.dir {
            EdgeDir::Right => {
                let _ = write!(out, "-[{body}]->");
            }
            EdgeDir::Left => {
                let _ = write!(out, "<-[{body}]-");
            }
            EdgeDir::Undirected => {
                let _ = write!(out, "-[{body}]-");
            }
        }
        node(&mut out, n);
    }
    out
}

/// Renders an expression in HyQL-ish surface syntax (parenthesised
/// binaries — precedence-exact round-tripping is not a goal; stability
/// is).
pub(crate) fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => render_value(v),
        Expr::Prop { var, key } => format!("{var}.{key}"),
        Expr::Var(v) => v.clone(),
        Expr::Agg {
            func,
            series,
            from,
            to,
        } => {
            let f = match func {
                AggFunc::Mean => "MEAN",
                AggFunc::Sum => "SUM",
                AggFunc::Min => "MIN",
                AggFunc::Max => "MAX",
                AggFunc::Count => "COUNT",
            };
            let s = match series {
                SeriesRef::Delta(var) => format!("DELTA({var})"),
                SeriesRef::Property { var, key } => format!("{var}.{key}"),
            };
            format!("{f}({s} IN [{from}, {to}))")
        }
        Expr::RowAgg {
            func,
            arg,
            distinct,
        } => {
            let f = match func {
                RowAggFunc::Count => "COUNT",
                RowAggFunc::Sum => "SUM",
                RowAggFunc::Avg => "AVG",
                RowAggFunc::Min => "MIN",
                RowAggFunc::Max => "MAX",
            };
            match arg {
                None => format!("{f}(*)"),
                Some(a) => format!(
                    "{f}({}{})",
                    if *distinct { "DISTINCT " } else { "" },
                    render_expr(a)
                ),
            }
        }
        Expr::Not(inner) => format!("NOT ({})", render_expr(inner)),
        Expr::Binary { op, lhs, rhs } => {
            let sym = match op {
                BinOp::Or => "OR",
                BinOp::And => "AND",
                BinOp::Eq => "=",
                BinOp::Ne => "<>",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            };
            format!("({} {} {})", render_expr(lhs), sym, render_expr(rhs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn fingerprint_is_text_insensitive_and_semantic_sensitive() {
        let a = parse("MATCH (u:User) WHERE u.age > 18 RETURN u.name AS n").unwrap();
        let b = parse("MATCH  (u:User)  WHERE u.age > 18  RETURN u.name AS n").unwrap();
        let c = parse("MATCH (u:User) WHERE u.age > 19 RETURN u.name AS n").unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&b), "whitespace is ignored");
        assert_ne!(fingerprint(&a), fingerprint(&c), "literals are hashed");
    }

    #[test]
    fn fingerprint_ignores_explain_flag() {
        let plain = parse("MATCH (u:User) RETURN u.name AS n").unwrap();
        let explained = parse("EXPLAIN MATCH (u:User) RETURN u.name AS n").unwrap();
        assert!(explained.explain && !plain.explain);
        assert_eq!(fingerprint(&plain), fingerprint(&explained));
    }

    #[test]
    fn fingerprint_distinguishes_temporal_bounds() {
        let plain = parse("MATCH (u:User) RETURN u.name AS n").unwrap();
        let now = parse("MATCH (u:User) AS OF NOW() RETURN u.name AS n").unwrap();
        let t1 = parse("MATCH (u:User) AS OF 100 RETURN u.name AS n").unwrap();
        let t2 = parse("MATCH (u:User) AS OF 200 RETURN u.name AS n").unwrap();
        let bw = parse("MATCH (u:User) BETWEEN 100 AND 200 RETURN u.name AS n").unwrap();
        let fps = [
            fingerprint(&plain),
            fingerprint(&now),
            fingerprint(&t1),
            fingerprint(&t2),
            fingerprint(&bw),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "bounds {i} and {j} must hash apart");
            }
        }
    }

    /// Pinned pre-change fingerprints: adding the temporal clause must
    /// not move the canonical encoding of bound-free queries, or every
    /// deployed plan-cache key (and EXPLAIN header) would silently
    /// change. Captured from the code base immediately before the
    /// `AS OF` machinery landed.
    #[test]
    fn fingerprint_of_bound_free_queries_is_stable_across_the_temporal_change() {
        for (text, expected) in [
            (
                "MATCH (u:User) WHERE u.age > 18 RETURN u.name AS n",
                0x2ebdea5024577a3au64,
            ),
            (
                "MATCH (u:User)-[:USES]->(c:CreditCard)-[t:TX]->(m:Merchant) \
                 WHERE t.amount > 1000 RETURN u.name AS who, t.amount AS amt",
                0xb97de6603ac011e8,
            ),
            ("MATCH (s:Station) RETURN COUNT(s) AS n", 0xd0323f9abe1fe245),
        ] {
            let q = parse(text).unwrap();
            assert_eq!(
                fingerprint(&q),
                expected,
                "canonical encoding moved for: {text}"
            );
        }
    }

    #[test]
    fn render_includes_temporal_bound() {
        let q = parse("MATCH (u:User) AS OF 1234 RETURN u").unwrap();
        let text = lower(&q).render().join("\n");
        assert!(text.contains("Match (u:User) as_of=1234ms"), "{text}");
        let q = parse("MATCH (u:User) AS OF NOW() RETURN u").unwrap();
        let text = lower(&q).render().join("\n");
        assert!(text.contains("Match (u:User) as_of=now"), "{text}");
        let q = parse("MATCH (u:User) BETWEEN 10 AND 20 RETURN u").unwrap();
        let text = lower(&q).render().join("\n");
        assert!(
            text.contains("Match (u:User) between=[10ms, 20ms]"),
            "{text}"
        );
    }

    #[test]
    fn property_footprint_is_exact() {
        let q = parse(
            "MATCH (u:User {city: 'ut'})-[t:TX]->(m) WHERE u.age > 18 \
             RETURN u.name AS n, COUNT(t.amount) AS c, MAX(m.load IN [0, 10)) AS pk \
             HAVING COUNT(t.amount) > 1",
        )
        .unwrap();
        let mut plan = lower(&q);
        let fp = property_footprint(&plan);
        let want: Vec<&str> = vec!["age", "amount", "city", "load", "name"];
        assert_eq!(fp.iter().map(String::as_str).collect::<Vec<_>>(), want);
        // a predicate moved from WHERE into the pushed set stays visible
        plan.query.filter = None;
        plan.pushed.push(PushedPred {
            var: "u".into(),
            pred: PropPredicate::new("age", CmpOp::Gt, Value::Int(18)),
        });
        let fp = property_footprint(&plan);
        assert!(fp.contains("age"));
        // bare variables read no properties
        let q = parse("MATCH (u:User) RETURN u, COUNT(*) AS n").unwrap();
        assert!(property_footprint(&lower(&q)).is_empty());
    }

    #[test]
    fn lower_detects_grouping() {
        let q = parse("MATCH (u:User) RETURN COUNT(*) AS n").unwrap();
        assert!(lower(&q).grouped);
        let q = parse("MATCH (u:User) RETURN u.name AS n").unwrap();
        assert!(!lower(&q).grouped);
    }

    #[test]
    fn render_pipeline_shape() {
        let q = parse(
            "MATCH (u:User)-[t:TX]->(m) WHERE t.amount > 10 \
             RETURN DISTINCT u.name AS n ORDER BY n DESC LIMIT 3",
        )
        .unwrap();
        let lines = lower(&q).render();
        assert!(lines[0].starts_with("Plan fingerprint=0x"));
        assert_eq!(lines[1], "rules: (none)");
        assert_eq!(lines[2], "Limit 3");
        assert_eq!(lines[3], "  Sort n DESC");
        assert_eq!(lines[4], "    Distinct");
        assert_eq!(lines[5], "      Project n := u.name");
        assert_eq!(lines[6], "        Filter (t.amount > 10)");
        assert_eq!(lines[7], "          Match (u:User)-[t:TX]->(m)");
    }

    #[test]
    fn render_grouped_and_pushed() {
        let q = parse(
            "MATCH (u:User) WHERE u.age > 18 RETURN u.name AS who, COUNT(*) AS n \
             HAVING COUNT(*) > 1",
        )
        .unwrap();
        let mut plan = lower(&q);
        plan.pushed.push(PushedPred {
            var: "u".into(),
            pred: PropPredicate::new("age", CmpOp::Gt, Value::Int(18)),
        });
        plan.query.filter = None;
        plan.rules.push("predicate-pushdown(1)".into());
        let text = plan.render().join("\n");
        assert!(text.contains("rules: predicate-pushdown(1)"));
        assert!(text.contains(
            "Aggregate group=[who] out=[who := u.name, n := COUNT(*)] having=(COUNT(*) > 1)"
        ));
        assert!(text.contains("Match (u:User) pushed=[u.age > 18]"));
        assert!(!text.contains("Filter"));
    }
}
