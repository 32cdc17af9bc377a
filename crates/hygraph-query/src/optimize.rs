//! Rule-based logical-plan rewrites.
//!
//! Every rule preserves *bit-identical* results and error behaviour
//! versus the reference interpreter — the equivalence arguments live
//! next to each rule and are exercised end-to-end by the
//! `plan_equivalence` proptest. Rules that fired are recorded on the
//! plan and surface in `EXPLAIN` output.

use crate::ast::{BinOp, Expr, Query, SeriesRef};
use crate::exec::apply_binop;
use crate::plan::{LogicalPlan, PushedPred};
use hygraph_graph::pattern::{CmpOp, PropPredicate};
use hygraph_types::Value;
use std::collections::HashSet;

/// Runs the rewrite pipeline over a lowered plan.
pub fn optimize(mut plan: LogicalPlan) -> LogicalPlan {
    constant_fold(&mut plan);
    eliminate_trivial_filter(&mut plan);
    push_predicates(&mut plan);
    eliminate_redundant_distinct(&mut plan);
    prune_duplicate_sort_keys(&mut plan);
    plan
}

/// Folds subtrees whose operands are all literals. Evaluating a
/// literal never errors and [`apply_binop`] / `NOT` are total and
/// deterministic, so replacing the subtree with its value is exact.
/// Deliberately *not* done: short-circuit simplifications like
/// `false AND x -> false` — the interpreter always evaluates both
/// operands, and `x` could error on some binding.
fn constant_fold(plan: &mut LogicalPlan) {
    fn fold(e: &mut Expr) -> bool {
        match e {
            Expr::Not(inner) => {
                let changed = fold(inner);
                if let Expr::Literal(v) = &**inner {
                    let folded = match v.as_bool() {
                        Some(b) => Value::Bool(!b),
                        None => Value::Null,
                    };
                    *e = Expr::Literal(folded);
                    true
                } else {
                    changed
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                let changed = fold(lhs) | fold(rhs);
                if let (Expr::Literal(l), Expr::Literal(r)) = (&**lhs, &**rhs) {
                    *e = Expr::Literal(apply_binop(*op, l, r));
                    true
                } else {
                    changed
                }
            }
            _ => false,
        }
    }
    let mut changed = false;
    if let Some(f) = &mut plan.query.filter {
        changed |= fold(f);
    }
    for r in &mut plan.query.returns {
        changed |= fold(&mut r.expr);
    }
    if let Some(h) = &mut plan.query.having {
        changed |= fold(h);
    }
    if changed {
        plan.rules.push("const-fold".to_string());
    }
}

/// Drops a WHERE clause that folded to the literal `TRUE`: it passes
/// every binding and cannot error.
fn eliminate_trivial_filter(plan: &mut LogicalPlan) {
    if plan.query.filter == Some(Expr::Literal(Value::Bool(true))) {
        plan.query.filter = None;
        plan.rules.push("filter-elim".to_string());
    }
}

/// The variables a compiled pattern binds: every node var, plus the
/// vars of plain (single-hop) edges. Variable-length edge vars are
/// compiler-generated `__vle*` names at match time, so the surface var
/// is *not* bound — referencing it evaluates to an "unbound variable"
/// error per binding, which the infallibility gate must treat as
/// fallible.
fn pattern_vars(q: &Query) -> HashSet<&str> {
    let mut vars = HashSet::new();
    for p in &q.patterns {
        vars.insert(p.start.var.as_str());
        for (e, n) in &p.hops {
            vars.insert(n.var.as_str());
            if e.hops == (1, 1) {
                vars.insert(e.var.as_str());
            }
        }
    }
    vars
}

/// Whether evaluating `e` can error for *some* binding. Property and
/// variable reads on pattern-bound vars always succeed (ts-elements
/// yield `Null` for static reads, never an error). A series aggregate
/// over a property of a pattern-bound var with a forward literal range
/// succeeds too: a missing or static key and a ts-element yield `Null`,
/// and a series-valued property always names an existing series. That
/// last step rests on the instance invariant `HyGraph::validate`
/// checks — every series-valued property references a series of the
/// instance. It holds on every path that builds or changes a queried
/// graph: `HyGraph::set_property` rejects an unknown series id, the
/// `HgMutation` apply path (live commits, WAL and history replay)
/// rejects new elements whose properties name one, both decoders
/// (`io`, `binio`, and so checkpoints) run `validate`, and nothing
/// removes a series. `DELTA(var)` stays fallible (it errors on a
/// pg-element), so do reversed ranges; row aggregates are rejected in
/// WHERE outright.
fn infallible(e: &Expr, vars: &HashSet<&str>) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Prop { var, .. } | Expr::Var(var) => vars.contains(var.as_str()),
        Expr::Agg {
            series: SeriesRef::Property { var, .. },
            from,
            to,
            ..
        } => from <= to && vars.contains(var.as_str()),
        Expr::Agg { .. } | Expr::RowAgg { .. } => false,
        Expr::Not(inner) => infallible(inner, vars),
        Expr::Binary { lhs, rhs, .. } => infallible(lhs, vars) && infallible(rhs, vars),
    }
}

fn split_and(e: Expr, out: &mut Vec<Expr>) {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = e
    {
        split_and(*lhs, out);
        split_and(*rhs, out);
    } else {
        out.push(e);
    }
}

fn to_cmp(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::Ne => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

/// Mirrors a comparison across swapped operands: `lit op prop` becomes
/// `prop flip(op) lit`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// `prop op literal` (either operand order) as a pushable predicate.
fn as_pushable(e: &Expr) -> Option<PushedPred> {
    let Expr::Binary { op, lhs, rhs } = e else {
        return None;
    };
    let cmp = to_cmp(*op)?;
    match (&**lhs, &**rhs) {
        (Expr::Prop { var, key }, Expr::Literal(v)) => Some(PushedPred {
            var: var.clone(),
            pred: PropPredicate::new(key.clone(), cmp, v.clone()),
        }),
        (Expr::Literal(v), Expr::Prop { var, key }) => Some(PushedPred {
            var: var.clone(),
            pred: PropPredicate::new(key.clone(), flip(cmp), v.clone()),
        }),
        _ => None,
    }
}

/// Predicate pushdown: moves `var.key op literal` top-level AND
/// conjuncts of WHERE into pattern matching.
///
/// Soundness: only applied when the *entire* WHERE is statically
/// infallible (see [`infallible`]) — otherwise pruning a binding early
/// could skip an evaluation error the interpreter would have reported.
/// Given that gate, for a pushable conjunct `P`:
///
/// * `P` is an AND conjunct, so `WHERE` true ⇒ `P` true: every row the
///   interpreter keeps satisfies `P`, and enforcing `P` during matching
///   removes no kept row.
/// * `P` not-true (missing property, `Null` value, failed comparison —
///   exactly the cases where the matcher's `holds()` is false) ⇒ the
///   interpreter filters the binding anyway, so early pruning removes
///   only rows the interpreter would drop. Comparison semantics match:
///   both sides use `total_cmp`/`sql_eq` with null-never-matches.
/// * The residual AND-chain of the remaining conjuncts evaluates
///   identically on surviving bindings: pushed conjuncts evaluate to
///   `TRUE` there, and `x AND TRUE ≡ x` under the engine's
///   three-valued logic.
///
/// Pushed predicates are excluded from the matcher's selectivity
/// ordering, so binding enumeration order is an order-preserving
/// subsequence of the un-pushed order — grouped folds and DISTINCT
/// stay bit-identical.
fn push_predicates(plan: &mut LogicalPlan) {
    let Some(filter) = &plan.query.filter else {
        return;
    };
    let vars = pattern_vars(&plan.query);
    if !infallible(filter, &vars) {
        return;
    }
    let mut conjuncts = Vec::new();
    split_and(filter.clone(), &mut conjuncts);
    let mut residual = Vec::new();
    let mut pushed = Vec::new();
    for c in conjuncts {
        match as_pushable(&c) {
            // the infallibility gate already guarantees the var is
            // pattern-bound
            Some(p) => pushed.push(p),
            None => residual.push(c),
        }
    }
    if pushed.is_empty() {
        return;
    }
    plan.rules
        .push(format!("predicate-pushdown({})", pushed.len()));
    plan.pushed.extend(pushed);
    plan.query.filter = residual.into_iter().reduce(|acc, e| Expr::Binary {
        op: BinOp::And,
        lhs: Box::new(acc),
        rhs: Box::new(e),
    });
    if plan.query.filter.is_none() {
        plan.rules.push("filter-elim".to_string());
    }
}

/// `RETURN DISTINCT` on a grouped query is redundant: every group key
/// appears in the output row, and groups are partitioned by the same
/// row equality DISTINCT uses, so grouped rows are already pairwise
/// distinct.
fn eliminate_redundant_distinct(plan: &mut LogicalPlan) {
    if plan.query.distinct && plan.grouped {
        plan.query.distinct = false;
        plan.rules.push("distinct-elim".to_string());
    }
}

/// Drops ORDER BY items that repeat an earlier item's column: once a
/// column compares equal, comparing it again (either direction) is
/// still equal, so later duplicates never affect the order. The first
/// occurrence keeps the unknown-column error behaviour.
fn prune_duplicate_sort_keys(plan: &mut LogicalPlan) {
    let mut seen: HashSet<String> = HashSet::new();
    let before = plan.query.order_by.len();
    plan.query
        .order_by
        .retain(|o| seen.insert(o.column.clone()));
    if plan.query.order_by.len() < before {
        plan.rules.push("orderby-prune".to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::lower;

    fn optimized(text: &str) -> LogicalPlan {
        optimize(lower(&parse(text).unwrap()))
    }

    #[test]
    fn folds_literal_arithmetic() {
        let p = optimized("MATCH (u:User) RETURN 2 * 3 + 1 AS x");
        assert_eq!(p.query.returns[0].expr, Expr::Literal(Value::Int(7)));
        assert!(p.rules.contains(&"const-fold".to_string()));
    }

    #[test]
    fn does_not_shortcircuit_fallible_operands() {
        // FALSE AND <agg> must stay: the interpreter evaluates both
        // operands, and the aggregate errors on its reversed range
        let p = optimized("MATCH (c:Card) WHERE FALSE AND MEAN(DELTA(c) IN [100, 0)) > 1 RETURN c");
        assert!(p.query.filter.is_some());
        assert!(p.pushed.is_empty(), "fallible WHERE blocks pushdown");
    }

    #[test]
    fn pushes_simple_prop_comparisons() {
        let p =
            optimized("MATCH (u:User)-[t:TX]->(m) WHERE u.age > 18 AND 100 < t.amount RETURN u");
        assert_eq!(p.pushed.len(), 2);
        assert_eq!(p.pushed[0].var, "u");
        assert_eq!(
            p.pushed[0].pred,
            PropPredicate::new("age", CmpOp::Gt, Value::Int(18))
        );
        // literal-first comparison is flipped
        assert_eq!(p.pushed[1].var, "t");
        assert_eq!(
            p.pushed[1].pred,
            PropPredicate::new("amount", CmpOp::Gt, Value::Int(100))
        );
        assert!(p.query.filter.is_none(), "both conjuncts consumed");
        assert!(p.rules.iter().any(|r| r == "predicate-pushdown(2)"));
    }

    #[test]
    fn keeps_residual_conjuncts() {
        let p =
            optimized("MATCH (u:User) WHERE u.age > 18 AND u.name <> u.nick RETURN u.name AS n");
        assert_eq!(p.pushed.len(), 1);
        let residual = p.query.filter.expect("prop-prop comparison stays");
        assert!(matches!(residual, Expr::Binary { op: BinOp::Ne, .. }));
    }

    #[test]
    fn unbound_var_blocks_pushdown() {
        // `z` is not pattern-bound: evaluation errors per binding, so
        // the whole WHERE is fallible and nothing may be pushed
        let p = optimized("MATCH (u:User) WHERE u.age > 18 AND z.x = 1 RETURN u");
        assert!(p.pushed.is_empty());
        assert!(p.query.filter.is_some());
    }

    #[test]
    fn or_is_not_split() {
        let p = optimized("MATCH (u:User) WHERE u.age > 18 OR u.age < 3 RETURN u");
        assert!(p.pushed.is_empty(), "OR is not a conjunction");
        assert!(p.query.filter.is_some());
    }

    #[test]
    fn distinct_elim_on_grouped() {
        let p = optimized("MATCH (u:User) RETURN DISTINCT u.name AS n, COUNT(*) AS c");
        assert!(!p.query.distinct);
        assert!(p.rules.contains(&"distinct-elim".to_string()));
        // non-grouped DISTINCT stays
        let p = optimized("MATCH (u:User) RETURN DISTINCT u.name AS n");
        assert!(p.query.distinct);
    }

    #[test]
    fn duplicate_sort_keys_pruned() {
        let p = optimized("MATCH (u:User) RETURN u.name AS n, u.age AS a ORDER BY n, a, n DESC");
        let cols: Vec<&str> = p.query.order_by.iter().map(|o| o.column.as_str()).collect();
        assert_eq!(cols, vec!["n", "a"]);
        assert!(p.rules.contains(&"orderby-prune".to_string()));
    }

    #[test]
    fn pushes_past_property_series_aggregates() {
        // a property-series aggregate on a bound var with a forward
        // range cannot error, so the prop conjunct moves into matching
        let p = optimized(
            "MATCH (a:Station)-[t:TRIP]->(b:Station) \
             WHERE t.trips > 5 AND MAX(b.availability IN [0, 100)) > 3 RETURN COUNT(t) AS n",
        );
        assert_eq!(p.pushed.len(), 1);
        assert_eq!(p.pushed[0].var, "t");
        assert_eq!(
            p.pushed[0].pred,
            PropPredicate::new("trips", CmpOp::Gt, Value::Int(5))
        );
        assert!(matches!(
            p.query.filter,
            Some(Expr::Binary { op: BinOp::Gt, .. })
        ));
        // a reversed range, DELTA, and an unbound var stay fallible
        for text in [
            "MATCH (a:Station)-[t:TRIP]->(b) \
             WHERE t.trips > 5 AND MAX(b.availability IN [100, 0)) > 3 RETURN a",
            "MATCH (a:Station)-[t:TRIP]->(b) \
             WHERE t.trips > 5 AND MAX(DELTA(b) IN [0, 100)) > 3 RETURN a",
            "MATCH (a:Station)-[t:TRIP]->(b) \
             WHERE t.trips > 5 AND MAX(z.availability IN [0, 100)) > 3 RETURN a",
        ] {
            let p = optimized(text);
            assert!(p.pushed.is_empty(), "{text}");
        }
    }

    #[test]
    fn true_filter_eliminated() {
        let p = optimized("MATCH (u:User) WHERE 1 < 2 RETURN u");
        assert!(p.query.filter.is_none());
        assert!(p.rules.contains(&"filter-elim".to_string()));
        // a filter folding to FALSE is kept (it must still drop rows)
        let p = optimized("MATCH (u:User) WHERE 1 > 2 RETURN u");
        assert_eq!(p.query.filter, Some(Expr::Literal(Value::Bool(false))));
    }
}
