//! Slot programs: the per-binding half of a plan, compiled once.
//!
//! [`plan_query`](crate::plan_query) compiles the residual WHERE, the
//! RETURN items, the grouping keys, the row-aggregate arguments and
//! HAVING into a [`Program`] that the [`PlannedQuery`](crate::PlannedQuery)
//! caches. Compilation resolves everything that does not depend on the
//! data: variables become binding slots (vertex slot first, edge slot
//! second — the interpreter's lookup order), property keys become
//! [`PropertyKey`]s, reversed literal series ranges become the error
//! they always raise, and each grouped output item becomes a reference
//! to a key or an aggregate. Evaluation ([`Eval`]) then does no name
//! lookup and formats a variable's id only when the value lands in a
//! row. It yields the interpreter's values and errors, in its order:
//! binary operands left before right and never short-circuited.

use crate::ast::{AggFunc, BinOp, Expr, Query, RowAggFunc, SeriesRef};
use crate::exec::{apply_binop, contains_rowagg, Row};
use crate::physical::RowIndex;
use hygraph_core::{ElementRef, HyGraph};
use hygraph_graph::pattern::{Binding, Vars};
use hygraph_ts::store::{AggKind, Summary};
use hygraph_types::{HyGraphError, Interval, PropertyKey, Result, SeriesId, Timestamp, Value};
use std::collections::hash_map::{Entry, HashMap};

/// A query variable resolved to its binding slots.
#[derive(Clone, Debug)]
struct Slot {
    /// The variable's name, for the unbound-variable error.
    name: Box<str>,
    vertex: Option<usize>,
    edge: Option<usize>,
}

impl Slot {
    fn new(vars: &Vars, name: &str) -> Self {
        Self {
            name: name.into(),
            vertex: vars.vertex(name),
            edge: vars.edge(name),
        }
    }

    /// The element the binding holds: its vertex slot when bound, else
    /// its edge slot.
    fn element(&self, b: &Binding) -> Result<ElementRef> {
        if let Some(v) = self.vertex.and_then(|s| b.vertex(s)) {
            return Ok(ElementRef::Vertex(v));
        }
        if let Some(e) = self.edge.and_then(|s| b.edge(s)) {
            return Ok(ElementRef::Edge(e));
        }
        Err(HyGraphError::query(format!(
            "unbound variable '{}'",
            self.name
        )))
    }
}

/// The series a series term reads.
#[derive(Clone, Debug)]
enum SeriesCode {
    /// `DELTA(var)`.
    Delta(Slot),
    /// `var.key`, a series-valued property.
    Prop(Slot, PropertyKey),
}

impl SeriesCode {
    /// The series the binding's element names; `None` when a property
    /// is missing or static, or the element is a ts-element.
    fn id(&self, hg: &HyGraph, b: &Binding) -> Result<Option<SeriesId>> {
        match self {
            SeriesCode::Delta(s) => hg.delta_id(s.element(b)?).map(Some),
            SeriesCode::Prop(s, key) => match hg.props(s.element(b)?) {
                Ok(props) => Ok(props.get(key).and_then(|v| v.as_series())),
                Err(HyGraphError::KindMismatch { .. }) => Ok(None),
                Err(e) => Err(e),
            },
        }
    }
}

/// One compiled per-binding expression.
#[derive(Clone, Debug)]
enum Code {
    Lit(Value),
    /// A bare variable: the element's display id.
    Var(Slot),
    /// `var.key`, a static property.
    Prop(Slot, PropertyKey),
    /// `FUNC(series IN [from, to))` over a forward range.
    Series {
        kind: AggKind,
        series: SeriesCode,
        from: i64,
        to: i64,
    },
    /// A term that errors whenever it is evaluated: a reversed series
    /// range, or a row aggregate in a per-row position.
    Fail(Box<str>),
    Not(Box<Code>),
    Bin(BinOp, Box<(Code, Code)>),
}

fn compile(e: &Expr, vars: &Vars) -> Code {
    match e {
        Expr::Literal(v) => Code::Lit(v.clone()),
        Expr::Var(var) => Code::Var(Slot::new(vars, var)),
        Expr::Prop { var, key } => Code::Prop(Slot::new(vars, var), PropertyKey::new(key.as_str())),
        Expr::Agg { from, to, .. } if from > to => {
            Code::Fail(format!("aggregate range [{from}, {to}) is reversed").into())
        }
        Expr::Agg {
            func,
            series,
            from,
            to,
        } => Code::Series {
            kind: match func {
                AggFunc::Mean => AggKind::Mean,
                AggFunc::Sum => AggKind::Sum,
                AggFunc::Min => AggKind::Min,
                AggFunc::Max => AggKind::Max,
                AggFunc::Count => AggKind::Count,
            },
            series: match series {
                SeriesRef::Delta(var) => SeriesCode::Delta(Slot::new(vars, var)),
                SeriesRef::Property { var, key } => {
                    SeriesCode::Prop(Slot::new(vars, var), PropertyKey::new(key.as_str()))
                }
            },
            from: *from,
            to: *to,
        },
        Expr::RowAgg { .. } => {
            Code::Fail("row aggregate in a per-row context (nest it only in RETURN/HAVING)".into())
        }
        Expr::Not(inner) => Code::Not(Box::new(compile(inner, vars))),
        Expr::Binary { op, lhs, rhs } => {
            Code::Bin(*op, Box::new((compile(lhs, vars), compile(rhs, vars))))
        }
    }
}

/// One row aggregate of a grouped query.
#[derive(Clone, Debug)]
struct AggSpec {
    func: RowAggFunc,
    /// The argument; `None` for `COUNT(*)`.
    arg: Option<Code>,
    distinct: bool,
}

/// A grouped output expression, evaluated once per group.
#[derive(Clone, Debug)]
enum Fin {
    /// The group's value of grouping key `i`.
    Key(usize),
    /// The finalized value of aggregate `i`.
    Agg(usize),
    Lit(Value),
    Fail(Box<str>),
    Not(Box<Fin>),
    Bin(BinOp, Box<(Fin, Fin)>),
}

/// The grouped half of a program: keys and aggregate arguments per
/// binding, then output items and HAVING per group.
#[derive(Clone, Debug)]
struct Grouping {
    /// The aggregate-free RETURN items, in RETURN order.
    keys: Vec<Code>,
    /// Row aggregates in pre-order over RETURN, then HAVING.
    aggs: Vec<AggSpec>,
    items: Vec<Fin>,
    having: Option<Fin>,
}

impl Grouping {
    fn compile(q: &Query, vars: &Vars) -> Self {
        let key_exprs: Vec<&Expr> = q
            .returns
            .iter()
            .map(|r| &r.expr)
            .filter(|e| !contains_rowagg(e))
            .collect();
        let mut aggs = Vec::new();
        let items = q
            .returns
            .iter()
            .map(|r| fin(&r.expr, &key_exprs, vars, &mut aggs))
            .collect();
        let having = q
            .having
            .as_ref()
            .map(|h| fin(h, &key_exprs, vars, &mut aggs));
        Self {
            keys: key_exprs.iter().map(|e| compile(e, vars)).collect(),
            aggs,
            items,
            having,
        }
    }
}

/// Compiles a grouped output expression: a sub-expression equal to a
/// grouping key reads the key, each row aggregate takes the next
/// aggregate position, and anything else that needs a row fails.
fn fin(e: &Expr, keys: &[&Expr], vars: &Vars, aggs: &mut Vec<AggSpec>) -> Fin {
    if let Some(i) = keys.iter().position(|k| *k == e) {
        return Fin::Key(i);
    }
    match e {
        Expr::RowAgg {
            func,
            arg,
            distinct,
        } => {
            aggs.push(AggSpec {
                func: *func,
                arg: arg.as_deref().map(|a| compile(a, vars)),
                distinct: *distinct,
            });
            Fin::Agg(aggs.len() - 1)
        }
        Expr::Not(inner) => Fin::Not(Box::new(fin(inner, keys, vars, aggs))),
        Expr::Binary { op, lhs, rhs } => {
            let l = fin(lhs, keys, vars, aggs);
            Fin::Bin(*op, Box::new((l, fin(rhs, keys, vars, aggs))))
        }
        Expr::Literal(v) => Fin::Lit(v.clone()),
        other => Fin::Fail(
            format!("expression {other:?} requires a bound row outside aggregation").into(),
        ),
    }
}

impl Fin {
    fn eval(&self, key: &Row, aggs: &[Value]) -> Result<Value> {
        Ok(match self {
            Fin::Key(i) => key[*i].clone(),
            Fin::Agg(i) => aggs[*i].clone(),
            Fin::Lit(v) => v.clone(),
            Fin::Fail(msg) => return Err(HyGraphError::query(msg.to_string())),
            Fin::Not(inner) => not(inner.eval(key, aggs)?),
            Fin::Bin(op, lr) => {
                let l = lr.0.eval(key, aggs)?;
                apply_binop(*op, &l, &lr.1.eval(key, aggs)?)
            }
        })
    }
}

fn not(v: Value) -> Value {
    match v.as_bool() {
        Some(b) => Value::Bool(!b),
        None => Value::Null,
    }
}

/// A query's compiled per-binding work: the filter, then either the
/// RETURN items (flat) or the grouping.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    filter: Option<Code>,
    /// The RETURN items of a flat query; empty when grouped.
    items: Vec<Code>,
    grouping: Option<Grouping>,
}

impl Program {
    /// Compiles the residual query of a plan against its slot table.
    pub(crate) fn compile(q: &Query, grouped: bool, vars: &Vars) -> Self {
        let items = q.returns.iter().map(|r| compile(&r.expr, vars));
        Self {
            filter: q.filter.as_ref().map(|f| compile(f, vars)),
            items: if grouped { Vec::new() } else { items.collect() },
            grouping: grouped.then(|| Grouping::compile(q, vars)),
        }
    }

    /// Fresh group state for a grouped program; `None` for a flat one.
    pub(crate) fn groups(&self) -> Option<Groups<'_>> {
        self.grouping.as_ref().map(Groups::new)
    }

    /// Whether the program has a residual WHERE.
    pub(crate) fn has_filter(&self) -> bool {
        self.filter.is_some()
    }

    /// Whether `b` passes the residual WHERE.
    pub(crate) fn passes(&self, ev: &mut Eval<'_>, b: &Binding) -> Result<bool> {
        match &self.filter {
            None => Ok(true),
            Some(f) => Ok(ev.eval(f, b)?.as_bool() == Some(true)),
        }
    }

    /// Filter, then project one binding of a flat program: `None` when
    /// the filter drops it.
    pub(crate) fn row(&self, ev: &mut Eval<'_>, b: &Binding) -> Result<Option<Row>> {
        if !self.passes(ev, b)? {
            return Ok(None);
        }
        let row = self.items.iter().map(|c| ev.eval(c, b));
        row.collect::<Result<_>>().map(Some)
    }

    /// The series ids evaluating `b` reads through the filter and a flat
    /// projection. References that do not resolve contribute nothing:
    /// they evaluate to Null, or fail, whatever points are appended.
    pub(crate) fn series_deps(&self, hg: &HyGraph, b: &Binding, out: &mut Vec<SeriesId>) {
        fn walk(c: &Code, hg: &HyGraph, b: &Binding, out: &mut Vec<SeriesId>) {
            match c {
                Code::Series { series, .. } => out.extend(series.id(hg, b).ok().flatten()),
                Code::Not(inner) => walk(inner, hg, b, out),
                Code::Bin(_, lr) => {
                    walk(&lr.0, hg, b, out);
                    walk(&lr.1, hg, b, out);
                }
                Code::Lit(_) | Code::Var(_) | Code::Prop(..) | Code::Fail(_) => {}
            }
        }
        for c in self.filter.iter().chain(&self.items) {
            walk(c, hg, b, out);
        }
    }
}

/// Per-execution evaluation state: the graph and one memo of series
/// summaries, `(series, from, to) → Summary`, shared by every series
/// term of every binding. A summary is a deterministic function of its
/// key on one graph state, so the memo changes no value.
pub(crate) struct Eval<'a> {
    hg: &'a HyGraph,
    memo: HashMap<(SeriesId, i64, i64), Option<Summary>>,
}

impl<'a> Eval<'a> {
    pub(crate) fn new(hg: &'a HyGraph) -> Self {
        Self {
            hg,
            memo: HashMap::new(),
        }
    }

    fn eval(&mut self, c: &Code, b: &Binding) -> Result<Value> {
        Ok(match c {
            Code::Lit(v) => v.clone(),
            Code::Var(s) => Value::Str(match s.element(b)? {
                ElementRef::Vertex(v) => v.to_string(),
                ElementRef::Edge(e) => e.to_string(),
                ElementRef::Subgraph(g) => g.to_string(),
            }),
            // ts-elements have no φ: a static-property read on them is Null
            Code::Prop(s, key) => match self.hg.props(s.element(b)?) {
                Ok(props) => props
                    .get(key)
                    .and_then(|v| v.as_static())
                    .cloned()
                    .unwrap_or(Value::Null),
                Err(HyGraphError::KindMismatch { .. }) => Value::Null,
                Err(e) => return Err(e),
            },
            Code::Series {
                kind,
                series,
                from,
                to,
            } => self.series(*kind, series, *from, *to, b)?,
            Code::Fail(msg) => return Err(HyGraphError::query(msg.to_string())),
            Code::Not(inner) => not(self.eval(inner, b)?),
            Code::Bin(op, lr) => {
                let l = self.eval(&lr.0, b)?;
                apply_binop(*op, &l, &self.eval(&lr.1, b)?)
            }
        })
    }

    fn series(
        &mut self,
        kind: AggKind,
        series: &SeriesCode,
        from: i64,
        to: i64,
        b: &Binding,
    ) -> Result<Value> {
        let hg = self.hg;
        let Some(sid) = series.id(hg, b)? else {
            return Ok(Value::Null);
        };
        let summary = match self.memo.entry((sid, from, to)) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let iv = Interval::new(Timestamp::from_millis(from), Timestamp::from_millis(to));
                *e.insert(hg.series(sid)?.summarize(&iv, 0))
            }
        };
        Ok(match summary.and_then(|s| s.get(kind)) {
            Some(x) if kind == AggKind::Count => Value::Int(x as i64),
            Some(x) => Value::Float(x),
            None => Value::Null,
        })
    }

    /// Whether `c` evaluates to a non-null value. A bare variable is
    /// never null once bound, so its id string is not built.
    fn non_null(&mut self, c: &Code, b: &Binding) -> Result<bool> {
        match c {
            Code::Var(s) => s.element(b).map(|_| true),
            c => Ok(!self.eval(c, b)?.is_null()),
        }
    }
}

/// The distinct non-null values an aggregate has seen, first of each
/// `total_cmp` class kept.
#[derive(Default)]
struct ValueSet {
    vals: Vec<Value>,
    index: RowIndex,
}

impl ValueSet {
    /// Records `v`; whether it was new.
    fn insert(&mut self, v: Value) -> bool {
        let new = self.index.first_equal_value(&self.vals, &v).is_none();
        if new {
            self.vals.push(v);
        }
        new
    }
}

/// A typed accumulator: each function keeps only what it finalizes.
enum Acc {
    /// `COUNT(*)`: every row.
    Rows(u64),
    /// `COUNT(expr)`: non-null arguments.
    NonNull(u64),
    /// `COUNT(DISTINCT expr)`.
    Distinct(ValueSet),
    /// `SUM`/`AVG` (`[DISTINCT]`): the sum of numeric arguments.
    Sum {
        sum: f64,
        numeric: u64,
        seen: Option<ValueSet>,
    },
    /// `MIN`/`MAX`: the extreme so far. `DISTINCT` cannot move it.
    Extreme(Option<Value>),
}

impl Acc {
    fn new(spec: &AggSpec) -> Self {
        let distinct = spec.distinct && spec.arg.is_some();
        match spec.func {
            RowAggFunc::Count if spec.arg.is_none() => Acc::Rows(0),
            RowAggFunc::Count if distinct => Acc::Distinct(ValueSet::default()),
            RowAggFunc::Count => Acc::NonNull(0),
            RowAggFunc::Sum | RowAggFunc::Avg => Acc::Sum {
                sum: 0.0,
                numeric: 0,
                seen: distinct.then(ValueSet::default),
            },
            RowAggFunc::Min | RowAggFunc::Max => Acc::Extreme(None),
        }
    }

    fn update(&mut self, spec: &AggSpec, ev: &mut Eval<'_>, b: &Binding) -> Result<()> {
        let arg = match (&spec.arg, &mut *self) {
            (_, Acc::Rows(n)) => {
                *n += 1;
                return Ok(());
            }
            (Some(arg), Acc::NonNull(n)) => {
                *n += ev.non_null(arg, b)? as u64;
                return Ok(());
            }
            (Some(arg), _) => ev.eval(arg, b)?,
            // a `*` argument outside COUNT counts as the integer 1
            (None, _) => Value::Int(1),
        };
        if arg.is_null() {
            return Ok(());
        }
        match self {
            Acc::Distinct(set) => {
                set.insert(arg);
            }
            Acc::Sum { sum, numeric, seen } => {
                if seen.as_mut().is_some_and(|s| !s.insert(arg.clone())) {
                    return Ok(());
                }
                if let Some(x) = arg.as_f64() {
                    *sum += x;
                    *numeric += 1;
                }
            }
            Acc::Extreme(best) => {
                let wanted = if spec.func == RowAggFunc::Min {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                };
                if best.as_ref().is_none_or(|m| arg.total_cmp(m) == wanted) {
                    *best = Some(arg);
                }
            }
            Acc::Rows(_) | Acc::NonNull(_) => {}
        }
        Ok(())
    }

    fn finalize(&self, func: RowAggFunc) -> Value {
        match self {
            Acc::Rows(n) | Acc::NonNull(n) => Value::Int(*n as i64),
            Acc::Distinct(set) => Value::Int(set.vals.len() as i64),
            Acc::Sum { numeric: 0, .. } => Value::Null,
            Acc::Sum { sum, numeric, .. } if func == RowAggFunc::Avg => {
                Value::Float(sum / *numeric as f64)
            }
            Acc::Sum { sum, .. } => Value::Float(*sum),
            Acc::Extreme(v) => v.clone().unwrap_or(Value::Null),
        }
    }
}

/// The groups of one grouped execution, in creation order.
pub(crate) struct Groups<'p> {
    g: &'p Grouping,
    keys: Vec<Row>,
    /// `g.aggs.len()` accumulators per group.
    accs: Vec<Acc>,
    index: RowIndex,
    /// The key row being evaluated, reused across bindings.
    scratch: Row,
}

impl<'p> Groups<'p> {
    fn new(g: &'p Grouping) -> Self {
        Self {
            g,
            keys: Vec::new(),
            accs: Vec::new(),
            index: RowIndex::default(),
            scratch: Vec::new(),
        }
    }

    /// Folds one passing binding into its group: keys, then aggregate
    /// arguments in order.
    pub(crate) fn fold(&mut self, ev: &mut Eval<'_>, b: &Binding) -> Result<()> {
        self.scratch.clear();
        for c in &self.g.keys {
            self.scratch.push(ev.eval(c, b)?);
        }
        let gi = match self.index.first_equal(&self.keys, &self.scratch) {
            Some(gi) => gi,
            None => self.push_group(self.scratch.clone()),
        };
        let n = self.g.aggs.len();
        for (spec, acc) in self.g.aggs.iter().zip(&mut self.accs[gi * n..]) {
            acc.update(spec, ev, b)?;
        }
        Ok(())
    }

    fn push_group(&mut self, key: Row) -> usize {
        self.keys.push(key);
        self.accs.extend(self.g.aggs.iter().map(Acc::new));
        self.keys.len() - 1
    }

    /// Finalizes every group into its output row, dropping groups
    /// HAVING rejects.
    pub(crate) fn finish(mut self) -> Result<Vec<Row>> {
        // Cypher semantics: no grouping keys and no matches -> one empty group
        if self.keys.is_empty() && self.g.keys.is_empty() {
            self.push_group(Vec::new());
        }
        let n = self.g.aggs.len();
        let mut rows = Vec::with_capacity(self.keys.len());
        for (gi, key) in self.keys.iter().enumerate() {
            let vals: Vec<Value> = self
                .g
                .aggs
                .iter()
                .zip(&self.accs[gi * n..])
                .map(|(spec, acc)| acc.finalize(spec.func))
                .collect();
            let row = self
                .g
                .items
                .iter()
                .map(|f| f.eval(key, &vals))
                .collect::<Result<Row>>()?;
            let keep = match &self.g.having {
                Some(h) => h.eval(key, &vals)?.as_bool() == Some(true),
                None => true,
            };
            if keep {
                rows.push(row);
            }
        }
        Ok(rows)
    }
}
