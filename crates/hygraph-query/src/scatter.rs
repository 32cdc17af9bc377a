//! Scatter-gather physical execution over a sharded engine.
//!
//! The sharded engine partitions its commit/storage plane by
//! [`ShardRouter`] but publishes one *logically whole* snapshot per
//! commit epoch, so a query never has to stitch per-shard graphs back
//! together — pattern matching runs against the full topology. What
//! scatter-gather parallelises is everything *after* the match:
//!
//! 1. **Scatter** — the coordinator materialises the match bindings
//!    once, then partitions them by **anchor shard**: the shard owning
//!    the binding's smallest bound vertex (deterministic regardless of
//!    binding-map iteration order). Co-location means a binding's
//!    series reads mostly hit its anchor shard's data.
//! 2. **Per-shard evaluation** — each shard part evaluates its
//!    bindings' residual filter and projection (or grouping keys +
//!    aggregate arguments) independently; shard parts run in parallel
//!    under the same `should_parallelize` decision as the single-pass
//!    executor.
//! 3. **Gather** — the coordinator re-assembles per-binding results by
//!    original binding index, so rows, row order, group creation order,
//!    and the first error in binding order are **byte-identical** to
//!    [`execute_planned`](crate::execute_planned) — the invariant
//!    `tests/scatter_equivalence.rs`
//!    pins across shard counts. Distinct → Sort → Limit run at the
//!    coordinator after the merge.
//!
//! Cross-shard `AS OF` consistency is the engine's job, not this
//! module's: the engine resolves a temporal bound against the
//! cross-shard commit timestamp (every snapshot is published at a
//! single CSN frontier), hands the resolved graph here, and every shard
//! part reads that one immutable snapshot.

use crate::exec::{AggCache, QueryResult, Row};
use crate::physical::{
    self, eval_filter, eval_key_args, fold_groups, grouping_layout, op_start, project_row,
    record_op, PlannedQuery, RowCtx,
};
use hygraph_core::HyGraph;
use hygraph_graph::pattern::Binding;
use hygraph_metrics::PlanOp;
use hygraph_types::parallel::{should_parallelize, ExecMode};
use hygraph_types::shard::ShardRouter;
use hygraph_types::{Result, Value};
use rayon::prelude::*;

/// One shard's slice of the scattered binding set: the indices (into
/// the coordinator's binding vector) this shard evaluates.
#[derive(Clone, Debug)]
pub struct ShardPart {
    /// The shard these bindings anchor to.
    pub shard: usize,
    /// Indices into the materialised binding vector, ascending.
    pub indices: Vec<usize>,
}

/// The shard a binding anchors to: the home shard of its smallest bound
/// vertex. Bindings with no vertex (pure edge patterns don't exist
/// today, but stay total anyway) anchor to their smallest edge's shard,
/// and empty ones to shard 0.
pub fn anchor_shard(binding: &Binding, router: &ShardRouter) -> usize {
    binding
        .vertices()
        .min()
        .map(|v| router.of_vertex(v))
        .or_else(|| binding.edges().min().map(|e| router.of_edge(e)))
        .unwrap_or(0)
}

/// Partitions binding indices by anchor shard. Only non-empty parts are
/// returned, ordered by shard index; within a part, indices ascend (the
/// gather relies on per-part order only, but determinism keeps the
/// execution observable).
pub fn scatter_bindings(bindings: &[Binding], router: &ShardRouter) -> Vec<ShardPart> {
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); router.shards()];
    for (i, b) in bindings.iter().enumerate() {
        parts[anchor_shard(b, router)].push(i);
    }
    parts
        .into_iter()
        .enumerate()
        .filter(|(_, indices)| !indices.is_empty())
        .map(|(shard, indices)| ShardPart { shard, indices })
        .collect()
}

/// Per-shard evaluation output for one binding: its original index, the
/// filter verdict, and — when the filter passed — the evaluated payload
/// (projected row, or grouping keys + aggregate args).
type Evaluated<T> = (usize, Result<bool>, Option<Result<T>>);

/// One shard's evaluation output on the grouped path: per passing
/// binding, the grouping-key row plus its aggregate arguments.
type GroupedEvals = Vec<Evaluated<(Row, Vec<Value>)>>;

/// Evaluates one shard part: filter first, payload only for passing
/// bindings — the same all-bindings-no-short-circuit discipline as the
/// single-pass executor, so error sets match exactly.
fn eval_part<T>(
    part: &ShardPart,
    bindings: &[Binding],
    has_filter: bool,
    filter: impl Fn(&Binding) -> Result<bool>,
    payload: impl Fn(&Binding) -> Result<T>,
) -> Vec<Evaluated<T>> {
    part.indices
        .iter()
        .map(|&i| {
            let b = &bindings[i];
            let fr = if has_filter { filter(b) } else { Ok(true) };
            let pl = matches!(fr, Ok(true)).then(|| payload(b));
            (i, fr, pl)
        })
        .collect()
}

/// Gathers per-shard results into global binding order: a filter-result
/// vector aligned with `bindings` and, for each passing binding, its
/// payload — the exact inputs the single-pass assembly consumes.
fn gather<T>(
    n: usize,
    per_shard: Vec<Vec<Evaluated<T>>>,
) -> (Vec<Result<bool>>, Vec<Option<Result<T>>>) {
    let mut filter_pass: Vec<Result<bool>> = (0..n).map(|_| Ok(true)).collect();
    let mut payloads: Vec<Option<Result<T>>> = (0..n).map(|_| None).collect();
    for part in per_shard {
        for (i, fr, pl) in part {
            filter_pass[i] = fr;
            payloads[i] = pl;
        }
    }
    (filter_pass, payloads)
}

/// Executes a planned query with scatter-gather over `router`'s shard
/// layout. Single-shard routers take the single-pass path unchanged;
/// multi-shard execution is byte-identical to it by construction (the
/// gather re-establishes global binding order before any
/// order-sensitive work).
pub fn execute_planned_sharded(
    hg: &HyGraph,
    planned: &PlannedQuery,
    mode: ExecMode,
    router: ShardRouter,
) -> Result<QueryResult> {
    if router.is_single() {
        return physical::execute_planned(hg, planned, mode);
    }
    let plan = &planned.plan;
    let q = &plan.query;

    let t = op_start();
    let bindings: Vec<Binding> = planned
        .patterns
        .iter()
        .flat_map(|p| p.find_all(hg.topology()))
        .collect();
    record_op(PlanOp::Match, t, bindings.len());

    let parts = scatter_bindings(&bindings, &router);
    let columns: Vec<String> = q.returns.iter().map(|r| r.alias.clone()).collect();
    let cache = plan.memoize_aggs.then(AggCache::default);
    let par = should_parallelize(mode, bindings.len());

    let rc = RowCtx {
        hg,
        q,
        vars: &planned.vars,
        cache: cache.as_ref(),
    };
    let mut rows = if plan.grouped {
        sg_grouped(&rc, &bindings, &parts, par)?
    } else {
        sg_flat(&rc, &bindings, &parts, par)?
    };

    physical::finish_rows(q, &columns, &mut rows)?;
    Ok(QueryResult { columns, rows })
}

fn sg_flat(
    rc: &RowCtx<'_>,
    bindings: &[Binding],
    parts: &[ShardPart],
    par: bool,
) -> Result<Vec<Row>> {
    let has_filter = rc.q.filter.is_some();
    let ft = has_filter.then(op_start).flatten();
    let pt = op_start();
    let eval = |part: &ShardPart| {
        eval_part(
            part,
            bindings,
            has_filter,
            |b| eval_filter(rc, b),
            |b| project_row(rc, b),
        )
    };
    let per_shard: Vec<Vec<Evaluated<Row>>> = if par {
        parts.par_iter().map(eval).collect()
    } else {
        parts.iter().map(eval).collect()
    };
    let (filter_pass, mut rows_by_idx) = gather(bindings.len(), per_shard);
    if has_filter {
        let passed = filter_pass.iter().filter(|r| matches!(r, Ok(true))).count();
        record_op(PlanOp::Filter, ft, passed);
    }
    record_op(
        PlanOp::Project,
        pt,
        rows_by_idx
            .iter()
            .filter(|p| matches!(p, Some(Ok(_))))
            .count(),
    );

    // assemble in binding order, interleaving the filter and project
    // result streams — identical error precedence to the single pass
    let mut rows = Vec::new();
    for (i, fr) in filter_pass.into_iter().enumerate() {
        if fr? {
            rows.push(rows_by_idx[i].take().expect("passing binding evaluated")?);
        }
    }
    Ok(rows)
}

fn sg_grouped(
    rc: &RowCtx<'_>,
    bindings: &[Binding],
    parts: &[ShardPart],
    par: bool,
) -> Result<Vec<Row>> {
    let layout = grouping_layout(rc.q);
    let has_filter = rc.q.filter.is_some();
    let ft = has_filter.then(op_start).flatten();
    let t = op_start();
    let eval = |part: &ShardPart| {
        eval_part(
            part,
            bindings,
            has_filter,
            |b| eval_filter(rc, b),
            |b| eval_key_args(rc, &layout, b),
        )
    };
    let per_shard: Vec<GroupedEvals> = if par {
        parts.par_iter().map(eval).collect()
    } else {
        parts.iter().map(eval).collect()
    };
    let (filter_pass, mut ka_by_idx) = gather(bindings.len(), per_shard);
    if has_filter {
        let passed = filter_pass.iter().filter(|r| matches!(r, Ok(true))).count();
        record_op(PlanOp::Filter, ft, passed);
    }

    // the coordinator folds in global binding order — the same
    // deterministic merge as the single-pass executor
    let evaluated: Vec<Result<(Row, Vec<Value>)>> = filter_pass
        .iter()
        .enumerate()
        .filter(|(_, fr)| matches!(fr, Ok(true)))
        .map(|(i, _)| ka_by_idx[i].take().expect("passing binding evaluated"))
        .collect();
    let rows = fold_groups(rc.q, &layout, filter_pass, evaluated)?;
    record_op(PlanOp::Aggregate, t, rows.len());
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hygraph_graph::pattern::Bound;
    use hygraph_types::{EdgeId, VertexId};

    fn binding(vs: &[u64], es: &[u64]) -> Binding {
        let vs = vs.iter().map(|&v| Some(Bound::Vertex(VertexId::new(v))));
        let es = es.iter().map(|&e| Some(Bound::Edge(EdgeId::new(e))));
        // an unbound slot in the middle must not count
        Binding::from(vs.chain([None]).chain(es).collect::<Vec<_>>())
    }

    #[test]
    fn anchor_is_min_vertex_home_shard() {
        let r = ShardRouter::new(4);
        // min vertex is 5 -> shard 1, regardless of slot order
        assert_eq!(anchor_shard(&binding(&[9, 5, 7], &[2]), &r), 1);
        // no vertices: falls to min edge
        assert_eq!(anchor_shard(&binding(&[], &[6, 3]), &r), 3);
        // nothing bound at all: total, shard 0
        assert_eq!(anchor_shard(&binding(&[], &[]), &r), 0);
    }

    #[test]
    fn scatter_partitions_every_binding_exactly_once() {
        let r = ShardRouter::new(3);
        let bindings: Vec<Binding> = (0..10u64).map(|v| binding(&[v], &[])).collect();
        let parts = scatter_bindings(&bindings, &r);
        let mut seen: Vec<usize> = parts.iter().flat_map(|p| p.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        for p in &parts {
            assert!(p.shard < 3);
            for &i in &p.indices {
                assert_eq!(anchor_shard(&bindings[i], &r), p.shard);
            }
        }
    }

    #[test]
    fn single_shard_router_short_circuits() {
        // smoke: the N=1 path delegates to execute_planned (same bytes)
        let hot = hygraph_ts::TimeSeries::generate(
            hygraph_types::Timestamp::ZERO,
            hygraph_types::Duration::from_millis(10),
            10,
            |i| i as f64,
        );
        let built = hygraph_core::HyGraphBuilder::new()
            .univariate("s", &hot)
            .pg_vertex("a", ["User"], hygraph_types::props! {"name" => "a"})
            .ts_vertex("c", ["Card"], "s")
            .pg_edge(None, "a", "c", ["USES"], hygraph_types::props! {})
            .build()
            .unwrap();
        let q =
            crate::parser::parse("MATCH (u:User)-[:USES]->(c:Card) RETURN u.name AS n").unwrap();
        let planned = physical::plan_query(&q).unwrap();
        let single = physical::execute_planned(&built.hygraph, &planned, ExecMode::Sequential);
        let sharded = execute_planned_sharded(
            &built.hygraph,
            &planned,
            ExecMode::Sequential,
            ShardRouter::new(1),
        );
        assert_eq!(single.unwrap(), sharded.unwrap());
    }
}
