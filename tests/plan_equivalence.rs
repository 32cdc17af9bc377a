//! Cross-crate equivalence property for the plan-based query pipeline.
//!
//! Randomly composed HyQL queries must produce **byte-identical** encoded
//! results through the legacy one-pass interpreter
//! ([`hygraph_query::execute_interpreted_mode`], in both execution
//! modes) and the plan → optimize → streaming physical pipeline
//! ([`hygraph_query::execute`]). Queries that fail must fail with the *same*
//! error through both paths — the optimizer is not allowed to turn an
//! erroring query into a succeeding one (or vice versa), nor to change
//! which error surfaces first.

use hygraph::prelude::*;
use hygraph::query_engine as hq;
use hygraph::types::bytes::ByteWriter;
use hygraph::types::parallel::ExecMode;
use hygraph::types::props;
use proptest::prelude::*;

/// The fixture instance: two users, two ts-cards (integer-valued series,
/// so float aggregates are exact on every path), two merchants, TX edges
/// with mixed amounts. Rich enough that every pattern pool below matches
/// at least sometimes.
fn instance() -> HyGraph {
    let spend = TimeSeries::generate(Timestamp::ZERO, Duration::from_hours(1), 48, |h| {
        ((h * 7) % 23) as f64
    });
    let slow = TimeSeries::generate(Timestamp::ZERO, Duration::from_hours(2), 24, |h| {
        ((h * 3) % 11) as f64
    });
    HyGraphBuilder::new()
        .univariate("spend", &spend)
        .univariate("slow", &slow)
        .pg_vertex("u1", ["User"], props! {"name" => "alice", "age" => 34})
        .pg_vertex("u2", ["User"], props! {"name" => "bob", "age" => 27})
        .ts_vertex("c1", ["Card"], "spend")
        .ts_vertex("c2", ["Card"], "slow")
        .pg_vertex("m1", ["Merchant"], props! {"name" => "m1", "fee" => 2.5})
        .pg_vertex("m2", ["Merchant"], props! {"name" => "m2", "fee" => 1.0})
        .pg_edge(None, "u1", "c1", ["USES"], props! {})
        .pg_edge(None, "u2", "c2", ["USES"], props! {})
        .pg_edge(Some("t1"), "c1", "m1", ["TX"], props! {"amount" => 1200.0})
        .pg_edge(Some("t2"), "c1", "m2", ["TX"], props! {"amount" => 30.0})
        .pg_edge(Some("t3"), "c2", "m1", ["TX"], props! {"amount" => 20.0})
        .build()
        .unwrap()
        .hygraph
}

/// Pattern shapes, with per-shape pools of WHERE / RETURN / HAVING
/// fragments that reference only the variables that shape binds. The
/// pools deliberately mix pushable comparisons, non-pushable boolean
/// structure, constant-foldable subtrees, series aggregates (including
/// a reversed-range one that must *error identically* on both paths),
/// and row aggregates.
struct Shape {
    pattern: &'static str,
    filters: &'static [&'static str],
    // (alias, full RETURN item)
    returns: &'static [(&'static str, &'static str)],
    havings: &'static [&'static str],
}

const SHAPES: &[Shape] = &[
    Shape {
        pattern: "(u:User)",
        filters: &[
            "u.name = 'alice'",
            "u.age > 30",
            "NOT u.age > 30",
            "u.name = 'alice' OR u.age > 26",
            "u.age > 20 AND NOT u.name = 'bob'",
            "TRUE",
            "1 > 2",
            "u.age > 10 AND 2 > 1",
        ],
        returns: &[
            ("name", "u.name AS name"),
            ("age", "u.age AS age"),
            ("n", "COUNT(*) AS n"),
            ("dn", "COUNT(DISTINCT u.name) AS dn"),
        ],
        havings: &["COUNT(*) > 0", "COUNT(*) > 1"],
    },
    Shape {
        pattern: "(u:User)-[:USES]->(c:Card)",
        filters: &[
            "u.age > 26",
            "MEAN(DELTA(c) IN [0, 86400000)) > 8",
            "u.name = 'alice' AND SUM(DELTA(c) IN [0, 43200000)) > 50",
            // reversed range: must produce the same error on both paths
            "MEAN(DELTA(c) IN [86400000, 0)) > 1",
        ],
        returns: &[
            ("who", "u.name AS who"),
            ("peak", "MAX(DELTA(c) IN [0, 86400000)) AS peak"),
            ("total", "SUM(DELTA(c) IN [0, 43200000)) AS total"),
            ("n", "COUNT(*) AS n"),
        ],
        havings: &["COUNT(*) > 0"],
    },
    Shape {
        pattern: "(u:User)-[:USES]->(c:Card)-[t:TX]->(m:Merchant)",
        filters: &[
            "t.amount > 100",
            "t.amount > 100 AND m.fee > 2",
            "m.name = 'm1'",
            "MAX(DELTA(c) IN [0, 86400000)) > 10 OR t.amount > 25",
            "NOT t.amount > 100",
            "t.amount > 10 AND u.name = 'alice' AND m.fee > 0.5",
        ],
        returns: &[
            ("who", "u.name AS who"),
            ("amt", "t.amount AS amt"),
            ("mname", "m.name AS mname"),
            ("total", "SUM(t.amount) AS total"),
            ("txs", "COUNT(t) AS txs"),
            ("peak", "MAX(DELTA(c) IN [0, 3600000)) AS peak"),
        ],
        havings: &["SUM(t.amount) > 50", "COUNT(*) > 1"],
    },
    Shape {
        pattern: "(u:User)-[*1..2]->(x)",
        filters: &["u.age > 26", "x.name = 'm1'"],
        returns: &[("reach", "COUNT(x) AS reach"), ("who", "u.name AS who")],
        havings: &["COUNT(x) > 1"],
    },
];

/// Deterministically assembles a parseable HyQL query from six choice
/// words. Clause order follows the grammar: MATCH [WHERE] [VALID AT]
/// RETURN [DISTINCT] items [HAVING] [ORDER BY] [LIMIT].
fn build_query(
    pat_sel: u64,
    filt_sel: u64,
    ret_sel: u64,
    hav_sel: u64,
    ord_sel: u64,
    misc_sel: u64,
) -> String {
    let shape = &SHAPES[(pat_sel % SHAPES.len() as u64) as usize];
    let mut q = format!("MATCH {}", shape.pattern);

    // WHERE present in ~2/3 of cases
    let nf = shape.filters.len() as u64;
    let fi = filt_sel % (nf * 3 / 2);
    if fi < nf {
        q.push_str(&format!(" WHERE {}", shape.filters[fi as usize]));
    }

    // VALID AT in ~1/4 of cases
    if misc_sel.is_multiple_of(4) {
        q.push_str(" VALID AT 0");
    }

    // non-empty subset of the RETURN pool
    let nret = shape.returns.len();
    let mask = (ret_sel % ((1u64 << nret) - 1)) + 1;
    let chosen: Vec<&(&str, &str)> = shape
        .returns
        .iter()
        .enumerate()
        .filter(|&(i, _)| mask >> i & 1 == 1)
        .map(|(_, r)| r)
        .collect();
    let distinct = if misc_sel >> 2 & 1 == 1 {
        "DISTINCT "
    } else {
        ""
    };
    let items: Vec<&str> = chosen.iter().map(|&&(_, item)| item).collect();
    q.push_str(&format!(" RETURN {distinct}{}", items.join(", ")));

    // HAVING in ~1/3 of cases
    let nh = shape.havings.len() as u64;
    let hi = hav_sel % (nh * 3);
    if hi < nh {
        q.push_str(&format!(" HAVING {}", shape.havings[hi as usize]));
    }

    // ORDER BY in ~1/2 of cases: usually a produced alias, occasionally
    // an unknown column (both paths must raise the same error)
    match ord_sel % 4 {
        0 | 1 => {}
        2 => {
            let &&(alias, _) = &chosen[(ord_sel >> 3) as usize % chosen.len()];
            let dir = if ord_sel >> 2 & 1 == 1 { " DESC" } else { "" };
            q.push_str(&format!(" ORDER BY {alias}{dir}"));
        }
        _ => q.push_str(" ORDER BY zzz"),
    }

    // LIMIT in ~1/4 of cases
    if misc_sel >> 3 & 3 == 0 {
        q.push_str(&format!(" LIMIT {}", misc_sel >> 5 & 3));
    }

    q
}

fn encoded(r: &hq::QueryResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    r.encode(&mut w);
    w.into_bytes()
}

proptest! {
    #[test]
    fn planner_is_equivalent_to_interpreter(
        sels in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX,
                 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX)
    ) {
        let (a, b, c, d, e, f) = sels;
        let text = build_query(a, b, c, d, e, f);
        let hg = instance();
        let q = match hq::parser::parse(&text) {
            Ok(q) => q,
            Err(err) => {
                return Err(TestCaseError::fail(format!(
                    "generated query must parse, got {err}: {text:?}"
                )))
            }
        };
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let legacy = hq::execute_interpreted_mode(&hg, &q, mode);
            let planned = hq::execute(&hg, &q);
            match (&legacy, &planned) {
                (Ok(l), Ok(p)) => prop_assert_eq!(
                    encoded(l),
                    encoded(p),
                    "result bytes diverge in {:?} for {:?}",
                    mode,
                    text
                ),
                (Err(l), Err(p)) => prop_assert_eq!(
                    l.to_string(),
                    p.to_string(),
                    "errors diverge in {:?} for {:?}",
                    mode,
                    text
                ),
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "outcome diverges in {mode:?} for {text:?}: \
                         interpreter {legacy:?} vs planner {planned:?}"
                    )))
                }
            }
        }
    }
}

/// The fixed Table-1-shaped corner cases, byte-for-byte, both modes —
/// a deterministic floor under the random property above.
#[test]
fn planner_matches_interpreter_on_fixed_corner_cases() {
    let hg = instance();
    let corner_cases = [
        "MATCH (u:User) RETURN u.name AS name ORDER BY name",
        "MATCH (u:User) WHERE 1 > 2 RETURN u.name AS name",
        "MATCH (u:User) RETURN COUNT(*) AS n",
        "MATCH (u:User)-[:USES]->(c:Card) \
         WHERE MEAN(DELTA(c) IN [0, 86400000)) > 8 \
         RETURN u.name AS who ORDER BY who",
        "MATCH (u:User)-[:USES]->(c:Card)-[t:TX]->(m:Merchant) \
         WHERE t.amount > 25 AND m.fee > 0.5 \
         RETURN u.name AS who, SUM(t.amount) AS total \
         HAVING SUM(t.amount) > 10 ORDER BY total DESC LIMIT 3",
        "MATCH (u:User)-[*1..2]->(x) RETURN DISTINCT u.name AS who ORDER BY who",
        "MATCH (u:User) RETURN u.name AS name ORDER BY zzz",
    ];
    for text in corner_cases {
        let q = hq::parser::parse(text).expect("fixed query parses");
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let legacy = hq::execute_interpreted_mode(&hg, &q, mode);
            let planned = hq::execute(&hg, &q);
            match (&legacy, &planned) {
                (Ok(l), Ok(p)) => assert_eq!(
                    encoded(l),
                    encoded(p),
                    "bytes diverge in {mode:?} for {text:?}"
                ),
                (Err(l), Err(p)) => assert_eq!(
                    l.to_string(),
                    p.to_string(),
                    "errors diverge in {mode:?} for {text:?}"
                ),
                _ => panic!(
                    "outcome diverges in {mode:?} for {text:?}: \
                     interpreter {legacy:?} vs planner {planned:?}"
                ),
            }
        }
    }
}
