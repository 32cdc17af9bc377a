//! Temporal property graph (TPG) substrate for HyGraph.
//!
//! Implements the graph half of the HyGraph model: a labeled property
//! graph in which every vertex and edge carries a validity interval
//! (the TPG semantics of Rost et al., VLDB J. 2022), plus the graph
//! column of the paper's Table 2 operator taxonomy:
//!
//! | Table 2 row | module |
//! |---|---|
//! | Q1 subgraph matching | [`pattern`] |
//! | Q2 graph aggregation | [`aggregate`] |
//! | Q3 reachability | [`traverse`] |
//! | Q4 snapshot | [`snapshot`] |
//! | D communities | [`algorithms::community`] |
//! | PM subgraph/motif | [`algorithms::motifs`] |
//! | E vertex/edge/path/graph embeddings | consumed by `hygraph-analytics` |
//! | C1/C2 labels & connectivity features | [`algorithms::metrics`] |

pub mod aggregate;
pub mod algorithms;
pub mod codec;
pub mod graph;
pub mod pattern;
pub mod snapshot;
pub(crate) mod store;
pub mod traverse;

pub use graph::{EdgeData, TemporalGraph, VertexData};
pub use pattern::{
    Binding, Bound, Direction, Pattern, PatternEdge, PatternVertex, PropPredicate, Vars,
};
