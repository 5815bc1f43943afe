#![warn(missing_docs)]

//! # multirag-kg
//!
//! Knowledge-graph substrate for the MultiRAG framework.
//!
//! This crate provides the storage layer that every other MultiRAG crate
//! builds on:
//!
//! * [`hash`] — a fast FxHash-style hasher and the [`FxHashMap`] /
//!   [`FxHashSet`] aliases used throughout the workspace (interned-id keys
//!   dominate, where SipHash is needlessly slow).
//! * [`intern`] — a string interner mapping entity / relation / value
//!   strings to dense `u32` symbols.
//! * [`value`] — the literal value model ([`Value`]) shared by the ingest
//!   adapters and the knowledge graph.
//! * [`triple`] — triples with provenance ([`Triple`], [`SourceId`]).
//! * [`graph`] — the indexed triple store ([`KnowledgeGraph`]) with
//!   subject / predicate / object secondary indexes.
//! * [`linegraph`] — the line-graph transform of Definition 2 in the
//!   paper: triple-as-node graphs ([`LineGraph`]) in which two nodes are
//!   adjacent iff their triples share an endpoint.
//! * [`algo`] — graph traversals (BFS / DFS), connected components and
//!   degree statistics used by the homologous-subgraph matcher.
//! * [`persist`] — a line-oriented dump/load format so aggregated
//!   graphs can be snapshotted and reloaded without re-ingestion.
//! * [`tindex`] — the hierarchical tiered retrieval index: a columnar,
//!   arena-backed triple store with entity → attribute-slot → claim
//!   tiers and bitset adjacency, so candidate selection resolves by
//!   tier descent instead of linear scans (DESIGN.md §5.15).
//!
//! The crate has no dependencies and is fully deterministic.

pub mod algo;
pub mod graph;
pub mod hash;
pub mod intern;
pub mod linegraph;
pub mod persist;
pub mod tindex;
pub mod triple;
pub mod value;

pub use graph::{GraphStats, KnowledgeGraph, TripleId};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use intern::{Interner, KeyInterner, Symbol};
pub use linegraph::{LineGraph, LineGraphStats};
pub use tindex::{Bitset, SlotId, TieredIndex, TindexCounters, TindexStats};
pub use triple::{EntityId, Object, RelationId, SourceId, Triple};
pub use value::Value;
