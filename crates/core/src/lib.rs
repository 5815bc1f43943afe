#![warn(missing_docs)]

//! # multirag-core
//!
//! The paper's primary contribution: the homologous-subgraph
//! machinery behind the multi-source line graph, multi-level
//! confidence computing and the MKLGP query pipeline.
//!
//! * [`config`] — thresholds, α/β, and the ablation switches behind
//!   Table III (`w/o MKA`, `w/o graph level`, `w/o node level`,
//!   `w/o MCC`).
//! * [`homologous`] — Definitions 3–5: grouping the claims of one
//!   `(entity, attribute)` slot across sources into homologous
//!   subgraphs (`O(n log n)` matching, or one pass over the slot tier
//!   of a `kg::TieredIndex`), whose triples form cliques in the triple
//!   line graph (Fig. 4), and the MKA consensus rounds over them.
//! * [`confidence`] — Eqs. 4–11: mutual-information graph-level
//!   confidence, node consistency, LLM + historical authority, and the
//!   MCC algorithm (Algorithm 1).
//! * [`history`] — the incremental source-credibility store behind
//!   `Auth_hist` (Eq. 11).
//! * [`memo`] — per-epoch memoization of MCC verdicts by canonical
//!   subgraph hash (the serving subsystem's mid-level cache).
//! * [`pipeline`] — MKLGP (Algorithm 2): logic form → extraction →
//!   homologous slot → MCC → trustworthy answer.
//! * [`loopctl`] — closed-loop grounded generation: grade the drafted
//!   answer against the kept context and escalate (widen → consult →
//!   tighten) under a deadline-bounded budget.

pub mod confidence;
pub mod config;
pub mod history;
pub mod homologous;
pub mod loopctl;
pub mod memo;
pub mod merge;
pub mod pipeline;
pub mod qa;

pub use confidence::{ClaimProfile, GraphConfidence, KernelCounters, MccOutcome, NodeConfidence};
pub use config::MultiRagConfig;
pub use history::HistoryStore;
pub use homologous::{
    match_homologous, match_homologous_tiered, mka_consensus, HomologousGroup, HomologousSets,
};
pub use loopctl::{grade_supported, LadderStep, LoopConfig};
pub use memo::{profile_fingerprint, ConfidenceMemo, SlotVerdict};
pub use merge::{reduce_shard_answers, MergedVerdict};
pub use pipeline::{kg_schema, AbstainReason, MccWorker, MklgpPipeline, PipelineAnswer};
pub use qa::{MultiHopOutcome, MultiRagQa};
