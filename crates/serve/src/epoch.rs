//! Epoch-snapshotted index state: one writer, many lock-free-ish readers.
//!
//! The serving subsystem separates the *mutable* world (a single
//! [`IndexWriter`] applying streamed triple updates and folding in
//! serving feedback) from the *immutable* world queries actually read
//! (an [`EpochSnapshot`] bundling the knowledge graph, its tiered
//! slot index and a frozen credibility store). Publishing swaps one
//! `Arc` behind a short write lock; readers clone the `Arc` and keep
//! answering from the old epoch until they next call
//! [`EpochIndex::load`] — they never block on the writer, and an
//! in-flight query never observes a half-applied batch.
//!
//! The epoch protocol (DESIGN.md §5.8):
//!
//! 1. between publishes the writer applies [`TripleUpdate`]s to its
//!    private graph (whose slot postings are the only streamed index),
//!    and absorbs per-source feedback tallies reported by the engine;
//! 2. `publish` folds the accumulated feedback into the (thawed)
//!    credibility store in sorted source order — deterministic no
//!    matter how the serving threads interleaved — then freezes a clone
//!    of it into the new snapshot, next to a clone of the graph and a
//!    [`TieredIndex`] built over it;
//! 3. the serving layer clears the epoch-scoped caches (result cache,
//!    MCC memo) on swap; the content-addressed LLM response cache
//!    survives because its keys hash every operand.

use multirag_core::{match_homologous, mka_consensus, HistoryStore, MklgpPipeline, MultiRagConfig};
use multirag_kg::{persist, FxHashMap, KnowledgeGraph, SourceId, TieredIndex, Value};
use multirag_obs::MetricsRegistry;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One streamed triple: names instead of ids so updates are
/// graph-independent (ids are assigned when the writer applies them).
#[derive(Debug, Clone, PartialEq)]
pub struct TripleUpdate {
    /// Subject entity name.
    pub entity: String,
    /// Relation (attribute) name.
    pub relation: String,
    /// Asserted literal value.
    pub value: Value,
    /// Asserting source name (created with format `"stream"` when new).
    pub source: String,
    /// Provenance chunk within the source.
    pub chunk: u32,
}

/// An immutable, shareable view of one published epoch.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Monotonic epoch number (first publish = 1).
    pub epoch: u64,
    /// The knowledge graph as of this epoch.
    pub graph: KnowledgeGraph,
    /// Frozen source-credibility store: `record` is a no-op, so every
    /// answer in this epoch is a pure function of `(epoch, query)`.
    pub history: HistoryStore,
    /// Pipeline configuration the epoch serves with.
    pub config: MultiRagConfig,
    /// Seed the epoch serves with.
    pub seed: u64,
    /// Updates applied since the previous epoch.
    pub updates_applied: u64,
    /// Prebuilt tiered retrieval index over [`EpochSnapshot::graph`]
    /// (DESIGN.md §5.15), shared by every pipeline bound to this
    /// epoch: built once at publish, descended by all workers.
    pub tindex: Arc<TieredIndex>,
}

impl EpochSnapshot {
    /// Builds a pipeline bound to this snapshot, with the epoch's
    /// frozen credibility store installed. Callers layer caches, fault
    /// plans and retry policies on top. Uses
    /// [`MklgpPipeline::new_with_history_and_index`], so the MKA
    /// consensus rounds — whose output the frozen store would replace
    /// anyway — are never computed, and the homologous groups come from
    /// one pass over the epoch's shared [`TieredIndex`] slot tier, which
    /// every worker also descends for slot extraction.
    pub fn pipeline(&self) -> MklgpPipeline<'_> {
        MklgpPipeline::new_with_history_and_index(
            &self.graph,
            self.config,
            self.seed,
            self.history.clone(),
            self.tindex.clone(),
        )
    }
}

/// The reader-facing handle: an `Arc`-swapped current snapshot.
#[derive(Debug)]
pub struct EpochIndex {
    current: RwLock<Arc<EpochSnapshot>>,
    metrics: Mutex<Option<MetricsRegistry>>,
}

impl EpochIndex {
    /// Starts serving from `snapshot`.
    pub fn new(snapshot: Arc<EpochSnapshot>) -> Self {
        Self {
            current: RwLock::new(snapshot),
            metrics: Mutex::new(None),
        }
    }

    /// Attaches a metrics registry: publishes bump
    /// `serve_epoch_publish_total` and set the `serve_epoch` gauge.
    pub fn attach_metrics(&self, metrics: MetricsRegistry) {
        metrics.gauge_set("serve_epoch", self.current.read().epoch as f64);
        *self.metrics.lock() = Some(metrics);
    }

    /// The current snapshot. Cheap (`Arc` clone under a read lock);
    /// the caller keeps serving from it even if a publish lands later.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        self.current.read().clone()
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().epoch
    }

    /// Atomically swaps in a new snapshot.
    pub fn publish(&self, snapshot: Arc<EpochSnapshot>) {
        let epoch = snapshot.epoch;
        *self.current.write() = snapshot;
        if let Some(metrics) = self.metrics.lock().as_ref() {
            metrics.inc("serve_epoch_publish_total", 1);
            metrics.gauge_set("serve_epoch", epoch as f64);
        }
    }
}

/// The single writer: owns the evolving graph, the thawed credibility
/// store, and the feedback accumulated since the last publish.
pub struct IndexWriter {
    graph: KnowledgeGraph,
    history: HistoryStore,
    sources: FxHashMap<String, SourceId>,
    feedback: BTreeMap<SourceId, (usize, usize)>,
    config: MultiRagConfig,
    seed: u64,
    domain: String,
    epoch: u64,
    updates_since_publish: u64,
}

impl IndexWriter {
    /// Wraps an existing graph. The initial credibility store is the
    /// MKA consensus estimate [`MklgpPipeline::new`] starts from (a
    /// fresh store when MKA is ablated).
    pub fn new(graph: KnowledgeGraph, config: MultiRagConfig, seed: u64) -> Self {
        let history = HistoryStore::new(config.history_pseudo, 0.5);
        if config.enable_mka {
            mka_consensus(&graph, &match_homologous(&graph), &history);
        }
        let sources: FxHashMap<String, SourceId> = (0..graph.source_count())
            .map(|i| {
                let id = SourceId(i as u32);
                (graph.source_name(id).to_string(), id)
            })
            .collect();
        let domain = if graph.source_count() > 0 {
            let rec = graph.source(SourceId(0));
            graph.resolve(rec.domain).to_string()
        } else {
            String::new()
        };
        Self {
            graph,
            history,
            sources,
            feedback: BTreeMap::new(),
            config,
            seed,
            domain,
            epoch: 0,
            updates_since_publish: 0,
        }
    }

    /// Warm-starts from a `kg::persist` dump (the on-disk hand-off
    /// between an ingest run and a serving process).
    pub fn warm_start(
        dump: &str,
        config: MultiRagConfig,
        seed: u64,
    ) -> Result<Self, persist::PersistError> {
        Ok(Self::new(persist::load(dump)?, config, seed))
    }

    /// Serializes the writer's current graph (for checkpointing the
    /// serving state back to disk).
    pub fn dump(&self) -> String {
        persist::dump(&self.graph)
    }

    /// The writer's private (unpublished) graph.
    pub fn graph(&self) -> &KnowledgeGraph {
        &self.graph
    }

    /// Number of epochs published so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies one streamed triple. Returns the slot's updated
    /// homologous cardinality: its claim count in the graph's slot
    /// postings (1 = isolated, ≥2 = homologous group).
    pub fn apply(&mut self, update: &TripleUpdate) -> usize {
        let source = *self
            .sources
            .entry(update.source.clone())
            .or_insert_with(|| {
                self.graph
                    .add_source(&update.source, "stream", &self.domain)
            });
        let entity = self.graph.add_entity(&update.entity, &self.domain);
        let relation = self.graph.add_relation(&update.relation);
        self.graph
            .add_triple(entity, relation, update.value.clone(), source, update.chunk);
        self.updates_since_publish += 1;
        self.graph.slot_triples(entity, relation).len()
    }

    /// Absorbs per-source `(correct, total)` feedback tallies from a
    /// serving wave. Merged commutatively, so the engine can report
    /// tallies in any order without perturbing the next epoch.
    pub fn absorb_feedback(&mut self, tally: &[(SourceId, usize, usize)]) {
        for &(source, correct, total) in tally {
            let entry = self.feedback.entry(source).or_insert((0, 0));
            entry.0 += correct;
            entry.1 += total;
        }
    }

    /// Folds pending feedback into the credibility store (the
    /// `BTreeMap` yields source order by construction — deterministic
    /// regardless of serving interleavings) and publishes a new
    /// immutable snapshot.
    pub fn publish(&mut self) -> Arc<EpochSnapshot> {
        self.history.thaw();
        for (source, (correct, total)) in std::mem::take(&mut self.feedback) {
            self.history.record(source, correct, total);
        }
        let history = self.history.clone();
        history.freeze();
        self.epoch += 1;
        let snapshot = EpochSnapshot {
            epoch: self.epoch,
            graph: self.graph.clone(),
            history,
            config: self.config,
            seed: self.seed,
            updates_applied: self.updates_since_publish,
            tindex: Arc::new(TieredIndex::build(&self.graph)),
        };
        self.updates_since_publish = 0;
        Arc::new(snapshot)
    }

    /// [`IndexWriter::publish`] + swap into `index` in one step.
    pub fn publish_to(&mut self, index: &EpochIndex) -> Arc<EpochSnapshot> {
        let snapshot = self.publish();
        index.publish(snapshot.clone());
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_core::match_homologous_tiered;
    use multirag_datasets::movies::MoviesSpec;

    fn writer() -> IndexWriter {
        let data = MoviesSpec::small().generate(42);
        IndexWriter::new(data.graph, MultiRagConfig::default(), 42)
    }

    #[test]
    fn warm_start_round_trips_the_graph() {
        let data = MoviesSpec::small().generate(42);
        let dump = persist::dump(&data.graph);
        let writer =
            IndexWriter::warm_start(&dump, MultiRagConfig::default(), 42).expect("dump must load");
        assert_eq!(writer.graph().triple_count(), data.graph.triple_count());
        assert_eq!(writer.graph().source_count(), data.graph.source_count());
        assert_eq!(writer.dump(), dump, "dump is a fixed point");
    }

    #[test]
    fn publish_snapshots_are_frozen_and_numbered() {
        let mut writer = writer();
        let index = EpochIndex::new(writer.publish());
        assert_eq!(index.epoch(), 1);
        let snap = index.load();
        assert!(snap.history.is_frozen(), "published history must freeze");
        assert_eq!(snap.updates_applied, 0);
        // The writer's own store stays usable for the next fold.
        writer.absorb_feedback(&[(SourceId(0), 3, 4)]);
        let snap2 = writer.publish_to(&index);
        assert_eq!(index.epoch(), 2);
        assert_eq!(snap2.epoch, 2);
        // Old snapshot is untouched: readers holding it keep serving.
        assert_eq!(snap.epoch, 1);
    }

    #[test]
    fn applied_updates_land_in_graph_and_index() {
        let mut writer = writer();
        let before = writer.graph().triple_count();
        let groups_before = match_homologous(writer.graph()).groups.len();
        let slot_entity = writer
            .graph()
            .entity_name(multirag_kg::EntityId(0))
            .to_string();
        let cardinality = writer.apply(&TripleUpdate {
            entity: slot_entity.clone(),
            relation: "stream_attr".into(),
            value: Value::from("fresh"),
            source: "stream-0".into(),
            chunk: 7,
        });
        assert_eq!(cardinality, 1, "new slot starts isolated");
        let cardinality = writer.apply(&TripleUpdate {
            entity: slot_entity,
            relation: "stream_attr".into(),
            value: Value::from("fresh"),
            source: "stream-1".into(),
            chunk: 7,
        });
        assert_eq!(cardinality, 2, "second source makes it homologous");
        assert_eq!(writer.graph().triple_count(), before + 2);
        let snap = writer.publish();
        assert_eq!(snap.updates_applied, 2);
        // The snapshot's slot tier agrees with a from-scratch scan.
        let tiered = match_homologous_tiered(&snap.tindex);
        let scanned = match_homologous(&snap.graph);
        assert_eq!(tiered.groups.len(), groups_before + 1);
        assert_eq!(tiered.groups, scanned.groups);
        assert_eq!(tiered.isolated, scanned.isolated);
    }

    #[test]
    fn feedback_folds_deterministically_at_publish() {
        let data = MoviesSpec::small().generate(42);
        let run = |tally: &[(SourceId, usize, usize)]| {
            let mut w = IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), 42);
            w.absorb_feedback(tally);
            let snap = w.publish();
            (0..data.graph.source_count())
                .map(|i| snap.history.credibility(SourceId(i as u32)))
                .collect::<Vec<f64>>()
        };
        let forward = [
            (SourceId(0), 2, 4),
            (SourceId(1), 1, 5),
            (SourceId(0), 1, 1),
        ];
        let reversed = [
            (SourceId(0), 1, 1),
            (SourceId(1), 1, 5),
            (SourceId(0), 2, 4),
        ];
        assert_eq!(run(&forward), run(&reversed));
        // Feedback actually moves credibility vs a feedback-free publish.
        assert_ne!(run(&forward), run(&[]));
    }

    #[test]
    fn snapshot_pipeline_serves_frozen_answers() {
        let data = MoviesSpec::small().generate(42);
        let mut writer = IndexWriter::new(data.graph.clone(), MultiRagConfig::default(), 42);
        let snap = writer.publish();
        // Frozen history: answering the same query repeatedly (which
        // would shift credibility in the batch pipeline) is idempotent.
        let mut p = snap.pipeline();
        let first = p.answer(&data.queries[0]);
        for _ in 0..3 {
            assert_eq!(p.answer(&data.queries[0]), first);
        }
    }
}
