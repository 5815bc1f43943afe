//! Property test for the epoch writer: triples streamed through
//! [`IndexWriter::apply`] in *any* order, then published, yield a
//! snapshot whose tiered slot index groups exactly like the sorted-scan
//! matcher over the snapshot's graph. The graph's slot postings are the
//! writer's only streamed index, so each `apply` must report its slot's
//! claim count as of that update.

use multirag_core::{match_homologous, match_homologous_tiered, MultiRagConfig};
use multirag_kg::{KnowledgeGraph, Value};
use multirag_serve::{IndexWriter, TripleUpdate};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-20i64..20).prop_map(Value::Int),
        "[a-d]{1,4}".prop_map(Value::from),
    ]
}

/// (subject pick, relation pick, source pick, value): slot collisions
/// are the interesting case, so the pick spaces are kept small.
type TripleSpec = (usize, usize, usize, Value);

fn spec() -> impl Strategy<Value = (Vec<TripleSpec>, u64)> {
    (
        proptest::collection::vec((0usize..4, 0usize..3, 0usize..4, value_strategy()), 0..40),
        any::<u64>(),
    )
}

/// Deterministic Fisher–Yates driven by an LCG stream, so the apply
/// order is arbitrary but reproducible from the seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

proptest! {
    /// Streamed == batch: groups, member order, source counts and
    /// isolated points of the published tiered index equal the scan
    /// matcher's, and every `apply` returns its slot's claim count.
    #[test]
    fn streamed_writer_matches_batch_grouping((triples, order_seed) in spec()) {
        let mut updates: Vec<TripleUpdate> = triples
            .iter()
            .enumerate()
            .map(|(chunk, (e, r, s, v))| TripleUpdate {
                entity: format!("e{e}"),
                relation: format!("r{r}"),
                value: v.clone(),
                source: format!("s{s}"),
                chunk: chunk as u32,
            })
            .collect();
        shuffle(&mut updates, order_seed);

        let mut writer = IndexWriter::new(KnowledgeGraph::new(), MultiRagConfig::default(), 7);
        let mut claims: BTreeMap<(String, String), usize> = BTreeMap::new();
        for update in &updates {
            let count = claims
                .entry((update.entity.clone(), update.relation.clone()))
                .or_insert(0);
            *count += 1;
            prop_assert_eq!(writer.apply(update), *count);
        }

        let snap = writer.publish();
        prop_assert_eq!(snap.updates_applied, updates.len() as u64);
        prop_assert_eq!(snap.graph.triple_count(), updates.len());
        let tiered = match_homologous_tiered(&snap.tindex);
        let batch = match_homologous(&snap.graph);
        prop_assert_eq!(&tiered.groups, &batch.groups);
        prop_assert_eq!(&tiered.isolated, &batch.isolated);
        prop_assert_eq!(
            tiered.groups.len(),
            claims.values().filter(|&&n| n >= 2).count()
        );
        prop_assert_eq!(
            tiered.isolated.len(),
            claims.values().filter(|&&n| n == 1).count()
        );
    }
}
