//! Homologous subgraph matching (Definitions 3–5, §III-C).
//!
//! Claims from different sources that fill the same `(entity,
//! attribute)` slot are *multi-source homologous*: they answer the same
//! retrieval candidate set. Each such group becomes a star around a
//! synthetic center node `snode = {name, meta, num, C(v)}`; under the
//! line-graph transform the star's triples form a clique (Fig. 4).
//! Slots asserted by a single triple are isolated points (`LVs`).
//!
//! Matching sorts triples by slot key — `O(n log n)` in the number of
//! triples, as the paper claims.

use crate::history::HistoryStore;
use multirag_kg::{
    EntityId, KnowledgeGraph, Object, RelationId, SlotId, SourceId, TieredIndex, TripleId,
};
use std::collections::BTreeMap;

/// One homologous group: the triples of one multi-source slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomologousGroup {
    /// Slot entity.
    pub entity: EntityId,
    /// Slot attribute.
    pub relation: RelationId,
    /// Member triples (≥ 2), sorted by id.
    pub triples: Vec<TripleId>,
    /// Number of distinct sources asserting the slot.
    pub source_count: usize,
}

impl HomologousGroup {
    /// The center node's `name` component (Definition 4): the common
    /// attribute name.
    pub fn center_name<'a>(&self, kg: &'a KnowledgeGraph) -> &'a str {
        kg.relation_name(self.relation)
    }

    /// `num` of the center node: the number of homologous instances.
    pub fn num(&self) -> usize {
        self.triples.len()
    }
}

/// The output of homologous matching: `SVs` and `LVs`.
#[derive(Debug, Clone, Default)]
pub struct HomologousSets {
    /// Homologous groups (`SVs`), ordered by (entity, relation).
    pub groups: Vec<HomologousGroup>,
    /// Isolated triples (`LVs`): slots asserted exactly once.
    pub isolated: Vec<TripleId>,
}

impl HomologousSets {
    /// Total triples covered (groups + isolated).
    pub fn coverage(&self) -> usize {
        self.groups.iter().map(|g| g.triples.len()).sum::<usize>() + self.isolated.len()
    }

    /// Finds the group for a slot, if that slot is multi-source.
    pub fn group_for(&self, entity: EntityId, relation: RelationId) -> Option<&HomologousGroup> {
        // Groups are sorted by (entity, relation): binary search.
        self.groups
            .binary_search_by(|g| (g.entity, g.relation).cmp(&(entity, relation)))
            .ok()
            .map(|i| &self.groups[i])
    }
}

/// Matches homologous groups across the whole graph.
///
/// Sorting dominates: `O(n log n)` for `n` triples.
pub fn match_homologous(kg: &KnowledgeGraph) -> HomologousSets {
    let mut keyed: Vec<(EntityId, RelationId, TripleId)> = kg
        .iter_triples()
        .map(|(tid, t)| (t.subject, t.predicate, tid))
        .collect();
    keyed.sort_unstable();
    let mut sets = HomologousSets::default();
    let mut i = 0;
    while i < keyed.len() {
        let (entity, relation, _) = keyed[i];
        let mut j = i;
        while j < keyed.len() && keyed[j].0 == entity && keyed[j].1 == relation {
            j += 1;
        }
        let members: Vec<TripleId> = keyed[i..j].iter().map(|&(_, _, t)| t).collect();
        if members.len() >= 2 {
            let mut sources: Vec<_> = members.iter().map(|&tid| kg.triple(tid).source).collect();
            sources.sort_unstable();
            sources.dedup();
            sets.groups.push(HomologousGroup {
                entity,
                relation,
                triples: members,
                source_count: sources.len(),
            });
        } else {
            sets.isolated.extend(members);
        }
        i = j;
    }
    sets
}

/// Matches homologous groups by tier descent over a prebuilt
/// [`TieredIndex`] — the sub-linear replacement for
/// [`match_homologous`], which is retained as the reference oracle.
///
/// The index's slot tier is already sorted by `(entity, relation)`
/// with ascending member ids and precomputed distinct-source counts,
/// so matching degenerates to one pass over the slot columns: no
/// re-sort, no per-slot source scan. The output is byte-identical to
/// the oracle's (`repro_index` gates this with outcome digests).
pub fn match_homologous_tiered(index: &TieredIndex) -> HomologousSets {
    let mut sets = HomologousSets::default();
    for slot in (0..index.slot_count() as u32).map(SlotId) {
        let members = index.claims(slot);
        if members.len() >= 2 {
            sets.groups.push(HomologousGroup {
                entity: index.slot_entity(slot),
                relation: index.slot_relation(slot),
                triples: members.to_vec(),
                source_count: index.slot_source_count(slot),
            });
        } else {
            sets.isolated.extend_from_slice(members);
        }
    }
    sets
}

/// Matches homologous data for a single slot (the per-query path):
/// returns the group when multi-source, or the singleton as isolated.
pub fn match_slot(kg: &KnowledgeGraph, entity: EntityId, relation: RelationId) -> HomologousSets {
    let members: Vec<TripleId> = kg.slot_triples(entity, relation).to_vec();
    let mut sets = HomologousSets::default();
    if members.len() >= 2 {
        let mut sources: Vec<_> = members.iter().map(|&tid| kg.triple(tid).source).collect();
        sources.sort_unstable();
        sources.dedup();
        sets.groups.push(HomologousGroup {
            entity,
            relation,
            triples: members,
            source_count: sources.len(),
        });
    } else {
        sets.isolated = members;
    }
    sets
}

/// MKA consistency feedback (§III-C: "enabling rapid consistency
/// checks and conflict feedback for homologous data"): a few
/// credibility-weighted consensus rounds over the homologous groups
/// estimate each source's historical credibility — the `Pr^h(D)` that
/// `Auth_hist` (Eq. 11) blends in — and record it into `history`.
/// Without MKA there are no groups and this signal does not exist
/// (part of the w/o-MKA F1 drop in Table III).
pub fn mka_consensus(kg: &KnowledgeGraph, sets: &HomologousSets, history: &HistoryStore) {
    let groups: Vec<Vec<(SourceId, String)>> = sets
        .groups
        .iter()
        .map(|group| {
            group
                .triples
                .iter()
                .map(|&tid| {
                    let t = kg.triple(tid);
                    let key = match &t.object {
                        Object::Literal(v) => v.standardized().canonical_key(),
                        other => other.canonical_key(),
                    };
                    (t.source, key)
                })
                .collect()
        })
        .collect();
    let mut cred: BTreeMap<SourceId, f64> = BTreeMap::new();
    let mut final_tally: BTreeMap<SourceId, (usize, usize)> = BTreeMap::new();
    for _round in 0..3 {
        let mut tally: BTreeMap<SourceId, (usize, usize)> = BTreeMap::new();
        for claims in &groups {
            // Credibility-weighted support per value.
            let mut weight: BTreeMap<&str, f64> = BTreeMap::new();
            let mut total = 0.0;
            for (source, key) in claims {
                let w = cred.get(source).copied().unwrap_or(0.5);
                *weight.entry(key.as_str()).or_insert(0.0) += w;
                total += w;
            }
            let Some((best, max_w)) = weight.into_iter().max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.0.cmp(a.0))
            }) else {
                continue;
            };
            // Only groups with a clear weighted consensus carry a
            // trustworthy signal.
            if max_w * 2.0 <= total {
                continue;
            }
            for (source, key) in claims {
                let entry = tally.entry(*source).or_insert((0, 0));
                entry.1 += 1;
                if key == best {
                    entry.0 += 1;
                }
            }
        }
        for (source, (correct, total)) in &tally {
            // Smoothed agreement rate.
            cred.insert(*source, (*correct as f64 + 2.5) / (*total as f64 + 5.0));
        }
        final_tally = tally;
    }
    for (source, (correct, total)) in final_tally {
        history.record(source, correct, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multirag_kg::Value;

    fn sample() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let s0 = kg.add_source("a", "csv", "flights");
        let s1 = kg.add_source("b", "json", "flights");
        let s2 = kg.add_source("c", "json", "flights");
        let f1 = kg.add_entity("CA981", "flights");
        let f2 = kg.add_entity("CA982", "flights");
        let status = kg.add_relation("status");
        let gate = kg.add_relation("gate");
        // CA981.status: three sources (homologous).
        kg.add_triple(f1, status, Value::from("delayed"), s0, 0);
        kg.add_triple(f1, status, Value::from("delayed"), s1, 0);
        kg.add_triple(f1, status, Value::from("on-time"), s2, 0);
        // CA981.gate: one source (isolated).
        kg.add_triple(f1, gate, Value::Int(12), s0, 0);
        // CA982.status: two sources, but one source twice (still 2 triples).
        kg.add_triple(f2, status, Value::from("boarding"), s0, 0);
        kg.add_triple(f2, status, Value::from("boarding"), s0, 1);
        kg
    }

    #[test]
    fn groups_collect_multi_assertion_slots() {
        let kg = sample();
        let sets = match_homologous(&kg);
        assert_eq!(sets.groups.len(), 2);
        assert_eq!(sets.isolated.len(), 1);
        assert_eq!(sets.coverage(), kg.triple_count());
    }

    #[test]
    fn group_metadata_is_correct() {
        let kg = sample();
        let sets = match_homologous(&kg);
        let f1 = kg.find_entity("CA981", "flights").unwrap();
        let status = kg.find_relation("status").unwrap();
        let group = sets.group_for(f1, status).unwrap();
        assert_eq!(group.num(), 3);
        assert_eq!(group.source_count, 3);
        assert_eq!(group.center_name(&kg), "status");
    }

    #[test]
    fn same_source_duplicates_count_once_for_sources() {
        let kg = sample();
        let sets = match_homologous(&kg);
        let f2 = kg.find_entity("CA982", "flights").unwrap();
        let status = kg.find_relation("status").unwrap();
        let group = sets.group_for(f2, status).unwrap();
        assert_eq!(group.num(), 2);
        assert_eq!(group.source_count, 1);
    }

    #[test]
    fn group_for_misses_isolated_slots() {
        let kg = sample();
        let sets = match_homologous(&kg);
        let f1 = kg.find_entity("CA981", "flights").unwrap();
        let gate = kg.find_relation("gate").unwrap();
        assert!(sets.group_for(f1, gate).is_none());
    }

    #[test]
    fn match_slot_agrees_with_global_matching() {
        let kg = sample();
        let global = match_homologous(&kg);
        let f1 = kg.find_entity("CA981", "flights").unwrap();
        let status = kg.find_relation("status").unwrap();
        let local = match_slot(&kg, f1, status);
        assert_eq!(
            local.groups[0].triples,
            global.group_for(f1, status).unwrap().triples
        );
    }

    #[test]
    fn match_slot_singleton_is_isolated() {
        let kg = sample();
        let f1 = kg.find_entity("CA981", "flights").unwrap();
        let gate = kg.find_relation("gate").unwrap();
        let local = match_slot(&kg, f1, gate);
        assert!(local.groups.is_empty());
        assert_eq!(local.isolated.len(), 1);
    }

    #[test]
    fn tiered_matching_equals_sorted_scan_oracle() {
        let kg = sample();
        let oracle = match_homologous(&kg);
        let index = TieredIndex::build(&kg);
        let tiered = match_homologous_tiered(&index);
        assert_eq!(tiered.groups, oracle.groups);
        assert_eq!(tiered.isolated, oracle.isolated);
        let empty = TieredIndex::build(&KnowledgeGraph::new());
        let sets = match_homologous_tiered(&empty);
        assert!(sets.groups.is_empty() && sets.isolated.is_empty());
    }

    #[test]
    fn empty_graph_is_empty_sets() {
        let kg = KnowledgeGraph::new();
        let sets = match_homologous(&kg);
        assert!(sets.groups.is_empty());
        assert!(sets.isolated.is_empty());
        assert_eq!(sets.coverage(), 0);
    }

    #[test]
    fn groups_are_sorted_for_binary_search() {
        let kg = sample();
        let sets = match_homologous(&kg);
        for pair in sets.groups.windows(2) {
            assert!((pair[0].entity, pair[0].relation) < (pair[1].entity, pair[1].relation));
        }
    }
}
