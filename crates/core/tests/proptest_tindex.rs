//! Property-based tests for index-backed retrieval: tiered homologous
//! matching against the sorted-scan oracle, the Fig. 4 clique property
//! of its groups, and worker-count invariance of concurrent tier
//! descents over a shared index, on random multi-source graphs.

use multirag_core::homologous::{match_homologous, match_homologous_tiered};
use multirag_kg::{
    EntityId, KnowledgeGraph, RelationId, TieredIndex, TindexCounters, TripleId, Value,
};
use proptest::prelude::*;

/// A compact random multi-source graph description: `n` entities,
/// `r` relations, `s` sources, triples as index tuples with an
/// integer payload.
#[derive(Debug, Clone)]
struct GraphSpec {
    n: usize,
    r: usize,
    s: usize,
    triples: Vec<(usize, usize, usize, i64)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (2usize..14, 1usize..4, 1usize..4).prop_flat_map(|(n, r, s)| {
        let triples = proptest::collection::vec((0..n, 0..r, 0..s, -4i64..4), 1..56);
        (Just(n), Just(r), Just(s), triples).prop_map(|(n, r, s, triples)| GraphSpec {
            n,
            r,
            s,
            triples,
        })
    })
}

fn build(spec: &GraphSpec) -> KnowledgeGraph {
    let mut kg = KnowledgeGraph::new();
    let sources: Vec<_> = (0..spec.s)
        .map(|i| kg.add_source(&format!("s{i}"), "json", "prop"))
        .collect();
    let relations: Vec<_> = (0..spec.r)
        .map(|i| kg.add_relation(&format!("rel{i}")))
        .collect();
    let entities: Vec<_> = (0..spec.n)
        .map(|i| kg.add_entity(&format!("n{i}"), "prop"))
        .collect();
    for &(subj, rel, src, v) in &spec.triples {
        if v < 0 {
            let obj = entities[(-v) as usize % spec.n];
            kg.add_triple(entities[subj], relations[rel], obj, sources[src], 0);
        } else {
            kg.add_triple(
                entities[subj],
                relations[rel],
                Value::Int(v),
                sources[src],
                0,
            );
        }
    }
    kg
}

/// Every (entity, relation) slot key of the graph, in id order — the
/// query universe for the descent tests.
fn slot_universe(kg: &KnowledgeGraph) -> Vec<(EntityId, RelationId)> {
    let mut keys = Vec::new();
    for entity in kg.entity_ids() {
        for rel in 0..kg.relation_count() {
            keys.push((entity, RelationId(rel as u32)));
        }
    }
    keys
}

proptest! {
    /// Tiered homologous matching must reproduce the sorted-scan
    /// oracle exactly: same groups (entity, relation, members,
    /// distinct-source counts), same isolated list.
    #[test]
    fn tiered_matching_equals_scan_oracle(spec in graph_spec()) {
        let kg = build(&spec);
        let oracle = match_homologous(&kg);
        let index = TieredIndex::build(&kg);
        let tiered = match_homologous_tiered(&index);
        prop_assert_eq!(tiered.groups, oracle.groups);
        prop_assert_eq!(tiered.isolated, oracle.isolated);
        prop_assert_eq!(tiered.coverage(), kg.triple_count());
    }

    /// Fig. 4: the claims of every homologous group are pairwise
    /// adjacent in the line graph — each member's tier-descent
    /// neighborhood holds every other member, because they all share
    /// the slot's subject.
    #[test]
    fn tiered_groups_are_line_graph_cliques(spec in graph_spec()) {
        let kg = build(&spec);
        let index = TieredIndex::build(&kg);
        let mut counters = TindexCounters::default();
        for group in match_homologous_tiered(&index).groups {
            for &claim in &group.triples {
                let neighbors = index.neighbors_of(claim, &mut counters);
                for &other in group.triples.iter().filter(|&&t| t != claim) {
                    prop_assert!(
                        neighbors.binary_search(&other).is_ok(),
                        "{:?} and {:?} of slot ({:?}, {:?}) are not adjacent",
                        claim, other, group.entity, group.relation
                    );
                }
            }
        }
    }

    /// Concurrent descents over one shared index are worker-count
    /// invariant: partitioning the query universe over 1, 2 or 4
    /// threads yields identical per-query candidate id-sets and
    /// identical summed descent counters.
    #[test]
    fn descents_are_worker_count_invariant(spec in graph_spec()) {
        let kg = build(&spec);
        let index = TieredIndex::build(&kg);
        let queries = slot_universe(&kg);

        let run = |workers: usize| -> (Vec<Vec<TripleId>>, TindexCounters) {
            let chunk = queries.len().div_ceil(workers).max(1);
            let parts: Vec<(usize, Vec<Vec<TripleId>>, TindexCounters)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = queries
                        .chunks(chunk)
                        .enumerate()
                        .map(|(slice_no, slice)| {
                            let index = &index;
                            scope.spawn(move || {
                                let mut counters = TindexCounters::default();
                                let hits: Vec<Vec<TripleId>> = slice
                                    .iter()
                                    .map(|&(e, r)| index.descend(e, r, &mut counters))
                                    .collect();
                                (slice_no, hits, counters)
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
            let mut parts = parts;
            parts.sort_by_key(|&(slice_no, _, _)| slice_no);
            let mut all = Vec::with_capacity(queries.len());
            let mut total = TindexCounters::default();
            for (_, hits, counters) in parts {
                all.extend(hits);
                total.tier_descents += counters.tier_descents;
                total.bitset_and_ops += counters.bitset_and_ops;
                total.candidates_pruned += counters.candidates_pruned;
            }
            (all, total)
        };

        let (serial, serial_counters) = run(1);
        prop_assert_eq!(serial_counters.tier_descents, queries.len() as u64);
        for workers in [2usize, 4] {
            let (parallel, parallel_counters) = run(workers);
            prop_assert_eq!(&parallel, &serial);
            prop_assert_eq!(parallel_counters, serial_counters);
        }
    }

    /// Index-backed descent answers agree with the graph's own slot
    /// postings for every key in the universe.
    #[test]
    fn descent_matches_graph_postings(spec in graph_spec()) {
        let kg = build(&spec);
        let index = TieredIndex::build(&kg);
        let mut counters = TindexCounters::default();
        for (entity, relation) in slot_universe(&kg) {
            let descended = index.descend(entity, relation, &mut counters);
            prop_assert_eq!(&descended[..], kg.slot_triples(entity, relation));
        }
    }
}
