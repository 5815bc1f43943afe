//! Tiered retrieval index: a columnar, arena-backed triple store with
//! bitset adjacency (DESIGN.md §5.15).
//!
//! MultiRAG's entity → attribute-slot → claim hierarchy is implicit in
//! the `(subject, predicate)` slot structure of the knowledge graph;
//! this module materializes it as three explicit node tiers so
//! logic-form queries, homologous candidate selection and line-graph
//! neighborhood expansion resolve by *tier descent* instead of linear
//! walks:
//!
//! * **tier 0 — entities**: each entity owns a contiguous span of
//!   slots (`entity_slot_offsets`), contiguous because slots are
//!   sorted by `(entity, relation)`;
//! * **tier 1 — attribute slots**: struct-of-arrays columns
//!   (`slot_entities`, `slot_relations`, per-slot distinct-source
//!   counts) plus a CSR arena of claim postings per slot;
//! * **tier 2 — claims**: the columnar triple store (subject /
//!   predicate / object-entity / source columns over dense ids) plus
//!   per-relation claim [`Bitset`]s — the compact adjacency that turns
//!   "claims of entity `e` under relation `r`" into a probe of `e`'s
//!   claim span against `r`'s bitset.
//!
//! Everything is built from sorted dense ids in flat arenas: no
//! per-triple allocation after construction, no hash-order iteration
//! anywhere, and every query iterates ascending ids — the determinism
//! argument is that each array is a pure function of the insertion
//! order the graph already fixes. The old linear scans are retained by
//! callers as selectable reference oracles; `repro_index` gates the
//! two paths on outcome-digest equality.

use crate::graph::{KnowledgeGraph, TripleId};
use crate::triple::{EntityId, Object, RelationId, SourceId};

/// Sentinel for "no entity" in the object-entity column (literals).
const NO_ENTITY: u32 = u32::MAX;

/// A fixed-width bitset over dense `u32` ids: `u64` blocks,
/// intersection via word-wise AND, iteration in ascending id order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// An empty bitset sized for ids `0..bits`.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: vec![0u64; bits.div_ceil(64)],
        }
    }

    /// Sets `bit`, growing the block array as needed. Returns whether
    /// the bit was newly set.
    pub fn insert(&mut self, bit: u32) -> bool {
        let word = (bit / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << (bit % 64);
        match self.words.get_mut(word) {
            Some(w) => {
                let fresh = *w & mask == 0;
                *w |= mask;
                fresh
            }
            None => false,
        }
    }

    /// Whether `bit` is set. Out-of-range ids are simply absent.
    pub fn contains(&self, bit: u32) -> bool {
        self.words
            .get((bit / 64) as usize)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of `u64` blocks backing the set.
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The intersection `self AND other`, counting one op per word
    /// pair visited into `ops` (the cost model `repro_index` reports).
    pub fn intersect(&self, other: &Bitset, ops: &mut u64) -> Bitset {
        let words: Vec<u64> = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| {
                *ops += 1;
                a & b
            })
            .collect();
        Bitset { words }
    }

    /// Whether `self AND other` is empty, without materializing it.
    pub fn is_disjoint(&self, other: &Bitset, ops: &mut u64) -> bool {
        self.words.iter().zip(other.words.iter()).all(|(a, b)| {
            *ops += 1;
            a & b == 0
        })
    }

    /// In-place union (used to prove shard sub-index coverage).
    pub fn union_with(&mut self, other: &Bitset) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// Set bits in ascending order — the sorted-id iteration every
    /// deterministic consumer relies on.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let base = (w as u32) * 64;
            std::iter::from_fn({
                let mut rest = word;
                move || {
                    if rest == 0 {
                        None
                    } else {
                        let tz = rest.trailing_zeros();
                        rest &= rest - 1;
                        Some(base + tz)
                    }
                }
            })
        })
    }
}

/// Dense id of one attribute slot (tier 1), assigned in ascending
/// `(entity, relation)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotId(pub u32);

impl SlotId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Monotonic descent-cost counters. Plain integers (not atomics) by
/// design: each pipeline owns its own counter block, so flushing
/// deltas into a metrics registry can never double-count, and the
/// values are a pure function of the query stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TindexCounters {
    /// Tier descents performed (entity → slot → claims resolutions).
    pub tier_descents: u64,
    /// Bitset word/membership AND operations spent in descents.
    pub bitset_and_ops: u64,
    /// Candidate claims pruned relative to the entity's full claim
    /// span (what a per-entity scan would have examined).
    pub candidates_pruned: u64,
}

impl TindexCounters {
    /// Counter deltas since `earlier` (for registry flushes).
    pub fn since(self, earlier: TindexCounters) -> TindexCounters {
        TindexCounters {
            tier_descents: self.tier_descents - earlier.tier_descents,
            bitset_and_ops: self.bitset_and_ops - earlier.bitset_and_ops,
            candidates_pruned: self.candidates_pruned - earlier.candidates_pruned,
        }
    }
}

/// Index shape summary (for bench tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TindexStats {
    /// Tier-0 entity count.
    pub entities: usize,
    /// Tier-1 slot count.
    pub slots: usize,
    /// Tier-2 claim count.
    pub claims: usize,
    /// Relations with a claim bitset.
    pub relations: usize,
    /// Total `u64` blocks across the relation bitsets.
    pub bitset_words: usize,
}

/// The three-tier index. All arrays are flat arenas over dense ids;
/// see the module docs for the tier layout.
#[derive(Debug, Clone, Default)]
pub struct TieredIndex {
    // -- tier 2: columnar claim store (struct of arrays) --
    subjects: Vec<EntityId>,
    predicates: Vec<RelationId>,
    /// Object entity id, or [`NO_ENTITY`] for literal objects.
    object_entities: Vec<u32>,
    sources: Vec<SourceId>,
    // -- tier 1: slots sorted by (entity, relation) --
    slot_entities: Vec<EntityId>,
    slot_relations: Vec<RelationId>,
    /// CSR offsets into `slot_claims` (`slots + 1` entries).
    slot_offsets: Vec<u32>,
    /// Claim postings arena: ascending [`TripleId`] within each slot.
    slot_claims: Vec<TripleId>,
    /// Distinct sources asserting each slot.
    slot_sources: Vec<u32>,
    /// Claim → owning slot.
    claim_slot: Vec<u32>,
    // -- tier 0: entity spans over the slot array --
    /// CSR offsets into the slot array (`entities + 1` entries).
    entity_slot_offsets: Vec<u32>,
    // -- adjacency --
    /// Per-relation claim bitsets (tier-1 → tier-2 adjacency).
    relation_bits: Vec<Bitset>,
    /// CSR offsets of per-entity touching-claim spans.
    touch_offsets: Vec<u32>,
    /// Claims touching each entity (subject or object), ascending.
    touch_claims: Vec<TripleId>,
}

impl TieredIndex {
    /// Builds the index from a graph. Construction sorts the claim
    /// keys once (`O(n log n)`, same bound as homologous matching) and
    /// fills every arena with counting passes — sorted vectors only,
    /// no hash-order iteration.
    pub fn build(kg: &KnowledgeGraph) -> Self {
        let n = kg.triple_count();
        let entities = kg.entity_count();
        let relations = kg.relation_count();

        let mut subjects = Vec::with_capacity(n);
        let mut predicates = Vec::with_capacity(n);
        let mut object_entities = Vec::with_capacity(n);
        let mut sources = Vec::with_capacity(n);
        for (_, t) in kg.iter_triples() {
            subjects.push(t.subject);
            predicates.push(t.predicate);
            object_entities.push(match &t.object {
                Object::Entity(e) => e.0,
                Object::Literal(_) => NO_ENTITY,
            });
            sources.push(t.source);
        }

        // Tier-1 slots: sort claims by (entity, relation, id). Ids
        // ascend within each slot, so slot postings match the graph's
        // own `slot_triples` insertion order exactly.
        let mut keyed: Vec<(EntityId, RelationId, TripleId)> = kg
            .iter_triples()
            .map(|(tid, t)| (t.subject, t.predicate, tid))
            .collect();
        keyed.sort_unstable();

        let mut slot_entities = Vec::new();
        let mut slot_relations = Vec::new();
        let mut slot_offsets = vec![0u32];
        let mut slot_claims = Vec::with_capacity(n);
        let mut slot_sources = Vec::new();
        let mut claim_slot = vec![0u32; n];
        let mut scratch_sources: Vec<SourceId> = Vec::new();
        let mut i = 0usize;
        while let Some(&(entity, relation, _)) = keyed.get(i) {
            let mut j = i;
            while keyed
                .get(j)
                .is_some_and(|&(e, r, _)| e == entity && r == relation)
            {
                j += 1;
            }
            let slot = slot_entities.len() as u32;
            slot_entities.push(entity);
            slot_relations.push(relation);
            scratch_sources.clear();
            for &(_, _, tid) in keyed.get(i..j).unwrap_or(&[]) {
                slot_claims.push(tid);
                if let Some(entry) = claim_slot.get_mut(tid.index()) {
                    *entry = slot;
                }
                if let Some(&source) = sources.get(tid.index()) {
                    scratch_sources.push(source);
                }
            }
            scratch_sources.sort_unstable();
            scratch_sources.dedup();
            slot_sources.push(scratch_sources.len() as u32);
            slot_offsets.push(slot_claims.len() as u32);
            i = j;
        }

        // Tier-0 spans: slots are entity-sorted, so each entity's
        // slots are contiguous; a counting pass yields the offsets.
        let mut entity_slot_counts = vec![0u32; entities];
        for e in &slot_entities {
            if let Some(c) = entity_slot_counts.get_mut(e.index()) {
                *c += 1;
            }
        }
        let mut entity_slot_offsets = Vec::with_capacity(entities + 1);
        let mut acc = 0u32;
        entity_slot_offsets.push(0);
        for c in &entity_slot_counts {
            acc += c;
            entity_slot_offsets.push(acc);
        }

        // Per-relation claim bitsets.
        let mut relation_bits: Vec<Bitset> =
            (0..relations).map(|_| Bitset::with_capacity(n)).collect();
        for (tid, r) in predicates.iter().enumerate() {
            if let Some(bits) = relation_bits.get_mut(r.index()) {
                bits.insert(tid as u32);
            }
        }

        // Touching-claim CSR: subject claims plus object claims
        // (self-loops counted once), filled with cursors then sorted
        // per span — ascending ids by construction.
        let mut touch_counts = vec![0u32; entities];
        for (tid, s) in subjects.iter().enumerate() {
            if let Some(c) = touch_counts.get_mut(s.index()) {
                *c += 1;
            }
            let obj = object_entities.get(tid).copied().unwrap_or(NO_ENTITY);
            if obj != NO_ENTITY && obj != s.0 {
                if let Some(c) = touch_counts.get_mut(obj as usize) {
                    *c += 1;
                }
            }
        }
        let mut touch_offsets = Vec::with_capacity(entities + 1);
        let mut acc = 0u32;
        touch_offsets.push(0);
        for c in &touch_counts {
            acc += c;
            touch_offsets.push(acc);
        }
        let mut cursors: Vec<u32> = touch_offsets.iter().take(entities).copied().collect();
        let mut touch_claims = vec![TripleId(0); acc as usize];
        {
            let mut place = |entity: usize, tid: u32, cursors: &mut Vec<u32>| {
                if let Some(cursor) = cursors.get_mut(entity) {
                    if let Some(cell) = touch_claims.get_mut(*cursor as usize) {
                        *cell = TripleId(tid);
                        *cursor += 1;
                    }
                }
            };
            for (tid, s) in subjects.iter().enumerate() {
                place(s.index(), tid as u32, &mut cursors);
                let obj = object_entities.get(tid).copied().unwrap_or(NO_ENTITY);
                if obj != NO_ENTITY && obj != s.0 {
                    place(obj as usize, tid as u32, &mut cursors);
                }
            }
        }
        for e in 0..entities {
            let (a, b) = (
                touch_offsets.get(e).copied().unwrap_or(0) as usize,
                touch_offsets.get(e + 1).copied().unwrap_or(0) as usize,
            );
            if let Some(span) = touch_claims.get_mut(a..b) {
                span.sort_unstable();
            }
        }

        Self {
            subjects,
            predicates,
            object_entities,
            sources,
            slot_entities,
            slot_relations,
            slot_offsets,
            slot_claims,
            slot_sources,
            claim_slot,
            entity_slot_offsets,
            relation_bits,
            touch_offsets,
            touch_claims,
        }
    }

    /// Tier-1 slot count.
    pub fn slot_count(&self) -> usize {
        self.slot_entities.len()
    }

    /// Tier-2 claim count.
    pub fn claim_count(&self) -> usize {
        self.subjects.len()
    }

    /// Tier-0 entity count.
    pub fn entity_count(&self) -> usize {
        self.entity_slot_offsets.len().saturating_sub(1)
    }

    /// The slot's entity.
    pub fn slot_entity(&self, slot: SlotId) -> EntityId {
        self.slot_entities
            .get(slot.index())
            .copied()
            .unwrap_or(EntityId(0))
    }

    /// The slot's relation.
    pub fn slot_relation(&self, slot: SlotId) -> RelationId {
        self.slot_relations
            .get(slot.index())
            .copied()
            .unwrap_or(RelationId(0))
    }

    /// Distinct sources asserting the slot.
    pub fn slot_source_count(&self, slot: SlotId) -> usize {
        self.slot_sources.get(slot.index()).copied().unwrap_or(0) as usize
    }

    /// The slot's claim postings, ascending by id — identical to the
    /// graph's `slot_triples` for the same `(entity, relation)`.
    pub fn claims(&self, slot: SlotId) -> &[TripleId] {
        let a = self.slot_offsets.get(slot.index()).copied().unwrap_or(0) as usize;
        let b = self
            .slot_offsets
            .get(slot.index() + 1)
            .copied()
            .unwrap_or(0) as usize;
        self.slot_claims.get(a..b).unwrap_or(&[])
    }

    /// The slot owning a claim.
    pub fn slot_of_claim(&self, claim: TripleId) -> Option<SlotId> {
        self.claim_slot.get(claim.index()).copied().map(SlotId)
    }

    /// The contiguous range of slot ids belonging to `entity`.
    fn entity_slot_range(&self, entity: EntityId) -> (usize, usize) {
        let lo = self
            .entity_slot_offsets
            .get(entity.index())
            .copied()
            .unwrap_or(0) as usize;
        let hi = self
            .entity_slot_offsets
            .get(entity.index() + 1)
            .copied()
            .unwrap_or(lo as u32) as usize;
        (lo, hi)
    }

    /// Slot ids of `entity`, in ascending relation order.
    pub fn slots_of(&self, entity: EntityId) -> impl Iterator<Item = SlotId> + '_ {
        let (lo, hi) = self.entity_slot_range(entity);
        (lo as u32..hi as u32).map(SlotId)
    }

    /// Tier-0 → tier-1 lookup: binary search for `relation` within the
    /// entity's slot span (slots are relation-sorted within an entity).
    pub fn slot_of(&self, entity: EntityId, relation: RelationId) -> Option<SlotId> {
        let (lo, hi) = self.entity_slot_range(entity);
        let span = self.slot_relations.get(lo..hi).unwrap_or(&[]);
        span.binary_search(&relation)
            .ok()
            .map(|pos| SlotId((lo + pos) as u32))
    }

    /// All claims whose subject is `entity`: the concatenation of the
    /// entity's slot postings (contiguous in the arena by layout).
    pub fn entity_claims(&self, entity: EntityId) -> &[TripleId] {
        let (lo, hi) = self.entity_slot_range(entity);
        let a = self.slot_offsets.get(lo).copied().unwrap_or(0) as usize;
        let b = self.slot_offsets.get(hi).copied().unwrap_or(0) as usize;
        self.slot_claims.get(a..b).unwrap_or(&[])
    }

    /// Tier descent: entity lookup → slot bitset → claim postings.
    /// Probes the entity's claim span against the relation's claim
    /// bitset; the survivors are exactly the slot's postings, in
    /// ascending id order (bit-identical to the linear-scan oracle).
    /// Costs are charged to `counters`: one descent, one AND op per
    /// membership probe, and every non-surviving claim counts as
    /// pruned (what an entity-neighborhood scan would have examined).
    pub fn descend(
        &self,
        entity: EntityId,
        relation: RelationId,
        counters: &mut TindexCounters,
    ) -> Vec<TripleId> {
        counters.tier_descents += 1;
        let span = self.entity_claims(entity);
        let mut kept = Vec::new();
        if let Some(bits) = self.relation_bits.get(relation.index()) {
            for &tid in span {
                counters.bitset_and_ops += 1;
                if bits.contains(tid.0) {
                    kept.push(tid);
                }
            }
        }
        counters.candidates_pruned += (span.len() - kept.len()) as u64;
        kept
    }

    /// Allocation-free variant of [`TieredIndex::descend`]: resolves
    /// the slot by binary search and returns the arena slice directly.
    /// Same answer set; used where the caller only needs to borrow.
    pub fn descend_slice(
        &self,
        entity: EntityId,
        relation: RelationId,
        counters: &mut TindexCounters,
    ) -> &[TripleId] {
        counters.tier_descents += 1;
        let span_len = self.entity_claims(entity).len();
        let claims = match self.slot_of(entity, relation) {
            Some(slot) => self.claims(slot),
            None => &[],
        };
        counters.candidates_pruned += (span_len - claims.len()) as u64;
        claims
    }

    /// Line-graph neighborhood by tier descent: claims sharing an
    /// endpoint with `claim` (ascending, excluding `claim` itself) —
    /// the Def. 2 adjacency, resolved from the per-entity touching
    /// spans instead of a materialized line graph.
    pub fn neighbors_of(&self, claim: TripleId, counters: &mut TindexCounters) -> Vec<TripleId> {
        counters.tier_descents += 1;
        let subject_span = match self.subjects.get(claim.index()) {
            Some(s) => self.touching(*s),
            None => &[],
        };
        let object_span = match self.object_entities.get(claim.index()) {
            Some(&o) if o != NO_ENTITY => self.touching(EntityId(o)),
            _ => &[],
        };
        // Sorted merge with dedup; both spans are ascending.
        let mut out = Vec::with_capacity(subject_span.len() + object_span.len());
        let (mut a, mut b) = (
            subject_span.iter().peekable(),
            object_span.iter().peekable(),
        );
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x <= y {
                        if x == y {
                            b.next();
                        }
                        a.next();
                        x
                    } else {
                        b.next();
                        y
                    }
                }
                (Some(&&x), None) => {
                    a.next();
                    x
                }
                (None, Some(&&y)) => {
                    b.next();
                    y
                }
                (None, None) => break,
            };
            if next != claim {
                out.push(next);
            }
        }
        out
    }

    /// Claims touching `entity` as subject or object, ascending.
    pub fn touching(&self, entity: EntityId) -> &[TripleId] {
        let a = self.touch_offsets.get(entity.index()).copied().unwrap_or(0) as usize;
        let b = self
            .touch_offsets
            .get(entity.index() + 1)
            .copied()
            .unwrap_or(0) as usize;
        self.touch_claims.get(a..b).unwrap_or(&[])
    }

    /// The claim's subject (tier-2 column read).
    pub fn claim_subject(&self, claim: TripleId) -> Option<EntityId> {
        self.subjects.get(claim.index()).copied()
    }

    /// The claim's predicate (tier-2 column read).
    pub fn claim_predicate(&self, claim: TripleId) -> Option<RelationId> {
        self.predicates.get(claim.index()).copied()
    }

    /// The claim's source (tier-2 column read).
    pub fn claim_source(&self, claim: TripleId) -> Option<SourceId> {
        self.sources.get(claim.index()).copied()
    }

    /// The relation's claim bitset, when the relation exists.
    pub fn relation_claims(&self, relation: RelationId) -> Option<&Bitset> {
        self.relation_bits.get(relation.index())
    }

    /// Index shape summary.
    pub fn stats(&self) -> TindexStats {
        TindexStats {
            entities: self.entity_count(),
            slots: self.slot_count(),
            claims: self.claim_count(),
            relations: self.relation_bits.len(),
            bitset_words: self.relation_bits.iter().map(Bitset::word_count).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn sample() -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::new();
        let s0 = kg.add_source("a", "csv", "flights");
        let s1 = kg.add_source("b", "json", "flights");
        let f1 = kg.add_entity("CA981", "flights");
        let f2 = kg.add_entity("CA982", "flights");
        let status = kg.add_relation("status");
        let gate = kg.add_relation("gate");
        let follows = kg.add_relation("follows");
        kg.add_triple(f1, status, Value::from("delayed"), s0, 0);
        kg.add_triple(f1, status, Value::from("on-time"), s1, 0);
        kg.add_triple(f1, gate, Value::Int(12), s0, 0);
        kg.add_triple(f2, status, Value::from("boarding"), s1, 0);
        kg.add_triple(f2, follows, Object::Entity(f1), s0, 1);
        kg
    }

    #[test]
    fn bitset_round_trip_and_iteration_order() {
        let mut bits = Bitset::with_capacity(10);
        for b in [130u32, 3, 64, 3, 0] {
            bits.insert(b);
        }
        assert!(bits.contains(130) && bits.contains(0));
        assert!(!bits.contains(65));
        assert_eq!(bits.iter().collect::<Vec<_>>(), vec![0, 3, 64, 130]);
        assert_eq!(bits.count(), 4);
    }

    #[test]
    fn bitset_intersection_counts_word_ops() {
        let mut a = Bitset::with_capacity(128);
        let mut b = Bitset::with_capacity(128);
        a.insert(1);
        a.insert(100);
        b.insert(100);
        b.insert(127);
        let mut ops = 0u64;
        let both = a.intersect(&b, &mut ops);
        assert_eq!(both.iter().collect::<Vec<_>>(), vec![100]);
        assert_eq!(ops, 2, "two 64-bit words ANDed");
        let mut ops = 0u64;
        assert!(!a.is_disjoint(&b, &mut ops));
    }

    #[test]
    fn slot_postings_match_graph_slot_triples() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        for e in kg.entity_ids() {
            for r in 0..kg.relation_count() {
                let r = RelationId(r as u32);
                let expect = kg.slot_triples(e, r);
                let got = match index.slot_of(e, r) {
                    Some(slot) => index.claims(slot),
                    None => &[],
                };
                assert_eq!(got, expect, "slot ({e:?},{r:?})");
            }
        }
    }

    #[test]
    fn descend_equals_slice_equals_graph() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        let mut c = TindexCounters::default();
        for e in kg.entity_ids() {
            for r in 0..kg.relation_count() {
                let r = RelationId(r as u32);
                let probed = index.descend(e, r, &mut c);
                let sliced = index.descend_slice(e, r, &mut c).to_vec();
                assert_eq!(probed, sliced);
                assert_eq!(probed, kg.slot_triples(e, r).to_vec());
            }
        }
        assert!(c.tier_descents > 0);
        assert!(c.bitset_and_ops > 0);
    }

    #[test]
    fn pruning_counts_non_slot_claims() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        let f1 = kg.find_entity("CA981", "flights").unwrap();
        let gate = kg.find_relation("gate").unwrap();
        let mut c = TindexCounters::default();
        let kept = index.descend(f1, gate, &mut c);
        assert_eq!(kept.len(), 1);
        // CA981 has 3 subject claims; 2 are pruned by the gate bitset.
        assert_eq!(c.candidates_pruned, 2);
        assert_eq!(c.bitset_and_ops, 3);
    }

    #[test]
    fn neighbors_match_shared_endpoint_definition() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        let mut c = TindexCounters::default();
        for (tid, t) in kg.iter_triples() {
            let got = index.neighbors_of(tid, &mut c);
            let mut expect: Vec<TripleId> = kg
                .iter_triples()
                .filter(|&(o, other)| o != tid && t.shares_endpoint(other))
                .map(|(o, _)| o)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "neighbors of {tid:?}");
        }
    }

    #[test]
    fn entity_claims_are_the_subject_postings() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        for e in kg.entity_ids() {
            let mut expect = kg.outgoing(e).to_vec();
            expect.sort_unstable();
            let mut got = index.entity_claims(e).to_vec();
            got.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn stats_and_empty_graph() {
        let kg = sample();
        let stats = TieredIndex::build(&kg).stats();
        assert_eq!(stats.claims, kg.triple_count());
        assert_eq!(stats.slots, 4);
        assert_eq!(stats.entities, kg.entity_count());
        let empty = TieredIndex::build(&KnowledgeGraph::new());
        assert_eq!(empty.slot_count(), 0);
        assert_eq!(empty.claim_count(), 0);
        let mut c = TindexCounters::default();
        assert!(empty.descend(EntityId(0), RelationId(0), &mut c).is_empty());
    }

    #[test]
    fn slot_of_claim_round_trips() {
        let kg = sample();
        let index = TieredIndex::build(&kg);
        for (tid, t) in kg.iter_triples() {
            let slot = index.slot_of_claim(tid).unwrap();
            assert_eq!(index.slot_entity(slot), t.subject);
            assert_eq!(index.slot_relation(slot), t.predicate);
            assert!(index.claims(slot).contains(&tid));
        }
    }
}
