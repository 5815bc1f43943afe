//! Property tests for the cluster's determinism backbone.
//!
//! 1. **Histogram merge identity** (the merge-tier satellite): feeding
//!    every completion into one cluster-wide [`LogHistogram`] is
//!    byte-identical to feeding each shard's completions into its own
//!    histogram and merging — for *any* assignment of completions to
//!    shards and any merge order. `LogHistogram` derives `Eq` over its
//!    full state (buckets, count, sum, max), so `==` here is exactly
//!    "same bytes in every field".
//! 2. **Merge-tier reduction order invariance**: the cross-shard
//!    verdict reduction is a pure function of the verdict *set*.
//! 3. **Ring consistency**: `owner` is `candidates[0]`, candidates are
//!    distinct, and ownership is stable across rebuilds.
//! 4. **One simulator**: single-node serving is the one-shard case of
//!    the fleet loop — same counts, same clock, same latencies.
//! 5. **Sim-clock saturation**: service times near `u64::MAX` pin the
//!    clock instead of overflowing it, and every request is accounted.

use multirag_cluster::{cluster_closed_loop, slot_key, HashRing, DEFAULT_VNODES};
use multirag_core::{reduce_shard_answers, AbstainReason, PipelineAnswer};
use multirag_faults::FaultPlan;
use multirag_obs::LogHistogram;
use multirag_serve::{closed_loop, closed_loop_timeline};
use proptest::prelude::*;

fn answer(confidence: f64, abstained: bool) -> PipelineAnswer {
    PipelineAnswer {
        values: Vec::new(),
        fusion_values: Vec::new(),
        abstained,
        abstain_reason: abstained.then_some(AbstainReason::AllSourcesDown),
        hallucinated: false,
        graph_confidence: (!abstained).then_some(multirag_core::confidence::GraphConfidence {
            value: confidence,
            unordered_pairs: 1,
            ordered_pairs: 2,
        }),
        kept: Vec::new(),
        dropped: 0,
        examined: 0,
        quarantined_claims: 0,
        escalation_attempts: 0,
    }
}

proptest! {
    /// Per-shard histograms merged in any order == one histogram fed
    /// every completion directly. Byte identity via `Eq`.
    #[test]
    fn merged_shard_histograms_equal_cluster_histogram(
        completions in proptest::collection::vec((0u64..5_000_000, 0usize..8), 0..300),
        shards in 1usize..8,
        merge_order in proptest::collection::vec(0usize..8, 8),
    ) {
        let mut cluster_wide = LogHistogram::new();
        let mut per_shard = vec![LogHistogram::new(); shards];
        for &(latency_us, shard_pick) in &completions {
            cluster_wide.record(latency_us);
            per_shard[shard_pick % shards].record(latency_us);
        }
        // Merge in a permuted order: merge is commutative+associative,
        // so any order must land on the identical state.
        let mut order: Vec<usize> = (0..shards).collect();
        for (i, &s) in merge_order.iter().enumerate().take(shards) {
            order.swap(i, s % shards);
        }
        let mut merged = LogHistogram::new();
        for &s in &order {
            merged.merge(&per_shard[s]);
        }
        prop_assert_eq!(&merged, &cluster_wide);
        // The derived percentiles therefore agree too.
        for p in [50u64, 95, 99] {
            prop_assert_eq!(merged.quantile_us(p), cluster_wide.quantile_us(p));
        }
    }

    /// Reduction is a pure function of the verdict set: permuting the
    /// input leaves the merged verdict byte-identical.
    #[test]
    fn shard_reduction_is_permutation_invariant(
        confidences in proptest::collection::vec((0.0f64..1.0, any::<bool>()), 1..8),
        swaps in proptest::collection::vec(0usize..8, 8),
    ) {
        let verdicts: Vec<(u32, PipelineAnswer)> = confidences
            .iter()
            .enumerate()
            .map(|(shard, &(c, abstained))| (shard as u32, answer(c, abstained)))
            .collect();
        let mut shuffled = verdicts.clone();
        let n = shuffled.len();
        for (i, &s) in swaps.iter().enumerate().take(n) {
            shuffled.swap(i, s % n);
        }
        prop_assert_eq!(
            reduce_shard_answers(&verdicts),
            reduce_shard_answers(&shuffled)
        );
    }

    /// `owner` is always the first candidate, candidates are distinct
    /// nodes, and an identically parameterized ring agrees on every
    /// slot.
    #[test]
    fn ring_owner_heads_distinct_candidates(
        nodes in 1u32..12,
        seed in 0u64..1_000,
        entities in proptest::collection::vec("[a-z]{1,12}", 1..20),
    ) {
        let ring = HashRing::new(nodes, DEFAULT_VNODES, seed);
        let again = HashRing::new(nodes, DEFAULT_VNODES, seed);
        for entity in &entities {
            let slot = slot_key(entity, "attr");
            let cands = ring.candidates(&slot, 3);
            prop_assert_eq!(cands[0], ring.owner(&slot));
            prop_assert_eq!(ring.owner(&slot), again.owner(&slot));
            let mut sorted = cands.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), cands.len());
        }
    }

    /// `closed_loop_timeline` and `cluster_closed_loop` on one shard
    /// with every candidate list `[0]` agree on every count, on the
    /// clock, and on the latency of every served request.
    #[test]
    fn single_node_loop_is_the_one_shard_fleet_loop(
        service in proptest::collection::vec(0u64..20_000, 0..120),
        concurrency in 1usize..=16,
        workers in 1usize..=4,
        queue_depth in 0usize..=8,
    ) {
        let (point, timings) = closed_loop_timeline(&service, concurrency, workers, queue_depth);
        let candidates = vec![vec![0u32]; service.len()];
        let fleet = cluster_closed_loop(
            &service, &candidates, service.len(), 1, concurrency, workers, queue_depth, None,
        );
        prop_assert_eq!(point.offered, fleet.point.offered);
        prop_assert_eq!(point.completed, fleet.point.completed);
        prop_assert_eq!(point.shed, fleet.point.shed);
        prop_assert_eq!(point.throughput_qps.to_bits(), fleet.point.throughput_qps.to_bits());
        prop_assert_eq!(point.sim_total_ms.to_bits(), fleet.point.sim_total_ms.to_bits());
        let mut served = LogHistogram::new();
        for t in timings.iter().filter(|t| t.served) {
            served.record(t.latency_us());
        }
        prop_assert_eq!(&fleet.per_shard, &vec![served]);
    }

    /// Service times near `u64::MAX` neither panic nor lose requests,
    /// at one shard and at N shards with outage windows.
    #[test]
    fn sim_clock_saturates_near_u64_max(
        service in proptest::collection::vec(
            prop_oneof![u64::MAX - 1_000..=u64::MAX, 0u64..1_000],
            1..40,
        ),
        shards in 2u32..=4,
        concurrency in 1usize..=8,
        workers in 1usize..=3,
        queue_depth in 0usize..=4,
    ) {
        let point = closed_loop(&service, concurrency, workers, queue_depth);
        prop_assert_eq!(point.completed + point.shed, point.offered);
        let candidates: Vec<Vec<u32>> = (0..service.len() as u32)
            .map(|i| vec![i % shards, (i + 1) % shards])
            .collect();
        let plan = FaultPlan::node_outages(7, 0.3);
        let total = service.len() * 3;
        let fleet = cluster_closed_loop(
            &service, &candidates, total, shards, concurrency, workers, queue_depth,
            Some((&plan, u64::MAX / 4)),
        );
        prop_assert_eq!(fleet.point.offered, total);
        prop_assert_eq!(fleet.point.completed + fleet.point.shed, total);
    }
}
