//! Quickstart: generate a small multi-source dataset, build the MKLGP
//! pipeline, and answer a few queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use multirag::core::{match_homologous_tiered, MklgpPipeline, MultiRagConfig};
use multirag::datasets::movies::MoviesSpec;
use multirag::kg::TieredIndex;
use std::sync::Arc;

fn main() {
    // 1. A synthetic "Movies" benchmark: 13 sources across JSON / KG /
    //    CSV formats, conflicting claims, multi-valued truths.
    let dataset = MoviesSpec::small().generate(42);
    println!(
        "Generated '{}' with {} sources, {} entities, {} triples, {} queries",
        dataset.name,
        dataset.graph.source_count(),
        dataset.graph.entity_count(),
        dataset.graph.triple_count(),
        dataset.queries.len(),
    );

    // 2. The MKLGP pipeline over a tiered entity → slot → claim index:
    //    homologous slot groups + multi-level confidence computing, with
    //    the paper's default thresholds.
    let index = Arc::new(TieredIndex::build(&dataset.graph));
    let sets = match_homologous_tiered(&index);
    println!(
        "MKA: {} homologous groups, {} isolated; {:?}",
        sets.groups.len(),
        sets.isolated.len(),
        index.stats()
    );
    let config = MultiRagConfig::default();
    let mut pipeline = MklgpPipeline::new_with_index(&dataset.graph, config, 42, index);

    // 3. Answer the benchmark queries, reporting confidence diagnostics.
    let mut correct = 0usize;
    for query in &dataset.queries {
        let answer = pipeline.answer(query);
        let verdict = answer
            .fusion_values
            .iter()
            .any(|v| dataset.truth.is_correct(&query.entity, &query.attribute, v));
        if verdict {
            correct += 1;
        }
        println!(
            "\nQ{}: {}\n  trusted answer: {}\n  graph confidence: {}  kept/dropped: {}/{}  correct: {}",
            query.id,
            query.text,
            answer
                .fusion_values
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            answer
                .graph_confidence
                .map(|g| format!("{:.2}", g.value))
                .unwrap_or_else(|| "n/a (isolated)".into()),
            answer.kept.len(),
            answer.dropped,
            verdict,
        );
    }
    println!(
        "\n{}/{} queries answered correctly; simulated LLM time {:.1}s over {} calls",
        correct,
        dataset.queries.len(),
        pipeline.llm().usage().simulated_secs(),
        pipeline.llm().usage().calls,
    );
}
