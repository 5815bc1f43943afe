//! Benchmarks of the MKA module's slot structure: the Def. 2 line-graph
//! oracle against the two homologous matchers — the sorted scan over
//! the graph and the one-pass walk of a prebuilt `TieredIndex` slot
//! tier (the index itself is built once per epoch at publish).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use multirag_core::homologous::{match_homologous, match_homologous_tiered};
use multirag_datasets::spec::Scale;
use multirag_datasets::{flights::FlightsSpec, movies::MoviesSpec, stocks::StocksSpec};
use multirag_kg::{LineGraph, TieredIndex};

fn construction_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlg_construction");
    for (label, kg) in [
        ("movies_small", MoviesSpec::small().generate(42).graph),
        (
            "movies_bench",
            MoviesSpec::at_scale(Scale {
                entities: 200,
                queries: 10,
            })
            .generate(42)
            .graph,
        ),
        ("flights_small", FlightsSpec::small().generate(42).graph),
        ("stocks_small", StocksSpec::small().generate(42).graph),
    ] {
        let size = format!("{label}/{}t", kg.triple_count());
        group.bench_with_input(BenchmarkId::new("line_graph", &size), &kg, |b, kg| {
            b.iter(|| LineGraph::from_graph(black_box(kg)))
        });
        group.bench_with_input(BenchmarkId::new("homologous_match", &size), &kg, |b, kg| {
            b.iter(|| match_homologous(black_box(kg)))
        });
        let index = TieredIndex::build(&kg);
        group.bench_with_input(
            BenchmarkId::new("tiered_match", &size),
            &index,
            |b, index| b.iter(|| match_homologous_tiered(black_box(index))),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = construction_benches
}
criterion_main!(benches);
