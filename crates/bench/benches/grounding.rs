//! Criterion bench: grounding cost of the relational causal model as the
//! skeleton grows (the dominant cost behind Table 2's "unit table
//! construction" column). The expectation is near-linear growth in the
//! number of papers.

use carl::CarlEngine;
use carl_datagen::{generate_synthetic_review, SyntheticReviewConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_grounding(c: &mut Criterion) {
    let mut group = c.benchmark_group("grounding");
    group.sample_size(10);
    for &papers in &[500usize, 1_000, 2_000] {
        let config = SyntheticReviewConfig {
            authors: papers / 5,
            institutions: 20,
            papers,
            venues: 10,
            ..SyntheticReviewConfig::small(7)
        };
        let ds = generate_synthetic_review(&config);
        let engine = CarlEngine::new(ds.instance, &ds.rules).expect("model binds to schema");
        group.bench_with_input(BenchmarkId::from_parameter(papers), &papers, |b, _| {
            b.iter(|| {
                let grounded = engine.ground_model_streamed().expect("grounding succeeds");
                std::hint::black_box(grounded.graph.node_count())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_grounding);
criterion_main!(benches);
