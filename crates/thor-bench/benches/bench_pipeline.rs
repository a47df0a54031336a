//! Criterion benches for the THOR pipeline itself: fine-tuning, phrase
//! matching, and the end-to-end τ sweep (the measured counterpart of
//! Fig. 6 — inference time must fall as τ rises).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use thor_core::{Thor, ThorConfig};
use thor_datagen::{generate, DatasetSpec, Split};
use thor_embed::SgnsConfig;

fn small_dataset() -> thor_datagen::GeneratedDataset {
    generate(&DatasetSpec::disease_az(42, 0.05))
}

fn bench_fine_tune(c: &mut Criterion) {
    let dataset = small_dataset();
    let table = dataset.enrichment_table();
    let mut g = c.benchmark_group("pipeline");
    for tau in [0.5f64, 0.8, 1.0] {
        g.bench_with_input(BenchmarkId::new("fine_tune", tau), &tau, |b, &tau| {
            let thor = Thor::new(dataset.store.clone(), ThorConfig::with_tau(tau));
            b.iter(|| thor.fine_tune(black_box(&table)))
        });
    }
    g.finish();
}

fn bench_match_phrase(c: &mut Criterion) {
    let dataset = small_dataset();
    let table = dataset.enrichment_table();
    let thor = Thor::new(dataset.store.clone(), ThorConfig::with_tau(0.7));
    let matcher = thor.fine_tune(&table);
    let mut g = c.benchmark_group("matcher");
    g.bench_function("match_phrase_4_words", |b| {
        b.iter(|| matcher.match_phrase(black_box("polgrave tanile rusplaia verusone")))
    });
    g.finish();
}

/// The Fig. 6 bench: end-to-end extraction per τ.
fn bench_thor_tau(c: &mut Criterion) {
    let dataset = small_dataset();
    let table = dataset.enrichment_table();
    let docs = dataset.documents(Split::Test);
    let mut g = c.benchmark_group("thor_tau");
    g.sample_size(10);
    for tau in [0.5f64, 0.6, 0.7, 0.8, 0.9, 1.0] {
        g.bench_with_input(BenchmarkId::from_parameter(tau), &tau, |b, &tau| {
            let thor = Thor::new(dataset.store.clone(), ThorConfig::with_tau(tau));
            b.iter(|| thor.prepare(black_box(&table)).extract(black_box(&docs)))
        });
    }
    g.finish();
}

fn bench_sgns(c: &mut Criterion) {
    // A small SGNS training run (the embedding substrate's hot loop).
    let corpus: Vec<Vec<String>> = (0..100)
        .map(|i| {
            (0..10)
                .map(|j| format!("word{}", (i * 7 + j * 3) % 40))
                .collect::<Vec<String>>()
        })
        .collect();
    let mut g = c.benchmark_group("embed");
    g.sample_size(10);
    g.bench_function("sgns_train_small", |b| {
        let config = SgnsConfig {
            dim: 16,
            epochs: 2,
            ..Default::default()
        };
        b.iter(|| thor_embed::SgnsTrainer::new(config.clone()).train(black_box(&corpus)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fine_tune,
    bench_match_phrase,
    bench_thor_tau,
    bench_sgns
);
criterion_main!(benches);
