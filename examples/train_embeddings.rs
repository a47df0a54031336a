//! Learned embeddings — run THOR on vectors *trained from raw text*
//! with the from-scratch SGNS (word2vec) implementation, instead of the
//! synthetic oracle space. Demonstrates that the pipeline's semantics
//! come from plain co-occurrence statistics, like the paper's
//! pre-trained vectors.
//!
//! Run with: `cargo run --release --example train_embeddings`

use thor_core::{Thor, ThorConfig};
use thor_datagen::{generate, DatasetSpec, Split};
use thor_embed::{SgnsConfig, SgnsTrainer};
use thor_text::{normalize_phrase, split_sentences};

fn main() {
    // Generate the corpus (we only use its *text* for training).
    let dataset = generate(&DatasetSpec::disease_az(42, 0.08));

    // ── Train word vectors on the raw train+validation text ──────────
    let mut corpus: Vec<Vec<String>> = Vec::new();
    for doc in dataset.train.iter().chain(&dataset.validation) {
        for sentence in split_sentences(&doc.doc.text) {
            let words: Vec<String> = normalize_phrase(&sentence.text)
                .split_whitespace()
                .map(str::to_string)
                .collect();
            if words.len() > 2 {
                corpus.push(words);
            }
        }
    }
    println!("training SGNS on {} sentences...", corpus.len());
    let config = SgnsConfig {
        dim: 48,
        epochs: 6,
        window: 4,
        min_count: 3,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let learned = SgnsTrainer::new(config).train(&corpus);
    println!("trained {} vectors in {:?}\n", learned.len(), t0.elapsed());

    // ── Sanity: same-concept instances should be neighbours ──────────
    let sample_concept = dataset.schema.concepts()[1].name();
    let instances = dataset.table.column_values(sample_concept);
    if let (Some(a), Some(b)) = (instances.first(), instances.get(1)) {
        if let Some(sim) = learned.phrase_similarity(a, b) {
            println!("learned similarity of two `{sample_concept}` instances: {sim:.2}");
        }
    }

    // ── Run THOR with the learned vectors ────────────────────────────
    let table = dataset.enrichment_table();
    let docs = dataset.documents(Split::Test);
    for (label, store) in [
        ("learned (SGNS)", learned),
        ("oracle space", dataset.store.clone()),
    ] {
        let engine = Thor::new(store, ThorConfig::with_tau(0.7)).prepare(&table);
        let (entities, infer) = engine.extract(&docs);
        println!(
            "{label:<16}: {} entities extracted (fine-tune {:?}, inference {:?})",
            entities.len(),
            engine.prepare_time(),
            infer
        );
    }
    println!("\nBoth vector sources drive the same pipeline — the cluster structure THOR");
    println!("needs emerges from co-occurrence statistics alone.");
}
