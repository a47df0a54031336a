//! Disease A–Z enrichment — the paper's Experiment 1 workload at small
//! scale: generate the integrated health table and document corpus, run
//! THOR on the test split, evaluate against the gold annotations, and
//! show the sparsity reduction on the stripped test table.
//!
//! Run with: `cargo run --release --example disease_enrichment`

use thor_core::{Thor, ThorConfig};
use thor_data::sparsity;
use thor_datagen::{corpus_stats, generate, DatasetSpec, Split};
use thor_eval::{evaluate, Annotation};

fn main() {
    let dataset = generate(&DatasetSpec::disease_az(42, 0.1));
    let stats = corpus_stats(dataset.docs(Split::Test));
    println!(
        "Disease A-Z (scale 0.1): {} test docs / {} subjects / {} gold entities",
        stats.documents, stats.subjects, stats.entities
    );

    let table = dataset.enrichment_table();
    let before = sparsity(&table);

    let thor = Thor::new(dataset.store.clone(), ThorConfig::with_tau(0.7));
    let result = thor.prepare(&table).enrich(&dataset.documents(Split::Test));

    // ── Evaluation against gold ─────────────────────────────────────
    let gold: Vec<Annotation> = dataset
        .docs(Split::Test)
        .iter()
        .flat_map(|d| {
            d.gold
                .iter()
                .map(|g| Annotation::new(d.doc.id.clone(), &g.concept, &g.phrase))
        })
        .collect();
    let mut gold_dedup = gold;
    gold_dedup.sort_by(|a, b| {
        (&a.doc_id, &a.concept, &a.phrase).cmp(&(&b.doc_id, &b.concept, &b.phrase))
    });
    gold_dedup.dedup();
    let predictions: Vec<Annotation> = result
        .entities
        .iter()
        .map(|e| Annotation::new(e.doc_id.clone(), &e.concept, &e.phrase))
        .collect();
    let report = evaluate(&predictions, &gold_dedup);

    println!(
        "\nTHOR tau=0.7: P={:.2} R={:.2} F1={:.2} ({} predictions, {} gold)",
        report.precision, report.recall, report.f1, report.predicted_total, report.gold_total
    );
    println!(
        "match classes: {} exact, {} partial, {} wrong-type, {} spurious, {} missed",
        report.correct, report.partial, report.incorrect, report.spurious, report.missing
    );

    // ── Per-concept view ─────────────────────────────────────────────
    println!("\nper-concept sensitivity:");
    for c in &report.per_concept {
        println!(
            "  {:<14} {:>5.1}%  ({} gold)",
            c.concept,
            c.sensitivity * 100.0,
            c.gold
        );
    }

    let after = sparsity(&result.table);
    println!(
        "\ntable sparsity: {:.1}% → {:.1}% ({} new values)",
        before.ratio * 100.0,
        after.ratio * 100.0,
        result.slot_stats.inserted
    );
    println!(
        "timing: fine-tune {:?}, inference {:?}",
        result.prepare_time, result.inference_time
    );
}
