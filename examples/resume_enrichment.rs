//! Résumé enrichment — the paper's Experiment 3 scenario: an
//! organization's in-house data (job-seeker CVs, five per document)
//! unlike any public benchmark. Shows multi-subject segmentation and
//! THOR's per-concept behaviour on the unseen domain.
//!
//! Run with: `cargo run --release --example resume_enrichment`

use thor_core::{Thor, ThorConfig};
use thor_datagen::{generate, DatasetSpec, Split};

fn main() {
    let dataset = generate(&DatasetSpec::resume(42, 0.1));
    let docs = dataset.documents(Split::Test);
    println!(
        "Résumé dataset (scale 0.1): {} test documents, {} CVs per document",
        docs.len(),
        dataset
            .docs(Split::Test)
            .first()
            .map(|d| d.subjects.len())
            .unwrap_or(0)
    );

    let table = dataset.enrichment_table();
    let thor = Thor::new(dataset.store.clone(), ThorConfig::with_tau(0.8));
    let result = thor.prepare(&table).enrich(&docs);

    // Group extracted entities per subject (CV) for the first document.
    if let Some(first) = dataset.docs(Split::Test).first() {
        println!(
            "\ndocument `{}` covers {} candidates:",
            first.doc.id,
            first.subjects.len()
        );
        for subject in &first.subjects {
            println!("  ── {subject}");
            let mut entities: Vec<_> = result
                .entities
                .iter()
                .filter(|e| &e.subject == subject && e.doc_id == first.doc.id)
                .collect();
            entities.sort_by(|a, b| a.concept.cmp(&b.concept));
            for e in entities.iter().take(6) {
                println!("       {:<22} {}", e.concept, e.phrase);
            }
        }
    }

    // The filled row for one subject, straight from the enriched table.
    if let Some(first) = dataset.docs(Split::Test).first() {
        if let Some(subject) = first.subjects.first() {
            let row = result.table.get_row(subject).expect("row exists");
            println!("\nenriched row for `{subject}`:");
            for (ci, concept) in result.table.schema().concepts().iter().enumerate() {
                let values: Vec<&str> = row.cell(ci).values().collect();
                if !values.is_empty() {
                    println!("  {:<22} {}", concept.name(), values.join(" | "));
                }
            }
        }
    }

    println!(
        "\ntotal: {} entities extracted, {} slots filled across {} candidates",
        result.entities.len(),
        result.slot_stats.inserted,
        result.table.len()
    );
}
