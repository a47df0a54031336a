//! Schema evolution — THOR's killer feature versus fine-tuned language
//! models: when the integrated schema gains a concept, an LM pipeline
//! must re-annotate its corpus and re-train; THOR only needs the new
//! concept's seed instances and a re-run of its (cheap) fine-tuning.
//!
//! This example enriches a table, then *evolves the schema* with a new
//! `Symptom` concept and a handful of seeds, and immediately extracts
//! entities for it from the same documents — no annotation involved.
//!
//! Run with: `cargo run --release --example schema_evolution`

use thor_core::{Document, Thor, ThorConfig};
use thor_data::{Schema, Table};
use thor_embed::SemanticSpaceBuilder;

fn main() {
    let store = SemanticSpaceBuilder::new(32, 11)
        .spread(0.4)
        .topic("anatomy")
        .topic("symptom")
        .words("anatomy", ["lungs", "brain", "nerve", "spine", "ear"])
        .words(
            "symptom",
            ["fever", "cough", "fatigue", "dizziness", "nausea"],
        )
        .generic_words(["damages", "patients", "generally"])
        .build()
        .into_store();

    let docs = vec![Document::new(
        "d1",
        "Tuberculosis generally damages the lungs. \
         Patients often report fever, cough and fatigue.",
    )];

    // ── Version 1 of the integrated schema: no Symptom concept ───────
    let mut v1 = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    v1.fill_slot("Tuberculosis", "Anatomy", "brain");

    let thor = Thor::new(store, ThorConfig::with_tau(0.6));
    let r1 = thor.prepare(&v1).enrich(&docs);
    println!("schema v1 (Disease, Anatomy):");
    for e in &r1.entities {
        println!("  {:<10} ← {}", e.concept, e.phrase);
    }
    println!("  (fever/cough/fatigue are invisible — no concept covers them)\n");

    // ── Schema evolves: Symptom is added with two known instances ────
    let mut v2 = Table::new(Schema::new(["Disease", "Anatomy", "Symptom"], "Disease"));
    v2.fill_slot("Tuberculosis", "Anatomy", "brain");
    v2.fill_slot("Tuberculosis", "Symptom", "dizziness");
    v2.fill_slot("Tuberculosis", "Symptom", "nausea");

    // Same THOR instance, same documents — just re-run. Fine-tuning is
    // per-call and takes milliseconds; no corpus re-annotation.
    let r2 = thor.prepare(&v2).enrich(&docs);
    println!("schema v2 (Disease, Anatomy, + Symptom) — same documents, re-run only:");
    for e in &r2.entities {
        println!("  {:<10} ← {} (score {:.2})", e.concept, e.phrase, e.score);
    }
    let symptoms: Vec<&str> = r2
        .entities
        .iter()
        .filter(|e| e.concept == "Symptom")
        .map(|e| e.phrase.as_str())
        .collect();
    println!(
        "\nnew Symptom slots filled from the same old text: {}",
        symptoms.join(", ")
    );
    println!(
        "fine-tuning took {:?} — compare with re-annotating a corpus for weeks.",
        r2.prepare_time
    );
}
