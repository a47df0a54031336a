//! End-to-end integration tests for the THOR pipeline, built around the
//! paper's running example (Fig. 1 → Fig. 4).

use thor_core::{Document, Thor, ThorConfig};
use thor_data::{outer_join, sparsity, Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};

fn fig1_store() -> VectorStore {
    SemanticSpaceBuilder::new(32, 7)
        .spread(0.4)
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words(
            "anatomy",
            [
                "nervous", "system", "brain", "nerve", "skin", "lungs", "ear",
            ],
        )
        .words(
            "complication",
            [
                "cancer",
                "tumor",
                "unsteadiness",
                "deafness",
                "empyema",
                "non-cancerous",
            ],
        )
        .generic_words(["slow-growing", "grows", "damages", "may", "cause"])
        .build()
        .into_store()
}

fn fig1_table() -> Table {
    let mut d1 = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    d1.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    d1.fill_slot("Acne", "Anatomy", "skin");
    let mut d2 = Table::new(Schema::new(["Disease", "Complication"], "Disease"));
    d2.fill_slot("Acne", "Complication", "skin cancer");
    d2.row_for_subject("Tuberculosis");
    outer_join(&d1, &d2)
}

fn fig1_doc() -> Document {
    Document::new(
        "doc",
        "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
         It may cause unsteadiness and deafness. \
         Tuberculosis generally damages the lungs and may cause empyema.",
    )
}

#[test]
fn fig1_to_fig4_end_to_end() {
    let table = fig1_table();
    let before = sparsity(&table);
    assert!(before.ratio > 0.0, "integration must create sparsity");

    let thor = Thor::new(fig1_store(), ThorConfig::with_tau(0.6));
    let result = thor.prepare(&table).enrich(&[fig1_doc()]);

    // Fig. 4: Complication slots filled for both subjects.
    let an = result.table.get_row("Acoustic Neuroma").expect("row");
    let compl = result.table.schema().index_of("Complication").unwrap();
    assert!(
        !an.cell(compl).is_null(),
        "Acoustic Neuroma Complication filled"
    );
    let tb = result.table.get_row("Tuberculosis").expect("row");
    assert!(
        !tb.cell(compl).is_null(),
        "Tuberculosis Complication filled"
    );

    // Sparsity strictly reduced.
    let after = sparsity(&result.table);
    assert!(after.ratio < before.ratio);

    // Entities attributed to the right subjects.
    assert!(result
        .entities
        .iter()
        .any(|e| e.subject == "Tuberculosis" && e.phrase.contains("empyema")));
    assert!(result
        .entities
        .iter()
        .any(|e| e.subject == "Acoustic Neuroma" && e.phrase.contains("unsteadiness")));
}

#[test]
fn enrichment_is_idempotent() {
    let thor = Thor::new(fig1_store(), ThorConfig::with_tau(0.6));
    let table = fig1_table();
    let once = thor.prepare(&table).enrich(&[fig1_doc()]);
    let twice = thor.prepare(&once.table).enrich(&[fig1_doc()]);
    assert_eq!(
        once.table.instance_count(),
        twice.table.instance_count(),
        "re-running on enriched output must add nothing"
    );
    assert_eq!(twice.slot_stats.inserted, 0);
}

#[test]
fn schema_evolution_without_retraining() {
    let store = SemanticSpaceBuilder::new(32, 11)
        .spread(0.4)
        .topic("anatomy")
        .topic("symptom")
        .words("anatomy", ["lungs", "brain", "nerve"])
        .words(
            "symptom",
            ["fever", "cough", "fatigue", "dizziness", "nausea"],
        )
        .generic_words(["damages", "patients", "generally"])
        .build()
        .into_store();
    let docs = vec![Document::new(
        "d",
        "Tuberculosis generally damages the lungs. Patients often report fever and cough.",
    )];
    let thor = Thor::new(store, ThorConfig::with_tau(0.6));

    let mut v1 = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    v1.fill_slot("Tuberculosis", "Anatomy", "brain");
    let r1 = thor.prepare(&v1).enrich(&docs);
    assert!(r1.entities.iter().all(|e| e.concept != "Symptom"));

    let mut v2 = Table::new(Schema::new(["Disease", "Anatomy", "Symptom"], "Disease"));
    v2.fill_slot("Tuberculosis", "Anatomy", "brain");
    v2.fill_slot("Tuberculosis", "Symptom", "dizziness");
    let r2 = thor.prepare(&v2).enrich(&docs);
    let symptoms: Vec<&str> = r2
        .entities
        .iter()
        .filter(|e| e.concept == "Symptom")
        .map(|e| e.phrase.as_str())
        .collect();
    assert!(
        !symptoms.is_empty(),
        "evolved concept must be fillable from the same text"
    );
}

#[test]
fn original_table_is_never_mutated() {
    let thor = Thor::new(fig1_store(), ThorConfig::with_tau(0.5));
    let table = fig1_table();
    let before = thor_data::csv::to_csv(&table);
    let _ = thor.prepare(&table).enrich(&[fig1_doc()]);
    assert_eq!(before, thor_data::csv::to_csv(&table));
}

#[test]
fn tau_one_restricts_to_known_vocabulary() {
    let thor = Thor::new(fig1_store(), ThorConfig::with_tau(1.0));
    let result = thor.prepare(&fig1_table()).enrich(&[fig1_doc()]);
    // Every matched instance must be a table value (exact similarity can
    // only hit seed vectors).
    for e in &result.entities {
        assert!(
            !e.matched_instance.is_empty(),
            "entity without a seed anchor at tau=1.0: {e:?}"
        );
    }
}

#[test]
fn csv_round_trip_of_enriched_table() {
    let thor = Thor::new(fig1_store(), ThorConfig::with_tau(0.6));
    let result = thor.prepare(&fig1_table()).enrich(&[fig1_doc()]);
    let csv = thor_data::csv::to_csv(&result.table);
    let back = thor_data::csv::from_csv(&csv).expect("parse");
    assert_eq!(back.len(), result.table.len());
    assert_eq!(back.instance_count(), result.table.instance_count());
}
