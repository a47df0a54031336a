//! Failure-injection and fuzz tests: the pipeline is exposed to
//! arbitrary unicode documents, degenerate tables, and hostile
//! configurations — it must produce valid output or nothing, never
//! panic.

use proptest::prelude::*;

use thor_core::{Document, Thor, ThorConfig};
use thor_data::{Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};

fn small_store() -> VectorStore {
    SemanticSpaceBuilder::new(8, 3)
        .topic("t")
        .words("t", ["alpha", "beta", "gamma"])
        .build()
        .into_store()
}

fn small_table() -> Table {
    let mut t = Table::new(Schema::new(["Subject", "Concept"], "Subject"));
    t.fill_slot("alpha", "Concept", "beta");
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary unicode text must never panic the pipeline and every
    /// produced entity must reference a schema concept and a known
    /// subject.
    #[test]
    fn arbitrary_documents_never_panic(text in "\\PC{0,300}") {
        let thor = Thor::new(small_store(), ThorConfig::with_tau(0.5));
        let table = small_table();
        let result = thor.prepare(&table).enrich(&[Document::new("d", text)]);
        for e in &result.entities {
            prop_assert!(result.table.schema().index_of(&e.concept).is_some());
            prop_assert!(result.table.get_row(&e.subject).is_some());
            prop_assert!((0.0..=1.0).contains(&e.score));
        }
    }

    /// Whitespace/punctuation soup documents.
    #[test]
    fn punctuation_soup(text in "[ .,;:!?\\-()\\[\\]{}\"'\n\t]{0,200}") {
        let thor = Thor::new(small_store(), ThorConfig::with_tau(0.5));
        let _ = thor.prepare(&small_table()).enrich(&[Document::new("d", text)]);
    }

    /// Any tau in [0,1] works, and prediction counts stay finite.
    #[test]
    fn any_tau_is_safe(tau in 0.0f64..=1.0) {
        let thor = Thor::new(small_store(), ThorConfig::with_tau(tau));
        let doc = Document::new("d", "alpha relates to beta and gamma.");
        let result = thor.prepare(&small_table()).enrich(&[doc]);
        prop_assert!(result.entities.len() < 100);
    }
}

#[test]
fn degenerate_tables() {
    let thor = Thor::new(small_store(), ThorConfig::with_tau(0.5));
    let doc = Document::new("d", "alpha relates to beta.");

    // Empty table: nothing to anchor on.
    let empty = Table::new(Schema::new(["Subject", "Concept"], "Subject"));
    let result = thor.prepare(&empty).enrich(std::slice::from_ref(&doc));
    assert!(result.entities.is_empty());

    // Single-concept schema (subject only): nothing to fill.
    let solo = {
        let mut t = Table::new(Schema::new(["Subject"], "Subject"));
        t.row_for_subject("alpha");
        t
    };
    let result = thor.prepare(&solo).enrich(std::slice::from_ref(&doc));
    assert_eq!(result.slot_stats.inserted, 0);

    // Table whose instances are all out-of-vocabulary.
    let oov = {
        let mut t = Table::new(Schema::new(["Subject", "Concept"], "Subject"));
        t.fill_slot("alpha", "Concept", "zzyzx");
        t
    };
    let _ = thor.prepare(&oov).enrich(&[doc]);
}

#[test]
fn empty_vector_store() {
    let thor = Thor::new(VectorStore::new(8), ThorConfig::with_tau(0.5));
    let result = thor
        .prepare(&small_table())
        .enrich(&[Document::new("d", "alpha beta gamma.")]);
    assert!(
        result.entities.is_empty(),
        "no vectors, no semantic matches"
    );
}

#[test]
fn huge_single_token_document() {
    let thor = Thor::new(small_store(), ThorConfig::with_tau(0.5));
    let text = "a".repeat(100_000);
    let _ = thor
        .prepare(&small_table())
        .enrich(&[Document::new("d", text)]);
}

#[test]
fn many_tiny_documents() {
    let thor = Thor::new(small_store(), ThorConfig::with_tau(0.5));
    let docs: Vec<Document> = (0..500)
        .map(|i| Document::new(format!("d{i}"), "alpha beta."))
        .collect();
    let result = thor.prepare(&small_table()).enrich(&docs);
    // Dedup is per document, so counts scale with the corpus.
    assert!(result.entities.len() <= 500 * 2);
}
