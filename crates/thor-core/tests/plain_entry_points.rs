//! The plain entry points' contract on the shared execution core:
//! `PreparedEngine::{extract, enrich}` and `EnrichmentSession::process`
//! process every document (no admission rejection, duplicate ids
//! allowed) and a panic inside a stage reaches the caller as a panic.
//!
//! They, and the resilient entry point serve uses, share the engine's
//! table rows copy-on-write: a one-document request copies only the rows
//! it gives a new value.
//!
//! Every test holds a `scoped_failpoints` guard: the plain entry points
//! evaluate the core's failpoints, so a test arming one must not fire on
//! another test's run.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use thor_core::{
    Document, PipelineMetrics, PreparedEngine, ResilientOptions, RunMode, Thor, ThorConfig,
};
use thor_data::{to_csv, Schema, Table};
use thor_embed::SemanticSpaceBuilder;
use thor_fault::scoped_failpoints;

fn engine() -> (PreparedEngine, Vec<Document>) {
    let store = SemanticSpaceBuilder::new(16, 7)
        .topic("anatomy")
        .words("anatomy", ["lungs", "brain", "skin", "nerve"])
        .generic_words(["damages", "grows"])
        .build()
        .into_store();
    let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
    table.fill_slot("Tuberculosis", "Anatomy", "lungs");
    table.row_for_subject("Acne");
    let docs = vec![
        Document::new("d0", "Tuberculosis damages the lungs and the brain."),
        Document::new("d1", "Acne grows on the skin."),
        Document::new("d2", "Tuberculosis damages the nerve."),
    ];
    let engine = Thor::new(store, ThorConfig::with_tau(0.6)).prepare(&table);
    (engine, docs)
}

#[test]
fn every_document_is_processed_and_duplicate_ids_are_allowed() {
    let _guard = scoped_failpoints("");
    let (engine, docs) = engine();
    let clean = engine.enrich(&docs);
    let mut messy = docs.clone();
    // Admission control would reject these; the plain entry points run them.
    messy.push(docs[0].clone());
    messy.push(Document::new("empty", ""));
    messy.push(Document::new("junk", "\u{FFFD}\u{1}\u{FFFD}\u{2}"));
    for threads in [1, 4] {
        let metrics = PipelineMetrics::new();
        let engine = engine.with_threads(threads).with_metrics(metrics.clone());
        let got = engine.enrich(&messy);
        assert_eq!(got.entities, clean.entities, "threads {threads}");
        assert_eq!(to_csv(&got.table), to_csv(&clean.table));
        assert_eq!(metrics.snapshot().count("docs"), messy.len() as u64);
        assert_eq!(engine.extract(&messy).0, clean.entities);
    }
}

#[test]
fn stage_panics_reach_the_caller_as_panics() {
    let (engine, docs) = engine();
    for threads in [1, 4] {
        let engine = engine.with_threads(threads);
        for site in ["segment", "extract"] {
            let _guard = scoped_failpoints(&format!("{site}:panic@2"));
            let payload = catch_unwind(AssertUnwindSafe(|| engine.enrich(&docs)))
                .expect_err("enrich must panic");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(message.contains("injected panic"), "{message}");
            assert!(message.contains(&format!("at {site}")), "{message}");
        }
        let _guard = scoped_failpoints("extract:panic@1");
        let mut session = engine.session();
        let payload = catch_unwind(AssertUnwindSafe(|| session.process(&docs[0])));
        assert!(payload.is_err(), "session.process must panic");
    }
}

#[test]
fn a_one_document_request_copies_only_the_rows_it_touches() {
    let _guard = scoped_failpoints("");
    let (engine, mut docs) = engine();
    // Its one entity repeats a value the table holds: nothing to copy.
    docs.push(Document::new("dup", "Tuberculosis damages the lungs."));
    let lenient = ResilientOptions {
        mode: RunMode::Lenient,
        ..ResilientOptions::default()
    };
    let mut copied_total = 0;
    for doc in &docs {
        let one = std::slice::from_ref(doc);
        let plain = engine.enrich(one);
        let served = engine.enrich_resilient(one, &lenient).unwrap().result;
        for result in [plain, served] {
            assert_eq!(result.table.len(), engine.table().len());
            let subjects: HashSet<&str> =
                result.entities.iter().map(|e| e.subject.as_str()).collect();
            let mut copied = 0;
            for (mine, shared) in result.table.rows().iter().zip(engine.table().rows()) {
                if !Arc::ptr_eq(mine, shared) {
                    assert_ne!(mine, shared, "{}: row copied without a new value", doc.id);
                    copied += 1;
                }
            }
            assert!(copied <= subjects.len(), "{}: {copied} rows copied", doc.id);
            if doc.id == "dup" {
                assert!(!result.entities.is_empty() && copied == 0);
            }
            copied_total += copied;
        }
    }
    assert!(copied_total > 0, "no document filled a slot");
}
