//! Thread-count determinism: `PreparedEngine::extract` must produce
//! *identical* output — every field of every entity, in the same order
//! — no matter how many worker threads process the corpus.

use thor_core::{Document, Thor, ThorConfig};
use thor_data::{Schema, Table};
use thor_embed::SemanticSpaceBuilder;

/// A medical semantic space with enough vocabulary that documents
/// produce several entities each, including repeated phrases across
/// documents (the dedup-tie-break stress case).
fn thor(tau: f64) -> Thor {
    let store = SemanticSpaceBuilder::new(32, 77)
        .spread(0.4)
        .topic("disease")
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words(
            "disease",
            ["tuberculosis", "acne", "neuroma", "acoustic", "malaria"],
        )
        .words(
            "anatomy",
            [
                "nervous", "system", "brain", "nerve", "lungs", "skin", "ear", "liver", "spine",
            ],
        )
        .words(
            "complication",
            [
                "cancer",
                "tumor",
                "unsteadiness",
                "empyema",
                "deafness",
                "fever",
                "seizure",
            ],
        )
        .generic_words([
            "slow-growing",
            "grows",
            "damage",
            "damages",
            "severe",
            "causes",
        ])
        .build()
        .into_store();
    Thor::new(store, ThorConfig::with_tau(tau))
}

fn table() -> Table {
    let mut table = Table::new(Schema::new(
        ["Disease", "Anatomy", "Complication"],
        "Disease",
    ));
    table.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
    table.fill_slot("Acne", "Anatomy", "skin");
    table.fill_slot("Acne", "Complication", "skin cancer");
    table.fill_slot("Malaria", "Complication", "fever");
    table.row_for_subject("Tuberculosis");
    table
}

fn corpus() -> Vec<Document> {
    let sentences = [
        "Acoustic Neuroma is a slow-growing non-cancerous brain tumor.",
        "It may cause unsteadiness and deafness.",
        "Tuberculosis generally damages the lungs and may cause empyema.",
        "Malaria causes severe fever and may damage the liver.",
        "Acne damages the skin.",
        "The tumor grows on the nerve near the ear.",
        "Severe tuberculosis may cause a seizure.",
    ];
    // 24 documents cycling through overlapping sentence windows, so the
    // same (concept, phrase) pairs recur across documents and within
    // them — worker partitioning must not be observable in the output.
    (0..24)
        .map(|i| {
            let a = i % sentences.len();
            let b = (i * 3 + 1) % sentences.len();
            let c = (i * 5 + 2) % sentences.len();
            Document::new(
                format!("doc{i:02}"),
                format!("{} {} {}", sentences[a], sentences[b], sentences[c]),
            )
        })
        .collect()
}

#[test]
fn extract_is_identical_across_thread_counts() {
    let table = table();
    let docs = corpus();
    let baseline = thor(0.6);
    let (sequential, _) = baseline.prepare(&table).extract(&docs);
    assert!(
        sequential.len() >= 10,
        "corpus too weak to exercise determinism: {} entities",
        sequential.len()
    );

    for threads in [2, 4, 8] {
        let mut config = baseline.config().clone();
        config.threads = threads;
        let parallel = Thor::new(baseline.store().clone(), config);
        let (entities, _) = parallel.prepare(&table).extract(&docs);
        assert_eq!(
            sequential, entities,
            "threads=1 and threads={threads} must produce identical entities"
        );
    }
}

#[test]
fn extract_is_stable_across_repeated_runs() {
    let table = table();
    let docs = corpus();
    let mut config = ThorConfig::with_tau(0.6);
    config.threads = 4;
    let t = thor(0.6);
    let parallel = Thor::new(t.store().clone(), config);
    let (first, _) = parallel.prepare(&table).extract(&docs);
    for _ in 0..3 {
        let (again, _) = parallel.prepare(&table).extract(&docs);
        assert_eq!(first, again, "repeated parallel runs must be bit-stable");
    }
}

#[test]
fn enrich_tables_identical_across_thread_counts() {
    let table = table();
    let docs = corpus();
    let sequential = thor(0.6);
    let batch = sequential.prepare(&table).enrich(&docs);
    let mut config = sequential.config().clone();
    config.threads = 4;
    let parallel = Thor::new(sequential.store().clone(), config)
        .prepare(&table)
        .enrich(&docs);
    assert_eq!(batch.entities, parallel.entities);
    assert_eq!(batch.slot_stats, parallel.slot_stats);
    assert_eq!(
        batch.table.instance_count(),
        parallel.table.instance_count()
    );
    for subject in batch.table.subjects() {
        let b = batch.table.get_row(subject).unwrap();
        let p = parallel.table.get_row(subject).unwrap();
        for i in 0..b.arity() {
            let mut bv: Vec<&str> = b.cell(i).values().collect();
            let mut pv: Vec<&str> = p.cell(i).values().collect();
            bv.sort_unstable();
            pv.sort_unstable();
            assert_eq!(bv, pv, "cell ({subject}, {i}) diverged");
        }
    }
}
