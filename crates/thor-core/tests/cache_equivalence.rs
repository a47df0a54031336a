//! The phrase cache and the thread count are *performance* dials, not
//! semantic ones: for every τ of the paper's sweep, enriching the same
//! table from the same documents must produce a byte-identical CSV
//! serialization and identical entity predictions whether the cache is
//! at its default capacity or disabled (`cache_capacity = 0`), and
//! whether extraction runs on one thread or four sharing one matcher
//! (and therefore one cache).

use thor_core::{Document, ExtractedEntity, PipelineMetrics, Thor, ThorConfig};
use thor_data::csv::to_csv;
use thor_data::{Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};

fn store() -> VectorStore {
    SemanticSpaceBuilder::new(32, 55)
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
                "nervous", "system", "brain", "nerve", "lungs", "skin", "ear", "liver",
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
        .into_store()
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

fn docs() -> Vec<Document> {
    [
        "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
         It may cause unsteadiness and deafness.",
        "Tuberculosis generally damages the lungs and may cause empyema. \
         Severe tuberculosis damages the lungs.",
        "Malaria causes severe fever and may damage the liver.",
        "Acne damages the skin. The tumor grows on the nerve near the ear.",
        // Heavy phrase repetition — the cached run answers most lookups
        // from the cache while the uncached run rescans every time.
        "Acne damages the skin. Acne damages the skin. Acne damages the skin.",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| Document::new(format!("doc{i:02}"), *text))
    .collect()
}

fn enrich(tau: f64, cache_capacity: usize, threads: usize) -> (String, Vec<ExtractedEntity>) {
    let mut config = ThorConfig::with_tau(tau);
    config.cache_capacity = cache_capacity;
    config.threads = threads;
    let thor = Thor::new(store(), config);
    let result = thor.prepare(&table()).enrich(&docs());
    (to_csv(&result.table), result.entities)
}

#[test]
fn enriched_table_is_byte_identical_across_cache_and_threads() {
    for tau10 in 5..=10 {
        let tau = tau10 as f64 / 10.0;
        let (reference_csv, reference_entities) = enrich(tau, 4096, 1);
        assert!(
            reference_csv.contains("Disease"),
            "reference CSV should serialize the schema"
        );
        for (cache_capacity, threads) in [(4096, 4), (0, 1), (0, 4)] {
            let (csv, entities) = enrich(tau, cache_capacity, threads);
            assert_eq!(
                reference_csv, csv,
                "CSV diverged at tau={tau}, cache={cache_capacity}, threads={threads}"
            );
            assert_eq!(
                reference_entities, entities,
                "entities diverged at tau={tau}, cache={cache_capacity}, threads={threads}"
            );
        }
    }
}

#[test]
fn attached_metrics_report_cache_traffic() {
    let thor = Thor::new(store(), ThorConfig::with_tau(0.6));
    let metrics = PipelineMetrics::new();
    let engine = thor.prepare(&table()).with_metrics(metrics.clone());
    engine.enrich(&docs());
    let snap = metrics.snapshot();
    let (hits, misses) = (snap.count("cache.hit"), snap.count("cache.miss"));
    assert!(
        hits + misses > 0,
        "enrichment should consult the phrase cache"
    );
    assert!(hits > 0, "repeated phrases should hit the cache");
    // The counters are the attached engine's own cache traffic: it
    // starts with a fresh cache, so they agree with the cache's stats.
    let stats = engine.matcher().cache_stats();
    assert_eq!((hits, misses), (stats.hits, stats.misses));
}
