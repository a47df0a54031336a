//! The phrase memo is a performance dial, not a semantic one. An engine
//! matches and refines each distinct noun phrase once and answers
//! repeats from its memo. That must not change a byte of output or a
//! metric total, whatever the memo's state (cold, warm, disabled) and
//! the thread count. Derivations that change the matcher or the
//! configuration must start with an empty memo, so no outcome memoized
//! under one engine serves another.

use thor_core::{entities_tsv, Document, PipelineMetrics, PreparedEngine, Thor};
use thor_core::{ExtractedEntity, ThorConfig};
use thor_data::csv::to_csv;
use thor_data::{Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};

fn store() -> VectorStore {
    SemanticSpaceBuilder::new(32, 91)
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
        .generic_words(["slow-growing", "grows", "damage", "damages", "severe"])
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

/// Documents whose noun phrases repeat within and across documents,
/// in different cases, so most lookups are memo hits.
fn docs() -> Vec<Document> {
    [
        "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
         It may cause unsteadiness and deafness.",
        "Tuberculosis generally damages the lungs and may cause empyema. \
         Severe tuberculosis damages the lungs.",
        "Malaria causes severe fever and may damage the liver. \
         The fever may damage the liver.",
        "Acne damages the skin. The tumor grows on the nerve near the ear.",
        "Acne damages the skin. Acne damages the skin. The skin may show skin cancer.",
        "Acoustic Neuroma grows on the nerve. The brain tumor may cause deafness.",
        // Distinct phrases sharing words, whose winners differ.
        "Tuberculosis causes nerve damage. Malaria causes liver damage. \
         Acne causes skin damage. Tuberculosis causes nerve damage.",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| Document::new(format!("doc{i:02}"), *text))
    .collect()
}

fn config(cache_capacity: usize, threads: usize) -> ThorConfig {
    let mut config = ThorConfig::with_tau(0.6);
    config.cache_capacity = cache_capacity;
    config.threads = threads;
    config
}

fn engine(config: ThorConfig, metrics: Option<&PipelineMetrics>) -> PreparedEngine {
    let engine = Thor::new(store(), config).prepare(&table());
    match metrics {
        Some(m) => engine.with_metrics(m.clone()),
        None => engine,
    }
}

/// The enriched CSV and the entity TSV: the bytes `thor enrich` writes.
fn outputs(engine: &PreparedEngine) -> (String, String) {
    let result = engine.enrich(&docs());
    (to_csv(&result.table), entities_tsv(&result.entities))
}

fn extract(engine: &PreparedEngine) -> Vec<ExtractedEntity> {
    engine.extract(&docs()).0
}

#[test]
fn warm_engine_output_is_byte_identical_to_a_cold_one() {
    // The reference never memoizes: every phrase is matched and refined.
    let cold = outputs(&engine(config(0, 1), None));
    assert!(!cold.1.is_empty(), "the corpus should yield entities");
    for threads in [1, 4] {
        let metrics = PipelineMetrics::new();
        let warm = engine(config(4096, threads), Some(&metrics));
        assert_eq!(outputs(&warm), cold, "first pass, threads={threads}");
        let first = metrics.snapshot();
        assert!(first.count("phrase_memo.hit") > 0, "repeats should hit");
        assert_eq!(outputs(&warm), cold, "second pass, threads={threads}");
        // The second pass meets only phrases the first one memoized.
        let second = metrics.snapshot();
        assert_eq!(
            second.count("phrase_memo.miss"),
            first.count("phrase_memo.miss")
        );
        assert_eq!(
            second.count("phrase_memo.hit") - first.count("phrase_memo.hit"),
            second.count("noun_phrases") - first.count("noun_phrases")
        );
    }
}

#[test]
fn metric_totals_do_not_depend_on_the_memo_or_threads() {
    const TOTALS: [&str; 6] = [
        "noun_phrases",
        "subphrases",
        "candidates",
        "refine.scored",
        "refine.pruned",
        "entities",
    ];
    let totals = |cache_capacity: usize, threads: usize| {
        let metrics = PipelineMetrics::new();
        let engine = engine(config(cache_capacity, threads), Some(&metrics));
        // Two passes: the second is all memo hits when the memo is on.
        outputs(&engine);
        outputs(&engine);
        let snap = metrics.snapshot();
        let hits = snap.count("phrase_memo.hit");
        let traffic = hits + snap.count("phrase_memo.miss");
        if cache_capacity == 0 {
            assert_eq!(traffic, 0, "a disabled memo records no traffic");
        } else {
            assert_eq!(traffic, snap.count("noun_phrases"));
            assert!(hits * 2 >= traffic, "the second pass should hit");
        }
        TOTALS.map(|name| (name, snap.count(name)))
    };
    let reference = totals(4096, 1);
    assert!(reference.iter().all(|&(_, n)| n > 0), "{reference:?}");
    for (cache_capacity, threads) in [(4096, 4), (0, 1), (0, 4)] {
        assert_eq!(
            totals(cache_capacity, threads),
            reference,
            "cache={cache_capacity}, threads={threads}"
        );
    }
}

#[test]
fn with_threads_shares_the_memo_and_other_derivations_start_empty() {
    let base = engine(config(4096, 1), None);
    let expected = extract(&base);
    let warm = base.phrase_memo().stats();
    assert!(warm.len > 0 && warm.misses > 0);

    let threaded = base.with_threads(4);
    assert_eq!(threaded.phrase_memo().stats(), warm);
    assert_eq!(extract(&threaded), expected);
    let after = base.phrase_memo().stats();
    assert_eq!(
        after.misses, warm.misses,
        "a shared memo misses nothing new"
    );
    assert!(after.hits > warm.hits);

    let derived = [
        ("with_tau", base.with_tau(base.tau())),
        ("with_metrics", base.with_metrics(PipelineMetrics::new())),
    ];
    for (name, engine) in derived {
        let stats = engine.phrase_memo().stats();
        assert_eq!(
            (stats.len, stats.hits, stats.misses),
            (0, 0, 0),
            "{name} must start empty"
        );
        assert_eq!(extract(&engine), expected, "{name}");
        assert_eq!(engine.phrase_memo().stats().misses, warm.misses, "{name}");
    }
    // Deriving never touched the source's memo.
    assert_eq!(base.phrase_memo().stats().len, warm.len);
}
