//! Refinement runs one path — the allocation-free kernels with the
//! score-bound early abandon — and this suite proves it equal to the
//! oracle `refine_candidates_reference` (the documented reference
//! measures, every candidate scored) on every noun phrase the fixture
//! corpus yields: same winner, same score bits. End to end, the
//! enriched CSV and the entity predictions are byte-identical on one
//! thread or four, cached or uncached. This is the pipeline-level
//! counterpart of the per-function bit-equality proptests in
//! `thor_text::kernels`.

use thor_core::extract::{refine_candidates, refine_candidates_reference, RefineOutcome};
use thor_core::{Document, ExtractedEntity, Thor, ThorConfig};
use thor_data::csv::to_csv;
use thor_data::{Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};
use thor_index::CandidateEntity;
use thor_nlp::{chunk_sentence, Lexicon, RuleTagger};
use thor_obs::PipelineMetrics;
use thor_text::{split_sentences, tokenize, ScoreScratch};

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
        "Acne damages the skin. Acne damages the skin. Acne damages the skin.",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| Document::new(format!("doc{i:02}"), *text))
    .collect()
}

fn enrich(tau: f64, threads: usize, cache_capacity: usize) -> (String, Vec<ExtractedEntity>) {
    let mut config = ThorConfig::with_tau(tau);
    config.threads = threads;
    config.cache_capacity = cache_capacity;
    let thor = Thor::new(store(), config);
    let result = thor.enrich(&table(), &docs());
    (to_csv(&result.table), result.entities)
}

/// Scores compared down to the bit, not just `==`: the whole point of
/// the kernel path is exact reproduction of the reference arithmetic.
fn assert_winners_bit_equal(
    oracle: &Option<(CandidateEntity, f64)>,
    kernel: &RefineOutcome,
    label: &str,
) {
    match (oracle, &kernel.best) {
        (None, None) => {}
        (Some((oc, os)), Some((kc, ks))) => {
            assert_eq!(oc, kc, "winner diverged: {label}");
            assert_eq!(os.to_bits(), ks.to_bits(), "score bits diverged: {label}");
        }
        other => panic!("winner presence diverged: {label}: {other:?}"),
    }
}

/// Every noun phrase of the fixture corpus, as the pipeline chunks it.
fn corpus_noun_phrases() -> Vec<String> {
    let tagger = RuleTagger::default();
    docs()
        .iter()
        .flat_map(|doc| split_sentences(&doc.text))
        .flat_map(|sentence| {
            let tokens = tokenize(&sentence.text);
            let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
            chunk_sentence(&words, &tagger)
                .into_iter()
                .map(|np| np.text)
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn kernel_winner_equals_the_oracle_on_every_corpus_phrase() {
    let phrases = corpus_noun_phrases();
    assert!(phrases.len() > 10, "the corpus should yield noun phrases");
    let lexicon = Lexicon::english();
    let anchor = |w: &str| lexicon.tag_of(w, false).is_nominal();
    let mut scratch = ScoreScratch::new();
    for tau10 in [5, 7, 9] {
        let tau = tau10 as f64 / 10.0;
        let config = ThorConfig::with_tau(tau);
        let engine = Thor::new(store(), config.clone()).prepare(&table());
        let matcher = engine.matcher();
        let (mut lists, mut pruned) = (0, 0);
        for phrase in &phrases {
            let candidates = matcher.match_phrase_anchored(phrase, anchor);
            let kernel = refine_candidates(&candidates, matcher, &config, &mut scratch);
            let oracle = refine_candidates_reference(&candidates, &config.weights);
            let label = format!("tau={tau}, phrase={phrase:?}");
            assert_winners_bit_equal(&oracle, &kernel, &label);
            // The abandon skips work, never candidates.
            assert_eq!(
                kernel.scored + kernel.pruned,
                candidates.len() as u64,
                "{label}"
            );
            lists += usize::from(!candidates.is_empty());
            pruned += kernel.pruned;
        }
        assert!(lists > 0, "tau={tau}: no phrase matched");
        if tau10 == 5 {
            assert!(pruned > 0, "the corpus should exercise the abandon");
        }
    }
}

#[test]
fn pipeline_output_is_identical_across_threads_and_cache() {
    for tau10 in [5, 7, 9] {
        let tau = tau10 as f64 / 10.0;
        let (reference_csv, reference_entities) = enrich(tau, 1, 4096);
        assert!(
            reference_csv.contains("Disease"),
            "reference CSV should serialize the schema"
        );
        for threads in [1, 4] {
            for cache_capacity in [0, 4096] {
                let (csv, entities) = enrich(tau, threads, cache_capacity);
                let label = format!("tau={tau}, threads={threads}, cache={cache_capacity}");
                assert_eq!(reference_csv, csv, "CSV diverged: {label}");
                assert_eq!(reference_entities.len(), entities.len(), "{label}");
                for (r, g) in reference_entities.iter().zip(&entities) {
                    assert_eq!(r, g, "entity diverged: {label}");
                    assert_eq!(r.score.to_bits(), g.score.to_bits(), "{label}");
                }
            }
        }
    }
}

#[test]
fn refine_counters_account_for_every_candidate() {
    let metrics = PipelineMetrics::new();
    let thor = Thor::new(store(), ThorConfig::with_tau(0.6)).with_metrics(metrics.clone());
    let result = thor.enrich(&table(), &docs());
    let snap = metrics.snapshot();
    let (scored, pruned) = (snap.count("refine.scored"), snap.count("refine.pruned"));
    assert!(scored > 0, "the corpus must exercise refinement");
    assert!(
        !result.entities.is_empty(),
        "the corpus must produce entities"
    );
    // Every matched candidate is either scored or abandoned, memo hits
    // replaying both sides.
    assert_eq!(scored + pruned, snap.count("candidates"));
}

#[test]
fn refine_candidates_handles_foreign_instances() {
    // A matched_instance that is not one of the matcher's embedded
    // seeds exercises the defensive per-call PhraseSyntax fallback;
    // its score must equal the oracle's exactly.
    let thor = Thor::new(store(), ThorConfig::with_tau(0.6));
    let engine = thor.prepare(&table());
    let matcher = engine.matcher();
    let candidates = vec![
        CandidateEntity {
            phrase: "brain tumor".into(),
            concept: "Complication".into(),
            matched_instance: "not a seed phrase".into(),
            semantic_score: 0.9,
            cluster_score: 0.9,
        },
        CandidateEntity {
            phrase: "brain tumor".into(),
            concept: "Complication".into(),
            matched_instance: "skin cancer".into(),
            semantic_score: 0.8,
            cluster_score: 0.8,
        },
    ];
    let config = ThorConfig::with_tau(0.6);
    let kernel = refine_candidates(&candidates, matcher, &config, &mut ScoreScratch::new());
    let oracle = refine_candidates_reference(&candidates, &config.weights);
    assert_winners_bit_equal(&oracle, &kernel, "foreign instance");
    assert_eq!(kernel.scored + kernel.pruned, 2);
}
