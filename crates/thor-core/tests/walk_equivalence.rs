//! Extraction reads each sentence once: segmentation walks it into
//! tokens, lowercase forms and normalized words, and extraction tags and
//! chunks the walked tokens. This must be exactly the path built from
//! the public layer functions, which re-read every sentence:
//! [`segment`]'s owned sentences, [`tokenize`] and [`chunk_sentence`]
//! on each, then matching, [`refine_candidates`] and the documented
//! dedup order. Entities must agree one for one, and so must the
//! `segments`, `sentences` and `noun_phrases` counts.
//!
//! Documents mix subject mentions in every casing, sentences that
//! mention no subject (before and after the first mention, so carry
//! forward, the semantic fallback and dropped sentences all occur),
//! non-ASCII words and punctuation, and empty sentences; every
//! `SegmentationMode` runs.

use std::cmp::Ordering;

use proptest::prelude::*;
use thor_core::segment::segment;
use thor_core::{
    refine_candidates, Document, ExtractedEntity, PipelineMetrics, PreparedEngine,
    SegmentationMode, Thor, ThorConfig,
};
use thor_data::{Schema, Table};
use thor_embed::{SemanticSpaceBuilder, VectorStore};
use thor_match::CandidateSource;
use thor_nlp::{chunk_sentence, Lexicon, RuleTagger};
use thor_text::{tokenize, ScoreScratch};

const MODES: [SegmentationMode; 3] = [
    SegmentationMode::MentionCarryForward,
    SegmentationMode::MentionOnly,
    SegmentationMode::SemanticOnly,
];

fn store() -> VectorStore {
    SemanticSpaceBuilder::new(32, 17)
        .spread(0.4)
        .topic("disease")
        .topic("anatomy")
        .correlated_topic("complication", "anatomy", 0.25)
        .words("disease", ["tuberculosis", "acne", "neuroma", "acoustic"])
        .words(
            "anatomy",
            [
                "nervous",
                "system",
                "brain",
                "nerve",
                "lungs",
                "skin",
                "σοφια",
            ],
        )
        .words(
            "complication",
            ["cancer", "tumor", "deafness", "fever", "straße"],
        )
        .generic_words(["slow-growing", "grows", "damages", "severe", "often"])
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
    table.fill_slot("Tuberculosis", "Complication", "fever");
    table.row_for_subject("Σοφια Déjà");
    table
}

fn engine(mode: SegmentationMode, metrics: &PipelineMetrics) -> PreparedEngine {
    let mut config = ThorConfig::with_tau(0.6);
    config.segmentation = mode;
    Thor::new(store(), config)
        .prepare(&table())
        .with_metrics(metrics.clone())
}

/// `(segments, sentences, noun_phrases)`.
type Counts = (u64, u64, u64);

/// The layer-function path, with its counts.
fn reference(engine: &PreparedEngine, docs: &[Document]) -> (Vec<ExtractedEntity>, Counts) {
    let config = engine.config();
    let matcher = engine.matcher();
    let tagger = RuleTagger::default();
    let lexicon = Lexicon::english();
    let anchor = |w: &str| lexicon.tag_of(w, false).is_nominal();
    let mut scratch = ScoreScratch::new();
    let mut counts = (0, 0, 0);
    let mut entities = Vec::new();
    for doc in docs {
        let segments = segment(doc, engine.subjects(), matcher, config.segmentation);
        counts.0 += segments.len() as u64;
        for seg in segments {
            let tokens = tokenize(&seg.sentence.text);
            let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
            if words.is_empty() {
                continue;
            }
            counts.1 += 1;
            let phrases = chunk_sentence(&words, &tagger);
            counts.2 += phrases.len() as u64;
            for phrase in phrases {
                let candidates = matcher.candidates_anchored(&phrase.text, &anchor);
                let outcome = refine_candidates(&candidates, matcher, config, &mut scratch);
                if let Some((candidate, score)) = outcome.best {
                    entities.push(ExtractedEntity {
                        subject: seg.subject.clone(),
                        concept: candidate.concept,
                        phrase: candidate.phrase,
                        score,
                        matched_instance: candidate.matched_instance,
                        doc_id: doc.id.clone(),
                        sentence_index: seg.index,
                    });
                }
            }
        }
    }
    entities.sort_by(dedup_order);
    entities.dedup_by(|next, first| next.key() == first.key());
    (entities, counts)
}

/// The documented dedup order: per (document, concept, phrase) key the
/// best score first, every other field breaking ties.
fn dedup_order(a: &ExtractedEntity, b: &ExtractedEntity) -> Ordering {
    a.key()
        .cmp(&b.key())
        .then_with(|| b.score.total_cmp(&a.score))
        .then_with(|| a.phrase.cmp(&b.phrase))
        .then_with(|| a.matched_instance.cmp(&b.matched_instance))
        .then_with(|| a.subject.cmp(&b.subject))
        .then_with(|| a.sentence_index.cmp(&b.sentence_index))
}

/// Production extraction and the reference agree on `docs` in every
/// segmentation mode, and the corpus yields entities in at least one.
fn assert_paths_agree(docs: &[Document]) {
    for mode in MODES {
        let metrics = PipelineMetrics::new();
        let engine = engine(mode, &metrics);
        let (got, _) = engine.extract(docs);
        let (expected, counts) = reference(&engine, docs);
        assert_eq!(got, expected, "{mode:?} on {docs:?}");
        let snap = metrics.snapshot();
        assert_eq!(
            (
                snap.count("segments"),
                snap.count("sentences"),
                snap.count("noun_phrases")
            ),
            counts,
            "{mode:?} counts on {docs:?}"
        );
    }
}

/// Words a sentence is drawn from: subject mentions in several casings,
/// content and filler words, non-ASCII words and punctuation.
const WORDS: &[&str] = &[
    "Acoustic Neuroma",
    "ACOUSTIC NEUROMA",
    "acoustic",
    "Acne",
    "ACNE",
    "Tuberculosis",
    "tuberculosis,",
    "σοφια déjà",
    "ΣΟΦΙΑ DÉJÀ",
    "the",
    "The",
    "a",
    "it",
    "It",
    "and",
    "damages",
    "DAMAGES",
    "grows",
    "on",
    "nervous system",
    "brain tumor",
    "skin cancer",
    "lungs",
    "slow-growing",
    "severe",
    "fever",
    "deafness",
    "nerve",
    "Straße",
    "STRAẞE",
    "ΟΔΟΣ",
    "\u{212A}NOWS",
    "(skin)",
    "“brain”",
    "—",
    "qwerty",
    "often",
];

/// A document from raw draws: sentences of drawn words, each ended by
/// a terminator, and now and then an empty one.
fn document(id: usize, sentences: &[(Vec<usize>, usize)]) -> Document {
    let text = sentences
        .iter()
        .map(|(words, end)| {
            let body = words
                .iter()
                .map(|&w| WORDS[w % WORDS.len()])
                .collect::<Vec<_>>()
                .join(" ");
            format!("{body}{}", [".", "!", "?", ".”", "\n", ". ."][end % 6])
        })
        .collect::<Vec<_>>()
        .join(" ");
    Document::new(format!("doc{id}"), text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn walked_extraction_equals_the_layer_functions(
        raw in prop::collection::vec(
            prop::collection::vec((prop::collection::vec(0usize..64, 0..10), 0usize..6), 0..6),
            1..4,
        ),
    ) {
        let docs: Vec<Document> = raw
            .iter()
            .enumerate()
            .map(|(id, sentences)| document(id, sentences))
            .collect();
        assert_paths_agree(&docs);
    }
}

/// Hand-picked documents covering what the generator reaches only by
/// chance, and a check that the comparison is not vacuous.
#[test]
fn named_documents_agree() {
    let docs: Vec<Document> = [
        "It grows on the nerve. Acoustic Neuroma is a slow-growing brain tumor. \
         It may cause deafness and severe fever.",
        "qwerty qwerty. ACNE damages the skin! The skin may show skin cancer?",
        "ΣΟΦΙΑ DÉJÀ damages the nervous system. STRAẞE grows. “Brain tumor.” Then fever.",
        "Tuberculosis damages the lungs.\n\nIt causes fever. — . ! ?",
        "",
    ]
    .iter()
    .enumerate()
    .map(|(i, text)| Document::new(format!("named{i}"), *text))
    .collect();
    assert_paths_agree(&docs);
    let metrics = PipelineMetrics::new();
    let (entities, _) = engine(SegmentationMode::MentionCarryForward, &metrics).extract(&docs);
    assert!(!entities.is_empty(), "the corpus should yield entities");
}
