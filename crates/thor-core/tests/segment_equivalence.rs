//! Segmentation through the frozen [`SubjectIndex`] is exactly the
//! per-document scan it replaced. The oracle below is that scan: every
//! subject key normalized per call, one `format!` + substring search per
//! (sentence, subject), and one `try_similarity` per subject in the
//! semantic fallback. Generated subject lists carry overlapping keys
//! (`Neuroma` / `Acoustic Neuroma`), duplicate normalized keys (`Acne` /
//! `ACNE.`), equal-length ties, out-of-vocabulary, non-ASCII and
//! mixed-case names; sentences are built from the subjects' words plus
//! filler, and every `SegmentationMode` must agree.
//!
//! The one intended difference: a subject whose key normalizes to
//! nothing (`"***"`, as outer ASCII punctuation is stripped) used to be
//! "mentioned" by every sentence that also normalizes to nothing. The
//! oracle skips empty keys so the comparison covers everything else;
//! `empty_keys_are_the_one_intended_change` shows the old behaviour.

use proptest::prelude::*;
use thor_core::segment::{segment, SubjectIndex};
use thor_core::{Document, SegmentationMode};
use thor_embed::SemanticSpaceBuilder;
use thor_match::{MatcherConfig, SimilarityMatcher};
use thor_text::{normalize_phrase, split_sentences};

/// Subject-name words: in-vocabulary, out-of-vocabulary, non-ASCII.
const NAME_WORDS: [&str; 12] = [
    "acoustic",
    "neuroma",
    "acne",
    "gout",
    "lupus",
    "tuberculosis",
    "zyxoma",
    "ölkrankheit",
    "σοφια",
    "déjà",
    "straße",
    "i̇zmir",
];
/// Sentence filler, partly in the vocabulary.
const FILLER: [&str; 8] = [
    "the", "lungs", "nerve", "grows", "damages", "skin", "often", "qwerty",
];
const MODES: [SegmentationMode; 3] = [
    SegmentationMode::MentionCarryForward,
    SegmentationMode::MentionOnly,
    SegmentationMode::SemanticOnly,
];

fn matcher() -> SimilarityMatcher {
    let store = SemanticSpaceBuilder::new(16, 11)
        .spread(0.5)
        .topic("disease")
        .topic("anatomy")
        .words(
            "disease",
            [
                "acoustic",
                "neuroma",
                "acne",
                "gout",
                "lupus",
                "tuberculosis",
            ],
        )
        .words("anatomy", ["lungs", "nerve", "skin", "σοφια"])
        .generic_words(["the", "grows", "damages", "often"])
        .build()
        .into_store();
    let concepts = vec![(
        "Disease".to_string(),
        vec!["Tuberculosis".to_string(), "Acoustic Neuroma".to_string()],
    )];
    SimilarityMatcher::fine_tune(&concepts, store, MatcherConfig::with_tau(0.8))
}

/// The per-document segmentation the index replaced, with empty keys
/// excluded from mentions when `skip_empty_keys` is set.
fn oracle(
    doc: &Document,
    subjects: &[String],
    matcher: &SimilarityMatcher,
    mode: SegmentationMode,
    skip_empty_keys: bool,
) -> Vec<(String, String, usize)> {
    let keyed: Vec<(String, String)> = subjects
        .iter()
        .map(|s| (s.clone(), normalize_phrase(s)))
        .collect();
    let mentioned = |sentence: &str| {
        let norm = format!(" {} ", normalize_phrase(sentence));
        keyed
            .iter()
            .filter(|(_, key)| !(skip_empty_keys && key.is_empty()))
            .filter(|(_, key)| norm.contains(&format!(" {key} ")))
            .max_by_key(|(_, key)| key.len())
            .map(|(display, _)| display.clone())
    };
    let semantic = |sentence: &str| {
        keyed
            .iter()
            .filter_map(|(display, key)| {
                matcher
                    .try_similarity(sentence, key)
                    .map(|sim| (display, sim))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|(_, sim)| *sim >= 0.35)
            .map(|(display, _)| display.clone())
    };
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for (index, sentence) in split_sentences(&doc.text).into_iter().enumerate() {
        let mention = if mode == SegmentationMode::SemanticOnly {
            None
        } else {
            mentioned(&sentence.text)
        };
        let subject = match mention {
            Some(s) => {
                current = Some(s.clone());
                Some(s)
            }
            None => match mode {
                SegmentationMode::MentionCarryForward => {
                    current.clone().or_else(|| semantic(&sentence.text))
                }
                SegmentationMode::MentionOnly => None,
                SegmentationMode::SemanticOnly => semantic(&sentence.text),
            },
        };
        if let Some(subject) = subject {
            out.push((subject, sentence.text, index));
        }
    }
    out
}

fn indexed(
    doc: &Document,
    subjects: &SubjectIndex,
    matcher: &SimilarityMatcher,
    mode: SegmentationMode,
) -> Vec<(String, String, usize)> {
    segment(doc, subjects, matcher, mode)
        .into_iter()
        .map(|s| (s.subject, s.sentence.text, s.index))
        .collect()
}

/// Render a word in one of four casings.
fn cased(word: &str, case: usize) -> String {
    match case % 4 {
        0 => word.to_string(),
        1 => word.to_uppercase(),
        2 => {
            let mut chars = word.chars();
            chars.next().map_or_else(String::new, |c| {
                c.to_uppercase().chain(chars).collect::<String>()
            })
        }
        _ => word
            .chars()
            .enumerate()
            .map(|(i, c)| {
                if i % 2 == 0 {
                    c.to_uppercase().to_string()
                } else {
                    c.to_string()
                }
            })
            .collect(),
    }
}

/// A subject name from raw draws: one to three name words in some
/// casing, optionally wrapped in outer punctuation, or (rarely) a
/// name that normalizes to nothing.
fn subject_name(words: &[usize], case: usize, dressing: usize) -> String {
    if dressing == 7 {
        return "***".to_string();
    }
    let name = words
        .iter()
        .map(|&w| cased(NAME_WORDS[w], case))
        .collect::<Vec<_>>()
        .join(" ");
    match dressing {
        0 => format!("{name}."),
        1 => format!("({name})"),
        2 => format!("  {name}  "),
        _ => name,
    }
}

/// A document from raw draws: each sentence is a run of name words and
/// filler words, in mixed casing, ended by `.`, `!` or `?` — or, now
/// and then, a sentence of bare punctuation.
fn document(sentences: &[(Vec<usize>, usize)]) -> Document {
    let pool: Vec<&str> = NAME_WORDS.iter().chain(FILLER.iter()).copied().collect();
    let text = sentences
        .iter()
        .map(|(words, style)| {
            if words.is_empty() {
                return "*** !!".to_string();
            }
            let body = words
                .iter()
                .enumerate()
                .map(|(i, &w)| cased(pool[w % pool.len()], style + i))
                .collect::<Vec<_>>()
                .join(" ");
            let end = [".", "!", "?"][style % 3];
            format!("{body}{end}")
        })
        .collect::<Vec<_>>()
        .join(" ");
    Document::new("d", text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn indexed_segmentation_equals_the_per_document_scan(
        raw_subjects in prop::collection::vec(
            (prop::collection::vec(0usize..NAME_WORDS.len(), 1..=3), 0usize..4, 0usize..8),
            1..10,
        ),
        raw_doc in prop::collection::vec(
            (prop::collection::vec(0usize..20, 0..9), 0usize..12),
            0..7,
        ),
    ) {
        let m = matcher();
        let subjects: Vec<String> = raw_subjects
            .iter()
            .map(|(words, case, dressing)| subject_name(words, *case, *dressing))
            .collect();
        let index = SubjectIndex::new(&subjects, m.store());
        prop_assert_eq!(index.names(), &subjects[..]);
        let doc = document(&raw_doc);
        for mode in MODES {
            prop_assert_eq!(
                indexed(&doc, &index, &m, mode),
                oracle(&doc, &subjects, &m, mode, true),
                "{:?} on {:?} with {:?}",
                mode,
                doc.text,
                subjects
            );
        }
    }
}

/// The hand-picked shapes the generator is meant to reach, pinned so
/// they are covered whatever the draw.
#[test]
fn named_shapes_agree_with_the_scan() {
    let m = matcher();
    let subjects: Vec<String> = [
        "Neuroma",
        "Acoustic Neuroma",
        "Acne",
        "ACNE.",
        "Gout",
        "Lupus Acne",
        "Straße",
        "ΣΟΦΙΑ",
        "Zyxoma",
        "—",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let index = SubjectIndex::new(&subjects, m.store());
    let docs = [
        "The acoustic neuroma grows. Neuroma often damages the nerve.",
        "Acne and gout. GOUT and acne! lupus acne grows on the skin?",
        "The lungs often grows. STRASSE damages straße. σοφια is here.",
        "qwerty qwerty. The nerve grows. ACOUSTIC NEUROMA! the skin.",
        "Zyxoma damages the lungs. it often grows. — !",
        "",
    ];
    for text in docs {
        let doc = Document::new("d", text);
        for mode in MODES {
            assert_eq!(
                indexed(&doc, &index, &m, mode),
                oracle(&doc, &subjects, &m, mode, true),
                "{mode:?} on {text:?}"
            );
        }
    }
}

/// The old scan attributed punctuation-only sentences to a subject
/// whose key normalizes to nothing; the index never does.
#[test]
fn empty_keys_are_the_one_intended_change() {
    let m = matcher();
    let subjects = vec!["***".to_string(), "Acne".to_string()];
    let index = SubjectIndex::new(&subjects, m.store());
    let doc = Document::new("d", "Acne grows. *** !!");
    let mode = SegmentationMode::MentionOnly;
    let old = oracle(&doc, &subjects, &m, mode, false);
    assert!(
        old.iter().any(|(subject, _, _)| subject == "***"),
        "{old:?}"
    );
    let new = indexed(&doc, &index, &m, mode);
    assert_eq!(new, oracle(&doc, &subjects, &m, mode, true));
    assert!(
        new.iter().all(|(subject, _, _)| subject == "Acne"),
        "{new:?}"
    );
}
