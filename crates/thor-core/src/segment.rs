//! Phase ① — document segmentation.
//!
//! "The goal of segmentation is to split the given document into
//! sentences and associate each sentence with an instance of the subject
//! concept (or with none if the sentence is not related)." Mentions of a
//! subject instance anchor a sentence; because documents overwhelmingly
//! talk about one subject at a time, subsequent sentences inherit the
//! last anchor (carry-forward); when nothing anchors a sentence we fall
//! back to semantic matching against the subject instances.
//!
//! Each sentence is read once: one [`WordWalk`] pass yields its
//! normalized words, which the mention probe looks up and the semantic
//! fallback embeds, and its tokens with their lowercase forms, which
//! extraction tags and chunks.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;

use thor_embed::{mean_of_rows, VectorStore};
use thor_index::LaneRows;
use thor_match::SimilarityMatcher;
use thor_text::{normalize_phrase, sentence_spans, GramBuildHasher, Sentence, WordWalk};

use crate::config::SegmentationMode;
use crate::document::Document;

/// Minimum similarity for the semantic fallback to attribute a
/// sentence at all.
const MIN_SIM: f64 = 0.35;

/// A sentence attributed to a subject instance.
#[derive(Debug, Clone)]
pub struct SegmentedSentence {
    /// The owning subject instance `c*` (table display form).
    pub subject: String,
    /// The sentence.
    pub sentence: Sentence,
    /// Index of the sentence within its document.
    pub index: usize,
}

/// The table's subject instances, frozen for segmentation.
///
/// Built once per engine (prepare, artifact load, a delta apply that
/// adds subjects) and shared by every derivation, including a delta
/// apply that adds none; it is derived state, so it is never persisted
/// and plays no part in the fingerprint.
///
/// * **Mentions.** Each normalized subject key maps to its subject. A
///   sentence mentions a subject when the key's words occur
///   contiguously among the sentence's normalized words, so a sentence
///   is normalized once, by the segmentation walk, and its word n-grams
///   are hash lookups. The map also holds every key's leading words
///   (`acoustic` for `acoustic neuroma`), so the n-grams from one start
///   word grow only while they can still become a key: most words cost
///   one lookup of the word as the walk holds it, and only a growing
///   n-gram is joined into a key buffer. When
///   several subjects are mentioned, the longest normalized key in
///   bytes wins (so `acoustic neuroma` beats `neuroma`); equal lengths
///   go to the later subject in table order; a key shared by several
///   subjects maps to the last of them. A key that normalizes to
///   nothing (`"***"`) is never mentioned.
/// * **Semantic fallback.** Each subject's mean word vector and its
///   norm, frozen at build time into one interleaved copy, so a
///   sentence is scored against every subject four at a time by the
///   lane kernel; out-of-vocabulary subjects have none and are skipped.
#[derive(Debug)]
pub struct SubjectIndex {
    names: Vec<String>,
    /// Keyed through [`thor_text::GramHasher`], as it is probed once
    /// per sentence n-gram and documents never insert into it.
    grams: HashMap<Box<str>, Gram, GramBuildHasher>,
    /// The mean vectors of the in-vocabulary subjects, in table order.
    vectors: LaneRows,
    /// Per row of `vectors`, its subject.
    vector_subjects: Vec<usize>,
}

/// What a normalized word n-gram is to the mention map.
#[derive(Debug, Default, Clone, Copy)]
struct Gram {
    /// The subject whose key this n-gram is: the last in table order
    /// when several subjects share the key.
    subject: Option<usize>,
    /// Whether a longer key starts with this n-gram's words.
    extends: bool,
}

/// A sentence attributed to a subject instance, as the execution core
/// keeps it: where it is, whose it is, which it is, and where its
/// walked tokens are.
#[derive(Debug, Clone)]
pub(crate) struct Attributed {
    /// The sentence's trimmed byte range in the document text.
    pub(crate) range: Range<usize>,
    /// Its subject instance, an index into [`SubjectIndex::names`].
    pub(crate) subject: usize,
    /// Index of the sentence within its document.
    pub(crate) index: usize,
    /// Its tokens' indices in the document's [`WordWalk`].
    pub(crate) tokens: Range<usize>,
}

/// One worker's segmentation buffers, reused across the documents it
/// segments: the document's word walk, its attributed sentences, the
/// joined n-gram key of the mention probe and the semantic fallback's
/// per-subject similarities.
#[derive(Debug, Default)]
pub(crate) struct SegmentScratch {
    pub(crate) walk: WordWalk,
    pub(crate) sentences: Vec<Attributed>,
    key: String,
    sims: Vec<f64>,
}

impl SubjectIndex {
    /// Freeze `subjects` (display form, table order) against `store`,
    /// the vector store the segmenting matcher embeds sentences with.
    pub fn new<S: AsRef<str>>(subjects: impl IntoIterator<Item = S>, store: &VectorStore) -> Self {
        let mut names = Vec::new();
        let mut grams: HashMap<Box<str>, Gram, GramBuildHasher> = HashMap::default();
        let mut vectors = Vec::new();
        let mut vector_subjects = Vec::new();
        for (i, name) in subjects.into_iter().enumerate() {
            let name = name.as_ref();
            let key = normalize_phrase(name);
            if let Some(v) = store.embed_normalized(&key) {
                vectors.push(v);
                vector_subjects.push(i);
            }
            if !key.is_empty() {
                for (at, _) in key.match_indices(' ') {
                    grams.entry(key[..at].into()).or_default().extends = true;
                }
                grams.entry(key.into_boxed_str()).or_default().subject = Some(i);
            }
            names.push(name.to_string());
        }
        SubjectIndex {
            names,
            grams,
            vectors: LaneRows::from_rows(store.dim(), vectors.iter().map(|v| v.as_slice())),
            vector_subjects,
        }
    }

    /// The subject instances, in table order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The subject mentioned by the normalized words `words` of `walk`,
    /// if any, under the tie rule documented on the type. An n-gram of
    /// two or more words is joined into `key`.
    fn mentioned(&self, walk: &WordWalk, words: Range<usize>, key: &mut String) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        let mut consider = |gram: &Gram, len: usize| {
            if let Some(subject) = gram.subject {
                best = best.max(Some((len, subject)));
            }
        };
        for first in words.clone() {
            let word = walk.word(first);
            let Some(gram) = self.grams.get(word) else {
                continue;
            };
            consider(gram, word.len());
            if !gram.extends {
                continue;
            }
            key.clear();
            key.push_str(word);
            for last in first + 1..words.end {
                key.push(' ');
                key.push_str(walk.word(last));
                let Some(gram) = self.grams.get(key.as_str()) else {
                    break;
                };
                consider(gram, key.len());
                if !gram.extends {
                    break;
                }
            }
        }
        best.map(|(_, subject)| subject)
    }

    /// Semantic fallback: the subject whose mean vector is most similar
    /// to the sentence's, if that similarity is meaningful at all; ties
    /// go to the later subject. An out-of-vocabulary sentence carries no
    /// evidence. The sentence's vector is the mean over its normalized
    /// words `words` of `walk`, which are the words
    /// `VectorStore::embed_phrase` would normalize it into, in order, so
    /// the mean is bit-identical to it. Every subject is scored in one
    /// pass of the lane kernel into `sims`; each score is
    /// `thor_embed::cosine`'s arithmetic on the stored norms, so the
    /// scores are bit-identical to it too.
    fn nearest(
        &self,
        walk: &WordWalk,
        words: Range<usize>,
        store: &VectorStore,
        sims: &mut Vec<f64>,
    ) -> Option<usize> {
        let query = mean_of_rows(words.filter_map(|w| store.row_raw(walk.word(w))))?;
        self.vectors.cosines(query.as_slice(), query.norm(), sims);
        let mut best: Option<(usize, f64)> = None;
        for (&subject, &sim) in self.vector_subjects.iter().zip(sims.iter()) {
            if best.is_none_or(|(_, b)| sim.total_cmp(&b) != Ordering::Less) {
                best = Some((subject, sim));
            }
        }
        best.filter(|(_, sim)| *sim >= MIN_SIM)
            .map(|(subject, _)| subject)
    }
}

/// Segment `doc` into `(subject, sentence)` pairs — `SEGMENT(D, R.C*)`
/// of Algorithm 1.
///
/// `subjects` are the table's subject instances, frozen into a
/// [`SubjectIndex`] over `matcher`'s vector store, which powers the
/// semantic fallback. Sentences that cannot be attributed to any
/// subject are dropped. The owned form of what the execution core
/// segments in place: the same walk, each attributed sentence then
/// copied out with its subject's name.
pub fn segment(
    doc: &Document,
    subjects: &SubjectIndex,
    matcher: &SimilarityMatcher,
    mode: SegmentationMode,
) -> Vec<SegmentedSentence> {
    let mut scratch = SegmentScratch::default();
    segment_into(&doc.text, subjects, matcher, mode, &mut scratch);
    scratch
        .sentences
        .iter()
        .map(|s| SegmentedSentence {
            subject: subjects.names[s.subject].clone(),
            sentence: Sentence {
                text: doc.text[s.range.clone()].to_string(),
                start: s.range.start,
                end: s.range.end,
            },
            index: s.index,
        })
        .collect()
}

/// [`segment`] into `scratch`, replacing what it held: each sentence of
/// `text` is split off by [`sentence_spans`] and walked once, its
/// normalized words probe the mention map and feed the semantic
/// fallback, and an attributed sentence
/// keeps its walked tokens for extraction. Unmetered: the execution
/// core wraps each call in the `stage.segment` span and counts the
/// attributed sentences as `segments`.
pub(crate) fn segment_into(
    text: &str,
    subjects: &SubjectIndex,
    matcher: &SimilarityMatcher,
    mode: SegmentationMode,
    scratch: &mut SegmentScratch,
) {
    let SegmentScratch {
        walk,
        sentences,
        key,
        sims,
    } = scratch;
    walk.start(text);
    sentences.clear();
    let store = matcher.store();
    let mut current: Option<usize> = None;

    for (index, range) in sentence_spans(text).enumerate() {
        let walked = walk.walk(text, range.clone());
        let subject = match mode {
            SegmentationMode::SemanticOnly => subjects.nearest(walk, walked.words, store, sims),
            SegmentationMode::MentionOnly => subjects.mentioned(walk, walked.words, key),
            SegmentationMode::MentionCarryForward => {
                if let Some(s) = subjects.mentioned(walk, walked.words.clone(), key) {
                    current = Some(s);
                }
                current.or_else(|| subjects.nearest(walk, walked.words, store, sims))
            }
        };

        if let Some(subject) = subject {
            sentences.push(Attributed {
                range,
                subject,
                index,
                tokens: walked.tokens,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_embed::SemanticSpaceBuilder;
    use thor_match::{MatcherConfig, SimilarityMatcher};

    fn matcher() -> SimilarityMatcher {
        let store = SemanticSpaceBuilder::new(16, 2)
            .topic("disease")
            .words("disease", ["tuberculosis", "neuroma", "acoustic"])
            .generic_words(["tumor", "grows", "lungs"])
            .build()
            .into_store();
        let concepts = vec![(
            "Disease".to_string(),
            vec!["Tuberculosis".to_string(), "Acoustic Neuroma".to_string()],
        )];
        SimilarityMatcher::fine_tune(&concepts, store, MatcherConfig::with_tau(0.8))
    }

    fn index(subjects: &[&str], matcher: &SimilarityMatcher) -> SubjectIndex {
        SubjectIndex::new(subjects, matcher.store())
    }

    fn subjects(matcher: &SimilarityMatcher) -> SubjectIndex {
        index(&["Acoustic Neuroma", "Tuberculosis"], matcher)
    }

    #[test]
    fn fig1_document_segmentation() {
        // Three sentences: first two about Acoustic Neuroma (second via
        // carry-forward), third about Tuberculosis.
        let doc = Document::new(
            "d",
            "Acoustic Neuroma is a slow-growing tumor. It develops on the nerve. \
             Tuberculosis generally damages the lungs.",
        );
        let m = matcher();
        let segs = segment(
            &doc,
            &subjects(&m),
            &m,
            SegmentationMode::MentionCarryForward,
        );
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].subject, "Acoustic Neuroma");
        assert_eq!(segs[1].subject, "Acoustic Neuroma");
        assert_eq!(segs[2].subject, "Tuberculosis");
        assert_eq!(segs[2].index, 2);
    }

    #[test]
    fn mention_only_drops_unanchored() {
        let doc = Document::new("d", "Acoustic Neuroma is a tumor. It grows slowly.");
        let m = matcher();
        let segs = segment(&doc, &subjects(&m), &m, SegmentationMode::MentionOnly);
        assert_eq!(segs.len(), 1);
    }

    #[test]
    fn longest_subject_mention_wins() {
        let m = matcher();
        let subjects = index(&["Acoustic Neuroma", "Neuroma"], &m);
        let doc = Document::new("d", "Acoustic Neuroma is a tumor.");
        let segs = segment(&doc, &subjects, &m, SegmentationMode::MentionOnly);
        assert_eq!(segs[0].subject, "Acoustic Neuroma");
    }

    #[test]
    fn case_insensitive_mentions() {
        let doc = Document::new("d", "TUBERCULOSIS damages the lungs.");
        let m = matcher();
        let segs = segment(&doc, &subjects(&m), &m, SegmentationMode::MentionOnly);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].subject, "Tuberculosis");
    }

    #[test]
    fn empty_document() {
        let doc = Document::new("d", "");
        let m = matcher();
        assert!(segment(&doc, &subjects(&m), &m, SegmentationMode::default()).is_empty());
    }

    #[test]
    fn semantic_fallback_attributes_related_sentence() {
        // No exact mention, but "tuberculosis" appears as a plain word
        // variant the semantic matcher can resolve ("tuberculosis" is in
        // the vocabulary and equals the subject's embedding).
        let doc = Document::new("d", "Severe tuberculosis cases need treatment.");
        // Note: mention matching would also hit here; force semantic-only.
        let m = matcher();
        let segs = segment(&doc, &subjects(&m), &m, SegmentationMode::SemanticOnly);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].subject, "Tuberculosis");
    }

    #[test]
    fn equal_length_mentions_prefer_the_later_subject() {
        // `acne` and `gout` are both four bytes: the later subject in
        // table order wins, whichever the sentence names first.
        let m = matcher();
        let doc = Document::new("d", "Acne and gout are both common.");
        let subjects = index(&["Acne", "Gout"], &m);
        let segs = segment(&doc, &subjects, &m, SegmentationMode::MentionOnly);
        assert_eq!(segs[0].subject, "Gout");
        let subjects = index(&["Gout", "Acne"], &m);
        let segs = segment(&doc, &subjects, &m, SegmentationMode::MentionOnly);
        assert_eq!(segs[0].subject, "Acne");
        // A duplicate normalized key maps to its last subject.
        let subjects = index(&["Acne", "Gout", "ACNE."], &m);
        let doc = Document::new("d", "Acne is common.");
        let segs = segment(&doc, &subjects, &m, SegmentationMode::MentionOnly);
        assert_eq!(segs[0].subject, "ACNE.");
    }

    /// The semantic fallback's answer and scores as the per-subject
    /// fold computes them: each subject's `cosine` against the
    /// sentence's embedding, the last maximum, the similarity floor.
    fn fold_nearest(
        subjects: &[&str],
        store: &VectorStore,
        sentence: &str,
    ) -> (Option<usize>, Vec<u64>) {
        let Some(query) = store.embed_phrase(sentence) else {
            return (None, Vec::new());
        };
        let qn = query.norm();
        let scored: Vec<(usize, f64)> = subjects
            .iter()
            .enumerate()
            .filter_map(|(i, subject)| {
                let v = store.embed_phrase(&normalize_phrase(subject))?;
                let n = v.norm();
                let sim = if qn == 0.0 || n == 0.0 {
                    0.0
                } else {
                    (query.dot(&v) / (qn * n)).clamp(-1.0, 1.0)
                };
                Some((i, sim))
            })
            .collect();
        let best = scored
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|(_, sim)| *sim >= MIN_SIM)
            .map(|(subject, _)| subject);
        (best, scored.iter().map(|(_, s)| s.to_bits()).collect())
    }

    /// The lane-kernel fallback equals the per-subject fold bit for
    /// bit: exact ties (parallel vectors, a repeated subject) go to the
    /// last subject, zero-norm subjects and sentences score 0.0, and an
    /// out-of-vocabulary sentence or subject takes no part.
    #[test]
    fn nearest_equals_the_per_subject_fold() {
        let mut store = VectorStore::new(3);
        for (word, v) in [
            ("alpha", [1.0, 0.0, 0.0]),
            ("twin", [2.0, 0.0, 0.0]),
            ("beta", [0.0, 1.0, 0.0]),
            ("mix", [0.6, 0.8, 0.0]),
            ("void", [0.0, 0.0, 0.0]),
            ("gamma", [0.0, 0.3, -1.0]),
        ] {
            store.insert(word, thor_embed::Vector(v.to_vec()));
        }
        let subjects = [
            "Alpha",
            "Twin",
            "Void",
            "Beta",
            "Mix",
            "Unknown",
            "Alpha beta",
            "Gamma",
            "twin",
        ];
        let index = SubjectIndex::new(subjects, &store);
        let mut sims = Vec::new();
        for sentence in [
            "alpha",
            "twin twin",
            "beta",
            "beta mix",
            "void",
            "void void unknown",
            "gamma",
            "gamma alpha",
            "unknown words",
            "alpha void mix gamma beta",
            "",
        ] {
            let (want, want_sims) = fold_nearest(&subjects, &store, sentence);
            let mut walk = WordWalk::default();
            walk.start(sentence);
            let walked = walk.walk(sentence, 0..sentence.len());
            let got = index.nearest(&walk, walked.words, &store, &mut sims);
            assert_eq!(got, want, "{sentence:?}");
            if !want_sims.is_empty() {
                let bits: Vec<u64> = sims.iter().map(|s| s.to_bits()).collect();
                assert_eq!(bits, want_sims, "{sentence:?}");
            }
        }
        assert_eq!(
            fold_nearest(&subjects, &store, "alpha").0,
            Some(8),
            "the last tie"
        );
    }

    #[test]
    fn punctuation_only_subject_never_matches() {
        // "***" normalizes to the empty key, as does a sentence of bare
        // ASCII punctuation; an empty key is never a mention.
        let m = matcher();
        let subjects = index(&["***", "Tuberculosis"], &m);
        let doc = Document::new("d", "Tuberculosis damages the lungs. *** !!");
        let segs = segment(&doc, &subjects, &m, SegmentationMode::MentionOnly);
        assert!(segs.iter().all(|s| s.subject == "Tuberculosis"), "{segs:?}");
        let doc = Document::new("d", "*** !!");
        assert!(segment(&doc, &subjects, &m, SegmentationMode::MentionOnly).is_empty());
    }
}
