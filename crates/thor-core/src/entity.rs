//! Conceptualized entities — the pipeline's unit of output.

use std::cmp::Ordering;
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;

/// An entity `e = ⟨p, C⟩` extracted for a subject instance: the phrase,
/// the assigned concept, and provenance/score metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedEntity {
    /// The subject instance `c*` the entity belongs to.
    pub subject: String,
    /// The concept `e.C` the phrase was conceptualized as.
    pub concept: String,
    /// The phrase `e.p` (normalized form).
    pub phrase: String,
    /// Combined score: mean of semantic, word-Jaccard and gestalt
    /// similarity to the matched instance.
    pub score: f64,
    /// The seed instance `c_m` that anchored the match.
    pub matched_instance: String,
    /// Identifier of the source document.
    pub doc_id: String,
    /// Index of the source sentence within the document.
    pub sentence_index: usize,
}

impl ExtractedEntity {
    /// Deduplication key: one logical prediction per (document, concept,
    /// phrase) triple, matching the evaluation granularity.
    pub fn key(&self) -> (String, String, String) {
        (
            self.doc_id.clone(),
            self.concept.to_lowercase(),
            self.phrase.to_lowercase(),
        )
    }

    /// `self.key().cmp(&other.key())` without building either key: the
    /// final dedup sort runs this once per comparison.
    pub(crate) fn cmp_key(&self, other: &Self) -> Ordering {
        self.doc_id
            .cmp(&other.doc_id)
            .then_with(|| self.view().cmp_key(&other.view()))
    }

    /// The fields the dedup order reads after the document id.
    pub(crate) fn view(&self) -> DedupView<'_> {
        DedupView {
            concept: &self.concept,
            phrase: &self.phrase,
            score: self.score,
            matched_instance: &self.matched_instance,
            subject: &self.subject,
            sentence_index: self.sentence_index,
        }
    }
}

/// An entity's fields the dedup order reads after the document id,
/// borrowed: the one definition of that order, shared by
/// `dedup_entities` and extraction's dedup of a document's accepted
/// phrases, which builds entities only for the survivors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DedupView<'a> {
    pub(crate) concept: &'a str,
    pub(crate) phrase: &'a str,
    pub(crate) score: f64,
    pub(crate) matched_instance: &'a str,
    pub(crate) subject: &'a str,
    pub(crate) sentence_index: usize,
}

impl DedupView<'_> {
    /// The dedup key within one document: concept, then phrase, each
    /// compared case-insensitively.
    pub(crate) fn cmp_key(&self, other: &Self) -> Ordering {
        cmp_lowercase(self.concept, other.concept)
            .then_with(|| cmp_lowercase(self.phrase, other.phrase))
    }

    /// Everything the winning candidate fixes: the key, then the best
    /// score first, then the exact phrase and the matched instance.
    pub(crate) fn cmp_outcome(&self, other: &Self) -> Ordering {
        self.cmp_key(other)
            .then_with(|| other.score.total_cmp(&self.score))
            .then_with(|| self.phrase.cmp(other.phrase))
            .then_with(|| self.matched_instance.cmp(other.matched_instance))
    }

    /// Where the entity was found: its subject, then its sentence.
    pub(crate) fn cmp_place(&self, other: &Self) -> Ordering {
        self.subject
            .cmp(other.subject)
            .then_with(|| self.sentence_index.cmp(&other.sentence_index))
    }

    /// The dedup order within one document: [`Self::cmp_outcome`], then
    /// [`Self::cmp_place`]. Every field takes part, so the survivor of
    /// a key does not depend on the order the entities came in.
    pub(crate) fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_outcome(other).then_with(|| self.cmp_place(other))
    }
}

/// `a.to_lowercase().cmp(&b.to_lowercase())`, allocating only when
/// the comparison reaches a byte that is not ASCII. Byte-equal strings
/// (most concept pairs) are equal without lowercasing either. Otherwise
/// the common prefix is walked once, byte pair by byte pair: ASCII
/// lowercases one byte to one byte whatever surrounds it, so the first
/// ASCII pair that differs after lowercasing decides. Non-ASCII text
/// goes through `str::to_lowercase`, because its context rules (a
/// word-final `Σ` lowercases to `ς`) make per-character lowercasing
/// inexact.
fn cmp_lowercase(a: &str, b: &str) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let (x, y) = (a.as_bytes(), b.as_bytes());
    for (&p, &q) in x.iter().zip(y) {
        if !(p.is_ascii() && q.is_ascii()) {
            return a.to_lowercase().cmp(&b.to_lowercase());
        }
        let (p, q) = (p.to_ascii_lowercase(), q.to_ascii_lowercase());
        if p != q {
            return p.cmp(&q);
        }
    }
    // One is a case-insensitive prefix of the other: the longer sorts
    // last, unless its tail needs Unicode lowercasing.
    let common = x.len().min(y.len());
    if x[common..].is_ascii() && y[common..].is_ascii() {
        x.len().cmp(&y.len())
    } else {
        a.to_lowercase().cmp(&b.to_lowercase())
    }
}

/// Render entities as the canonical TSV the CLI's `--entities` option
/// writes: `doc_id<TAB>concept<TAB>phrase<TAB>subject<TAB>score`, one
/// line per entity, score with three decimals. The HTTP `/extract`
/// endpoint emits the same bytes, which is what makes served extraction
/// diff-able against a batch run.
///
/// A run repeats few distinct scores, so each distinct bit pattern is
/// formatted with `{:.3}` once per call and later lines copy the text
/// already written: equal bits format to equal text.
pub fn entities_tsv(entities: &[ExtractedEntity]) -> String {
    use std::fmt::Write as _;
    // Four tabs, a newline and a score in [0, 1] take ten bytes a line.
    let len = entities
        .iter()
        .map(|e| e.doc_id.len() + e.concept.len() + e.phrase.len() + e.subject.len() + 10)
        .sum();
    let mut tsv = String::with_capacity(len);
    // Score bits → where their text sits in `tsv`.
    let mut scores: HashMap<u64, Range<usize>> = HashMap::new();
    for e in entities {
        for field in [&e.doc_id, &e.concept, &e.phrase, &e.subject] {
            tsv.push_str(field);
            tsv.push('\t');
        }
        match scores.entry(e.score.to_bits()) {
            Entry::Occupied(at) => tsv.extend_from_within(at.get().clone()),
            Entry::Vacant(slot) => {
                let start = tsv.len();
                let _ = write!(tsv, "{:.3}", e.score);
                slot.insert(start..tsv.len());
            }
        }
        tsv.push('\n');
    }
    tsv
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entity(doc: &str, concept: &str, phrase: &str) -> ExtractedEntity {
        ExtractedEntity {
            subject: "tb".into(),
            concept: concept.into(),
            phrase: phrase.into(),
            score: 0.5,
            matched_instance: "seed".into(),
            doc_id: doc.into(),
            sentence_index: 0,
        }
    }

    #[test]
    fn key_is_case_insensitive_on_concept_and_phrase() {
        assert_eq!(
            entity("d", "Anatomy", "Lungs").key(),
            entity("d", "anatomy", "lungs").key()
        );
        assert_ne!(
            entity("d1", "Anatomy", "x").key(),
            entity("d2", "Anatomy", "x").key()
        );
    }

    /// Case-sensitive, multi-byte and context-sensitive lowercasing:
    /// final sigma (`ΟΔΟΣ` → `οδος`), dotted capital I (`İ` → `i̇`, two
    /// chars), `ß` (lowercase already, uppercases to two chars) and
    /// titlecase `ǅ`.
    pub(crate) const TEXT: &str =
        "(a|A|b|B|z|Z|ab|AB|ΟΔΟΣ|οδος|οδοσ|Σ|σ|ς|İ|i|I|ß|SS|ǅ|ǆ|Ǆ|é|É| |-){0,4}";

    fn entity_strategy() -> impl Strategy<Value = ExtractedEntity> {
        ("(d0|d1|D0)", TEXT, TEXT).prop_map(|(doc, concept, phrase)| ExtractedEntity {
            doc_id: doc,
            ..entity("", &concept, &phrase)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn cmp_key_orders_like_key(a in entity_strategy(), b in entity_strategy()) {
            prop_assert_eq!(a.cmp_key(&b), a.key().cmp(&b.key()), "{:?} vs {:?}", a, b);
            prop_assert_eq!(b.cmp_key(&a), b.key().cmp(&a.key()));
            prop_assert_eq!(a.cmp_key(&a), Ordering::Equal);
        }

        /// Equal and case-differing pairs, which the byte-equal and
        /// ASCII fast paths answer, compare as their lowercased forms.
        #[test]
        fn cmp_lowercase_orders_equal_and_case_differing_pairs_like_lowercase(
            a in TEXT,
            ascii in "[a-cA-C -]{0,8}",
            twin in 0usize..5,
            tail in TEXT,
        ) {
            for a in [a, ascii] {
                let b = match twin {
                    0 => a.clone(),
                    1 => a.to_uppercase(),
                    2 => a.to_lowercase(),
                    3 => a.to_ascii_uppercase(),
                    _ => format!("{a}{tail}"),
                };
                let expected = a.to_lowercase().cmp(&b.to_lowercase());
                prop_assert_eq!(cmp_lowercase(&a, &b), expected, "{:?} vs {:?}", a, b);
                prop_assert_eq!(cmp_lowercase(&b, &a), expected.reverse(), "{:?} vs {:?}", b, a);
            }
        }

        #[test]
        fn dedup_matches_the_key_based_dedup(
            entities in prop::collection::vec((entity_strategy(), 0usize..3), 0..24),
        ) {
            let entities: Vec<ExtractedEntity> = entities
                .into_iter()
                .map(|(e, s)| ExtractedEntity { score: s as f64 / 2.0, ..e })
                .collect();
            let mut expected = entities.clone();
            expected.sort_by(|a, b| {
                a.key()
                    .cmp(&b.key())
                    .then_with(|| b.score.total_cmp(&a.score))
                    .then_with(|| a.phrase.cmp(&b.phrase))
            });
            expected.dedup_by(|next, first| next.key() == first.key());
            let mut got = entities;
            crate::pipeline::dedup_entities(&mut got);
            prop_assert_eq!(got, expected);
        }

        /// The run's merge of per-document batches is the global dedup
        /// of everything the batches held: batches finishing in any
        /// order, empty ones, several batches of one id (plain runs
        /// allow duplicate ids) and a resumed checkpoint's multi-document
        /// batch, which goes first, as it does in a run.
        #[test]
        fn merged_doc_batches_equal_the_global_dedup(
            batches in prop::collection::vec(
                (
                    0usize..4,
                    0u32..1000,
                    prop::collection::vec((entity_strategy(), 0usize..3), 0..6),
                ),
                0..8,
            ),
            resumed in prop::collection::vec((0usize..4, entity_strategy(), 0usize..3), 0..10),
        ) {
            const IDS: [&str; 4] = ["d0", "d1", "D0", "d2"];
            let place = |doc: usize, e: ExtractedEntity, s: usize| ExtractedEntity {
                doc_id: IDS[doc].to_string(),
                score: s as f64 / 2.0,
                ..e
            };
            let resumed: Vec<ExtractedEntity> =
                resumed.into_iter().map(|(doc, e, s)| place(doc, e, s)).collect();
            // Completion order: the batches sorted by a random key.
            let mut batches: Vec<(u32, Vec<ExtractedEntity>)> = batches
                .into_iter()
                .map(|(doc, order, es)| {
                    (order, es.into_iter().map(|(e, s)| place(doc, e, s)).collect())
                })
                .collect();
            batches.sort_by_key(|(order, _)| *order);

            let mut expected = resumed.clone();
            for (_, batch) in &batches {
                expected.extend(batch.iter().cloned());
            }
            crate::pipeline::dedup_entities(&mut expected);

            let mut run = crate::pipeline::doc_batches(resumed);
            for (_, mut batch) in batches {
                crate::pipeline::dedup_entities(&mut batch);
                run.push(batch);
            }
            prop_assert_eq!(crate::pipeline::merge_doc_batches(run), expected);
        }
    }

    #[test]
    fn cmp_key_handles_final_sigma() {
        // Per-character lowercasing would give `οδοσ`, which sorts
        // after `οδος`; `str::to_lowercase` gives `οδος` itself.
        let upper = entity("d", "c", "ΟΔΟΣ");
        let lower = entity("d", "c", "οδος");
        assert_eq!(upper.cmp_key(&lower), Ordering::Equal);
        assert_eq!(upper.key(), lower.key());
    }
}
