//! The **Baseline**: Aho–Corasick dictionary matching.
//!
//! "A traditional ER method that uses substring-search for exact
//! syntactic matching … It uses structured data as patterns to build a
//! dictionary or lexicon, which is then further used to match all
//! sub-strings from the text." Exact matching cannot find
//! out-of-vocabulary entities, which is why the paper's Baseline shows
//! high precision and very low recall.

use thor_core::{Document, ExtractedEntity};
use thor_data::Table;
use thor_index::CandidateEntity;
use thor_text::normalize_phrase;

use crate::automata::{AhoCorasick, AhoCorasickBuilder};
use crate::subject::attribute_sentences;
use crate::Extractor;

/// Dictionary-based exact matcher over the table's instances: an
/// Aho–Corasick automaton over the normalized (concept, instance)
/// patterns. It depends only on the table, which it is built from per
/// run; THOR's prepared engine never builds or persists it.
#[derive(Debug)]
pub struct DictionaryBaseline {
    automaton: AhoCorasick,
    /// pattern index → (concept, normalized instance).
    patterns: Vec<(String, String)>,
}

impl DictionaryBaseline {
    /// Build the dictionary from every (concept, instance) of `table`,
    /// including the subject concept (other subjects mentioned in a
    /// document are legitimate subject-concept entities), in schema
    /// order. Instances are normalized before insertion, and those
    /// empty after normalization are skipped, so identical tables yield
    /// identical automata.
    pub fn from_table(table: &Table) -> Self {
        let mut builder = AhoCorasickBuilder::new().ascii_case_insensitive(true);
        let mut patterns = Vec::new();
        for concept in table.schema().concepts() {
            for instance in table.column_values(concept.name()) {
                let norm = normalize_phrase(&instance);
                if norm.is_empty() {
                    continue;
                }
                builder.add_pattern(norm.as_bytes());
                patterns.push((concept.name().to_string(), norm));
            }
        }
        Self {
            automaton: builder.build(),
            patterns,
        }
    }

    /// Number of dictionary patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Exact dictionary occurrences in `phrase`: every word-aligned
    /// automaton match becomes a candidate with score 1.0 (exact
    /// matching is all-or-nothing). The phrase is normalized first, so
    /// case and punctuation differences do not break exactness.
    pub fn candidates(&self, phrase: &str) -> Vec<CandidateEntity> {
        self.automaton
            .find_words(&normalize_phrase(phrase))
            .into_iter()
            .map(|m| {
                let (concept, instance) = &self.patterns[m.pattern];
                CandidateEntity {
                    phrase: instance.clone(),
                    concept: concept.clone(),
                    matched_instance: instance.clone(),
                    semantic_score: 1.0,
                    cluster_score: 1.0,
                }
            })
            .collect()
    }
}

impl Extractor for DictionaryBaseline {
    fn name(&self) -> &str {
        "Baseline"
    }

    fn extract(&self, table: &Table, docs: &[Document]) -> Vec<ExtractedEntity> {
        let subjects: Vec<String> = table.subjects().map(str::to_string).collect();
        let mut out = Vec::new();
        for doc in docs {
            for (subject, sentence) in attribute_sentences(&doc.text, &subjects) {
                for c in self.candidates(&sentence.text) {
                    out.push(ExtractedEntity {
                        subject: subject.clone(),
                        concept: c.concept,
                        phrase: c.phrase,
                        score: 1.0,
                        matched_instance: c.matched_instance,
                        doc_id: doc.id.clone(),
                        sentence_index: 0,
                    });
                }
            }
        }
        // Deduplicate per (doc, concept, phrase) — evaluation granularity.
        out.sort_by_key(|a| a.key());
        out.dedup_by(|a, b| a.key() == b.key());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_data::Schema;

    fn table() -> Table {
        let mut t = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        t.fill_slot("Tuberculosis", "Anatomy", "lungs");
        t.fill_slot("Tuberculosis", "Complication", "empyema");
        t.fill_slot("Acne", "Anatomy", "skin");
        t
    }

    #[test]
    fn finds_exact_instances() {
        let b = DictionaryBaseline::from_table(&table());
        let docs = vec![Document::new(
            "d",
            "Tuberculosis damages the lungs and causes empyema.",
        )];
        let found = b.extract(&table(), &docs);
        let phrases: Vec<&str> = found.iter().map(|e| e.phrase.as_str()).collect();
        assert!(phrases.contains(&"lungs"));
        assert!(phrases.contains(&"empyema"));
        assert!(
            phrases.contains(&"tuberculosis"),
            "subject instances matched too"
        );
    }

    #[test]
    fn misses_oov_instances() {
        let b = DictionaryBaseline::from_table(&table());
        let docs = vec![Document::new("d", "Tuberculosis may cause meningitis.")];
        let found = b.extract(&table(), &docs);
        assert!(!found.iter().any(|e| e.phrase.contains("meningitis")));
    }

    #[test]
    fn case_insensitive_matching() {
        let b = DictionaryBaseline::from_table(&table());
        let docs = vec![Document::new("d", "TUBERCULOSIS affects the LUNGS.")];
        let found = b.extract(&table(), &docs);
        assert!(found.iter().any(|e| e.phrase == "lungs"));
    }

    #[test]
    fn no_partial_word_matches() {
        let mut t = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        t.fill_slot("X", "Anatomy", "ear");
        let b = DictionaryBaseline::from_table(&t);
        let docs = vec![Document::new("d", "X is about hearing problems.")];
        let found = b.extract(&t, &docs);
        assert!(!found.iter().any(|e| e.phrase == "ear"), "{found:?}");
    }

    #[test]
    fn deduplicates_per_doc() {
        let b = DictionaryBaseline::from_table(&table());
        let docs = vec![Document::new("d", "Acne affects the skin. The skin heals.")];
        let found = b.extract(&table(), &docs);
        let skins = found.iter().filter(|e| e.phrase == "skin").count();
        assert_eq!(skins, 1);
    }

    #[test]
    fn exact_candidates_found_case_insensitively() {
        let b = DictionaryBaseline::from_table(&table());
        assert_eq!(b.pattern_count(), 5);
        let found = b.candidates("TUBERCULOSIS affects the LUNGS");
        assert!(found.iter().any(|c| c.phrase == "tuberculosis"));
        assert!(found.iter().any(|c| c.phrase == "lungs"));
        assert!(found.iter().all(|c| c.semantic_score == 1.0));
    }

    #[test]
    fn empty_normalized_instances_skipped() {
        let mut t = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        t.fill_slot("X", "Anatomy", "?!");
        t.fill_slot("X", "Anatomy", "ear");
        let b = DictionaryBaseline::from_table(&t);
        assert_eq!(b.pattern_count(), 2, "the subject `X` and `ear`, not `?!`");
        let found = b.candidates("pain in the ear");
        assert!(found
            .iter()
            .any(|c| c.concept == "Anatomy" && c.matched_instance == "ear"));
    }

    #[test]
    fn empty_table_extracts_nothing() {
        let t = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        let b = DictionaryBaseline::from_table(&t);
        assert_eq!(b.pattern_count(), 0);
        let docs = vec![Document::new("d", "Anything here.")];
        assert!(b.extract(&t, &docs).is_empty());
    }
}
