//! Exact-match dictionary index: the Aho–Corasick automaton behind the
//! paper's comparison Baseline.
//!
//! The Baseline matches table instances against document text with
//! substring search. The automaton depends only on the (concept,
//! instance) pairs of the integrated table, and it produces
//! [`CandidateEntity`]s through the same [`CandidateSource`] surface as
//! the semantic matcher. The `DictionaryBaseline` in `thor-baselines`
//! builds one per table and adds the table-driven extraction protocol on
//! top. It is not part of THOR's prepared engine, which never builds or
//! persists it.

use thor_automata::{AhoCorasick, AhoCorasickBuilder};
use thor_text::normalize_phrase;

use crate::entity::CandidateEntity;
use crate::source::CandidateSource;

/// Aho–Corasick automaton over normalized (concept, instance) patterns.
#[derive(Debug)]
pub struct DictionaryIndex {
    automaton: AhoCorasick,
    /// pattern index → (concept, display phrase).
    patterns: Vec<(String, String)>,
}

impl DictionaryIndex {
    /// Build the index from `(concept, instances)` pairs. Instances are
    /// normalized before insertion; empty-after-normalization instances
    /// are skipped. Pair order is preserved, so identical input yields
    /// an identical automaton.
    pub fn from_concepts<C, I>(concepts: C) -> Self
    where
        C: IntoIterator<Item = (String, I)>,
        I: IntoIterator<Item = String>,
    {
        let mut builder = AhoCorasickBuilder::new().ascii_case_insensitive(true);
        let mut patterns = Vec::new();
        for (concept, instances) in concepts {
            for instance in instances {
                let norm = normalize_phrase(&instance);
                if norm.is_empty() {
                    continue;
                }
                builder.add_pattern(norm.as_bytes());
                patterns.push((concept.clone(), instance));
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
}

impl CandidateSource for DictionaryIndex {
    fn source_name(&self) -> &str {
        "dictionary"
    }

    /// Exact dictionary occurrences in `phrase`: every word-aligned
    /// automaton match whose words pass `anchor` becomes a candidate
    /// with score 1.0 (exact matching is all-or-nothing).
    fn candidates_anchored(
        &self,
        phrase: &str,
        anchor: &dyn Fn(&str) -> bool,
    ) -> Vec<CandidateEntity> {
        // Match against the normalized phrase so case/punct differences
        // don't break exactness.
        let normalized = normalize_phrase(phrase);
        let mut out = Vec::new();
        for m in self.automaton.find_words(&normalized) {
            let (concept, display) = &self.patterns[m.pattern];
            let matched = normalize_phrase(display);
            if !matched.split_whitespace().any(anchor) {
                continue;
            }
            out.push(CandidateEntity {
                phrase: matched.clone(),
                concept: concept.clone(),
                matched_instance: matched,
                semantic_score: 1.0,
                cluster_score: 1.0,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> DictionaryIndex {
        DictionaryIndex::from_concepts([
            (
                "Disease".to_string(),
                vec!["Tuberculosis".to_string(), "Acne".to_string()],
            ),
            (
                "Anatomy".to_string(),
                vec!["lungs".to_string(), "skin".to_string()],
            ),
        ])
    }

    #[test]
    fn exact_candidates_found_case_insensitively() {
        let idx = index();
        assert_eq!(idx.pattern_count(), 4);
        let found = idx.candidates("TUBERCULOSIS affects the LUNGS");
        assert!(found.iter().any(|c| c.phrase == "tuberculosis"));
        assert!(found.iter().any(|c| c.phrase == "lungs"));
        assert!(found.iter().all(|c| c.semantic_score == 1.0));
    }

    #[test]
    fn anchor_filters_candidates() {
        let idx = index();
        let anchored = idx.candidates_anchored("tuberculosis damages the lungs", &|w| w != "lungs");
        assert!(!anchored.iter().any(|c| c.phrase == "lungs"));
        assert!(anchored.iter().any(|c| c.phrase == "tuberculosis"));
        assert_eq!(idx.source_name(), "dictionary");
    }

    #[test]
    fn empty_normalized_instances_skipped() {
        let idx = DictionaryIndex::from_concepts([(
            "Anatomy".to_string(),
            vec!["  ".to_string(), "ear".to_string()],
        )]);
        assert_eq!(idx.pattern_count(), 1);
        let found = idx.candidates_anchored("pain in the ear", &|_| true);
        assert!(found
            .iter()
            .any(|c| c.concept == "Anatomy" && c.matched_instance == "ear"));
    }
}
