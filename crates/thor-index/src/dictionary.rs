//! Exact-match dictionary index: the Aho–Corasick half of a prepared
//! engine bundle.
//!
//! The paper's Baseline matches table instances against document text
//! with substring search. That automaton is pure build-time state — it
//! depends only on the (concept, instance) pairs of the integrated
//! table — so it belongs next to [`VectorIndex`](crate::VectorIndex)
//! in the candidate-generation layer, where the prepared engine can
//! freeze it once and share it across every serve call. The
//! `DictionaryBaseline` in `thor-baselines` wraps this index and adds
//! the table-driven extraction protocol on top.

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

    /// Extend the dictionary to cover `concepts` — the **full** new
    /// `(concept, instances)` list after a delta. The old pattern list
    /// must be a subsequence of the new canonical list (deltas only add
    /// instances); the result is byte-identical to
    /// [`DictionaryIndex::from_concepts`] over the merged list, which is
    /// exactly what it builds.
    pub fn extend<C, I>(&self, concepts: C) -> Result<Self, String>
    where
        C: IntoIterator<Item = (String, I)>,
        I: IntoIterator<Item = String>,
    {
        let extended = Self::from_concepts(concepts);
        let mut old = self.patterns.iter().peekable();
        for pattern in &extended.patterns {
            if old.peek() == Some(&pattern) {
                old.next();
            }
        }
        if let Some((oc, od)) = old.next() {
            return Err(format!(
                "dictionary extension drops pattern ({oc}, {od}); deltas may only add instances"
            ));
        }
        Ok(extended)
    }

    /// Reassemble an index from a deserialized automaton and pattern
    /// table (the artifact load path). The automaton's pattern count
    /// must match the table.
    pub fn from_parts(
        automaton: AhoCorasick,
        patterns: Vec<(String, String)>,
    ) -> Result<Self, String> {
        if automaton.pattern_count() != patterns.len() {
            return Err(format!(
                "dictionary automaton has {} patterns but the table lists {}",
                automaton.pattern_count(),
                patterns.len()
            ));
        }
        Ok(Self {
            automaton,
            patterns,
        })
    }

    /// The underlying automaton, for artifact serialization.
    pub fn automaton(&self) -> &AhoCorasick {
        &self.automaton
    }

    /// Number of dictionary patterns.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// The (concept, display instance) pairs backing the automaton, in
    /// pattern order.
    pub fn patterns(&self) -> &[(String, String)] {
        &self.patterns
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
    fn extend_matches_fresh_build_over_merged_concepts() {
        // Base: one concept with instances, one concept still empty.
        let base = DictionaryIndex::from_concepts([
            (
                "Disease".to_string(),
                vec!["Tuberculosis".to_string(), "Acne".to_string()],
            ),
            ("Anatomy".to_string(), vec![]),
        ]);
        assert_eq!(base.pattern_count(), 2);
        // Merged state: an instance inserted mid-run, the empty concept
        // gains its first instance, and a brand-new concept is appended.
        let merged = [
            (
                "Disease".to_string(),
                vec![
                    "Tuberculosis".to_string(),
                    "  ".to_string(),
                    "Measles".to_string(),
                    "Acne".to_string(),
                ],
            ),
            ("Anatomy".to_string(), vec!["lungs".to_string()]),
            ("Drug".to_string(), vec!["Aspirin".to_string()]),
        ];
        let extended = base.extend(merged.clone()).expect("additive extension");
        let fresh = DictionaryIndex::from_concepts(merged);
        assert_eq!(extended.patterns(), fresh.patterns());
        assert_eq!(extended.automaton().parts(), fresh.automaton().parts());
    }

    #[test]
    fn extend_rejects_dropped_patterns() {
        let base = index();
        let err = base
            .extend([(
                "Disease".to_string(),
                vec!["Tuberculosis".to_string(), "Acne".to_string()],
            )])
            .unwrap_err();
        assert!(err.contains("drops pattern"), "unexpected error: {err}");
    }

    #[test]
    fn empty_normalized_instances_skipped() {
        let idx = DictionaryIndex::from_concepts([(
            "Anatomy".to_string(),
            vec!["  ".to_string(), "ear".to_string()],
        )]);
        assert_eq!(idx.pattern_count(), 1);
        assert_eq!(idx.patterns()[0].1, "ear");
    }
}
