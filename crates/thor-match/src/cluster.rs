//! Per-concept clusters of representative vectors.

use thor_embed::{cosine, slice_cosine, Vector, VectorStore};
use thor_text::normalize_phrase;

/// Both similarity views of a cluster against one query, computed in a
/// single pass (the max over representatives plus the O(d) mean via the
/// cached representative sum — previously two full scans).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterScore {
    /// Highest similarity between the query and any representative.
    pub max: f64,
    /// Mean pairwise similarity between the query and the cluster.
    pub mean: f64,
}

/// The representative instances of one concept: seeds (known table
/// instances) plus τ-expanded vocabulary words, each with its embedding.
#[derive(Debug, Clone)]
pub struct ConceptCluster {
    /// Concept name (display form).
    pub concept: String,
    /// Seed instances (normalized) with their phrase embeddings. These
    /// are the table values `R.C`; `c_m` is always chosen among them.
    seeds: Vec<(String, Vector)>,
    /// Expanded representative words (normalized) with embeddings;
    /// includes a copy of the seed vectors so that "the collection of
    /// representative vectors … acts as a cluster".
    representatives: Vec<(String, Vector)>,
    /// Cached sum of representative vectors (all unit length), for O(d)
    /// mean-pairwise-similarity queries.
    rep_sum: Vector,
}

impl ConceptCluster {
    /// Embed a concept's known instances as seeds (instances with no
    /// in-vocabulary word are skipped).
    pub fn embed_seeds(instances: &[String], store: &VectorStore) -> Vec<(String, Vector)> {
        instances
            .iter()
            .filter_map(|instance| Self::embed_seed(instance, store))
            .collect()
    }

    /// Embed one instance as a seed: its normalized form and unit
    /// phrase vector, or `None` when it normalizes to nothing or has no
    /// in-vocabulary word.
    pub(crate) fn embed_seed(instance: &str, store: &VectorStore) -> Option<(String, Vector)> {
        let norm = normalize_phrase(instance);
        if norm.is_empty() {
            return None;
        }
        let mut v = store.embed_phrase(&norm)?;
        v.normalize();
        Some((norm, v))
    }

    /// Assemble a cluster from seeds plus expanded representative words
    /// (already selected by the matcher's cross-concept τ-expansion).
    pub fn from_parts(
        concept: &str,
        seeds: Vec<(String, Vector)>,
        expansion: &[String],
        store: &VectorStore,
    ) -> Self {
        let mut representatives = seeds.clone();
        for word in expansion {
            // Expansion words are exact store keys (they came from a
            // store scan), so look them up raw on either backing.
            if let Some(row) = store.row_raw(word) {
                let mut v = Vector(row.to_vec());
                v.normalize();
                representatives.push((word.clone(), v));
            }
        }
        let mut rep_sum = Vector::zeros(store.dim());
        for (_, v) in &representatives {
            rep_sum += v;
        }
        Self {
            concept: concept.to_string(),
            seeds,
            representatives,
            rep_sum,
        }
    }

    /// Fine-tune a cluster for `concept` from its known instances, in
    /// isolation (no cross-concept competition — used by unit tests and
    /// single-concept callers; [`crate::SimilarityMatcher::fine_tune`]
    /// uses the competitive variant).
    ///
    /// Every instance with at least one in-vocabulary word becomes a
    /// seed. Vocabulary words whose cosine similarity to any seed vector
    /// is ≥ `tau` are added as expanded representatives (capped at
    /// `max_expansion` per concept, best first).
    pub fn fine_tune(
        concept: &str,
        instances: &[String],
        store: &VectorStore,
        tau: f64,
        max_expansion: usize,
    ) -> Self {
        let seeds = Self::embed_seeds(instances, store);

        // τ-expansion: vocabulary words similar to any seed.
        let mut expanded: Vec<(String, f64)> = Vec::new();
        if tau < 1.0 {
            store.for_each_row(|word, row| {
                let best = seeds
                    .iter()
                    .map(|(_, s)| slice_cosine(row, s.as_slice()))
                    .fold(f64::MIN, f64::max);
                if best >= tau && !seeds.iter().any(|(s, _)| s == word) {
                    expanded.push((word.to_string(), best));
                }
            });
            expanded.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            expanded.truncate(max_expansion);
        }
        let expansion: Vec<String> = expanded.into_iter().map(|(w, _)| w).collect();
        Self::from_parts(concept, seeds, &expansion, store)
    }

    /// Number of seed instances.
    pub fn seed_count(&self) -> usize {
        self.seeds.len()
    }

    /// Number of representative vectors (seeds + expansion).
    pub fn representative_count(&self) -> usize {
        self.representatives.len()
    }

    /// Iterate representative words (normalized).
    pub fn representative_words(&self) -> impl Iterator<Item = &str> {
        self.representatives.iter().map(|(w, _)| w.as_str())
    }

    /// Iterate representative `(word, vector)` pairs in insertion order
    /// (the seeds come first), for structure-of-arrays export into a
    /// `thor_index::VectorIndex`.
    pub fn representative_vectors(&self) -> impl Iterator<Item = (&str, &Vector)> {
        self.representatives.iter().map(|(w, v)| (w.as_str(), v))
    }

    /// Max and mean similarity between `query` and the cluster in one
    /// pass over the representatives; `None` for an empty cluster.
    /// Equal to `(max_similarity, mean_similarity)` bit for bit.
    pub fn score(&self, query: &Vector) -> Option<ClusterScore> {
        if self.representatives.is_empty() {
            return None;
        }
        let max = self
            .representatives
            .iter()
            .map(|(_, v)| cosine(query, v))
            .fold(f64::MIN, f64::max);
        let qn = query.norm();
        let mean = if qn == 0.0 {
            0.0
        } else {
            query.dot(&self.rep_sum) / (qn * self.representatives.len() as f64)
        };
        Some(ClusterScore { max, mean })
    }

    /// Mean pairwise cosine similarity between `query` and the cluster's
    /// representative vectors; `None` for an empty cluster.
    pub fn mean_similarity(&self, query: &Vector) -> Option<f64> {
        if self.representatives.is_empty() {
            return None;
        }
        // All representatives are unit vectors, so
        // mean_i cos(q, r_i) = cos-like dot(q̂, Σr_i) / n.
        let qn = query.norm();
        if qn == 0.0 {
            return Some(0.0);
        }
        Some(query.dot(&self.rep_sum) / (qn * self.representatives.len() as f64))
    }

    /// Highest similarity between `query` and any representative vector.
    pub fn max_similarity(&self, query: &Vector) -> Option<f64> {
        self.representatives
            .iter()
            .map(|(_, v)| cosine(query, v))
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// The seed instance most similar to `query`: `(instance, sim)`.
    pub fn best_seed(&self, query: &Vector) -> Option<(&str, f64)> {
        self.seeds
            .iter()
            .map(|(w, v)| (w.as_str(), cosine(query, v)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(a.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_embed::SemanticSpaceBuilder;

    fn store() -> VectorStore {
        SemanticSpaceBuilder::new(24, 3)
            .topic("anatomy")
            .topic("medicine")
            .words("anatomy", ["brain", "nerve", "lung", "spine", "ear"])
            .words("medicine", ["aspirin", "ibuprofen", "antibiotic"])
            .generic_words(["walk", "green", "chair"])
            .build()
            .into_store()
    }

    fn instances(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seeds_from_known_instances() {
        let s = store();
        let c = ConceptCluster::fine_tune("Anatomy", &instances(&["brain", "nerve"]), &s, 1.0, 100);
        assert_eq!(c.seed_count(), 2);
        assert_eq!(c.representative_count(), 2, "tau=1.0 adds nothing");
    }

    #[test]
    fn oov_instances_skipped() {
        let s = store();
        let c = ConceptCluster::fine_tune("Anatomy", &instances(&["brain", "xyzzy"]), &s, 1.0, 100);
        assert_eq!(c.seed_count(), 1);
    }

    #[test]
    fn expansion_adds_same_topic_words() {
        let s = store();
        let c = ConceptCluster::fine_tune("Anatomy", &instances(&["brain", "nerve"]), &s, 0.5, 100);
        assert!(c.representative_count() > c.seed_count());
        let words: Vec<&str> = c.representative_words().collect();
        // Other anatomy words should be pulled in before medicine words.
        assert!(words.contains(&"lung") || words.contains(&"spine") || words.contains(&"ear"));
        assert!(!words.contains(&"aspirin"));
    }

    #[test]
    fn expansion_capped() {
        let s = store();
        let c = ConceptCluster::fine_tune("Anatomy", &instances(&["brain"]), &s, 0.0, 2);
        assert_eq!(c.representative_count(), 1 + 2);
    }

    #[test]
    fn mean_similarity_prefers_own_topic() {
        let s = store();
        let anatomy = ConceptCluster::fine_tune(
            "Anatomy",
            &instances(&["brain", "nerve", "lung"]),
            &s,
            0.6,
            50,
        );
        let medicine = ConceptCluster::fine_tune(
            "Medicine",
            &instances(&["aspirin", "ibuprofen"]),
            &s,
            0.6,
            50,
        );
        let q = s.embed_phrase("spine").unwrap();
        assert!(anatomy.mean_similarity(&q).unwrap() > medicine.mean_similarity(&q).unwrap());
    }

    #[test]
    fn best_seed_identity() {
        let s = store();
        let c = ConceptCluster::fine_tune("Anatomy", &instances(&["brain", "nerve"]), &s, 1.0, 100);
        let q = s.embed_phrase("brain").unwrap();
        let (seed, sim) = c.best_seed(&q).unwrap();
        assert_eq!(seed, "brain");
        assert!((sim - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_cluster_returns_none() {
        let s = store();
        let c = ConceptCluster::fine_tune("Ghost", &instances(&["xyzzy"]), &s, 0.9, 10);
        let q = s.embed_phrase("brain").unwrap();
        assert!(c.mean_similarity(&q).is_none());
        assert!(c.best_seed(&q).is_none());
        assert!(c.max_similarity(&q).is_none());
    }

    #[test]
    fn score_matches_separate_passes() {
        let s = store();
        let c = ConceptCluster::fine_tune("Anatomy", &instances(&["brain", "nerve"]), &s, 0.6, 50);
        let q = s.embed_phrase("spine ear").unwrap();
        let score = c.score(&q).unwrap();
        assert_eq!(score.max, c.max_similarity(&q).unwrap());
        assert_eq!(score.mean, c.mean_similarity(&q).unwrap());

        let ghost = ConceptCluster::fine_tune("Ghost", &instances(&["xyzzy"]), &s, 0.9, 10);
        assert!(ghost.score(&q).is_none());
    }

    #[test]
    fn mean_similarity_matches_naive_average() {
        let s = store();
        let c = ConceptCluster::fine_tune(
            "Anatomy",
            &instances(&["brain", "nerve", "ear"]),
            &s,
            0.7,
            50,
        );
        let q = s.embed_phrase("lung spine").unwrap();
        let fast = c.mean_similarity(&q).unwrap();
        let naive: f64 = c
            .representatives
            .iter()
            .map(|(_, v)| cosine(&q, v))
            .sum::<f64>()
            / c.representatives.len() as f64;
        // f32 storage + different accumulation orders ⇒ loose tolerance.
        assert!((fast - naive).abs() < 1e-5, "fast {fast} vs naive {naive}");
    }
}
