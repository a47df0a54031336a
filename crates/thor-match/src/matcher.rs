//! The fine-tuned similarity matcher, built on the shared
//! `thor-index` candidate-generation engine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use thor_embed::VectorStore;
use thor_index::{
    CacheStats, CandidateSource, PhraseCache, PruneIndex, PruneMode, PruneStats, VectorIndex,
    VectorIndexBuilder,
};
use thor_text::{is_stopword, normalize_phrase, SeedSyntax};

use crate::cluster::ConceptCluster;
use crate::prepared::PreparedMatcher;

pub use thor_index::CandidateEntity;

/// The τ values the matcher accepts: the full closed unit interval.
/// Algorithm 1 is defined for any τ ∈ [0, 1]; the paper's experiments
/// (and [`MatcherConfig::default`]) live in the precision/recall band
/// τ ∈ {0.5, 0.6, …, 1.0} — the sweep grid is `thor_bench::tau_sweep`.
/// Every τ validation in the workspace checks against this constant.
pub const TAU_RANGE: std::ops::RangeInclusive<f64> = 0.0..=1.0;

/// Matcher configuration.
#[derive(Debug, Clone)]
pub struct MatcherConfig {
    /// The similarity threshold τ of Algorithm 1: controls both the
    /// seed expansion during fine-tuning and candidate acceptance during
    /// matching. Higher ⇒ precision-oriented, lower ⇒ recall-oriented.
    /// Accepted values are [`TAU_RANGE`].
    pub tau: f64,
    /// Maximum subphrase length, in words.
    pub max_subphrase_words: usize,
    /// Cap on τ-expanded representatives per concept (keeps fine-tuning
    /// and matching costs bounded at low τ).
    pub max_expansion: usize,
    /// Capacity of the per-matcher phrase cache (distinct normalized
    /// subphrases whose candidate sets are retained); 0 disables
    /// caching. The cache never changes results — candidates are a pure
    /// function of the subphrase once the matcher is fine-tuned.
    pub cache_capacity: usize,
    /// How `match_phrase` uses the frozen pruning structures. `Exact`
    /// (the default) is bit-identical to the exhaustive scan; `Approx`
    /// trades recall for speed through the quantized filter; `Off`
    /// scans exhaustively. An execution knob, never part of the
    /// fingerprint or the artifact.
    pub prune: PruneMode,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            tau: 0.7,
            max_subphrase_words: 4,
            max_expansion: 200,
            cache_capacity: 4096,
            prune: PruneMode::Exact,
        }
    }
}

impl MatcherConfig {
    /// Config with a specific τ. Panics outside [`TAU_RANGE`].
    pub fn with_tau(tau: f64) -> Self {
        assert!(
            TAU_RANGE.contains(&tau),
            "tau must be in [0, 1] (TAU_RANGE)"
        );
        Self {
            tau,
            ..Self::default()
        }
    }
}

/// A scored subphrase as stored in the phrase cache. Distinguishing
/// out-of-vocabulary from matched-nothing lets cache hits replay the
/// `subphrases`/`candidates` counter increments of a fresh scan, so
/// metric totals stay deterministic whether or not a phrase hits.
#[derive(Debug, Clone)]
enum CachedMatch {
    /// No in-vocabulary word; the subphrase was never counted.
    Oov,
    /// Embedded, but no concept accepted it at this τ.
    NoMatch,
    /// Matched this candidate.
    Match(CandidateEntity),
}

/// What fine-tuning produced, measured once when the matcher is
/// assembled, for the caller to record into its metrics handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FineTuneStats {
    /// Expansion words added to the representatives, over all concepts.
    pub expansion_words: u64,
    /// Vocabulary size visible to fine-tuning.
    pub vocab_words: u64,
    /// Representative vectors (seeds + expansion), over all concepts.
    pub cluster_representatives: u64,
    /// Rows of the frozen vector index.
    pub index_rows: u64,
    /// Time spent freezing the index and its pruning structures, when
    /// this matcher built them (`None` when it was handed a prebuilt
    /// index, as on artifact load and delta apply).
    pub index_build: Option<Duration>,
}

/// The work one [`SimilarityMatcher::match_phrase_counted`] call did,
/// returned for the caller to record: the matcher records nothing
/// itself. The call's `candidates` count is the length of its list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchCounts {
    /// Subphrases embedded and scored, cache-hit replays included, so
    /// the total does not depend on cache state.
    pub subphrases: u64,
    /// Subphrase-cache hits.
    pub cache_hits: u64,
    /// Subphrase-cache misses (none while the cache is disabled).
    pub cache_misses: u64,
    /// Pruning effectiveness of the scans actually run. Like cache
    /// misses, it counts work done, so cache hits do not replay it.
    pub prune: PruneStats,
}

/// The fine-tuned semantic similarity matcher.
///
/// The vector store is `Arc`-shared end to end: fine-tuning, the
/// prepared-engine layer and every matcher clone reference one
/// immutable store — no serve-path API deep-copies the vectors.
#[derive(Debug, Clone)]
pub struct SimilarityMatcher {
    store: Arc<VectorStore>,
    clusters: Arc<[ConceptCluster]>,
    index: VectorIndex,
    /// The frozen pruning structures (always built — a pure function of
    /// the index — so saved artifacts are identical whatever the
    /// serving-time [`PruneMode`]).
    prune: Arc<PruneIndex>,
    cache: PhraseCache<CachedMatch>,
    seed_syntax: Arc<SeedSyntax>,
    config: MatcherConfig,
    stats: FineTuneStats,
}

impl SimilarityMatcher {
    /// Fine-tune a matcher: one cluster per `(concept, instances)` pair.
    /// Corresponds to `MATCHER.FINETUNE(𝒞, R, τ)` — the instances come
    /// from the table columns `R.C`.
    ///
    /// The τ-expansion is *competitive*: each vocabulary word is offered
    /// only to the concept whose seeds it is most similar to, and joins
    /// that concept's representatives when the similarity reaches τ.
    /// Without the competition, correlated concepts would absorb each
    /// other's vocabulary at low τ and concept assignment would degrade
    /// exactly when the user asks for recall.
    ///
    /// Fine-tuning also builds the structure-of-arrays [`VectorIndex`]
    /// the matcher scans at query time, and a fresh [`PhraseCache`] —
    /// re-fine-tuning therefore invalidates all cached candidates by
    /// construction.
    ///
    /// One-shot fine-tuning is prepare-then-derive at the same τ: the
    /// [`PreparedMatcher`] runs the vocabulary scan, `matcher_at`
    /// filters/truncates and assembles the matcher. Sharing this single
    /// construction path with the engine's τ-sweep derivation is what
    /// makes derived matchers bit-identical to fresh ones.
    pub fn fine_tune(
        concepts: &[(String, Vec<String>)],
        store: impl Into<Arc<VectorStore>>,
        config: MatcherConfig,
    ) -> Self {
        PreparedMatcher::prepare(concepts, store, config.clone()).matcher_at(config)
    }

    /// Assemble a matcher from already-derived clusters: freeze the
    /// index and its pruning structures (timed into
    /// [`FineTuneStats::index_build`]) and open a fresh phrase cache.
    /// Crate-internal — the only callers are
    /// [`PreparedMatcher::matcher_at`] and (through it) fine-tuning.
    pub(crate) fn from_clusters(
        store: Arc<VectorStore>,
        clusters: Vec<ConceptCluster>,
        seed_syntax: Arc<SeedSyntax>,
        config: MatcherConfig,
    ) -> Self {
        let t0 = Instant::now();
        let index = Self::build_index(&clusters, store.dim());
        let prune = Arc::new(PruneIndex::build(&index));
        let built = t0.elapsed();
        let mut matcher =
            Self::from_clusters_prebuilt(store, clusters, index, Some(prune), seed_syntax, config);
        matcher.stats.index_build = Some(built);
        matcher
    }

    /// [`SimilarityMatcher::from_clusters`] with an already-built
    /// index (the artifact load path, where the index arrays may be
    /// zero-copy views into a mapped file). The caller is responsible
    /// for the index matching the clusters —
    /// `PreparedMatcher::matcher_with_index` validates the layout. A
    /// `None` prune structure is rebuilt deterministically from the
    /// index (the pre-pruning-artifact compatibility path). The one
    /// place a matcher is put together: it measures the fine-tune
    /// statistics and opens a fresh phrase cache.
    pub(crate) fn from_clusters_prebuilt(
        store: Arc<VectorStore>,
        clusters: Vec<ConceptCluster>,
        index: VectorIndex,
        prune: Option<Arc<PruneIndex>>,
        seed_syntax: Arc<SeedSyntax>,
        config: MatcherConfig,
    ) -> Self {
        let prune = prune.unwrap_or_else(|| Arc::new(PruneIndex::build(&index)));
        let sum = |count: fn(&ConceptCluster) -> usize| -> u64 {
            clusters.iter().map(|c| count(c) as u64).sum()
        };
        let stats = FineTuneStats {
            expansion_words: sum(|c| c.representative_count() - c.seed_count()),
            vocab_words: store.len() as u64,
            cluster_representatives: sum(ConceptCluster::representative_count),
            index_rows: index.row_count() as u64,
            index_build: None,
        };
        Self {
            store,
            clusters: clusters.into(),
            index,
            prune,
            cache: PhraseCache::new(config.cache_capacity),
            seed_syntax,
            config,
            stats,
        }
    }

    /// A clone of this matcher with an empty phrase cache of its own.
    /// Every frozen structure (clusters, index, pruning) is shared, not
    /// rebuilt.
    pub fn with_fresh_cache(&self) -> Self {
        Self {
            cache: PhraseCache::new(self.config.cache_capacity),
            ..self.clone()
        }
    }

    /// A clone of this matcher serving with `prune` instead. The phrase
    /// cache starts fresh: approx-mode results may differ from exact
    /// ones, and cached entries must never leak across modes.
    pub fn with_prune_mode(&self, prune: PruneMode) -> Self {
        let mut matcher = self.with_fresh_cache();
        matcher.config.prune = prune;
        matcher
    }

    /// Freeze the fine-tuned clusters into the structure-of-arrays
    /// index: seeds first per concept (so `c_m` search is a prefix
    /// scan), identical `f32` bits, norms precomputed.
    fn build_index(clusters: &[ConceptCluster], dim: usize) -> VectorIndex {
        let mut builder = VectorIndexBuilder::new(dim);
        for cluster in clusters {
            builder.add_concept(
                &cluster.concept,
                cluster.seed_count(),
                cluster
                    .representative_vectors()
                    .map(|(w, v)| (w, v.as_slice())),
            );
        }
        builder.build()
    }

    /// What fine-tuning produced, measured when this matcher was
    /// assembled.
    pub fn fine_tune_stats(&self) -> FineTuneStats {
        self.stats
    }

    /// The configured τ.
    pub fn tau(&self) -> f64 {
        self.config.tau
    }

    /// The concept clusters.
    pub fn clusters(&self) -> &[ConceptCluster] {
        &self.clusters
    }

    /// The underlying vector table.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// The shared handle to the vector table — cloning this is a
    /// refcount bump, never a deep copy.
    pub fn store_arc(&self) -> &Arc<VectorStore> {
        &self.store
    }

    /// The structure-of-arrays index frozen at fine-tune time.
    pub fn index(&self) -> &VectorIndex {
        &self.index
    }

    /// The pruning structures frozen next to the index, for artifact
    /// serialization.
    pub fn prune_index(&self) -> &PruneIndex {
        &self.prune
    }

    /// The configured [`PruneMode`].
    pub fn prune_mode(&self) -> PruneMode {
        self.config.prune
    }

    /// Precomputed refinement syntax (lowercase word sets + char
    /// arrays) for every seed instance this matcher can report as
    /// `matched_instance`, frozen at preparation time. The refinement
    /// kernels look the seed side of each similarity up here instead of
    /// re-tokenizing it per candidate.
    pub fn seed_syntax(&self) -> &SeedSyntax {
        &self.seed_syntax
    }

    /// Statistics of the phrase cache (shared by all clones of this
    /// matcher).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Semantic similarity between two phrases (used by the refinement
    /// step and by segmentation); `None` when either phrase has no
    /// in-vocabulary word.
    pub fn try_similarity(&self, a: &str, b: &str) -> Option<f64> {
        self.store.phrase_similarity(a, b)
    }

    /// [`SimilarityMatcher::try_similarity`] collapsed to `0.0` for
    /// out-of-vocabulary input. Lossy: an OOV phrase is
    /// indistinguishable from true orthogonality; callers that must
    /// tell the two apart use `try_similarity`.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        self.try_similarity(a, b).unwrap_or(0.0)
    }

    /// `MATCHER.MATCH(p)`: extract candidate entities from phrase `p`.
    ///
    /// Enumerates contiguous subphrases (up to the configured length)
    /// that do not start or end with a stop-word and embeds each as a
    /// query vector. Among the clusters whose *best* representative
    /// reaches τ for the query, "the matcher identifies the concept e.C
    /// that semantically best fits the subphrase" — the one with the
    /// highest mean pairwise similarity — and reports one candidate per
    /// subphrase, with the best seed instance as `c_m`.
    pub fn match_phrase(&self, phrase: &str) -> Vec<CandidateEntity> {
        self.match_phrase_anchored(phrase, |_| true)
    }

    /// [`SimilarityMatcher::match_phrase`] with an *anchor* predicate:
    /// a subphrase is only considered when at least one of its words
    /// satisfies `anchor`. The pipeline passes a nominality test
    /// ("entities typically consist of noun phrases or subsequences
    /// thereof") so that bare-modifier subphrases — whose vectors sit
    /// inside every seed phrase that shares the adjective — cannot
    /// become entities.
    ///
    /// Each accepted subphrase is scored with one fused pass over the
    /// [`VectorIndex`]; distinct subphrases seen before are answered
    /// from the phrase cache. Results are identical either way.
    pub fn match_phrase_anchored(
        &self,
        phrase: &str,
        anchor: impl Fn(&str) -> bool,
    ) -> Vec<CandidateEntity> {
        self.match_phrase_counted(phrase, anchor).0
    }

    /// [`SimilarityMatcher::match_phrase_anchored`], also returning the
    /// work the call did ([`MatchCounts`]; its `candidates` count is
    /// the length of the list). The matcher records nothing itself: the
    /// caller tallies the counts, and a caller that memoizes whole
    /// phrases replays `subphrases` and `candidates` on a hit, so those
    /// totals match a fresh call.
    pub fn match_phrase_counted(
        &self,
        phrase: &str,
        anchor: impl Fn(&str) -> bool,
    ) -> (Vec<CandidateEntity>, MatchCounts) {
        let mut counts = MatchCounts::default();
        let normalized = normalize_phrase(phrase);
        let words: Vec<&str> = normalized.split_whitespace().collect();
        if words.is_empty() {
            return (Vec::new(), counts);
        }
        let max_len = self.config.max_subphrase_words.min(words.len());
        let mut out = Vec::new();

        for len in 1..=max_len {
            for start in 0..=(words.len() - len) {
                let slice = &words[start..start + len];
                if is_stopword(slice[0]) || is_stopword(slice[len - 1]) {
                    continue;
                }
                if !slice.iter().any(|w| anchor(w)) {
                    continue;
                }
                let sub = slice.join(" ");
                let scored = match self.cache.get(&sub) {
                    Some(cached) => {
                        counts.cache_hits += 1;
                        cached
                    }
                    None => {
                        if self.cache.is_enabled() {
                            counts.cache_misses += 1;
                        }
                        let scored = self.score_subphrase(&sub, &mut counts.prune);
                        self.cache.put(&sub, scored.clone());
                        scored
                    }
                };
                // Replay the count a fresh scan would have made, so
                // totals are independent of cache state.
                match scored {
                    CachedMatch::Oov => {}
                    CachedMatch::NoMatch => counts.subphrases += 1,
                    CachedMatch::Match(candidate) => {
                        counts.subphrases += 1;
                        out.push(candidate);
                    }
                }
            }
        }
        // Deterministic order: by cluster score descending.
        out.sort_by(|a, b| {
            b.cluster_score
                .total_cmp(&a.cluster_score)
                .then_with(|| a.phrase.cmp(&b.phrase))
                .then_with(|| a.concept.cmp(&b.concept))
        });
        (out, counts)
    }

    /// Score one normalized subphrase against the index: embed, gate
    /// each concept on its best representative reaching τ, rank the
    /// survivors by mean pairwise similarity, then find `c_m` among the
    /// winner's seed rows. Pruning work is added to `stats`.
    fn score_subphrase(&self, sub: &str, stats: &mut PruneStats) -> CachedMatch {
        let Some(query) = self.store.embed_phrase(sub) else {
            return CachedMatch::Oov;
        };
        let qn = query.norm();
        let q = query.as_slice();
        // Pruned triage needs a usable query direction; zero-norm
        // queries (all similarities exactly 0.0) take the exhaustive
        // path, which costs nothing extra at that degenerate point.
        let pruned = qn != 0.0 && !matches!(self.config.prune, PruneMode::Off);
        let best: Option<(usize, f64)> = if pruned {
            self.best_gated_concept_pruned(q, qn, stats)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for scores in self.index.scan(q, qn) {
                let Some(best_rep) = scores.max else {
                    continue;
                };
                if best_rep + 1e-9 < self.config.tau {
                    continue;
                }
                let cluster_score = scores.mean.unwrap_or(0.0);
                if best.is_none_or(|(_, s)| cluster_score > s) {
                    best = Some((scores.concept, cluster_score));
                }
            }
            best
        };
        let scored = (|| {
            let (ci, cluster_score) = best?;
            let seed = if pruned {
                self.prune.best_seed(&self.index, ci, q, qn, stats)
            } else {
                self.index.best_seed(ci, q, qn)
            };
            let (seed, seed_sim) = seed?;
            Some(CandidateEntity {
                phrase: sub.to_string(),
                concept: self.index.concept_name(ci).to_string(),
                matched_instance: seed.to_string(),
                semantic_score: seed_sim.clamp(0.0, 1.0),
                cluster_score,
            })
        })();
        match scored {
            Some(candidate) => CachedMatch::Match(candidate),
            None => CachedMatch::NoMatch,
        }
    }

    /// The gate-and-rank of [`score_subphrase`](Self::score_subphrase),
    /// pruned. The exhaustive loop picks, among concepts whose best
    /// representative reaches τ, the one with the highest mean (ties to
    /// the lowest index). Means are O(d) via the cached row sums, so
    /// they are all computed exactly up front; concepts are then walked
    /// in (mean desc, index asc) order and the first one whose τ-gate
    /// passes is *the* winner — identical selection, but the expensive
    /// per-row gate runs only until the first survivor, and each gate
    /// prunes concept- and cluster-level blocks via their bounds.
    fn best_gated_concept_pruned(
        &self,
        q: &[f32],
        qn: f64,
        stats: &mut PruneStats,
    ) -> Option<(usize, f64)> {
        let quant = match self.config.prune {
            PruneMode::Approx { margin } => Some((self.prune.quantize_query(q), margin)),
            _ => None,
        };
        let mut order: Vec<(f64, usize)> = (0..self.index.concept_count())
            .filter_map(|ci| self.index.concept_mean(ci, q, qn).map(|m| (m, ci)))
            .collect();
        // Similarity means are never -0.0 (f64 sums that hit zero round
        // to +0.0), so total_cmp ranks exactly like the exhaustive
        // loop's numeric strict-greater with first-wins ties.
        order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for &(mean, ci) in &order {
            let quant_ref = quant.as_ref().map(|(qq, margin)| (qq, *margin));
            if self
                .prune
                .gate(&self.index, ci, q, qn, self.config.tau, quant_ref, stats)
            {
                return Some((ci, mean));
            }
        }
        None
    }

    /// The retained brute-force reference path: identical semantics to
    /// [`SimilarityMatcher::match_phrase_anchored`], but scanning the
    /// [`ConceptCluster`]s directly with per-pair `Vector` cosines — no
    /// index, no cache, no counts. Kept off the hot path as ground
    /// truth for the index/cache equivalence property tests and as the
    /// baseline that `bench_matcher` measures the engine against.
    pub fn match_phrase_reference(
        &self,
        phrase: &str,
        anchor: impl Fn(&str) -> bool,
    ) -> Vec<CandidateEntity> {
        let normalized = normalize_phrase(phrase);
        let words: Vec<&str> = normalized.split_whitespace().collect();
        if words.is_empty() {
            return Vec::new();
        }
        let max_len = self.config.max_subphrase_words.min(words.len());
        let mut out = Vec::new();

        for len in 1..=max_len {
            for start in 0..=(words.len() - len) {
                let slice = &words[start..start + len];
                if is_stopword(slice[0]) || is_stopword(slice[len - 1]) {
                    continue;
                }
                if !slice.iter().any(|w| anchor(w)) {
                    continue;
                }
                let sub = slice.join(" ");
                let Some(query) = self.store.embed_phrase(&sub) else {
                    continue;
                };
                // Pick the single best-fitting accepted cluster.
                let mut best: Option<(&ConceptCluster, f64)> = None;
                for cluster in self.clusters.iter() {
                    let Some(score) = cluster.score(&query) else {
                        continue;
                    };
                    if score.max + 1e-9 < self.config.tau {
                        continue;
                    }
                    if best.is_none_or(|(_, s)| score.mean > s) {
                        best = Some((cluster, score.mean));
                    }
                }
                let Some((cluster, cluster_score)) = best else {
                    continue;
                };
                let Some((seed, seed_sim)) = cluster.best_seed(&query) else {
                    continue;
                };
                out.push(CandidateEntity {
                    phrase: sub.clone(),
                    concept: cluster.concept.clone(),
                    matched_instance: seed.to_string(),
                    semantic_score: seed_sim.clamp(0.0, 1.0),
                    cluster_score,
                });
            }
        }
        out.sort_by(|a, b| {
            b.cluster_score
                .total_cmp(&a.cluster_score)
                .then_with(|| a.phrase.cmp(&b.phrase))
                .then_with(|| a.concept.cmp(&b.concept))
        });
        out
    }
}

impl CandidateSource for SimilarityMatcher {
    fn source_name(&self) -> &str {
        "semantic"
    }

    fn candidates_anchored(
        &self,
        phrase: &str,
        anchor: &dyn Fn(&str) -> bool,
    ) -> Vec<CandidateEntity> {
        self.match_phrase_anchored(phrase, anchor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_embed::SemanticSpaceBuilder;

    fn matcher(tau: f64) -> SimilarityMatcher {
        let store = SemanticSpaceBuilder::new(32, 9)
            .topic("anatomy")
            .correlated_topic("complication", "anatomy", 0.3)
            .words(
                "anatomy",
                [
                    "brain", "nerve", "lung", "spine", "ear", "system", "nervous",
                ],
            )
            .words(
                "complication",
                ["cancer", "tumor", "stroke", "deafness", "clot"],
            )
            .ambiguous_word("blood", "anatomy", "complication", 0.55)
            .generic_words(["slow-growing", "walk", "green", "people"])
            .build()
            .into_store();
        let concepts = vec![
            (
                "Anatomy".to_string(),
                vec!["nervous system".to_string(), "ear".to_string()],
            ),
            (
                "Complication".to_string(),
                vec!["skin cancer".to_string(), "stroke".to_string()],
            ),
        ];
        // "skin" is OOV on purpose; "cancer" carries the seed.
        SimilarityMatcher::fine_tune(&concepts, store, MatcherConfig::with_tau(tau))
    }

    #[test]
    fn exact_seed_word_matches_at_tau_1() {
        let m = matcher(1.0);
        let c = m.match_phrase("the ear");
        assert!(!c.is_empty());
        assert_eq!(c[0].concept, "Anatomy");
        assert_eq!(c[0].matched_instance, "ear");
        assert!((c[0].semantic_score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn novel_instance_found_at_lower_tau() {
        // "brain" is NOT a table instance but is semantically close to
        // the Anatomy cluster — the paper's 'Malaria' case.
        let strict = matcher(1.0);
        let lenient = matcher(0.55);
        let unseen = "brain";
        let strict_hits = strict
            .match_phrase(unseen)
            .iter()
            .filter(|c| c.concept == "Anatomy")
            .count();
        let lenient_hits = lenient
            .match_phrase(unseen)
            .iter()
            .filter(|c| c.concept == "Anatomy")
            .count();
        assert_eq!(strict_hits, 0, "tau=1.0 must not match unseen instances");
        assert!(
            lenient_hits > 0,
            "low tau should match semantically close words"
        );
    }

    #[test]
    fn lower_tau_never_produces_fewer_candidates() {
        let phrases = ["brain tumor", "nerve damage", "stroke risk", "green walk"];
        for phrase in phrases {
            let hi = matcher(0.9).match_phrase(phrase).len();
            let lo = matcher(0.5).match_phrase(phrase).len();
            assert!(lo >= hi, "phrase {phrase}: lo {lo} < hi {hi}");
        }
    }

    #[test]
    fn subphrases_enumerated() {
        let m = matcher(0.6);
        let candidates = m.match_phrase("slow-growing non-cancerous brain tumor");
        // Subphrases like "brain" and "tumor" should appear.
        assert!(candidates.iter().any(|c| c.phrase == "brain"));
        assert!(candidates.iter().any(|c| c.phrase == "tumor"));
        // No candidate starts/ends with a stop-word.
        for c in &candidates {
            let words: Vec<&str> = c.phrase.split_whitespace().collect();
            assert!(!is_stopword(words[0]));
            assert!(!is_stopword(words[words.len() - 1]));
        }
    }

    #[test]
    fn ambiguous_word_resolves_to_single_best_concept() {
        // The matcher assigns *the* best-fitting concept per subphrase;
        // an ambiguous word therefore yields exactly one candidate, for
        // one of its two plausible concepts.
        let m = matcher(0.5);
        let candidates = m.match_phrase("blood");
        assert_eq!(candidates.len(), 1, "{candidates:?}");
        assert!(matches!(
            candidates[0].concept.as_str(),
            "Anatomy" | "Complication"
        ));
    }

    #[test]
    fn oov_phrase_yields_nothing() {
        let m = matcher(0.5);
        assert!(m.match_phrase("xyzzy plugh").is_empty());
        assert!(m.match_phrase("").is_empty());
        assert!(m.match_phrase("the of and").is_empty());
    }

    #[test]
    fn results_sorted_by_cluster_score() {
        let m = matcher(0.5);
        let c = m.match_phrase("brain tumor");
        assert!(c
            .windows(2)
            .all(|w| w[0].cluster_score >= w[1].cluster_score));
    }

    #[test]
    fn similarity_helper() {
        let m = matcher(0.7);
        assert!(m.similarity("brain", "nerve") > m.similarity("brain", "walk"));
        assert_eq!(m.similarity("xyzzy", "brain"), 0.0);
    }

    #[test]
    fn try_similarity_distinguishes_oov_from_orthogonal() {
        let m = matcher(0.7);
        assert!(m.try_similarity("brain", "nerve").is_some());
        assert_eq!(m.try_similarity("xyzzy", "brain"), None);
        assert_eq!(m.try_similarity("brain", "xyzzy"), None);
    }

    #[test]
    fn index_path_equals_reference_path() {
        for tau in [0.5, 0.7, 1.0] {
            let m = matcher(tau);
            for phrase in [
                "slow-growing non-cancerous brain tumor",
                "the nervous system",
                "blood clot in the lung",
                "green walk",
                "",
            ] {
                let via_index = m.match_phrase(phrase);
                let reference = m.match_phrase_reference(phrase, |_| true);
                assert_eq!(via_index, reference, "tau {tau}, phrase {phrase:?}");
            }
        }
    }

    #[test]
    fn repeated_phrases_hit_the_cache_with_identical_results() {
        let m = matcher(0.6);
        let cold = m.match_phrase("brain tumor");
        assert_eq!(m.cache_stats().hits, 0);
        let warm = m.match_phrase("brain tumor");
        assert_eq!(cold, warm);
        let stats = m.cache_stats();
        assert!(stats.hits > 0, "{stats:?}");
        assert!(stats.len > 0);
    }

    #[test]
    fn counted_matching_replays_subphrases_and_counts_only_real_work() {
        let m = matcher(0.6);
        let phrases = [
            "slow-growing brain tumor",
            "the nervous system",
            "brain tumor",
            "green walk",
            "xyzzy",
            "",
        ];
        let pass = || -> Vec<(usize, MatchCounts)> {
            phrases
                .iter()
                .map(|phrase| {
                    let (candidates, counts) = m.match_phrase_counted(phrase, |_| true);
                    assert_eq!(candidates, m.match_phrase_reference(phrase, |_| true));
                    (candidates.len(), counts)
                })
                .collect()
        };
        let cold = pass();
        let warm = pass();
        assert!(cold.iter().map(|(_, c)| c.subphrases).sum::<u64>() > 0);
        for ((cold_len, cold), (warm_len, warm)) in cold.iter().zip(&warm) {
            // Cache hits replay candidates and subphrases ...
            assert_eq!((cold_len, cold.subphrases), (warm_len, warm.subphrases));
            // ... but the second pass scans nothing: all hits.
            assert_eq!(warm.cache_hits, cold.cache_hits + cold.cache_misses);
            assert_eq!((warm.cache_misses, warm.prune), (0, PruneStats::default()));
        }
    }

    #[test]
    fn disabled_cache_gives_identical_results() {
        let store_matcher = matcher(0.6);
        let mut config = MatcherConfig::with_tau(0.6);
        config.cache_capacity = 0;
        let uncached = SimilarityMatcher::fine_tune(
            &[
                (
                    "Anatomy".to_string(),
                    vec!["nervous system".to_string(), "ear".to_string()],
                ),
                (
                    "Complication".to_string(),
                    vec!["skin cancer".to_string(), "stroke".to_string()],
                ),
            ],
            store_matcher.store().clone(),
            config,
        );
        for phrase in ["brain tumor", "brain tumor", "the ear"] {
            assert_eq!(
                store_matcher.match_phrase(phrase),
                uncached.match_phrase(phrase)
            );
        }
        let stats = uncached.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.capacity), (0, 0, 0));
    }

    #[test]
    fn candidate_source_trait_drives_the_matcher() {
        let m = matcher(0.6);
        let source: &dyn CandidateSource = &m;
        assert_eq!(source.source_name(), "semantic");
        assert_eq!(
            source.candidates("brain tumor"),
            m.match_phrase("brain tumor")
        );
    }

    #[test]
    fn index_reflects_clusters() {
        let m = matcher(0.6);
        let total: usize = m.clusters().iter().map(|c| c.representative_count()).sum();
        assert_eq!(m.index().row_count(), total);
        assert_eq!(m.index().concept_count(), m.clusters().len());
    }
}
