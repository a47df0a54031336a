//! The frozen output of THOR's Preparation phase, reusable across τ.
//!
//! [`PreparedMatcher`] holds everything `fine_tune` computes that does
//! *not* depend on which τ the serve path finally asks for: the
//! embedded seed clusters and the **untruncated** competitive-expansion
//! candidate list per concept, scored at the lowest τ the preparation
//! was run with. Deriving a [`SimilarityMatcher`] at any τ′ ≥ τ_base is
//! then a filter-and-truncate over the candidate lists — no vocabulary
//! scan, no re-embedding — and is bit-identical to a fresh
//! `fine_tune` at τ′ because both paths share [`PreparedMatcher::matcher_at`]:
//!
//! * the competitive best-concept choice per vocabulary word is
//!   τ-independent (the word goes to its most-similar concept; τ only
//!   gates whether it joins at all), and
//! * candidate lists are kept sorted by the total order
//!   `(sim desc, word asc)`, so filtering `sim ≥ τ′` then truncating to
//!   `max_expansion` equals sorting the τ′-filtered set from scratch.
//!
//! This is the τ-monotonicity the paper's precision/recall sweep relies
//! on: representative sets at higher τ are similarity-filtered subsets
//! of the sets at lower τ.

use std::sync::Arc;

use thor_embed::{slice_norm, Vector, VectorStore};
use thor_fault::{FrozenPool, FrozenSlice};
use thor_index::{PruneIndex, PruneStats, VectorIndex, VectorIndexBuilder};
use thor_text::SeedSyntax;

use crate::cluster::ConceptCluster;
use crate::matcher::{MatcherConfig, SimilarityMatcher, TAU_RANGE};

/// Frozen fine-tuning state: seeds + untruncated τ-expansion
/// candidates, valid for every τ′ ≥ the base config's τ.
#[derive(Debug, Clone)]
pub struct PreparedMatcher {
    store: Arc<VectorStore>,
    names: Vec<String>,
    seeds: Vec<Vec<(String, Vector)>>,
    /// Per concept: candidate expansion words with their best-concept
    /// similarity, every entry ≥ `base.tau`, sorted by
    /// `(sim desc, word asc)`, **not** truncated to `max_expansion`.
    /// Owned after preparation; zero-copy artifact views after a
    /// mapped load.
    candidates: CandidateBacking,
    /// Refinement syntax (lowercase word sets + char arrays) of every
    /// embedded seed instance, computed once per preparation. τ only
    /// filters the *expansion*, so one table serves every derived
    /// matcher.
    seed_syntax: Arc<SeedSyntax>,
    base: MatcherConfig,
}

/// Candidate-list storage: per-concept `Vec`s after a fresh
/// preparation, or flat artifact views after a (possibly mapped)
/// engine load. The flat form is a CSR over all concepts' entries:
/// concept `ci`'s candidates are entries `starts[ci]..starts[ci + 1]`,
/// entry `k`'s word is `words.get_str(k)` and its similarity `sims[k]`.
#[derive(Debug, Clone)]
enum CandidateBacking {
    Owned(Vec<Vec<(String, f64)>>),
    Frozen {
        starts: FrozenSlice<u64>,
        words: FrozenPool,
        sims: FrozenSlice<f64>,
    },
}

/// The per-seed refinement syntax table for a preparation's embedded
/// seeds — every string a derived matcher can emit as
/// `matched_instance`.
fn build_seed_syntax(seeds: &[Vec<(String, Vector)>]) -> Arc<SeedSyntax> {
    Arc::new(SeedSyntax::build(
        seeds.iter().flatten().map(|(word, _)| word.as_str()),
    ))
}

impl PreparedMatcher {
    /// Run the Preparation phase once: embed each concept's seeds and
    /// collect the full competitive τ-expansion candidate lists at
    /// `base.tau`. The result serves every τ′ ∈ [`base.tau`, 1].
    pub fn prepare(
        concepts: &[(String, Vec<String>)],
        store: impl Into<Arc<VectorStore>>,
        base: MatcherConfig,
    ) -> Self {
        let store = store.into();
        let seeds: Vec<Vec<(String, Vector)>> = concepts
            .iter()
            .map(|(_, instances)| ConceptCluster::embed_seeds(instances, &store))
            .collect();

        // Competitive expansion: word → its best concept. Seed scoring
        // runs over a seeds-only index so each vocabulary word's norm is
        // computed once instead of once per (word, seed) pair.
        let mut candidates: Vec<Vec<(String, f64)>> = vec![Vec::new(); concepts.len()];
        if base.tau < 1.0 {
            let seed_index = {
                let mut builder = VectorIndexBuilder::new(store.dim());
                for ((name, _), cluster_seeds) in concepts.iter().zip(&seeds) {
                    builder.add_concept(
                        name,
                        cluster_seeds.len(),
                        cluster_seeds
                            .iter()
                            .map(|(w, v)| (w.as_str(), v.as_slice())),
                    );
                }
                builder.build()
            };
            // Bound-pruned competitive scan. `base.tau` is passed as the
            // argmax floor: words whose best similarity falls below τ are
            // discarded by the record filter anyway, so pruning their
            // concept scans cannot change which candidates are collected,
            // and above the floor `best_concept` is bit-identical to the
            // exhaustive fold.
            let prune = PruneIndex::build(&seed_index);
            store.for_each_row(|word, row| {
                let qn = slice_norm(row);
                let mut stats = PruneStats::default();
                if let Some((ci, sim)) =
                    prune.best_concept(&seed_index, row, qn, base.tau, &mut stats)
                {
                    if sim >= base.tau && !seeds[ci].iter().any(|(s, _)| s == word) {
                        candidates[ci].push((word.to_string(), sim));
                    }
                }
            });
            // Keep each list in the total order fine-tuning sorts by, so
            // deriving a matcher at τ′ is a pure filter + truncate.
            for list in &mut candidates {
                list.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            }
        }

        Self {
            seed_syntax: build_seed_syntax(&seeds),
            store,
            names: concepts.iter().map(|(name, _)| name.clone()).collect(),
            seeds,
            candidates: CandidateBacking::Owned(candidates),
            base,
        }
    }

    /// Reassemble a prepared matcher from persisted candidate lists
    /// (the expensive vocabulary scan) plus the concept seed instances,
    /// which are re-embedded from `store` — the same constructor path
    /// [`PreparedMatcher::prepare`] uses, so a loaded matcher is
    /// indistinguishable from a freshly prepared one.
    ///
    /// `candidates` must be one list per concept, in concept order,
    /// exactly as [`PreparedMatcher::candidates`] returned them.
    pub fn from_parts(
        concepts: &[(String, Vec<String>)],
        store: impl Into<Arc<VectorStore>>,
        base: MatcherConfig,
        candidates: Vec<Vec<(String, f64)>>,
    ) -> Self {
        assert_eq!(
            candidates.len(),
            concepts.len(),
            "one candidate list per concept"
        );
        let store = store.into();
        let seeds: Vec<Vec<(String, Vector)>> = concepts
            .iter()
            .map(|(_, instances)| ConceptCluster::embed_seeds(instances, &store))
            .collect();
        Self {
            seed_syntax: build_seed_syntax(&seeds),
            store,
            names: concepts.iter().map(|(name, _)| name.clone()).collect(),
            seeds,
            candidates: CandidateBacking::Owned(candidates),
            base,
        }
    }

    /// Reassemble a prepared matcher from flat CSR candidate arrays —
    /// the artifact load path, where the arrays may be zero-copy views
    /// into a mapped file. Layout invariants are validated up front so
    /// corrupt metadata yields a named error, never a panic.
    pub fn from_frozen_candidates(
        concepts: &[(String, Vec<String>)],
        store: impl Into<Arc<VectorStore>>,
        base: MatcherConfig,
        starts: FrozenSlice<u64>,
        words: FrozenPool,
        sims: FrozenSlice<f64>,
    ) -> Result<Self, String> {
        if starts.len() != concepts.len() + 1 {
            return Err(format!(
                "candidate CSR has {} offsets for {} concepts",
                starts.len(),
                concepts.len()
            ));
        }
        if starts.first() != Some(&0) || starts.windows(2).any(|w| w[0] > w[1]) {
            return Err("candidate CSR offsets are not monotone from zero".into());
        }
        let total = *starts.last().expect("non-empty") as usize;
        if total != sims.len() || total != words.len() {
            return Err(format!(
                "candidate CSR claims {total} entries but has {} sims and {} words",
                sims.len(),
                words.len()
            ));
        }
        let store = store.into();
        let seeds: Vec<Vec<(String, Vector)>> = concepts
            .iter()
            .map(|(_, instances)| ConceptCluster::embed_seeds(instances, &store))
            .collect();
        Ok(Self {
            seed_syntax: build_seed_syntax(&seeds),
            store,
            names: concepts.iter().map(|(name, _)| name.clone()).collect(),
            seeds,
            candidates: CandidateBacking::Frozen {
                starts,
                words,
                sims,
            },
            base,
        })
    }

    /// Concept `ci`'s expansion words at `tau`, best first, capped at
    /// `cap` — the filter-and-truncate step of τ-derivation, on either
    /// candidate backing.
    fn filtered_words(&self, ci: usize, tau: f64, cap: usize) -> Vec<String> {
        match &self.candidates {
            CandidateBacking::Owned(lists) => lists[ci]
                .iter()
                .filter(|(_, sim)| *sim >= tau)
                .take(cap)
                .map(|(w, _)| w.clone())
                .collect(),
            CandidateBacking::Frozen {
                starts,
                words,
                sims,
            } => {
                let lo = starts[ci] as usize;
                let hi = starts[ci + 1] as usize;
                let sims = &sims[lo..hi];
                let mut out = Vec::new();
                for (k, sim) in sims.iter().enumerate() {
                    if out.len() >= cap {
                        break;
                    }
                    if *sim >= tau {
                        // Invalid UTF-8 only appears in corrupt lazily
                        // verified artifacts; skip defensively.
                        if let Some(w) = words.get_str(lo + k) {
                            out.push(w.to_string());
                        }
                    }
                }
                out
            }
        }
    }

    /// Derive the fine-tuned matcher for `config`. This is the single
    /// construction path for every `SimilarityMatcher` in the workspace
    /// — `fine_tune` itself is `prepare(τ)` + `matcher_at(τ)` — which is
    /// what makes engine-reuse sweeps bit-identical to per-τ rebuilds.
    ///
    /// Panics if `config.tau` is outside [`TAU_RANGE`] or below the τ
    /// this preparation was run at (candidates below the base τ were
    /// never collected).
    pub fn matcher_at(&self, config: MatcherConfig) -> SimilarityMatcher {
        let clusters = self.clusters_at(&config);
        SimilarityMatcher::from_clusters(
            Arc::clone(&self.store),
            clusters,
            Arc::clone(&self.seed_syntax),
            config,
        )
    }

    /// The fine-tuned concept clusters `config` derives — the shared
    /// first half of [`PreparedMatcher::matcher_at`] and
    /// [`PreparedMatcher::matcher_with_index`], exposed so callers
    /// that already hold a frozen index (the artifact load and
    /// delta-apply paths) can derive clusters without freezing a
    /// second, redundant index.
    ///
    /// Panics if `config.tau` is outside [`TAU_RANGE`] or below the τ
    /// this preparation was run at.
    pub fn clusters_at(&self, config: &MatcherConfig) -> Vec<ConceptCluster> {
        assert!(
            TAU_RANGE.contains(&config.tau),
            "tau must be in [0, 1] (TAU_RANGE)"
        );
        assert!(
            config.tau >= self.base.tau,
            "matcher_at(tau={}) below prepared base tau {}: candidates were only collected at the base tau",
            config.tau,
            self.base.tau
        );
        self.names
            .iter()
            .zip(&self.seeds)
            .enumerate()
            .map(|(ci, (name, seeds))| {
                // At τ ≥ 1 fine-tuning skips the vocabulary scan
                // entirely, so the expansion is empty by definition.
                let words: Vec<String> = if config.tau >= 1.0 {
                    Vec::new()
                } else {
                    self.filtered_words(ci, config.tau, config.max_expansion)
                };
                ConceptCluster::from_parts(name, seeds.clone(), &words, &self.store)
            })
            .collect()
    }

    /// The frozen refinement syntax of the embedded seed instances.
    pub fn seed_syntax(&self) -> &Arc<SeedSyntax> {
        &self.seed_syntax
    }

    /// The config the preparation ran with; its `tau` is the lowest τ
    /// [`PreparedMatcher::matcher_at`] accepts.
    pub fn base(&self) -> &MatcherConfig {
        &self.base
    }

    /// The shared vector store.
    pub fn store(&self) -> &Arc<VectorStore> {
        &self.store
    }

    /// Concept names, in preparation order.
    pub fn concept_names(&self) -> &[String] {
        &self.names
    }

    /// Per-concept untruncated expansion candidates `(word, sim)`,
    /// sorted `(sim desc, word asc)` — the persistable part of the
    /// preparation (seeds are re-embedded from the store on load).
    /// Materialized from either backing.
    pub fn candidates(&self) -> Vec<Vec<(String, f64)>> {
        match &self.candidates {
            CandidateBacking::Owned(lists) => lists.clone(),
            CandidateBacking::Frozen {
                starts,
                words,
                sims,
            } => (0..self.names.len())
                .map(|ci| {
                    let lo = starts[ci] as usize;
                    let hi = starts[ci + 1] as usize;
                    (lo..hi)
                        .filter_map(|k| Some((words.get_str(k)?.to_string(), sims[k])))
                        .collect()
                })
                .collect(),
        }
    }

    /// Flatten the candidate lists into the CSR arrays the artifact
    /// stores: `(starts, sims, word bytes pool)` with one global entry
    /// index across concepts, matching
    /// [`PreparedMatcher::from_frozen_candidates`].
    pub fn candidate_parts(&self) -> (Vec<u64>, Vec<f64>, FrozenPool) {
        let lists = self.candidates();
        let mut starts = Vec::with_capacity(lists.len() + 1);
        starts.push(0u64);
        let mut sims = Vec::new();
        let mut items: Vec<&[u8]> = Vec::new();
        for list in &lists {
            for (w, sim) in list {
                sims.push(*sim);
                items.push(w.as_bytes());
            }
            starts.push(sims.len() as u64);
        }
        (starts, sims, FrozenPool::from_items(items))
    }

    /// [`PreparedMatcher::matcher_at`] with a prebuilt [`VectorIndex`]
    /// (deserialized from an artifact) instead of re-freezing one from
    /// the derived clusters. The index must describe exactly the
    /// clusters `config` derives — validated against the derived
    /// layout, since a mismatched index would silently mis-score.
    ///
    /// `prune` is the persisted pruning index when the artifact carried
    /// one; `None` rebuilds it from `index` (a pure deterministic
    /// function of the index, so both paths are indistinguishable).
    pub fn matcher_with_index(
        &self,
        config: MatcherConfig,
        index: VectorIndex,
        prune: Option<Arc<PruneIndex>>,
    ) -> Result<SimilarityMatcher, String> {
        let clusters = self.clusters_at(&config);
        if index.dim() != self.store.dim() {
            return Err(format!(
                "persisted index dim {} != store dim {}",
                index.dim(),
                self.store.dim()
            ));
        }
        if index.concept_count() != clusters.len() {
            return Err(format!(
                "persisted index has {} concepts, derivation produced {}",
                index.concept_count(),
                clusters.len()
            ));
        }
        let mut expect_start = 0usize;
        for (ci, cluster) in clusters.iter().enumerate() {
            let (name, start, rows, seed_rows) = index
                .concept_layout()
                .nth(ci)
                .expect("concept_count checked");
            if name != cluster.concept
                || start != expect_start
                || rows != cluster.representative_count()
                || seed_rows != cluster.seed_count()
            {
                return Err(format!(
                    "persisted index concept `{name}` layout ({start}, {rows}, {seed_rows}) \
                     disagrees with the derived cluster `{}`",
                    cluster.concept
                ));
            }
            expect_start += rows;
        }
        Ok(SimilarityMatcher::from_clusters_prebuilt(
            Arc::clone(&self.store),
            clusters,
            index,
            prune,
            Arc::clone(&self.seed_syntax),
            config,
        ))
    }

    /// Incrementally evolve the preparation with additional seed
    /// instances and appended concepts — the engine delta-apply path.
    ///
    /// `concepts` is the **full** new concept list: every existing
    /// concept in its original position (with a superset of its
    /// instance list) plus any new concepts appended at the end.
    /// Returns the evolved preparation and the sorted set of *touched*
    /// concept indices — new concepts, concepts that gained seeds, and
    /// concepts whose candidate list changed (a word can migrate into
    /// or out of a list whose own seeds did not change) — i.e. the
    /// concepts whose frozen index blocks a caller cannot block-copy.
    ///
    /// The result is bit-identical to [`PreparedMatcher::prepare`] over
    /// `concepts`. This exploits the same τ-monotonic total order
    /// `(sim desc, word asc)` the per-τ derivation relies on: because
    /// seed vectors are only ever *added*, a vocabulary word's best
    /// concept can only be displaced by a newly added seed vector, so
    /// each word is re-scored against the small added-seed index
    /// instead of the full seed set. The exception is words that are
    /// string-equal to a seed instance of the new state ("shadowed"):
    /// the candidate record rule consults seed membership of the
    /// winning concept, so membership flips force a from-scratch
    /// re-score of those words against the full new seed index.
    pub fn with_additions(
        &self,
        concepts: &[(String, Vec<String>)],
    ) -> Result<(Self, Vec<usize>), String> {
        use std::collections::{BTreeSet, HashMap, HashSet};

        if concepts.len() < self.names.len() {
            return Err(format!(
                "additions shrink the concept list from {} to {}",
                self.names.len(),
                concepts.len()
            ));
        }
        for (ci, name) in self.names.iter().enumerate() {
            if concepts[ci].0 != *name {
                return Err(format!(
                    "concept {ci} renamed from `{name}` to `{}`; deltas may only add",
                    concepts[ci].0
                ));
            }
        }

        let seeds_new: Vec<Vec<(String, Vector)>> = concepts
            .iter()
            .map(|(_, instances)| ConceptCluster::embed_seeds(instances, &self.store))
            .collect();

        // Per concept, the embedded seed rows added relative to the
        // current preparation. Existing seed lists must be
        // order-preserving subsequences of the new ones (instance lists
        // come from sorted column values, so pure additions always are).
        let mut added: Vec<Vec<(String, Vector)>> = Vec::with_capacity(concepts.len());
        for (ci, new_seeds) in seeds_new.iter().enumerate() {
            let old_seeds: &[(String, Vector)] = if ci < self.seeds.len() {
                &self.seeds[ci]
            } else {
                &[]
            };
            let mut old = old_seeds.iter().peekable();
            let mut adds = Vec::new();
            for (word, vector) in new_seeds {
                match old.peek() {
                    Some((ow, _)) if ow == word => {
                        old.next();
                    }
                    _ => adds.push((word.clone(), vector.clone())),
                }
            }
            if old.next().is_some() {
                return Err(format!(
                    "concept `{}` lost seed instances; deltas may only add",
                    concepts[ci].0
                ));
            }
            added.push(adds);
        }

        let mut touched: BTreeSet<usize> = (self.names.len()..concepts.len()).collect();
        for (ci, adds) in added.iter().enumerate() {
            if !adds.is_empty() {
                touched.insert(ci);
            }
        }

        let mut lists = self.candidates();
        lists.resize(concepts.len(), Vec::new());

        let any_adds = added.iter().any(|a| !a.is_empty());
        if self.base.tau < 1.0 && any_adds {
            // Mini index over the newly added seed rows only — the only
            // vectors that can displace an incumbent best concept.
            // Concepts appear in ascending index order so challenger
            // tie-breaks mirror the fresh scan's first-wins rule.
            let mut mini_map: Vec<usize> = Vec::new();
            let mut mini = VectorIndexBuilder::new(self.store.dim());
            for (ci, adds) in added.iter().enumerate() {
                if adds.is_empty() {
                    continue;
                }
                mini.add_concept(
                    &concepts[ci].0,
                    adds.len(),
                    adds.iter().map(|(w, v)| (w.as_str(), v.as_slice())),
                );
                mini_map.push(ci);
            }
            let mini = mini.build();

            // Full seeds-only index over the new state, for shadowed
            // words.
            let mut full = VectorIndexBuilder::new(self.store.dim());
            for (ci, cluster_seeds) in seeds_new.iter().enumerate() {
                full.add_concept(
                    &concepts[ci].0,
                    cluster_seeds.len(),
                    cluster_seeds
                        .iter()
                        .map(|(w, v)| (w.as_str(), v.as_slice())),
                );
            }
            let full = full.build();

            let shadow: HashSet<&str> = seeds_new
                .iter()
                .flatten()
                .map(|(w, _)| w.as_str())
                .collect();
            let mut incumbent: HashMap<String, (usize, f64)> = HashMap::new();
            for (ci, list) in lists.iter().enumerate() {
                for (word, sim) in list {
                    incumbent.insert(word.clone(), (ci, *sim));
                }
            }

            let mut removals: Vec<(usize, String, f64)> = Vec::new();
            let mut insertions: Vec<(usize, String, f64)> = Vec::new();
            self.store.for_each_row(|word, row| {
                let orig = incumbent.get(word).copied();
                let qn = slice_norm(row);
                let cur = if shadow.contains(word) {
                    // Full re-score, mirroring `prepare` exactly.
                    let mut best: Option<(usize, f64)> = None;
                    for scores in full.scan(row, qn) {
                        let sim = scores.max.unwrap_or(f64::MIN);
                        if sim.is_finite() && best.is_none_or(|(_, b)| sim > b) {
                            best = Some((scores.concept, sim));
                        }
                    }
                    best.filter(|&(ci, sim)| {
                        sim >= self.base.tau && !seeds_new[ci].iter().any(|(s, _)| s == word)
                    })
                } else {
                    // Challenger pass. A challenger's score is its
                    // concept's max over *added* rows; it wins on a
                    // strictly higher score, or an equal score from an
                    // earlier concept (the fresh scan's first-wins
                    // tie-break). Because similarities never decrease
                    // under additions, the surviving value equals the
                    // winning concept's full new max.
                    let mut cur = orig;
                    for scores in mini.scan(row, qn) {
                        let sim = scores.max.unwrap_or(f64::MIN);
                        if !sim.is_finite() {
                            continue;
                        }
                        let ci = mini_map[scores.concept];
                        let replace = match cur {
                            None => true,
                            Some((bc, bs)) => sim > bs || (sim == bs && ci < bc),
                        };
                        if replace {
                            cur = Some((ci, sim));
                        }
                    }
                    // Non-shadowed words are never seeds of any concept
                    // in the new state, so only the τ gate applies.
                    cur.filter(|&(_, sim)| sim >= self.base.tau)
                };
                if cur != orig {
                    if let Some((ci, sim)) = orig {
                        removals.push((ci, word.to_string(), sim));
                    }
                    if let Some((ci, sim)) = cur {
                        insertions.push((ci, word.to_string(), sim));
                    }
                }
            });

            // Surgical merge into the sorted lists: binary search on
            // the `(sim desc, word asc)` total order.
            for (ci, word, sim) in removals {
                let list = &mut lists[ci];
                match list
                    .binary_search_by(|(w, s)| sim.total_cmp(s).then_with(|| w.as_str().cmp(&word)))
                {
                    Ok(i) => {
                        list.remove(i);
                    }
                    Err(_) => {
                        return Err(format!(
                            "candidate `{word}` missing from concept {ci} during delta merge"
                        ))
                    }
                }
                touched.insert(ci);
            }
            for (ci, word, sim) in insertions {
                let list = &mut lists[ci];
                match list
                    .binary_search_by(|(w, s)| sim.total_cmp(s).then_with(|| w.as_str().cmp(&word)))
                {
                    Ok(_) => {
                        return Err(format!(
                            "candidate `{word}` already present in concept {ci} during delta merge"
                        ))
                    }
                    Err(i) => list.insert(i, (word, sim)),
                }
                touched.insert(ci);
            }
        }

        let seed_syntax = Arc::new(
            self.seed_syntax
                .extend(added.iter().flatten().map(|(w, _)| w.as_str())),
        );
        Ok((
            Self {
                store: Arc::clone(&self.store),
                names: concepts.iter().map(|(name, _)| name.clone()).collect(),
                seeds: seeds_new,
                candidates: CandidateBacking::Owned(lists),
                seed_syntax,
                base: self.base.clone(),
            },
            touched.into_iter().collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_embed::SemanticSpaceBuilder;

    fn space() -> (VectorStore, Vec<(String, Vec<String>)>) {
        let store = SemanticSpaceBuilder::new(24, 11)
            .topic("anatomy")
            .correlated_topic("complication", "anatomy", 0.3)
            .words("anatomy", ["brain", "nerve", "lung", "spine", "ear"])
            .words("complication", ["cancer", "tumor", "stroke", "clot"])
            .generic_words(["walk", "green", "people"])
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
        (store, concepts)
    }

    #[test]
    fn derived_matcher_equals_fresh_fine_tune() {
        let (store, concepts) = space();
        let prep = PreparedMatcher::prepare(&concepts, store.clone(), MatcherConfig::with_tau(0.5));
        for tau in [0.5, 0.6, 0.75, 0.9, 1.0] {
            let derived = prep.matcher_at(MatcherConfig::with_tau(tau));
            let fresh = SimilarityMatcher::fine_tune(
                &concepts,
                store.clone(),
                MatcherConfig::with_tau(tau),
            );
            for (d, f) in derived.clusters().iter().zip(fresh.clusters()) {
                assert_eq!(
                    d.representative_words().collect::<Vec<_>>(),
                    f.representative_words().collect::<Vec<_>>(),
                    "tau {tau}"
                );
            }
            for phrase in ["brain tumor", "the ear", "green walk", "stroke risk"] {
                assert_eq!(
                    derived.match_phrase(phrase),
                    fresh.match_phrase(phrase),
                    "tau {tau}, phrase {phrase:?}"
                );
            }
        }
    }

    #[test]
    fn candidates_are_sorted_and_above_base_tau() {
        let (store, concepts) = space();
        let base = MatcherConfig::with_tau(0.4);
        let prep = PreparedMatcher::prepare(&concepts, store, base.clone());
        for list in prep.candidates() {
            assert!(list.iter().all(|(_, sim)| *sim >= base.tau));
            assert!(list
                .windows(2)
                .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        }
    }

    #[test]
    fn from_parts_round_trips_the_preparation() {
        let (store, concepts) = space();
        let prep = PreparedMatcher::prepare(&concepts, store.clone(), MatcherConfig::with_tau(0.5));
        let rebuilt =
            PreparedMatcher::from_parts(&concepts, store, prep.base().clone(), prep.candidates());
        for tau in [0.5, 0.8] {
            let a = prep.matcher_at(MatcherConfig::with_tau(tau));
            let b = rebuilt.matcher_at(MatcherConfig::with_tau(tau));
            for phrase in ["brain tumor", "the ear"] {
                assert_eq!(a.match_phrase(phrase), b.match_phrase(phrase));
            }
        }
    }

    #[test]
    fn frozen_candidates_derive_identical_matchers() {
        let (store, concepts) = space();
        let store = Arc::new(store);
        let base = MatcherConfig::with_tau(0.5);
        let prep = PreparedMatcher::prepare(&concepts, Arc::clone(&store), base.clone());
        let (starts, sims, words) = prep.candidate_parts();
        let frozen = PreparedMatcher::from_frozen_candidates(
            &concepts,
            store,
            base,
            starts.into(),
            words,
            sims.into(),
        )
        .expect("valid CSR");
        assert_eq!(prep.candidates(), frozen.candidates());
        for tau in [0.5, 0.7, 1.0] {
            let a = prep.matcher_at(MatcherConfig::with_tau(tau));
            let b = frozen.matcher_at(MatcherConfig::with_tau(tau));
            for phrase in ["brain tumor", "the ear", "stroke risk"] {
                assert_eq!(a.match_phrase(phrase), b.match_phrase(phrase), "tau {tau}");
            }
        }
    }

    #[test]
    fn frozen_candidates_reject_bad_layout() {
        let (store, concepts) = space();
        let store = Arc::new(store);
        let base = MatcherConfig::with_tau(0.5);
        let prep = PreparedMatcher::prepare(&concepts, Arc::clone(&store), base.clone());
        let (starts, sims, words) = prep.candidate_parts();
        let attempt = |st: Vec<u64>, si: Vec<f64>| {
            PreparedMatcher::from_frozen_candidates(
                &concepts,
                Arc::clone(&store),
                base.clone(),
                st.into(),
                words.clone(),
                si.into(),
            )
        };
        assert!(attempt(starts[..starts.len() - 1].to_vec(), sims.clone()).is_err());
        let mut non_mono = starts.clone();
        non_mono[1] = u64::MAX;
        assert!(attempt(non_mono, sims.clone()).is_err());
        assert!(attempt(starts.clone(), sims[..sims.len() - 1].to_vec()).is_err());
    }

    #[test]
    fn matcher_with_index_round_trips_and_validates() {
        let (store, concepts) = space();
        let prep = PreparedMatcher::prepare(&concepts, store, MatcherConfig::with_tau(0.5));
        let cfg = MatcherConfig::with_tau(0.6);
        let derived = prep.matcher_at(cfg.clone());
        let ix = derived.index();
        let rebuilt_ix = VectorIndex::from_parts(
            ix.dim(),
            ix.data().to_vec().into(),
            ix.norms().to_vec().into(),
            ix.rep_sums().to_vec().into(),
            (0..ix.row_count())
                .map(|r| ix.row_word(r).to_string())
                .collect(),
            ix.concept_layout()
                .map(|(n, s, r, k)| (n.to_string(), s, r, k))
                .collect(),
        )
        .expect("valid index parts");
        let via_prebuilt = prep
            .matcher_with_index(cfg.clone(), rebuilt_ix, None)
            .expect("layout matches");
        for phrase in ["brain tumor", "the ear"] {
            assert_eq!(
                derived.match_phrase(phrase),
                via_prebuilt.match_phrase(phrase)
            );
        }
        // An index derived at a different tau has a different layout.
        let other = prep.matcher_at(MatcherConfig::with_tau(1.0));
        let other_ix = other.index().clone();
        assert!(prep.matcher_with_index(cfg, other_ix, None).is_err());
    }

    #[test]
    fn with_additions_matches_fresh_prepare() {
        let (store, concepts) = space();
        let store = Arc::new(store);
        for base_tau in [0.0, 0.4, 0.6, 1.0] {
            let base = MatcherConfig::with_tau(base_tau);
            let prep = PreparedMatcher::prepare(&concepts, Arc::clone(&store), base.clone());
            // Merged state: "brain" (a vocabulary word, likely already
            // a candidate) becomes an Anatomy seed, Complication gains
            // "clot" mid-list, and a brand-new concept is appended.
            let mut merged = concepts.clone();
            merged[0].1.push("brain".to_string());
            merged[1].1.insert(0, "clot".to_string());
            merged.push(("Generic".to_string(), vec!["people".to_string()]));

            let (inc, touched) = prep.with_additions(&merged).expect("additive evolution");
            let fresh = PreparedMatcher::prepare(&merged, Arc::clone(&store), base.clone());
            assert_eq!(inc.candidates(), fresh.candidates(), "base tau {base_tau}");
            assert_eq!(inc.concept_names(), fresh.concept_names());
            assert_eq!(
                inc.seed_syntax().instances(),
                fresh.seed_syntax().instances()
            );
            assert!(touched.contains(&2), "new concepts are always touched");
            assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched is sorted");

            for tau in [base_tau, 0.8_f64.max(base_tau), 1.0] {
                let a = inc.matcher_at(MatcherConfig::with_tau(tau));
                let b = fresh.matcher_at(MatcherConfig::with_tau(tau));
                for phrase in ["brain tumor", "the ear", "green walk", "stroke risk"] {
                    assert_eq!(
                        a.match_phrase(phrase),
                        b.match_phrase(phrase),
                        "base {base_tau}, tau {tau}, phrase {phrase:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn with_additions_chain_equals_one_shot() {
        let (store, concepts) = space();
        let store = Arc::new(store);
        let base = MatcherConfig::with_tau(0.4);
        let prep = PreparedMatcher::prepare(&concepts, Arc::clone(&store), base.clone());

        let mut step1 = concepts.clone();
        step1[0].1.push("spine".to_string());
        let mut step2 = step1.clone();
        step2[1].1.push("tumor".to_string());
        step2.push(("Generic".to_string(), vec!["walk".to_string()]));

        let (after1, _) = prep.with_additions(&step1).unwrap();
        let (after2, _) = after1.with_additions(&step2).unwrap();
        let fresh = PreparedMatcher::prepare(&step2, Arc::clone(&store), base);
        assert_eq!(after2.candidates(), fresh.candidates());
        assert_eq!(
            after2.seed_syntax().instances(),
            fresh.seed_syntax().instances()
        );
    }

    #[test]
    fn with_additions_rejects_non_additive_changes() {
        let (store, concepts) = space();
        let store = Arc::new(store);
        let prep =
            PreparedMatcher::prepare(&concepts, Arc::clone(&store), MatcherConfig::with_tau(0.5));

        let mut shrunk = concepts.clone();
        shrunk.pop();
        assert!(prep.with_additions(&shrunk).unwrap_err().contains("shrink"));

        let mut renamed = concepts.clone();
        renamed[0].0 = "Renamed".to_string();
        assert!(prep
            .with_additions(&renamed)
            .unwrap_err()
            .contains("renamed"));

        let mut lost = concepts.clone();
        lost[1].1.remove(0);
        assert!(prep
            .with_additions(&lost)
            .unwrap_err()
            .contains("lost seed instances"));
    }

    #[test]
    #[should_panic(expected = "below prepared base tau")]
    fn matcher_below_base_tau_is_rejected() {
        let (store, concepts) = space();
        let prep = PreparedMatcher::prepare(&concepts, store, MatcherConfig::with_tau(0.7));
        let _ = prep.matcher_at(MatcherConfig::with_tau(0.5));
    }
}
