//! The frozen output of THOR's Preparation phase, reusable across τ.
//!
//! [`PreparedMatcher`] holds everything `fine_tune` computes that does
//! *not* depend on which τ the serve path finally asks for: the
//! embedded seeds and the **untruncated** competitive-expansion
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

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use thor_embed::{slice_norm, Vector, VectorStore};
use thor_fault::{FrozenPool, FrozenSlice};
use thor_index::{LaneRows, PruneIndex, PruneStats, VectorIndex, VectorIndexBuilder};
use thor_text::{normalize_phrase, GramBuildHasher, SeedSyntax};

use crate::matcher::{MatcherConfig, SimilarityMatcher, TAU_RANGE};

/// Frozen fine-tuning state: seeds + untruncated τ-expansion
/// candidates, valid for every τ′ ≥ the base config's τ.
#[derive(Debug, Clone)]
pub struct PreparedMatcher {
    store: Arc<VectorStore>,
    names: Vec<String>,
    /// Per concept, behind an `Arc`: a preparation evolved by a delta
    /// that leaves a concept's instances alone shares them.
    seeds: Vec<Arc<ConceptSeeds>>,
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
    /// The competitive argmax of every vocabulary word that is a seed
    /// instance — derived, never persisted. Filled by `prepare` and
    /// carried forward by `with_additions`; a loaded preparation
    /// computes it on its first `with_additions`.
    seed_best: OnceLock<Arc<SeedArgmax>>,
    base: MatcherConfig,
}

/// Per vocabulary word that is a seed instance of some concept: its
/// competitive best concept `(concept, sim)` over all seed rows at the
/// base τ, `None` when the best similarity is below τ. Unlike the
/// candidate lists it is *not* filtered by seed membership, so it is
/// exactly the incumbent an additive delta's challengers compete with.
/// Keyed by vocabulary words only, so it uses the engine-fixed
/// [`GramBuildHasher`] (no document text is ever inserted).
type SeedArgmax = HashMap<String, Option<(usize, f64)>, GramBuildHasher>;

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

/// One concept's Preparation input: its instance list (the table
/// column `R.C`) and the seeds embedded from it.
#[derive(Debug)]
pub struct ConceptSeeds {
    instances: Vec<String>,
    /// Per instance, whether it embedded. The seeds are the embedded
    /// instances, in instance order.
    embedded: Vec<bool>,
    seeds: Vec<(String, Vector)>,
}

/// Embed one instance as a seed: its normalized form and unit phrase
/// vector, or `None` when it normalizes to nothing or has no
/// in-vocabulary word. The normalized form is embedded as it is
/// (normalizing is idempotent).
fn embed_seed(instance: &str, store: &VectorStore) -> Option<(String, Vector)> {
    let norm = normalize_phrase(instance);
    if norm.is_empty() {
        return None;
    }
    let mut v = store.embed_normalized(&norm)?;
    v.normalize();
    Some((norm, v))
}

impl ConceptSeeds {
    /// Embed `instances` ([`embed_seed`] each), keeping the list.
    fn embed(instances: Vec<String>, store: &VectorStore) -> Self {
        let mut out = Self {
            instances: Vec::new(),
            embedded: Vec::with_capacity(instances.len()),
            seeds: Vec::new(),
        };
        for instance in &instances {
            out.push_embedded(embed_seed(instance, store));
        }
        out.instances = instances;
        out
    }

    fn push_embedded(&mut self, seed: Option<(String, Vector)>) {
        self.embedded.push(seed.is_some());
        self.seeds.extend(seed);
    }

    /// The instance list the concept was prepared from.
    pub fn instances(&self) -> &[String] {
        &self.instances
    }

    /// The embedded seeds `(normalized instance, unit vector)`, in
    /// instance order.
    pub(crate) fn seeds(&self) -> &[(String, Vector)] {
        &self.seeds
    }
}

/// The per-seed refinement syntax table for a preparation's embedded
/// seeds — every string a derived matcher can emit as
/// `matched_instance`.
fn build_seed_syntax(seeds: &[Arc<ConceptSeeds>]) -> Arc<SeedSyntax> {
    Arc::new(SeedSyntax::build(
        seeds
            .iter()
            .flat_map(|c| c.seeds())
            .map(|(word, _)| word.as_str()),
    ))
}

/// Every seed instance string of every concept.
fn seed_words(seeds: &[Arc<ConceptSeeds>]) -> HashSet<&str, GramBuildHasher> {
    seeds
        .iter()
        .flat_map(|c| c.seeds())
        .map(|(w, _)| w.as_str())
        .collect()
}

/// The Preparation input of a constructor: `(concept, instances)`
/// pairs, taken over when the caller hands them over and copied when
/// it lends them.
type ConceptList<'a> = Cow<'a, [(String, Vec<String>)]>;

/// Every concept's name, and its instances with their embedded seeds.
fn embed_concepts(
    concepts: ConceptList<'_>,
    store: &VectorStore,
) -> (Vec<String>, Vec<Arc<ConceptSeeds>>) {
    concepts
        .into_owned()
        .into_iter()
        .map(|(name, instances)| (name, Arc::new(ConceptSeeds::embed(instances, store))))
        .unzip()
}

/// Whether `word` is a seed instance of the concept with these seeds.
fn seeds_contain(seeds: &[(String, Vector)], word: &str) -> bool {
    seeds.iter().any(|(s, _)| s == word)
}

/// The competitive scan of the Preparation phase: every vocabulary
/// word `wanted` accepts goes to its most similar concept over a
/// seeds-only index (each word's norm computed once), and `visit`
/// receives that winner, or `None` below `tau`.
///
/// `tau` is passed to the bound-pruned `best_concept` as the argmax
/// floor: below it the winner is discarded anyway, so pruning those
/// concept scans cannot change what `visit` sees, and above the floor
/// `best_concept` is bit-identical to the exhaustive fold.
fn competitive_scan(
    names: &[String],
    seeds: &[Arc<ConceptSeeds>],
    store: &VectorStore,
    tau: f64,
    wanted: impl Fn(&str) -> bool,
    mut visit: impl FnMut(&str, Option<(usize, f64)>),
) {
    let mut builder = VectorIndexBuilder::new(store.dim());
    for (name, concept) in names.iter().zip(seeds) {
        let cluster_seeds = concept.seeds();
        builder.add_concept(
            name,
            cluster_seeds.len(),
            cluster_seeds
                .iter()
                .map(|(w, v)| (w.as_str(), v.as_slice())),
        );
    }
    let seed_index = builder.build();
    let prune = PruneIndex::build(&seed_index);
    store.for_each_row(|word, row| {
        if !wanted(word) {
            return;
        }
        let mut stats = PruneStats::default();
        let best = prune
            .best_concept(&seed_index, row, slice_norm(row), tau, &mut stats)
            .filter(|&(_, sim)| sim >= tau);
        visit(word, best);
    });
}

impl PreparedMatcher {
    /// Run the Preparation phase once: embed each concept's seeds and
    /// collect the full competitive τ-expansion candidate lists at
    /// `base.tau`. The result serves every τ′ ∈ [`base.tau`, 1].
    ///
    /// `concepts` are the `(concept, instances)` pairs; an owned list
    /// is kept as it is, a borrowed one copied.
    pub fn prepare<'a>(
        concepts: impl Into<ConceptList<'a>>,
        store: impl Into<Arc<VectorStore>>,
        base: MatcherConfig,
    ) -> Self {
        let store = store.into();
        let (names, seeds) = embed_concepts(concepts.into(), &store);

        // Competitive expansion: word → its best concept. A word joins
        // that concept's candidates unless it is one of its seeds; seed
        // words keep their unfiltered winner for later deltas.
        let mut candidates: Vec<Vec<(String, f64)>> = vec![Vec::new(); names.len()];
        let mut seed_best = SeedArgmax::default();
        if base.tau < 1.0 {
            let is_seed = seed_words(&seeds);
            competitive_scan(
                &names,
                &seeds,
                &store,
                base.tau,
                |_| true,
                |word, best| {
                    if is_seed.contains(word) {
                        seed_best.insert(word.to_string(), best);
                    }
                    if let Some((ci, sim)) = best {
                        if !seeds_contain(seeds[ci].seeds(), word) {
                            candidates[ci].push((word.to_string(), sim));
                        }
                    }
                },
            );
            // Keep each list in the total order fine-tuning sorts by, so
            // deriving a matcher at τ′ is a pure filter + truncate.
            for list in &mut candidates {
                list.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            }
        }

        Self {
            seed_syntax: build_seed_syntax(&seeds),
            store,
            names,
            seeds,
            candidates: CandidateBacking::Owned(candidates),
            seed_best: OnceLock::from(Arc::new(seed_best)),
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
    pub fn from_parts<'a>(
        concepts: impl Into<ConceptList<'a>>,
        store: impl Into<Arc<VectorStore>>,
        base: MatcherConfig,
        candidates: Vec<Vec<(String, f64)>>,
    ) -> Self {
        let store = store.into();
        let (names, seeds) = embed_concepts(concepts.into(), &store);
        assert_eq!(
            candidates.len(),
            names.len(),
            "one candidate list per concept"
        );
        Self {
            seed_syntax: build_seed_syntax(&seeds),
            store,
            names,
            seeds,
            candidates: CandidateBacking::Owned(candidates),
            seed_best: OnceLock::new(),
            base,
        }
    }

    /// Reassemble a prepared matcher from flat CSR candidate arrays —
    /// the artifact load path, where the arrays may be zero-copy views
    /// into a mapped file. Layout invariants are validated up front so
    /// corrupt metadata yields a named error, never a panic.
    pub fn from_frozen_candidates<'a>(
        concepts: impl Into<ConceptList<'a>>,
        store: impl Into<Arc<VectorStore>>,
        base: MatcherConfig,
        starts: FrozenSlice<u64>,
        words: FrozenPool,
        sims: FrozenSlice<f64>,
    ) -> Result<Self, String> {
        let concepts = concepts.into();
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
        let (names, seeds) = embed_concepts(concepts, &store);
        Ok(Self {
            seed_syntax: build_seed_syntax(&seeds),
            store,
            names,
            seeds,
            candidates: CandidateBacking::Frozen {
                starts,
                words,
                sims,
            },
            seed_best: OnceLock::new(),
            base,
        })
    }

    /// Concept `ci`'s expansion words at `config`, best first: the
    /// filter-and-truncate step of τ-derivation, on either candidate
    /// backing. At τ ≥ 1 fine-tuning skips the vocabulary scan
    /// entirely, so the expansion is empty by definition.
    fn expansion_words(&self, ci: usize, config: &MatcherConfig) -> Vec<&str> {
        let (tau, cap) = (config.tau, config.max_expansion);
        if tau >= 1.0 {
            return Vec::new();
        }
        match &self.candidates {
            CandidateBacking::Owned(lists) => lists[ci]
                .iter()
                .filter(|(_, sim)| *sim >= tau)
                .take(cap)
                .map(|(w, _)| w.as_str())
                .collect(),
            CandidateBacking::Frozen {
                starts,
                words,
                sims,
            } => (starts[ci] as usize..starts[ci + 1] as usize)
                .filter(|&k| sims[k] >= tau)
                // Invalid UTF-8 only appears in corrupt lazily verified
                // artifacts; skip defensively.
                .filter_map(|k| words.get_str(k))
                .take(cap)
                .collect(),
        }
    }

    /// Concept `ci`'s expansion rows at `config`: each expansion word
    /// with its raw store row. Expansion words are exact store keys
    /// (they came from a store scan), so they are looked up raw on
    /// either backing; a word the store lacks makes no row.
    fn expansion_rows(
        &self,
        ci: usize,
        config: &MatcherConfig,
    ) -> impl Iterator<Item = (&str, &[f32])> {
        self.expansion_words(ci, config)
            .into_iter()
            .filter_map(|word| Some((word, self.store.row_raw(word)?)))
    }

    /// Append concept `ci`'s fine-tuned cluster at `config` to
    /// `builder` as one block: its seeds, then its expansion rows
    /// normalized to unit length.
    fn add_block(&self, ci: usize, config: &MatcherConfig, builder: &mut VectorIndexBuilder) {
        let seeds = self.seeds[ci].seeds();
        let expansion: Vec<(&str, Vector)> = self
            .expansion_rows(ci, config)
            .map(|(word, row)| {
                let mut v = Vector(row.to_vec());
                v.normalize();
                (word, v)
            })
            .collect();
        builder.add_concept(
            &self.names[ci],
            seeds.len(),
            seeds
                .iter()
                .map(|(w, v)| (w.as_str(), v.as_slice()))
                .chain(expansion.iter().map(|(w, v)| (*w, v.as_slice()))),
        );
    }

    /// Panic unless `config.tau` is in [`TAU_RANGE`] and at or above
    /// the base τ (candidates below it were never collected).
    fn check_tau(&self, config: &MatcherConfig) {
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
    }

    /// Derive the fine-tuned matcher for `config`. This is the single
    /// construction path for every `SimilarityMatcher` in the workspace
    /// — `fine_tune` itself is `prepare(τ)` + `matcher_at(τ)` — which is
    /// what makes engine-reuse sweeps bit-identical to per-τ rebuilds.
    /// It freezes every concept's block into the index and the pruning
    /// structures over it, timed into the matcher's
    /// [`FineTuneStats::index_build`](crate::FineTuneStats::index_build).
    ///
    /// Panics if `config.tau` is outside [`TAU_RANGE`] or below the τ
    /// this preparation was run at (candidates below the base τ were
    /// never collected).
    pub fn matcher_at(&self, config: MatcherConfig) -> SimilarityMatcher {
        self.check_tau(&config);
        let t0 = Instant::now();
        let mut builder = VectorIndexBuilder::new(self.store.dim());
        for ci in 0..self.names.len() {
            self.add_block(ci, &config, &mut builder);
        }
        let index = builder.build();
        let prune = Arc::new(PruneIndex::build(&index));
        let built = t0.elapsed();
        SimilarityMatcher::from_index(
            Arc::clone(&self.store),
            index,
            prune,
            Arc::clone(&self.seed_syntax),
            config,
            Some(built),
        )
    }

    /// The frozen refinement syntax of the embedded seed instances.
    pub fn seed_syntax(&self) -> &Arc<SeedSyntax> {
        &self.seed_syntax
    }

    /// Concept `ci`'s instances and embedded seeds.
    pub fn concept_seeds(&self, ci: usize) -> &Arc<ConceptSeeds> {
        &self.seeds[ci]
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
    /// and [`PruneIndex`] (deserialized from an artifact) instead of
    /// freezing them from the derivation. The index must have exactly
    /// the layout `config` derives — each concept's name, first row,
    /// row count and seed-row count, checked against the seeds and the
    /// expansion rows without building a block — since a mismatched
    /// index would silently mis-score.
    pub fn matcher_with_index(
        &self,
        config: MatcherConfig,
        index: VectorIndex,
        prune: Arc<PruneIndex>,
    ) -> Result<SimilarityMatcher, String> {
        self.check_tau(&config);
        if index.dim() != self.store.dim() {
            return Err(format!(
                "persisted index dim {} != store dim {}",
                index.dim(),
                self.store.dim()
            ));
        }
        if index.concept_count() != self.names.len() {
            return Err(format!(
                "persisted index has {} concepts, derivation produced {}",
                index.concept_count(),
                self.names.len()
            ));
        }
        let mut expect_start = 0usize;
        for (ci, (name, start, rows, seed_rows)) in index.concept_layout().enumerate() {
            let seeds = self.seeds[ci].seeds().len();
            let derived = seeds + self.expansion_rows(ci, &config).count();
            if name != self.names[ci]
                || start != expect_start
                || rows != derived
                || seed_rows != seeds
            {
                return Err(format!(
                    "persisted index concept `{name}` layout ({start}, {rows}, {seed_rows}) \
                     disagrees with the derived cluster `{}` ({expect_start}, {derived}, {seeds})",
                    self.names[ci]
                ));
            }
            expect_start += rows;
        }
        Ok(SimilarityMatcher::from_index(
            Arc::clone(&self.store),
            index,
            prune,
            Arc::clone(&self.seed_syntax),
            config,
            None,
        ))
    }

    /// The matcher [`PreparedMatcher::matcher_at`] derives at
    /// `parent`'s configuration, built concept by concept from
    /// `parent`: this preparation must be the one
    /// [`PreparedMatcher::with_additions`] evolved from `parent`'s, and
    /// `touched` the concepts it returned. Every other concept keeps
    /// `parent`'s index block and pruning balls (copied, row ids
    /// rebased); only touched and appended concepts get a block built
    /// and clustered. Bit-identical to `matcher_at`, because an
    /// untouched concept has the same seeds and candidates in both
    /// preparations.
    pub fn evolve_matcher(
        &self,
        parent: &SimilarityMatcher,
        touched: &[usize],
    ) -> SimilarityMatcher {
        let config = parent.config().clone();
        let parent_index = parent.index();
        // Per concept, whether it is the parent's: neither touched nor
        // appended.
        let mut kept = vec![false; self.names.len()];
        kept[..parent_index.concept_count()].fill(true);
        for &ci in touched {
            kept[ci] = false;
        }
        let mut builder = VectorIndexBuilder::new(self.store.dim());
        for (ci, &keep) in kept.iter().enumerate() {
            if keep {
                builder.add_concept_from(parent_index, ci);
            } else {
                self.add_block(ci, &config, &mut builder);
            }
        }
        let index = builder.build();
        let prune = parent.prune_index().evolve(parent_index, &index, &kept);
        SimilarityMatcher::from_index(
            Arc::clone(&self.store),
            index,
            Arc::new(prune),
            Arc::clone(&self.seed_syntax),
            config,
            None,
        )
    }

    /// Whether the seed words' competitive argmax is in memory: always
    /// after [`PreparedMatcher::prepare`] or an evolution with new
    /// seeds, and for a loaded preparation only once its first
    /// [`PreparedMatcher::with_additions`] has computed it.
    pub fn seed_argmax_ready(&self) -> bool {
        self.seed_best.get().is_some()
    }

    /// The seed words' competitive argmax, computed on first use by a
    /// loaded preparation with the scan `prepare` runs, restricted to
    /// the seed words.
    fn seed_argmax(&self) -> &SeedArgmax {
        self.seed_best.get_or_init(|| {
            let is_seed = seed_words(&self.seeds);
            let mut best = SeedArgmax::with_capacity_and_hasher(is_seed.len(), Default::default());
            competitive_scan(
                &self.names,
                &self.seeds,
                &self.store,
                self.base.tau,
                |word| is_seed.contains(word),
                |word, winner| {
                    best.insert(word.to_string(), winner);
                },
            );
            Arc::new(best)
        })
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
    /// each word is re-scored against the small added-seed index only,
    /// starting from its incumbent. For most words the incumbent is
    /// their candidate entry. A word that is a seed instance may be
    /// missing from the lists although it has a winner (the lists drop
    /// a concept's own seeds), so an old seed word starts from its
    /// retained unfiltered argmax instead, and the seed-membership
    /// filter is applied after the challengers.
    pub fn with_additions<I: AsRef<[String]>>(
        &self,
        concepts: &[(String, I)],
    ) -> Result<(Self, Vec<usize>), String> {
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

        // Per concept, its instances with their seeds, and the seed
        // rows added relative to the current preparation. The current
        // instance list must be an order-preserving subsequence of the
        // new one (instance lists come from sorted column values, so
        // pure additions always are). An unchanged concept shares its
        // `ConceptSeeds`; a grown one keeps its old seeds and embeds
        // only its new instances, in the order `ConceptSeeds::embed` would.
        let mut seeds_new: Vec<Arc<ConceptSeeds>> = Vec::with_capacity(concepts.len());
        let mut added: Vec<Vec<(String, Vector)>> = Vec::with_capacity(concepts.len());
        for (ci, (name, instances)) in concepts.iter().enumerate() {
            let instances = instances.as_ref();
            let old = self.seeds.get(ci);
            if let Some(old) = old.filter(|old| old.instances() == instances) {
                seeds_new.push(Arc::clone(old));
                added.push(Vec::new());
                continue;
            }
            let (old_instances, old_embedded, old_seeds) = match old {
                Some(o) => (&o.instances[..], &o.embedded[..], &o.seeds[..]),
                None => (&[][..], &[][..], &[][..]),
            };
            let mut grown = ConceptSeeds {
                instances: instances.to_vec(),
                embedded: Vec::with_capacity(instances.len()),
                seeds: Vec::new(),
            };
            let mut adds = Vec::new();
            let (mut next_old, mut next_seed) = (0usize, 0usize);
            for instance in instances {
                if old_instances.get(next_old) == Some(instance) {
                    let seed = old_embedded[next_old].then(|| {
                        next_seed += 1;
                        old_seeds[next_seed - 1].clone()
                    });
                    next_old += 1;
                    grown.push_embedded(seed);
                } else {
                    let seed = embed_seed(instance, &self.store);
                    adds.extend(seed.clone());
                    grown.push_embedded(seed);
                }
            }
            if next_old < old_instances.len() {
                return Err(format!(
                    "concept `{name}` lost seed instances; deltas may only add"
                ));
            }
            seeds_new.push(Arc::new(grown));
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

        // Without new seed rows no winner can change, and the seed
        // words' argmax carries over as it is (still pending after a
        // load).
        let mut seed_best = self.seed_best.clone();
        let any_adds = added.iter().any(|a| !a.is_empty());
        if self.base.tau < 1.0 && any_adds {
            let old_best = self.seed_argmax();

            // Mini index over the newly added seed rows only — the only
            // vectors that can displace an incumbent best concept.
            // Concepts appear in ascending index order so challenger
            // tie-breaks mirror the fresh scan's first-wins rule. Each
            // word is scored against all of its rows at once through
            // one interleaved copy (rows of neighbouring concepts may
            // share a kernel block), then folded per concept in row
            // order.
            let mut mini_map: Vec<(usize, usize)> = Vec::new();
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
                mini_map.push((ci, adds.len()));
            }
            let mini = LaneRows::of_index(&mini.build());
            let mut sims: Vec<f64> = Vec::new();

            let is_seed = seed_words(&seeds_new);
            let mut incumbent: HashMap<&str, (usize, f64), GramBuildHasher> =
                HashMap::with_capacity_and_hasher(
                    lists.iter().map(Vec::len).sum(),
                    Default::default(),
                );
            for (ci, list) in lists.iter().enumerate() {
                for (word, sim) in list {
                    incumbent.insert(word.as_str(), (ci, *sim));
                }
            }

            let mut new_best =
                SeedArgmax::with_capacity_and_hasher(is_seed.len(), Default::default());
            let mut removals: Vec<(usize, String, f64)> = Vec::new();
            let mut insertions: Vec<(usize, String, f64)> = Vec::new();
            self.store.for_each_row(|word, row| {
                let orig = incumbent.get(word).copied();
                // Challenger pass. A challenger's score is its concept's
                // max over *added* rows; it wins on a strictly higher
                // score, or an equal score from an earlier concept (the
                // fresh scan's first-wins tie-break). Because
                // similarities never decrease under additions, the
                // surviving value equals the winning concept's full new
                // max.
                let mut best = old_best.get(word).copied().unwrap_or(orig);
                mini.cosines(row, slice_norm(row), &mut sims);
                let mut rows = sims.iter();
                for &(ci, count) in &mini_map {
                    let max = rows
                        .by_ref()
                        .take(count)
                        .fold(None, |max: Option<f64>, &s| {
                            Some(max.map_or(s, |a| a.max(s)))
                        });
                    let Some(sim) = max.filter(|s| s.is_finite()) else {
                        continue;
                    };
                    let replace = match best {
                        None => true,
                        Some((bc, bs)) => sim > bs || (sim == bs && ci < bc),
                    };
                    if replace {
                        best = Some((ci, sim));
                    }
                }
                let best = best.filter(|&(_, sim)| sim >= self.base.tau);
                let cur = if is_seed.contains(word) {
                    new_best.insert(word.to_string(), best);
                    best.filter(|&(ci, _)| !seeds_contain(seeds_new[ci].seeds(), word))
                } else {
                    best
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
            seed_best = OnceLock::from(Arc::new(new_best));

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
                seed_best,
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

    fn instances(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seeds_from_known_instances() {
        let (store, _) = space();
        let c = ConceptSeeds::embed(instances(&["Brain", "(Lung EAR)"]), &store);
        let words: Vec<&str> = c.seeds().iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(words, ["brain", "lung ear"]);
        assert_eq!(c.embedded, [true, true]);
        for (word, v) in c.seeds() {
            assert!((v.norm() - 1.0).abs() < 1e-6, "{word} is not unit length");
            let mut want = store.embed_phrase(word).unwrap();
            want.normalize();
            assert_eq!(v.as_slice(), want.as_slice(), "{word}");
        }
    }

    #[test]
    fn oov_instances_skipped() {
        let (store, _) = space();
        let list = instances(&["brain", "xyzzy", "***", "ear"]);
        let c = ConceptSeeds::embed(list.clone(), &store);
        assert_eq!(c.instances(), list);
        assert_eq!(c.embedded, [true, false, false, true]);
        let words: Vec<&str> = c.seeds().iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(words, ["brain", "ear"]);
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
            let (d, f) = (derived.index(), fresh.index());
            assert!(d.concept_layout().eq(f.concept_layout()), "tau {tau}");
            assert!(
                (0..d.row_count()).all(|r| d.row_word(r) == f.row_word(r)),
                "tau {tau}"
            );
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
        let prune = Arc::new(PruneIndex::build(&rebuilt_ix));
        let via_prebuilt = prep
            .matcher_with_index(cfg.clone(), rebuilt_ix, prune)
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
        let other_prune = Arc::new(PruneIndex::build(&other_ix));
        assert!(prep.matcher_with_index(cfg, other_ix, other_prune).is_err());
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

    /// Concept `ci`'s block of `ix`: its name, seed-row count, row
    /// words, row bits and row-sum bits.
    fn block(ix: &VectorIndex, ci: usize) -> (&str, usize, Vec<&str>, Vec<u32>, Vec<u32>) {
        let (name, start, rows, seed_rows) = ix.concept_layout().nth(ci).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            name,
            seed_rows,
            (start..start + rows).map(|r| ix.row_word(r)).collect(),
            (start..start + rows)
                .flat_map(|r| bits(ix.row(r)))
                .collect(),
            bits(ix.rep_sum(ci)),
        )
    }

    /// The matcher evolved from its parent's, concept by concept, is
    /// the matcher a fresh preparation derives: same index and pruning
    /// bytes, and every untouched concept's block is the parent's.
    #[test]
    fn evolved_matcher_equals_the_derived_one() {
        let (store, concepts) = space();
        let store = Arc::new(store);
        for tau in [0.4, 0.7, 1.0] {
            let config = MatcherConfig::with_tau(tau);
            let prep = PreparedMatcher::prepare(&concepts, Arc::clone(&store), config.clone());
            let parent = prep.matcher_at(config.clone());
            let mut merged = concepts.clone();
            merged[1].1.push("tumor".to_string());
            merged.push(("Generic".to_string(), vec!["people".to_string()]));
            let (evolved_prep, touched) = prep.with_additions(&merged).unwrap();
            let evolved = evolved_prep.evolve_matcher(&parent, &touched);
            let fresh = PreparedMatcher::prepare(&merged, Arc::clone(&store), config.clone())
                .matcher_at(config);

            let (a, b) = (evolved.index(), fresh.index());
            assert_eq!(a.data(), b.data(), "tau {tau}");
            assert_eq!(a.norms(), b.norms());
            assert_eq!(a.rep_sums(), b.rep_sums());
            assert!(a.concept_layout().eq(b.concept_layout()));
            assert!((0..a.row_count()).all(|r| a.row_word(r) == b.row_word(r)));
            let (p, q) = (evolved.prune_index(), fresh.prune_index());
            assert_eq!(p.meta_bytes(), q.meta_bytes());
            assert_eq!(p.members(), q.members());
            assert_eq!(p.centroids(), q.centroids());
            assert_eq!(p.radii(), q.radii());
            assert_eq!(p.concept_centroids(), q.concept_centroids());
            assert_eq!(p.concept_radii(), q.concept_radii());
            let (pix, eix) = (parent.index(), evolved.index());
            for ci in (0..pix.concept_count()).filter(|ci| !touched.contains(ci)) {
                assert_eq!(block(pix, ci), block(eix, ci), "tau {tau}, concept {ci}");
            }
            for phrase in ["brain tumor", "the ear", "green walk", "stroke risk"] {
                assert_eq!(evolved.match_phrase(phrase), fresh.match_phrase(phrase));
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

    /// A 3-dim space with exact ties: `alpha` and `twin` are parallel,
    /// so a concept seeded by either scores both at 1.0. Concept `A`
    /// seeds `twin`, `B` seeds `alpha` and `beta`; `alpha`'s unfiltered
    /// best is therefore `A` (tie, earlier concept), which it does not
    /// seed, so it is one of `A`'s candidates.
    fn tie_space() -> (Arc<VectorStore>, Vec<(String, Vec<String>)>) {
        let mut store = VectorStore::new(3);
        for (word, v) in [
            ("alpha", [1.0, 0.0, 0.0]),
            ("twin", [2.0, 0.0, 0.0]),
            ("beta", [0.0, 1.0, 0.0]),
            ("nearbeta", [0.1, 1.0, 0.0]),
            ("gamma", [0.0, 0.0, 1.0]),
            ("mix", [0.6, 0.8, 0.0]),
            ("other", [0.0, 0.6, 0.8]),
        ] {
            store.insert(word, Vector(v.to_vec()));
        }
        let concepts = vec![
            ("A".to_string(), vec!["twin".to_string()]),
            (
                "B".to_string(),
                vec!["alpha".to_string(), "beta".to_string()],
            ),
        ];
        (Arc::new(store), concepts)
    }

    fn candidate_bits(p: &PreparedMatcher) -> Vec<Vec<(String, u64)>> {
        p.candidates()
            .into_iter()
            .map(|list| list.into_iter().map(|(w, s)| (w, s.to_bits())).collect())
            .collect()
    }

    /// The seed words' argmax, similarities as bits, sorted by word.
    fn argmax_bits(p: &PreparedMatcher) -> Vec<(String, Option<(usize, u64)>)> {
        let mut bits: Vec<_> = p
            .seed_argmax()
            .iter()
            .map(|(w, best)| (w.clone(), best.map(|(ci, s)| (ci, s.to_bits()))))
            .collect();
        bits.sort();
        bits
    }

    /// Evolve `prep` to `concepts` and check it bit for bit against a
    /// fresh preparation of `concepts`: candidates and seed argmax.
    fn evolve_checked(
        prep: &PreparedMatcher,
        concepts: &[(String, Vec<String>)],
    ) -> PreparedMatcher {
        let (evolved, _) = prep.with_additions(concepts).expect("additive");
        let fresh =
            PreparedMatcher::prepare(concepts, Arc::clone(prep.store()), prep.base().clone());
        assert_eq!(candidate_bits(&evolved), candidate_bits(&fresh));
        assert_eq!(argmax_bits(&evolved), argmax_bits(&fresh));
        evolved
    }

    fn winner(p: &PreparedMatcher, word: &str) -> Option<(usize, f64)> {
        p.seed_argmax()[word]
    }

    fn is_candidate(p: &PreparedMatcher, ci: usize, word: &str) -> bool {
        p.candidates()[ci].iter().any(|(w, _)| w == word)
    }

    #[test]
    fn seed_readded_to_an_earlier_concept_ties_there_and_drops() {
        let (store, concepts) = tie_space();
        let prep = PreparedMatcher::prepare(&concepts, store, MatcherConfig::with_tau(0.5));
        assert_eq!(winner(&prep, "beta"), Some((1, 1.0)));
        let mut next = concepts.clone();
        next[0].1.push("beta".to_string());
        let evolved = evolve_checked(&prep, &next);
        assert_eq!(winner(&evolved, "beta"), Some((0, 1.0)));
        assert!(!is_candidate(&evolved, 0, "beta") && !is_candidate(&evolved, 1, "beta"));
        // Words closest to `beta` follow the tie to the earlier concept.
        assert!(is_candidate(&prep, 1, "mix") && is_candidate(&evolved, 0, "mix"));
    }

    #[test]
    fn seed_readded_to_a_later_concept_keeps_its_incumbent() {
        let (store, concepts) = tie_space();
        let prep = PreparedMatcher::prepare(&concepts, store, MatcherConfig::with_tau(0.5));
        let mut next = concepts.clone();
        next[1].1.push("twin".to_string());
        let evolved = evolve_checked(&prep, &next);
        assert_eq!(winner(&evolved, "twin"), Some((0, 1.0)));
        assert!(!is_candidate(&evolved, 0, "twin") && !is_candidate(&evolved, 1, "twin"));
    }

    #[test]
    fn seed_word_winning_a_concept_it_does_not_seed_stays_its_candidate() {
        let (store, concepts) = tie_space();
        let prep = PreparedMatcher::prepare(&concepts, store, MatcherConfig::with_tau(0.5));
        assert_eq!(winner(&prep, "alpha"), Some((0, 1.0)));
        assert!(is_candidate(&prep, 0, "alpha"));
        // An unrelated seed leaves it where it is ...
        let mut step1 = concepts.clone();
        step1[1].1.push("gamma".to_string());
        let after1 = evolve_checked(&prep, &step1);
        assert!(is_candidate(&after1, 0, "alpha"));
        // ... until it becomes a seed of its winner too.
        let mut step2 = step1.clone();
        step2[0].1.insert(0, "alpha".to_string());
        let after2 = evolve_checked(&after1, &step2);
        assert_eq!(winner(&after2, "alpha"), Some((0, 1.0)));
        assert!(!is_candidate(&after2, 0, "alpha"));
    }

    #[test]
    fn new_concept_then_its_seeds_evolve_like_prepare() {
        let (store, concepts) = tie_space();
        let prep = PreparedMatcher::prepare(&concepts, store, MatcherConfig::with_tau(0.5));
        let mut step1 = concepts.clone();
        step1.push(("C".to_string(), Vec::new()));
        let after1 = evolve_checked(&prep, &step1);
        let mut step2 = step1.clone();
        step2[2].1 = vec!["alpha".to_string(), "gamma".to_string()];
        let after2 = evolve_checked(&after1, &step2);
        // `alpha` ties at 1.0 in the new, later concept: it stays put.
        assert_eq!(winner(&after2, "alpha"), Some((0, 1.0)));
        assert!(is_candidate(&after2, 0, "alpha"));
        assert_eq!(winner(&after2, "gamma"), Some((2, 1.0)));
        assert!(is_candidate(&after1, 1, "other") && is_candidate(&after2, 2, "other"));
    }

    #[test]
    fn loaded_preparation_scans_its_seed_words_once() {
        let (store, concepts) = tie_space();
        let base = MatcherConfig::with_tau(0.5);
        let prep = PreparedMatcher::prepare(&concepts, Arc::clone(&store), base.clone());
        assert!(prep.seed_argmax_ready());
        let loaded = PreparedMatcher::from_parts(&concepts, store, base, prep.candidates());
        assert!(!loaded.seed_argmax_ready());

        // No new seed rows: nothing to re-decide, still pending.
        let mut empty = concepts.clone();
        empty.push(("C".to_string(), Vec::new()));
        let (unscanned, _) = loaded.with_additions(&empty).unwrap();
        assert!(!loaded.seed_argmax_ready() && !unscanned.seed_argmax_ready());

        let mut next = concepts.clone();
        next[0].1.push("beta".to_string());
        let evolved = evolve_checked(&loaded, &next);
        assert!(loaded.seed_argmax_ready() && evolved.seed_argmax_ready());
        assert_eq!(argmax_bits(&loaded), argmax_bits(&prep));
        assert_eq!(
            candidate_bits(&evolved),
            candidate_bits(&prep.with_additions(&next).unwrap().0)
        );
    }

    #[test]
    #[should_panic(expected = "below prepared base tau")]
    fn matcher_below_base_tau_is_rejected() {
        let (store, concepts) = space();
        let prep = PreparedMatcher::prepare(&concepts, store, MatcherConfig::with_tau(0.7));
        let _ = prep.matcher_at(MatcherConfig::with_tau(0.5));
    }
}
