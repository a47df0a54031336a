//! Phase ② — entity extraction: noun-phrase parsing, semantic matching,
//! syntactic refinement (Algorithm 1 lines 3–15).
//!
//! Refinement runs on the allocation-free `thor_text::kernels` fast
//! paths with a score-bound early abandon: the combined score is a
//! weighted mean of three terms each ≤ 1, so a candidate whose upper
//! bound `combine(semantic, 1, 1)` cannot beat the running best is
//! skipped before any syntactic work. Ties never prune, so the selected
//! entity — and every downstream byte — is identical to the oracle
//! [`refine_candidates_reference`], which scores every candidate with
//! the documented reference measures and exists only for tests and
//! benchmarks to compare against.
//!
//! Matching and refining a noun phrase is a pure function of its text
//! once an engine is built, so each engine keeps a [`PhraseMemo`] of
//! refined winners: a phrase seen before skips both steps.

use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use thor_index::{CacheStats, PhraseCache};
use thor_match::{CandidateEntity, SimilarityMatcher};
use thor_nlp::{chunk_sentence, Lexicon, RuleTagger};
use thor_text::{
    gestalt_bound, gestalt_prepared, gestalt_similarity, jaccard_prepared, jaccard_words,
    token_spans, trim_stopwords, PhraseSyntax, ScoreScratch,
};

use crate::config::{ScoreWeights, ThorConfig};
use crate::entity::ExtractedEntity;
use crate::resilient::DocTally;
use crate::segment::SegmentedSentence;

/// The process-wide POS tagger. `RuleTagger::default()` builds lexicon
/// and suffix tables; constructing it per `extract_tallied` call was
/// measurable, and the tagger is immutable after construction.
pub(crate) fn shared_tagger() -> &'static RuleTagger {
    static TAGGER: OnceLock<RuleTagger> = OnceLock::new();
    TAGGER.get_or_init(RuleTagger::default)
}

/// The process-wide English lexicon backing the nominal-anchor test.
pub(crate) fn shared_lexicon() -> &'static Lexicon {
    static LEXICON: OnceLock<Lexicon> = OnceLock::new();
    LEXICON.get_or_init(Lexicon::english)
}

/// Outcome of refining one subphrase's candidate list.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The winning `(candidate, combined score)`, if any candidate
    /// survived — the same winner `max_by` over the fully scored list
    /// selects (last maximal element under `total_cmp` + reversed
    /// phrase tie-break).
    pub best: Option<(CandidateEntity, f64)>,
    /// Candidates fully scored (semantic + both syntactic measures).
    pub scored: u64,
    /// Candidates skipped by the score-bound early abandon.
    pub pruned: u64,
}

/// What matching and refining one noun phrase produced: refinement's
/// outcome, and the matcher's `subphrases` and `candidates` increments,
/// which a memo hit replays.
#[derive(Debug)]
struct PhraseOutcome {
    refined: RefineOutcome,
    subphrases: u64,
    candidates: u64,
}

/// A bounded, thread-safe memo from noun-phrase text (as the chunker
/// produced it) to its refined outcome — one per engine. Everything
/// the outcome depends on besides the text is fixed per engine: the
/// lexicon anchor, the matcher, and the configuration's weights. An
/// engine derivation that changes either of the last two starts a
/// fresh memo; clones share one. Built on
/// [`PhraseCache`] with the engine's `cache_capacity`, so `0` disables
/// it. The sentence-dependent context gate runs after the lookup.
#[derive(Debug, Clone)]
pub struct PhraseMemo {
    cache: PhraseCache<Arc<PhraseOutcome>>,
}

impl PhraseMemo {
    /// An empty memo holding at most `capacity` phrases; 0 disables it.
    pub fn new(capacity: usize) -> Self {
        Self {
            cache: PhraseCache::new(capacity),
        }
    }

    /// Hit/miss traffic and occupancy, shared by every clone.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The outcome for `phrase`: from the memo, replaying the
    /// `subphrases` / `candidates` / `refine.*` counts a fresh call
    /// tallies, or by matching (one `stage.match` span, plus the
    /// matcher's cache and prune counts) and refining (one
    /// `stage.refine` span).
    fn outcome(
        &self,
        phrase: &str,
        matcher: &SimilarityMatcher,
        config: &ThorConfig,
        tally: &mut DocTally,
        scratch: &mut ScoreScratch,
    ) -> Arc<PhraseOutcome> {
        let outcome = match self.cache.get(phrase) {
            Some(outcome) => {
                tally.memo_hits += 1;
                outcome
            }
            None => {
                if self.cache.is_enabled() {
                    tally.memo_misses += 1;
                }
                // Entities must contain a nominal word ("entities
                // typically consist of noun phrases or subsequences
                // thereof") — a bare adjective is not an entity
                // candidate.
                let lexicon = shared_lexicon();
                let anchor = |w: &str| lexicon.tag_of(w, false).is_nominal();
                let t0 = Instant::now();
                let (candidates, counts) = matcher.match_phrase_counted(phrase, anchor);
                tally.match_phrase.record(t0.elapsed());
                tally.cache_hits += counts.cache_hits;
                tally.cache_misses += counts.cache_misses;
                tally.prune.absorb(&counts.prune);
                let t0 = Instant::now();
                let refined = refine_candidates(&candidates, matcher, config, scratch);
                tally.refine.record(t0.elapsed());
                let outcome = Arc::new(PhraseOutcome {
                    refined,
                    subphrases: counts.subphrases,
                    candidates: candidates.len() as u64,
                });
                self.cache.put(phrase, Arc::clone(&outcome));
                outcome
            }
        };
        tally.subphrases += outcome.subphrases;
        tally.candidates += outcome.candidates;
        tally.refine_scored += outcome.refined.scored;
        tally.refine_pruned += outcome.refined.pruned;
        outcome
    }
}

/// Whether the score bound may prune under these weights: the upper bound
/// `combine(s, 1, 1)` is only monotone in the syntactic scores when the
/// word/char weights are non-negative, and only meaningful when every
/// weight is finite. (`ScoreWeights` fields are public, so exotic
/// configurations are reachable; they simply fall back to full
/// scoring.)
fn bound_is_sound(config: &ThorConfig) -> bool {
    let w = &config.weights;
    w.semantic.is_finite()
        && w.word.is_finite()
        && w.char.is_finite()
        && w.word >= 0.0
        && w.char >= 0.0
}

/// Refine a candidate list (Algorithm 1 lines 10–13) and select the
/// best candidate: `score_s` is the semantic similarity to the matched
/// instance, `score_w` the word-level Jaccard, `score_c` the
/// character-level gestalt similarity, combined by the configured
/// weights.
///
/// Scores through `scratch` and the matcher's frozen
/// [`SeedSyntax`](thor_text::SeedSyntax), skipping candidates whose
/// score upper bound cannot beat the running best whenever the weights
/// make that bound sound. The winner and its score bits equal
/// [`refine_candidates_reference`]'s.
pub fn refine_candidates(
    candidates: &[CandidateEntity],
    matcher: &SimilarityMatcher,
    config: &ThorConfig,
    scratch: &mut ScoreScratch,
) -> RefineOutcome {
    let prunable = bound_is_sound(config);
    let seed_syntax = matcher.seed_syntax();
    let mut best: Option<(usize, f64)> = None;
    let mut scored = 0u64;
    let mut pruned = 0u64;
    // Winner selection is a strict total order on (score, phrase,
    // index) — see the replacement rule below — so the visit order is
    // free. When pruning, visit by descending semantic score: the
    // likely winner is scored first and the bounds then abandon most
    // of the rest before any syntactic work. Small lists order on the
    // stack so steady state stays allocation-free.
    let n = candidates.len();
    let mut stack_order = [0u32; 32];
    let mut heap_order: Vec<u32>;
    let order: &mut [u32] = if n <= 32 {
        &mut stack_order[..n]
    } else {
        heap_order = vec![0; n];
        &mut heap_order
    };
    for (i, slot) in order.iter_mut().enumerate() {
        *slot = i as u32;
    }
    if prunable {
        order.sort_unstable_by(|&x, &y| {
            candidates[y as usize]
                .semantic_score
                .total_cmp(&candidates[x as usize].semantic_score)
                .then_with(|| x.cmp(&y))
        });
    }
    for &order_idx in order.iter() {
        let idx = order_idx as usize;
        let c = &candidates[idx];
        // Stage-1 bound: both syntactic scores are ≤ 1, so a candidate
        // whose semantic term alone cannot reach the incumbent is
        // skipped before any lookup. Strictly-below only: a tied
        // candidate can still win through the phrase tie-break /
        // last-wins rule.
        if prunable {
            if let Some((_, best_score)) = best {
                let bound = config.weights.combine(c.semantic_score, 1.0, 1.0);
                if bound.total_cmp(&best_score) == Ordering::Less {
                    pruned += 1;
                    continue;
                }
            }
        }
        // Defensive fallback: every matched_instance of a
        // SimilarityMatcher is an embedded seed, but other sources may
        // not uphold that.
        let fallback;
        let seed = match seed_syntax.get(&c.matched_instance) {
            Some(seed) => seed,
            None => {
                fallback = PhraseSyntax::new(&c.matched_instance);
                &fallback
            }
        };
        let score_w = jaccard_prepared(scratch, &c.phrase, seed);
        // Stage-2 bound, with the real Jaccard in hand: the gestalt is
        // at most `2·min(|a|,|b|)/(|a|+|b|)` (difflib's
        // `real_quick_ratio`), which costs one chars() pass instead of
        // the quadratic block search.
        if prunable {
            if let Some((_, best_score)) = best {
                let bound = config.weights.combine(
                    c.semantic_score,
                    score_w,
                    gestalt_bound(&c.phrase, seed),
                );
                if bound.total_cmp(&best_score) == Ordering::Less {
                    pruned += 1;
                    continue;
                }
            }
        }
        let score_c = gestalt_prepared(scratch, &c.phrase, seed);
        scored += 1;
        let score = config.weights.combine(c.semantic_score, score_w, score_c);
        // max_by keeps the *last* maximal element: replace unless the
        // incumbent strictly wins under (score, reversed-phrase).
        let replace = match &best {
            None => true,
            Some((best_idx, best_score)) => {
                score
                    .total_cmp(best_score)
                    .then_with(|| candidates[*best_idx].phrase.cmp(&c.phrase))
                    != Ordering::Less
            }
        };
        if replace {
            best = Some((idx, score));
        }
    }
    RefineOutcome {
        best: best.map(|(idx, score)| (candidates[idx].clone(), score)),
        scored,
        pruned,
    }
}

/// The oracle [`refine_candidates`] is proven against: every candidate
/// scored from the raw strings with the documented reference measures
/// (`jaccard_words`, `gestalt_similarity`), no bound, no seed table,
/// and the winner chosen by `max_by` — the last maximal element under
/// `total_cmp` with the reversed-phrase tie-break.
pub fn refine_candidates_reference(
    candidates: &[CandidateEntity],
    weights: &ScoreWeights,
) -> Option<(CandidateEntity, f64)> {
    candidates
        .iter()
        .map(|c| {
            let score_w = jaccard_words(&c.phrase, &c.matched_instance);
            let score_c = gestalt_similarity(&c.phrase, &c.matched_instance);
            (c, weights.combine(c.semantic_score, score_w, score_c))
        })
        .max_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| b.0.phrase.cmp(&a.0.phrase))
        })
        .map(|(c, score)| (c.clone(), score))
}

/// Extract the phrases of one sentence: dependency-parse noun phrases
/// (the paper's design) or naive n-grams (`abl_np` ablation). A
/// non-empty sentence is tokenized and chunked under one `stage.chunk`
/// span and counted in `sentences`, its phrases in `noun_phrases`.
fn sentence_phrases(
    text: &str,
    config: &ThorConfig,
    tagger: &RuleTagger,
    tally: &mut DocTally,
) -> Vec<String> {
    // A sentence has a token exactly when it has a non-whitespace char.
    if text.trim_start().is_empty() {
        return Vec::new();
    }
    let t0 = Instant::now();
    let words: Vec<&str> = token_spans(text).map(|r| &text[r]).collect();
    let phrases: Vec<String> = if config.np_chunking {
        chunk_sentence(&words, tagger)
            .into_iter()
            .map(|np| np.text)
            .collect()
    } else {
        // Ablation: every contiguous window up to the subphrase cap.
        let max = config.max_subphrase_words.min(words.len());
        let mut out = Vec::new();
        for len in 1..=max {
            for start in 0..=(words.len() - len) {
                let phrase = trim_stopwords(&words[start..start + len]).join(" ");
                if !phrase.is_empty() {
                    out.push(phrase);
                }
            }
        }
        out.dedup();
        out
    };
    tally.chunk.record(t0.elapsed());
    tally.sentences += 1;
    tally.noun_phrases += phrases.len() as u64;
    phrases
}

/// Run entity extraction over one document's segmented sentences
/// (lines 3–15), metering the document into `tally`. Returns one best
/// entity per (sentence, noun phrase) — `e_best` — tagged with the
/// sentence's subject instance. The execution core commits `tally` to
/// the run's metrics only when it marks the document processed.
///
/// Each phrase is matched and refined once per `memo`: repeats take the
/// memoized winner. Metered: chunking per sentence (see
/// `sentence_phrases`), one `phrase_memo.hit` or `phrase_memo.miss` per
/// phrase, one `stage.match` and one `stage.refine` span per miss with
/// the matcher's cache and prune counts, the `subphrases` /
/// `candidates` / `refine.scored` / `refine.pruned` counts per phrase,
/// and one `entities` count per accepted entity. `scratch` is
/// caller-owned so the execution core's workers reuse one across every
/// document they drain and refinement allocates nothing in steady
/// state.
pub(crate) fn extract_tallied(
    segments: &[SegmentedSentence],
    matcher: &SimilarityMatcher,
    memo: &PhraseMemo,
    config: &ThorConfig,
    doc_id: &str,
    tally: &mut DocTally,
    scratch: &mut ScoreScratch,
) -> Vec<ExtractedEntity> {
    let tagger = shared_tagger();
    let mut out = Vec::new();

    for seg in segments {
        for phrase in sentence_phrases(&seg.sentence.text, config, tagger, tally) {
            let outcome = memo.outcome(&phrase, matcher, config, tally, scratch);
            if let Some((candidate, score)) = &outcome.refined.best {
                // Optional contextual gate (the paper's future work):
                // the sentence minus the entity phrase must itself be
                // compatible with the assigned concept.
                if let Some(min_context) = config.context_gate {
                    let ctx = context_similarity(&seg.sentence.text, candidate, matcher);
                    if ctx < min_context {
                        continue;
                    }
                }
                tally.entities += 1;
                out.push(ExtractedEntity {
                    subject: seg.subject.clone(),
                    concept: candidate.concept.clone(),
                    phrase: candidate.phrase.clone(),
                    score: *score,
                    matched_instance: candidate.matched_instance.clone(),
                    doc_id: doc_id.to_string(),
                    sentence_index: seg.index,
                });
            }
        }
    }
    out
}

/// Mean similarity between the sentence context (every content word of
/// the sentence except the candidate phrase's own words) and the
/// candidate's concept cluster. Returns 1.0 when the context is empty
/// or fully out-of-vocabulary (no evidence against the candidate).
fn context_similarity(
    sentence: &str,
    candidate: &CandidateEntity,
    matcher: &SimilarityMatcher,
) -> f64 {
    use thor_text::{is_stopword, normalize_phrase};
    let phrase_words: std::collections::HashSet<&str> =
        candidate.phrase.split_whitespace().collect();
    let normalized = normalize_phrase(sentence);
    let context: Vec<&str> = normalized
        .split_whitespace()
        .filter(|w| !is_stopword(w) && !phrase_words.contains(w))
        .collect();
    if context.is_empty() {
        return 1.0;
    }
    let Some(query) = matcher.store().embed_phrase(&context.join(" ")) else {
        return 1.0;
    };
    matcher
        .clusters()
        .iter()
        .find(|c| c.concept == candidate.concept)
        .and_then(|c| c.mean_similarity(&query))
        .unwrap_or(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThorConfig;
    use crate::document::Document;
    use crate::segment::{segment, SegmentedSentence, SubjectIndex};
    use thor_embed::SemanticSpaceBuilder;
    use thor_match::MatcherConfig;
    use thor_obs::PipelineMetrics;
    use thor_text::{tokenize, Sentence};

    /// Extraction with a throwaway tally and scratch.
    fn extract_entities(
        segments: &[SegmentedSentence],
        matcher: &SimilarityMatcher,
        config: &ThorConfig,
        doc_id: &str,
    ) -> Vec<ExtractedEntity> {
        extract_metered(segments, matcher, config, doc_id, &PipelineMetrics::new())
    }

    /// Extraction with an empty memo, its document metered into `run`.
    fn extract_metered(
        segments: &[SegmentedSentence],
        matcher: &SimilarityMatcher,
        config: &ThorConfig,
        doc_id: &str,
        run: &PipelineMetrics,
    ) -> Vec<ExtractedEntity> {
        let mut tally = DocTally::default();
        let entities = extract_tallied(
            segments,
            matcher,
            &PhraseMemo::new(config.cache_capacity),
            config,
            doc_id,
            &mut tally,
            &mut ScoreScratch::new(),
        );
        tally.commit(run);
        entities
    }

    fn matcher(tau: f64) -> SimilarityMatcher {
        let store = SemanticSpaceBuilder::new(32, 4)
            .spread(0.45)
            .topic("anatomy")
            .correlated_topic("complication", "anatomy", 0.3)
            .words(
                "anatomy",
                ["nervous", "system", "brain", "nerve", "ear", "lung"],
            )
            .words(
                "complication",
                ["cancer", "tumor", "deafness", "unsteadiness", "skin"],
            )
            .generic_words(["slow-growing", "walk", "green", "grows", "surgery"])
            .build()
            .into_store();
        let concepts = vec![
            ("Anatomy".to_string(), vec!["nervous system".to_string()]),
            ("Complication".to_string(), vec!["skin cancer".to_string()]),
        ];
        SimilarityMatcher::fine_tune(&concepts, store, MatcherConfig::with_tau(tau))
    }

    fn seg(subject: &str, text: &str, index: usize) -> SegmentedSentence {
        SegmentedSentence {
            subject: subject.to_string(),
            sentence: Sentence {
                text: text.to_string(),
                start: 0,
                end: text.len(),
            },
            index,
        }
    }

    #[test]
    fn paper_worked_example_prefers_syntactic_agreement() {
        // From the paper: within "slow-growing non-cancerous brain
        // tumor", the subphrase matched to 'Complication' via seed
        // 'skin cancer' wins over 'brain'→'Anatomy' because its
        // syntactic overlap with the seed is higher.
        let m = matcher(0.55);
        let segments = vec![seg(
            "Acoustic Neuroma",
            "It is a slow-growing non-cancerous brain tumor.",
            0,
        )];
        let entities = extract_entities(&segments, &m, &ThorConfig::with_tau(0.55), "d1");
        assert!(!entities.is_empty());
        for e in &entities {
            assert_eq!(e.subject, "Acoustic Neuroma");
            assert_eq!(e.doc_id, "d1");
        }
    }

    #[test]
    fn one_best_entity_per_phrase() {
        let m = matcher(0.5);
        let segments = vec![seg("X", "The brain and the ear.", 0)];
        let entities = extract_entities(&segments, &m, &ThorConfig::with_tau(0.5), "d");
        // Two noun phrases → at most two entities.
        assert!(entities.len() <= 2);
    }

    #[test]
    fn unmatched_phrases_produce_nothing() {
        let m = matcher(0.9);
        let segments = vec![seg("X", "People walk in green parks.", 0)];
        let entities = extract_entities(&segments, &m, &ThorConfig::with_tau(0.9), "d");
        assert!(entities.is_empty());
    }

    #[test]
    fn scores_within_unit_interval() {
        let m = matcher(0.5);
        let segments = vec![seg(
            "X",
            "The brain tumor causes deafness and unsteadiness.",
            3,
        )];
        let entities = extract_entities(&segments, &m, &ThorConfig::with_tau(0.5), "d");
        assert!(!entities.is_empty());
        for e in &entities {
            assert!((0.0..=1.0).contains(&e.score), "score {e:?}");
            assert_eq!(e.sentence_index, 3);
        }
    }

    #[test]
    fn ngram_ablation_yields_at_least_np_coverage() {
        let m = matcher(0.5);
        let text = "The brain tumor causes deafness.";
        let segments = vec![seg("X", text, 0)];
        let np_config = ThorConfig::with_tau(0.5);
        let mut ngram_config = ThorConfig::with_tau(0.5);
        ngram_config.np_chunking = false;
        let np = extract_entities(&segments, &m, &np_config, "d");
        let ng = extract_entities(&segments, &m, &ngram_config, "d");
        assert!(
            ng.len() >= np.len(),
            "n-grams generate at least as many candidates"
        );
    }

    #[test]
    fn context_gate_reduces_predictions() {
        let m = matcher(0.5);
        // An entity-bearing sentence whose remaining context is pure
        // generic vocabulary — a high gate should drop it.
        let segments = vec![seg("X", "People walk in green parks near the brain.", 0)];
        let open = ThorConfig::with_tau(0.5);
        let mut gated = ThorConfig::with_tau(0.5);
        gated.context_gate = Some(0.5);
        let without = extract_entities(&segments, &m, &open, "d").len();
        let with = extract_entities(&segments, &m, &gated, "d").len();
        assert!(with <= without, "gate must never add predictions");
    }

    #[test]
    fn context_gate_keeps_supported_entities() {
        let m = matcher(0.5);
        // Context full of same-topic vocabulary supports the candidate.
        let segments = vec![seg("X", "The nerve and the ear relate to the brain.", 0)];
        let mut gated = ThorConfig::with_tau(0.5);
        gated.context_gate = Some(0.2);
        let entities = extract_entities(&segments, &m, &gated, "d");
        assert!(
            !entities.is_empty(),
            "well-supported entities must survive the gate"
        );
    }

    #[test]
    fn chunking_is_metered_once_per_sentence() {
        let m = matcher(0.5);
        let text = "the brain tumor causes severe deafness";
        let run = PipelineMetrics::new();
        extract_metered(
            &[seg("X", text, 0)],
            &m,
            &ThorConfig::with_tau(0.5),
            "d",
            &run,
        );
        let tokens = tokenize(text);
        let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
        let phrases = chunk_sentence(&words, shared_tagger());
        assert!(!phrases.is_empty());
        let snap = run.snapshot();
        assert_eq!(snap.count("sentences"), 1);
        assert_eq!(snap.count("noun_phrases"), phrases.len() as u64);
    }

    #[test]
    fn empty_sentences_are_not_chunked() {
        let m = matcher(0.5);
        let run = PipelineMetrics::new();
        let entities = extract_metered(
            &[seg("X", "", 0)],
            &m,
            &ThorConfig::with_tau(0.5),
            "d",
            &run,
        );
        assert!(entities.is_empty());
        let snap = run.snapshot();
        assert_eq!(snap.count("sentences"), 0);
        assert_eq!(snap.count("noun_phrases"), 0);
    }

    #[test]
    fn end_to_end_with_segmentation() {
        let m = matcher(0.55);
        let doc = Document::new(
            "doc",
            "Acoustic Neuroma grows on the nerve. It may cause deafness.",
        );
        let subjects = SubjectIndex::new(["Acoustic Neuroma"], m.store());
        let segs = segment(&doc, &subjects, &m, Default::default());
        let entities = extract_entities(&segs, &m, &ThorConfig::with_tau(0.55), &doc.id);
        assert!(entities.iter().all(|e| e.subject == "Acoustic Neuroma"));
        assert!(!entities.is_empty());
    }
}
