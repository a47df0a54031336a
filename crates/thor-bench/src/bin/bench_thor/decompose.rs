//! Algorithm 1's `SEGMENT → EXTRACT → SLOT-FILL` decomposed into the
//! layers' public functions — `segment`, `tokenize` + `chunk_sentence`,
//! `candidates_anchored`, `refine_candidates`, dedup, `slot_fill` — with
//! a span around each call. A gate checks the result equals
//! `PreparedEngine::extract` entity for entity, so the layer times
//! describe the path the stable entry points run.

use std::cmp::Ordering;

use thor_core::segment::segment;
use thor_core::slotfill::slot_fill;
use thor_core::{refine_candidates, Document, ExtractedEntity, PreparedEngine};
use thor_data::Table;
use thor_match::CandidateSource;
use thor_nlp::{chunk_sentence, Lexicon, RuleTagger};
use thor_text::{tokenize, ScoreScratch};

use crate::trace::Tracer;

/// Work counts of the traced layers, summed over every traced call.
/// Cache hits and misses are deltas of the matcher's own cache
/// statistics.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Documents segmented.
    pub docs: u64,
    /// Sentences attributed to a subject by segmentation.
    pub segments: u64,
    /// Sentences tokenized and chunked.
    pub chunked: u64,
    /// Noun phrases sent to the matcher.
    pub phrases: u64,
    /// Match calls that found every subphrase in the phrase cache.
    pub hit_calls: u64,
    /// Self time of those calls, nanoseconds.
    pub hit_ns: u64,
    /// Match calls that scanned the index for at least one subphrase.
    pub miss_calls: u64,
    /// Self time of those calls, nanoseconds.
    pub miss_ns: u64,
    /// Candidates the matcher returned.
    pub candidates: u64,
    /// Candidates refinement scored in full.
    pub scored: u64,
    /// Candidates refinement abandoned early.
    pub pruned: u64,
    /// Entities handed to slot filling.
    pub slot_entities: u64,
    /// Values slot filling inserted.
    pub slot_inserted: u64,
    /// Phrase-cache hits.
    pub cache_hits: u64,
    /// Phrase-cache misses.
    pub cache_misses: u64,
}

/// The decomposed pipeline with its per-run state: the tagger and
/// lexicon the extraction step uses, one refinement scratch, and the
/// work counts of every call so far.
pub struct Decomposed {
    tagger: RuleTagger,
    lexicon: Lexicon,
    scratch: ScoreScratch,
    /// Work counts summed over every traced call.
    pub counts: Counts,
}

impl Decomposed {
    /// Build the tagger and lexicon once, as the engine does.
    pub fn new() -> Decomposed {
        Decomposed {
            tagger: RuleTagger::default(),
            lexicon: Lexicon::english(),
            scratch: ScoreScratch::new(),
            counts: Counts::default(),
        }
    }

    /// Extract deduplicated entities from `docs`, one span per layer
    /// call. The refine span also keeps the winner as an entity and
    /// frees the candidate list, which is what the extraction step does
    /// after refining.
    pub fn extract(
        &mut self,
        t: &mut Tracer,
        engine: &PreparedEngine,
        docs: &[Document],
    ) -> Vec<ExtractedEntity> {
        let config = engine.config();
        // The benchmark's engines use the paper's pipeline: noun-phrase
        // chunking and no context gate, the only path mirrored here.
        assert!(config.np_chunking && config.context_gate.is_none());
        let c = &mut self.counts;
        let lexicon = &self.lexicon;
        let anchor = |w: &str| lexicon.tag_of(w, false).is_nominal();
        let matcher = engine.matcher();
        let source: &dyn CandidateSource = matcher;
        let start = matcher.cache_stats();
        let mut entities = Vec::new();
        for doc in docs {
            t.enter("op.doc");
            c.docs += 1;
            let segments = t.span("segment", || {
                segment(
                    doc,
                    engine.subjects(),
                    engine.matcher(),
                    config.segmentation,
                )
            });
            c.segments += segments.len() as u64;
            for seg in segments {
                t.enter("text.tokenize");
                let tokens = tokenize(&seg.sentence.text);
                let words: Vec<&str> = tokens.iter().map(|t| t.text.as_str()).collect();
                t.exit();
                if words.is_empty() {
                    continue;
                }
                c.chunked += 1;
                let phrases: Vec<String> = t.span("chunk", || {
                    chunk_sentence(&words, &self.tagger)
                        .into_iter()
                        .map(|np| np.text)
                        .collect()
                });
                for phrase in phrases {
                    c.phrases += 1;
                    let misses = matcher.cache_stats().misses;
                    t.enter("match");
                    let candidates = source.candidates_anchored(&phrase, &anchor);
                    let ns = t.exit();
                    if matcher.cache_stats().misses > misses {
                        c.miss_calls += 1;
                        c.miss_ns += ns;
                    } else {
                        c.hit_calls += 1;
                        c.hit_ns += ns;
                    }
                    c.candidates += candidates.len() as u64;
                    t.enter("refine");
                    let outcome =
                        refine_candidates(&candidates, matcher, config, &mut self.scratch);
                    c.scored += outcome.scored;
                    c.pruned += outcome.pruned;
                    if let Some((candidate, score)) = outcome.best {
                        entities.push(ExtractedEntity {
                            subject: seg.subject.clone(),
                            concept: candidate.concept,
                            phrase: candidate.phrase,
                            score,
                            matched_instance: candidate.matched_instance,
                            doc_id: doc.id.clone(),
                            sentence_index: seg.index,
                        });
                    }
                    drop((candidates, phrase));
                    t.exit();
                }
            }
            t.exit();
        }
        let end = matcher.cache_stats();
        c.cache_hits += end.hits - start.hits;
        c.cache_misses += end.misses - start.misses;
        t.span("dedup", || {
            entities.sort_by(dedup_order);
            entities.dedup_by(|next, first| next.key() == first.key());
        });
        entities
    }

    /// Slot-fill a copy of the engine's table with `entities`, as
    /// `PreparedEngine::enrich` does after extraction.
    pub fn slot_fill(
        &mut self,
        t: &mut Tracer,
        engine: &PreparedEngine,
        entities: &[ExtractedEntity],
    ) -> Table {
        let (table, stats) = t.span("slotfill", || {
            let mut table = engine.table().clone();
            let stats = slot_fill(&mut table, entities);
            (table, stats)
        });
        self.counts.slot_entities += entities.len() as u64;
        self.counts.slot_inserted += stats.inserted as u64;
        table
    }
}

/// thor-core's documented dedup order: per (document, concept, phrase)
/// key the best score first, every other field breaking ties, so the
/// survivor does not depend on how documents were partitioned.
fn dedup_order(a: &ExtractedEntity, b: &ExtractedEntity) -> Ordering {
    a.key()
        .cmp(&b.key())
        .then_with(|| b.score.total_cmp(&a.score))
        .then_with(|| a.phrase.cmp(&b.phrase))
        .then_with(|| a.matched_instance.cmp(&b.matched_instance))
        .then_with(|| a.subject.cmp(&b.subject))
        .then_with(|| a.sentence_index.cmp(&b.sentence_index))
}
