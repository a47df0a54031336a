//! The end-to-end THOR pipeline.
//!
//! [`Thor`] holds the inputs (vector store + configuration); the heavy
//! per-table state lives in a [`PreparedEngine`] built by
//! [`Thor::prepare`]. Every one-shot entry point here is a thin
//! prepare-then-serve wrapper — callers that run more than one call,
//! τ value, or document batch should hold the engine themselves.

use std::sync::Arc;
use std::time::Duration;

use thor_data::Table;
use thor_embed::VectorStore;
use thor_match::SimilarityMatcher;
use thor_obs::PipelineMetrics;

use crate::config::ThorConfig;
use crate::document::Document;
use crate::engine::{concept_instances, record_fine_tune, PreparedEngine};
use crate::entity::ExtractedEntity;
use crate::slotfill::SlotFillStats;

/// Result of one enrichment run.
#[derive(Debug, Clone)]
pub struct EnrichmentResult {
    /// The enriched table `R'`.
    pub table: Table,
    /// Every extracted entity, deduplicated per (document, concept,
    /// phrase) — the evaluation granularity.
    pub entities: Vec<ExtractedEntity>,
    /// Slot-filling outcome counts.
    pub slot_stats: SlotFillStats,
    /// Wall-clock time of fine-tuning (Preparation phase).
    pub prepare_time: Duration,
    /// Wall-clock time of segmentation + extraction + slot filling.
    pub inference_time: Duration,
}

impl EnrichmentResult {
    /// Total time (the paper's Table V reports fine-tuning and inference
    /// together).
    pub fn total_time(&self) -> Duration {
        self.prepare_time + self.inference_time
    }
}

/// Total order used for deduplication: entities sharing a key are
/// ranked best-score-first, with every remaining field as a tie-break
/// so the survivor — and therefore the pipeline output — is identical
/// no matter how the input was partitioned across worker threads.
fn dedup_order(a: &ExtractedEntity, b: &ExtractedEntity) -> std::cmp::Ordering {
    a.cmp_key(b)
        .then_with(|| b.score.total_cmp(&a.score))
        .then_with(|| a.phrase.cmp(&b.phrase))
        .then_with(|| a.matched_instance.cmp(&b.matched_instance))
        .then_with(|| a.subject.cmp(&b.subject))
        .then_with(|| a.sentence_index.cmp(&b.sentence_index))
}

/// Sort by [`dedup_order`] and keep the first (best) entity per key.
pub(crate) fn dedup_entities(entities: &mut Vec<ExtractedEntity>) {
    entities.sort_by(dedup_order);
    entities.dedup_by(|next, first| next.cmp_key(first).is_eq());
}

/// The THOR system: word vectors + configuration. One instance can
/// enrich any number of (table, corpus) pairs; fine-tuning happens per
/// table because it depends on the table's instances ("it easily adapts
/// when the reference data integration schema evolves") — but within a
/// table it happens *once*, inside [`Thor::prepare`], and the resulting
/// [`PreparedEngine`] is shared by every serve call.
#[derive(Debug, Clone)]
pub struct Thor {
    store: Arc<VectorStore>,
    config: ThorConfig,
    metrics: Option<PipelineMetrics>,
}

impl Thor {
    /// Create a THOR instance over a vector table. Accepts either a
    /// `VectorStore` by value or an already-shared `Arc<VectorStore>`;
    /// the store is never deep-copied after this point.
    pub fn new(store: impl Into<Arc<VectorStore>>, config: ThorConfig) -> Self {
        Self {
            store: store.into(),
            config,
            metrics: None,
        }
    }

    /// Attach an observability handle: every subsequent run records
    /// per-stage counters and timers into `metrics` (shared with any
    /// clones of the handle the caller kept).
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached observability handle, if any.
    pub fn metrics(&self) -> Option<&PipelineMetrics> {
        self.metrics.as_ref()
    }

    /// The configuration.
    pub fn config(&self) -> &ThorConfig {
        &self.config
    }

    /// The word-vector table.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// The shared handle to the word-vector table (a refcount bump, not
    /// a copy — the store is `Arc`-shared end to end).
    pub fn store_arc(&self) -> &Arc<VectorStore> {
        &self.store
    }

    /// The metrics handle runs record into: the attached one, or an
    /// ephemeral throwaway so stage timing (which feeds the public
    /// [`EnrichmentResult`] fields) always has somewhere to go.
    pub(crate) fn run_metrics(&self) -> PipelineMetrics {
        self.metrics.clone().unwrap_or_default()
    }

    /// Phase ① fine-tuning: build the semantic matcher from the table's
    /// concepts and instances (weak supervision — no annotated text).
    ///
    /// Serve paths never call this per call any more — they go through
    /// [`Thor::prepare`] and reuse the engine's matcher; this remains
    /// for callers that want the matcher alone.
    /// Fine-tune statistics are recorded into the attached handle; the
    /// matcher itself records nothing.
    pub fn fine_tune(&self, table: &Table) -> SimilarityMatcher {
        let matcher = SimilarityMatcher::fine_tune(
            &concept_instances(table),
            Arc::clone(&self.store),
            self.config.matcher_config(),
        );
        record_fine_tune(&self.run_metrics(), &matcher);
        matcher
    }

    /// Extract entities from `docs` against `table`'s schema and
    /// instances, without modifying the table. Entities are deduplicated
    /// per (document, concept, phrase), keeping the highest score.
    ///
    /// With `config.threads > 1`, documents are processed in parallel on
    /// the shared [`crate::WorkerPool`] (they are independent once the
    /// matcher is fine-tuned); the output is identical to the
    /// single-threaded run.
    pub fn extract(
        &self,
        table: &Table,
        docs: &[Document],
    ) -> (Vec<ExtractedEntity>, Duration, Duration) {
        let engine = self.prepare(table);
        let (entities, inference_time) = engine.extract(docs);
        (entities, engine.prepare_time(), inference_time)
    }

    /// Start a streaming enrichment session over `table`: the matcher is
    /// fine-tuned once and documents are then processed incrementally —
    /// the deployment shape for feeds of incoming text.
    pub fn session(&self, table: &Table) -> EnrichmentSession {
        self.prepare(table).session()
    }

    /// Run the full pipeline: Preparation, Entity Extraction, Slot
    /// Filling. Returns the enriched copy of `table`.
    pub fn enrich(&self, table: &Table, docs: &[Document]) -> EnrichmentResult {
        self.prepare(table).enrich(docs)
    }
}

/// A streaming enrichment session: fine-tuned once, fed documents one at
/// a time, slot-filling as it goes. Backed by a [`PreparedEngine`] (the
/// session holds a shared handle, not a copy); each document runs
/// through the engine's one execution core, exactly as a batch of one.
///
/// ```no_run
/// # use thor_core::{Document, Thor, ThorConfig};
/// # use thor_data::{Schema, Table};
/// # use thor_embed::VectorStore;
/// # let thor = Thor::new(VectorStore::new(8), ThorConfig::default());
/// # let table = Table::new(Schema::new(["S", "C"], "S"));
/// let mut session = thor.session(&table);
/// for doc in incoming_documents() {
///     let new = session.process(&doc);
///     println!("{new} new values");
/// }
/// let enriched = session.finish();
/// # fn incoming_documents() -> Vec<Document> { vec![] }
/// ```
pub struct EnrichmentSession {
    engine: PreparedEngine,
    table: Table,
    entities: Vec<ExtractedEntity>,
    metrics: PipelineMetrics,
}

impl EnrichmentSession {
    pub(crate) fn new(engine: PreparedEngine) -> Self {
        Self {
            metrics: engine.run_metrics(),
            table: engine.table().clone(),
            entities: Vec::new(),
            engine,
        }
    }

    /// Process one document: extract its entities and slot-fill the
    /// session table immediately. Returns the number of newly inserted
    /// values.
    pub fn process(&mut self, doc: &Document) -> usize {
        // Deduplicated per document, matching the batch pipeline's
        // granularity.
        let out = self
            .engine
            .run_plain(&[doc], &self.metrics, Some(&mut self.table));
        self.entities.extend(out.entities);
        out.slot_stats.inserted
    }

    /// The session's observability handle (the [`Thor`] instance's
    /// attached handle, or an ephemeral one scoped to this session).
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Statistics of the phrase cache backing this session's matcher
    /// (one cache per fine-tune, shared across all documents the
    /// session processes).
    pub fn cache_stats(&self) -> thor_match::CacheStats {
        self.engine.matcher().cache_stats()
    }

    /// Current state of the enriched table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// All entities extracted so far.
    pub fn entities(&self) -> &[ExtractedEntity] {
        &self.entities
    }

    /// Consume the session, returning the enriched table.
    pub fn finish(self) -> Table {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_data::{sparsity, Schema};
    use thor_embed::SemanticSpaceBuilder;

    /// The complete Fig. 1 scenario.
    fn setup() -> (Thor, Table, Vec<Document>) {
        let store = SemanticSpaceBuilder::new(32, 21)
            .spread(0.4)
            .topic("disease")
            .topic("anatomy")
            .correlated_topic("complication", "anatomy", 0.25)
            .words("disease", ["tuberculosis", "acne", "neuroma", "acoustic"])
            .words(
                "anatomy",
                [
                    "nervous", "system", "brain", "nerve", "lungs", "skin", "ear",
                ],
            )
            .words(
                "complication",
                [
                    "cancer",
                    "tumor",
                    "unsteadiness",
                    "empyema",
                    "deafness",
                    "non-cancerous",
                ],
            )
            .generic_words(["slow-growing", "grows", "damage", "damages", "severe"])
            .build()
            .into_store();

        let mut table = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        table.fill_slot("Acoustic Neuroma", "Anatomy", "nervous system");
        table.fill_slot("Acne", "Anatomy", "skin");
        table.fill_slot("Acne", "Complication", "skin cancer");
        table.row_for_subject("Tuberculosis"); // all slots ⊥ — sparsity

        let docs = vec![Document::new(
            "doc1",
            "Acoustic Neuroma is a slow-growing non-cancerous brain tumor. \
             It may cause unsteadiness and deafness. \
             Tuberculosis generally damages the lungs and may cause empyema.",
        )];
        (Thor::new(store, ThorConfig::with_tau(0.6)), table, docs)
    }

    #[test]
    fn enrichment_reduces_sparsity() {
        let (thor, table, docs) = setup();
        let before = sparsity(&table).ratio;
        let result = thor.enrich(&table, &docs);
        let after = sparsity(&result.table).ratio;
        assert!(after < before, "sparsity {before} -> {after} should drop");
        assert!(result.slot_stats.inserted > 0);
    }

    #[test]
    fn entities_attributed_to_correct_subjects() {
        let (thor, table, docs) = setup();
        let result = thor.enrich(&table, &docs);
        // Entities from the third sentence belong to Tuberculosis.
        let tb: Vec<&ExtractedEntity> = result
            .entities
            .iter()
            .filter(|e| e.subject == "Tuberculosis")
            .collect();
        assert!(!tb.is_empty(), "entities: {:?}", result.entities);
        // And from the first two to Acoustic Neuroma.
        assert!(result
            .entities
            .iter()
            .any(|e| e.subject == "Acoustic Neuroma"));
    }

    #[test]
    fn entities_deduplicated_by_key() {
        let (thor, table, mut docs) = setup();
        // Duplicate the same sentence — same (doc, concept, phrase) keys.
        docs[0]
            .text
            .push_str(" Tuberculosis generally damages the lungs.");
        let result = thor.enrich(&table, &docs);
        let mut keys: Vec<_> = result.entities.iter().map(|e| e.key()).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "keys must be unique");
    }

    #[test]
    fn original_table_not_mutated() {
        let (thor, table, docs) = setup();
        let before = table.instance_count();
        let _ = thor.enrich(&table, &docs);
        assert_eq!(table.instance_count(), before);
    }

    #[test]
    fn higher_tau_never_more_entities() {
        let (thor_low, table, docs) = setup();
        let store = Arc::clone(thor_low.store_arc());
        let thor_high = Thor::new(store, ThorConfig::with_tau(0.95));
        let low = thor_low.enrich(&table, &docs).entities.len();
        let high = thor_high.enrich(&table, &docs).entities.len();
        assert!(high <= low, "tau 0.95 produced {high} > tau 0.6 {low}");
    }

    #[test]
    fn empty_corpus_is_noop() {
        let (thor, table, _) = setup();
        let result = thor.enrich(&table, &[]);
        assert!(result.entities.is_empty());
        assert_eq!(result.table.instance_count(), table.instance_count());
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        let (thor, table, docs) = setup();
        // Replicate the corpus so there is real work to split.
        let docs: Vec<Document> = (0..8)
            .flat_map(|i| {
                docs.iter()
                    .map(move |d| Document::new(format!("{}-{i}", d.id), d.text.clone()))
            })
            .collect();
        let sequential = thor.extract(&table, &docs).0;
        let mut config = thor.config().clone();
        config.threads = 4;
        let parallel_thor = Thor::new(Arc::clone(thor.store_arc()), config);
        let parallel = parallel_thor.extract(&table, &docs).0;
        assert_eq!(sequential.len(), parallel.len());
        let keys = |v: &[ExtractedEntity]| {
            let mut k: Vec<_> = v.iter().map(ExtractedEntity::key).collect();
            k.sort();
            k
        };
        assert_eq!(keys(&sequential), keys(&parallel));
    }

    #[test]
    fn streaming_session_matches_batch() {
        let (thor, table, docs) = setup();
        let batch = thor.enrich(&table, &docs);
        let mut session = thor.session(&table);
        for d in &docs {
            session.process(d);
        }
        assert_eq!(session.entities().len(), batch.entities.len());
        let streamed = session.finish();
        assert_eq!(streamed.instance_count(), batch.table.instance_count());
    }

    #[test]
    fn session_processes_incrementally() {
        let (thor, table, docs) = setup();
        let mut session = thor.session(&table);
        let before = sparsity(session.table()).ratio;
        let inserted = session.process(&docs[0]);
        assert!(inserted > 0);
        assert!(sparsity(session.table()).ratio < before);
    }

    #[test]
    fn timings_reported() {
        let (thor, table, docs) = setup();
        let result = thor.enrich(&table, &docs);
        assert!(result.total_time() >= result.prepare_time);
    }

    #[test]
    fn attached_metrics_record_every_stage() {
        let (thor, table, docs) = setup();
        let metrics = PipelineMetrics::new();
        let thor = thor.with_metrics(metrics.clone());
        let result = thor.enrich(&table, &docs);
        let snap = metrics.snapshot();
        assert_eq!(snap.count("docs"), 1);
        assert!(snap.count("sentences") >= 3, "{}", snap.render_table());
        assert!(snap.count("segments") >= 3, "{}", snap.render_table());
        assert!(snap.count("noun_phrases") > 0);
        assert!(snap.count("subphrases") > 0);
        assert!(snap.count("candidates") > 0);
        assert_eq!(snap.count("entities") as usize, result.entities.len());
        assert_eq!(
            snap.count("slots.inserted") as usize,
            result.slot_stats.inserted
        );
        assert!(snap.count("vocab.words") > 0);
        assert!(snap.count("cluster.representatives") > 0);
        // Span counts: one prepare/inference pair, one segment span per
        // doc, one slot-fill pass.
        use thor_obs::MetricValue;
        let spans = |name: &str| match snap.get(name) {
            Some(MetricValue::Timer { spans, .. }) => *spans,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(spans("pipeline.prepare"), 1);
        assert_eq!(spans("pipeline.inference"), 1);
        assert_eq!(spans("stage.segment"), 1);
        assert_eq!(spans("stage.slot_fill"), 1);
        assert!(spans("stage.chunk") >= 3);
        assert!(spans("stage.match") > 0);
    }

    #[test]
    fn ephemeral_metrics_still_time_phases() {
        // Without an attached handle the public timing fields still
        // come from real span measurements.
        let (thor, table, docs) = setup();
        assert!(thor.metrics().is_none());
        let result = thor.enrich(&table, &docs);
        assert!(result.inference_time > Duration::ZERO);
    }

    #[test]
    fn session_metrics_accumulate_across_documents() {
        let (thor, table, docs) = setup();
        let metrics = PipelineMetrics::new();
        let thor = thor.with_metrics(metrics.clone());
        let mut session = thor.session(&table);
        session.process(&docs[0]);
        session.process(&docs[0]);
        assert_eq!(session.metrics().snapshot().count("docs"), 2);
        assert_eq!(metrics.snapshot().count("docs"), 2);
    }
}
