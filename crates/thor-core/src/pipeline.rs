//! The end-to-end THOR pipeline.
//!
//! [`Thor`] holds the inputs (vector store + configuration); the heavy
//! per-table state lives in a [`PreparedEngine`](crate::PreparedEngine)
//! built by [`Thor::prepare`], which is where every serve call lives:
//! `thor.prepare(&table).enrich(&docs)` is the one-shot run, and callers
//! that run more than one call, τ value, or document batch hold the
//! engine.

use std::sync::Arc;
use std::time::Duration;

use thor_data::Table;
use thor_embed::VectorStore;

use crate::config::ThorConfig;
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

/// Total order used for deduplication: by document id, then the
/// [`DedupView`](crate::entity::DedupView) order — entities sharing a
/// key are ranked best-score-first, with every remaining field as a
/// tie-break so the survivor — and therefore the pipeline output — is
/// identical no matter how the input was partitioned across worker
/// threads.
fn dedup_order(a: &ExtractedEntity, b: &ExtractedEntity) -> std::cmp::Ordering {
    a.doc_id
        .cmp(&b.doc_id)
        .then_with(|| a.view().cmp(&b.view()))
}

/// Sort by [`dedup_order`] and keep the first (best) entity per key.
pub(crate) fn dedup_entities(entities: &mut Vec<ExtractedEntity>) {
    entities.sort_by(dedup_order);
    entities.dedup_by(|next, first| next.cmp_key(first).is_eq());
}

/// Split `entities` into runs sharing a document id, in order, each
/// run passed through [`dedup_entities`]: the per-document batches
/// [`merge_doc_batches`] takes, made from a resumed checkpoint's
/// entities.
pub(crate) fn doc_batches(entities: Vec<ExtractedEntity>) -> Vec<Vec<ExtractedEntity>> {
    let mut batches: Vec<Vec<ExtractedEntity>> = Vec::new();
    for e in entities {
        match batches.last_mut() {
            Some(batch) if batch[0].doc_id == e.doc_id => batch.push(e),
            _ => batches.push(vec![e]),
        }
    }
    for batch in &mut batches {
        dedup_entities(batch);
    }
    batches
}

/// Merge per-document batches, each one document's entities already
/// through [`dedup_entities`], into exactly what `dedup_entities` makes
/// of their concatenation.
///
/// [`dedup_order`] compares the document id first, so the batches only
/// need ordering by id (a stable sort, so batches sharing an id keep
/// their order) and concatenating. Batches that share an id (a plain
/// run may repeat ids, and a resumed checkpoint may split a document)
/// are deduplicated again as one group; every other batch is already
/// its document's sorted, deduplicated run.
pub(crate) fn merge_doc_batches(mut batches: Vec<Vec<ExtractedEntity>>) -> Vec<ExtractedEntity> {
    batches.retain(|batch| !batch.is_empty());
    batches.sort_by(|a, b| a[0].doc_id.cmp(&b[0].doc_id));
    let mut out = Vec::with_capacity(batches.iter().map(Vec::len).sum());
    let mut batches = batches.into_iter().peekable();
    while let Some(mut group) = batches.next() {
        let mut shared = false;
        while let Some(next) = batches.next_if(|next| next[0].doc_id == group[0].doc_id) {
            group.extend(next);
            shared = true;
        }
        if shared {
            dedup_entities(&mut group);
        }
        out.append(&mut group);
    }
    out
}

/// The THOR system: word vectors + configuration — the builder of
/// [`PreparedEngine`](crate::PreparedEngine)s. One instance can prepare
/// any number of tables; fine-tuning happens per table because it
/// depends on the table's instances ("it easily adapts when the reference data integration
/// schema evolves") — but within a table it happens *once*, inside
/// [`Thor::prepare`], and every serve call (extract, enrich, resilient
/// runs) and the metrics attach point live on the resulting engine.
#[derive(Debug, Clone)]
pub struct Thor {
    store: Arc<VectorStore>,
    config: ThorConfig,
}

impl Thor {
    /// Create a THOR instance over a vector table. Accepts either a
    /// `VectorStore` by value or an already-shared `Arc<VectorStore>`;
    /// the store is never deep-copied after this point.
    ///
    /// Panics when `config.context_gate` is NaN or infinite: no
    /// similarity is ever below NaN, so such a gate would pass every
    /// candidate while the fingerprint records a gate.
    pub fn new(store: impl Into<Arc<VectorStore>>, config: ThorConfig) -> Self {
        assert!(
            config.context_gate.is_none_or(f64::is_finite),
            "context_gate must be finite"
        );
        Self {
            store: store.into(),
            config,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use thor_data::{sparsity, Schema};
    use thor_embed::SemanticSpaceBuilder;
    use thor_obs::PipelineMetrics;

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
        let result = thor.prepare(&table).enrich(&docs);
        let after = sparsity(&result.table).ratio;
        assert!(after < before, "sparsity {before} -> {after} should drop");
        assert!(result.slot_stats.inserted > 0);
    }

    #[test]
    fn entities_attributed_to_correct_subjects() {
        let (thor, table, docs) = setup();
        let result = thor.prepare(&table).enrich(&docs);
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
        let result = thor.prepare(&table).enrich(&docs);
        let mut keys: Vec<_> = result.entities.iter().map(|e| e.key()).collect();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len(), "keys must be unique");
    }

    #[test]
    fn original_table_not_mutated() {
        let (thor, table, docs) = setup();
        let before = table.instance_count();
        let _ = thor.prepare(&table).enrich(&docs);
        assert_eq!(table.instance_count(), before);
    }

    #[test]
    fn higher_tau_never_more_entities() {
        let (thor_low, table, docs) = setup();
        let store = Arc::clone(thor_low.store_arc());
        let thor_high = Thor::new(store, ThorConfig::with_tau(0.95));
        let low = thor_low.prepare(&table).enrich(&docs).entities.len();
        let high = thor_high.prepare(&table).enrich(&docs).entities.len();
        assert!(high <= low, "tau 0.95 produced {high} > tau 0.6 {low}");
    }

    #[test]
    #[should_panic(expected = "context_gate must be finite")]
    fn non_finite_context_gate_is_rejected() {
        let (thor, _, _) = setup();
        let mut config = ThorConfig::with_tau(0.6);
        config.context_gate = Some(f64::NAN);
        Thor::new(Arc::clone(thor.store_arc()), config);
    }

    #[test]
    fn empty_corpus_is_noop() {
        let (thor, table, _) = setup();
        let result = thor.prepare(&table).enrich(&[]);
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
        let sequential = thor.prepare(&table).extract(&docs).0;
        let mut config = thor.config().clone();
        config.threads = 4;
        let parallel_thor = Thor::new(Arc::clone(thor.store_arc()), config);
        let parallel = parallel_thor.prepare(&table).extract(&docs).0;
        assert_eq!(sequential.len(), parallel.len());
        let keys = |v: &[ExtractedEntity]| {
            let mut k: Vec<_> = v.iter().map(ExtractedEntity::key).collect();
            k.sort();
            k
        };
        assert_eq!(keys(&sequential), keys(&parallel));
    }

    #[test]
    fn timings_reported() {
        let (thor, table, docs) = setup();
        let result = thor.prepare(&table).enrich(&docs);
        assert!(result.total_time() >= result.prepare_time);
    }

    #[test]
    fn attached_metrics_record_every_stage() {
        let (thor, table, docs) = setup();
        let metrics = PipelineMetrics::new();
        let result = thor
            .prepare(&table)
            .with_metrics(metrics.clone())
            .enrich(&docs);
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
        // Span counts: one prepare/inference pair, one segment and one
        // dedup span per doc, one slot-fill pass.
        use thor_obs::MetricValue;
        let spans = |name: &str| match snap.get(name) {
            Some(MetricValue::Timer { spans, .. }) => *spans,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(spans("pipeline.prepare"), 1);
        assert_eq!(spans("pipeline.inference"), 1);
        assert_eq!(spans("stage.segment"), 1);
        assert_eq!(spans("stage.dedup"), 1);
        assert_eq!(spans("stage.slot_fill"), 1);
        assert!(spans("stage.chunk") >= 3);
        assert!(spans("stage.match") > 0);
    }

    #[test]
    fn ephemeral_metrics_still_time_phases() {
        // Without an attached handle the public timing fields still
        // come from real span measurements.
        let (thor, table, docs) = setup();
        let result = thor.prepare(&table).enrich(&docs);
        assert!(result.inference_time > Duration::ZERO);
    }

    #[test]
    fn attached_metrics_accumulate_across_runs() {
        let (thor, table, docs) = setup();
        let metrics = PipelineMetrics::new();
        let engine = thor.prepare(&table).with_metrics(metrics.clone());
        engine.enrich(&docs);
        engine.enrich(&docs);
        assert_eq!(metrics.snapshot().count("docs"), 2);
        assert_eq!(engine.run_metrics().snapshot().count("docs"), 2);
    }
}
