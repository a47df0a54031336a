//! [`PipelineMetrics`]: the pre-wired handle the THOR pipeline threads
//! through its stages.
//!
//! The handle is a cheap [`Clone`] (a bundle of `Arc`s) so the
//! document-parallel extraction workers can each own a copy and hammer
//! the same underlying atomics. Every handle is registered in a shared
//! [`MetricsRegistry`], so a snapshot taken at the end of a run sees
//! everything the stages recorded.

use std::sync::Arc;

use crate::metrics::{Counter, Gauge, StageTimer};
use crate::registry::{MetricsRegistry, MetricsSnapshot};

/// Metric handles for every instrumented THOR pipeline stage.
///
/// Construct once per run with [`PipelineMetrics::new`], clone freely
/// into worker threads, and call [`PipelineMetrics::snapshot`] when the
/// run is over.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    registry: Arc<MetricsRegistry>,

    /// Wall-clock of the preparation phase (vocabulary fine-tuning /
    /// representative-vector expansion).
    pub prepare: Arc<StageTimer>,
    /// Wall-clock of the inference phase (per-document extraction).
    pub inference: Arc<StageTimer>,
    /// Wall-clock of text segmentation, one span per document: the
    /// sentence split, the word walk that tokenizes, lowercases and
    /// normalizes each sentence once, and the subject probe.
    pub segment: Arc<StageTimer>,
    /// Wall-clock of the rest of the text front end: tagging, parsing
    /// and noun-phrase chunking of the walked tokens, one span per
    /// attributed sentence with a token.
    pub chunk: Arc<StageTimer>,
    /// Wall-clock of anchored phrase matching against the concept store.
    pub match_phrase: Arc<StageTimer>,
    /// Wall-clock of candidate refinement (lexical-similarity scoring).
    pub refine: Arc<StageTimer>,
    /// Wall-clock of deduplicating a document's entities, one span per
    /// extracted document.
    pub dedup: Arc<StageTimer>,
    /// Wall-clock of slot filling into the integrated table.
    pub slot_fill: Arc<StageTimer>,
    /// Wall-clock of building the structure-of-arrays vector index at
    /// fine-tune time.
    pub index_build: Arc<StageTimer>,

    /// Documents processed.
    pub docs: Arc<Counter>,
    /// Sentences parsed.
    pub sentences: Arc<Counter>,
    /// Segments produced by text segmentation.
    pub segments: Arc<Counter>,
    /// Noun phrases chunked.
    pub noun_phrases: Arc<Counter>,
    /// Subphrases enumerated and embedded during matching.
    pub subphrases: Arc<Counter>,
    /// Candidate (phrase, concept) pairs scored.
    pub candidates: Arc<Counter>,
    /// Entities surviving refinement.
    pub entities: Arc<Counter>,
    /// Candidates fully scored by syntactic refinement.
    pub refine_scored: Arc<Counter>,
    /// Candidates skipped by refinement's score-bound early abandon
    /// (their upper bound could not beat the running best).
    pub refine_pruned: Arc<Counter>,
    /// Whole concepts skipped by the index's concept-level cosine
    /// bound during candidate generation.
    pub pruned_concepts: Arc<Counter>,
    /// Row clusters skipped by their centroid+radius bound during
    /// candidate generation.
    pub pruned_clusters: Arc<Counter>,
    /// Index rows never scored (covered by a skipped concept or
    /// cluster).
    pub pruned_rows: Arc<Counter>,
    /// Slot values newly inserted into the table.
    pub slots_inserted: Arc<Counter>,
    /// Slot values skipped as duplicates.
    pub slots_duplicate: Arc<Counter>,
    /// Words added to representative vectors during fine-tuning.
    pub expansion_words: Arc<Counter>,
    /// Phrase-cache hits during candidate generation.
    pub cache_hits: Arc<Counter>,
    /// Phrase-cache misses during candidate generation.
    pub cache_misses: Arc<Counter>,
    /// Noun phrases answered from the engine's phrase memo (their
    /// match and refinement already ran for an identical phrase).
    pub phrase_memo_hits: Arc<Counter>,
    /// Noun phrases matched and refined afresh, then memoized.
    pub phrase_memo_misses: Arc<Counter>,
    /// Documents quarantined by the fault-tolerant run layer.
    pub quarantine_docs: Arc<Counter>,
    /// Malformed input rows quarantined by lenient CSV parsing.
    pub quarantine_rows: Arc<Counter>,

    /// Vocabulary size visible to fine-tuning.
    pub vocab_words: Arc<Gauge>,
    /// Representative-vector count after fine-tuning.
    pub cluster_representatives: Arc<Gauge>,
    /// Rows in the vector index (representatives across all concepts).
    pub index_rows: Arc<Gauge>,
}

impl PipelineMetrics {
    /// A fresh metrics handle with every stage registered at zero.
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        Self {
            prepare: registry.timer("pipeline.prepare"),
            inference: registry.timer("pipeline.inference"),
            segment: registry.timer("stage.segment"),
            chunk: registry.timer("stage.chunk"),
            match_phrase: registry.timer("stage.match"),
            refine: registry.timer("stage.refine"),
            dedup: registry.timer("stage.dedup"),
            slot_fill: registry.timer("stage.slot_fill"),
            index_build: registry.timer("index.build"),
            docs: registry.counter("docs"),
            sentences: registry.counter("sentences"),
            segments: registry.counter("segments"),
            noun_phrases: registry.counter("noun_phrases"),
            subphrases: registry.counter("subphrases"),
            candidates: registry.counter("candidates"),
            entities: registry.counter("entities"),
            refine_scored: registry.counter("refine.scored"),
            refine_pruned: registry.counter("refine.pruned"),
            pruned_concepts: registry.counter("index.pruned.concepts"),
            pruned_clusters: registry.counter("index.pruned.clusters"),
            pruned_rows: registry.counter("index.pruned.rows"),
            slots_inserted: registry.counter("slots.inserted"),
            slots_duplicate: registry.counter("slots.duplicate"),
            expansion_words: registry.counter("expansion.words"),
            cache_hits: registry.counter("cache.hit"),
            cache_misses: registry.counter("cache.miss"),
            phrase_memo_hits: registry.counter("phrase_memo.hit"),
            phrase_memo_misses: registry.counter("phrase_memo.miss"),
            quarantine_docs: registry.counter("quarantine.docs"),
            quarantine_rows: registry.counter("quarantine.rows"),
            vocab_words: registry.gauge("vocab.words"),
            cluster_representatives: registry.gauge("cluster.representatives"),
            index_rows: registry.gauge("index.rows"),
            registry,
        }
    }

    /// The registry backing this handle, for registering extra
    /// run-specific metrics alongside the standard set.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A point-in-time copy of every metric recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Merge a previously captured snapshot into the live metrics (see
    /// [`MetricsRegistry::absorb`]) — used when resuming a checkpointed
    /// run so counters cover the whole logical run.
    pub fn absorb(&self, snapshot: &MetricsSnapshot) {
        self.registry.absorb(snapshot);
    }

    /// Render the current values as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        self.snapshot().render_table()
    }

    /// Render the current values as a machine-readable JSON document.
    pub fn render_json(&self) -> String {
        self.snapshot().to_json_string()
    }
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clones_share_counters() {
        let metrics = PipelineMetrics::new();
        let clone = metrics.clone();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = metrics.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.candidates.inc();
                    }
                });
            }
        });
        clone.candidates.add(10);
        assert_eq!(metrics.snapshot().count("candidates"), 4010);
    }

    #[test]
    fn snapshot_contains_standard_set() {
        let metrics = PipelineMetrics::new();
        metrics.docs.add(3);
        metrics.segment.record(Duration::from_millis(5));
        metrics.vocab_words.set(1234);
        let snap = metrics.snapshot();
        for name in [
            "pipeline.prepare",
            "pipeline.inference",
            "stage.segment",
            "stage.chunk",
            "stage.match",
            "stage.refine",
            "stage.dedup",
            "stage.slot_fill",
            "index.build",
            "docs",
            "sentences",
            "segments",
            "noun_phrases",
            "subphrases",
            "candidates",
            "entities",
            "refine.scored",
            "refine.pruned",
            "index.pruned.concepts",
            "index.pruned.clusters",
            "index.pruned.rows",
            "slots.inserted",
            "slots.duplicate",
            "expansion.words",
            "cache.hit",
            "cache.miss",
            "phrase_memo.hit",
            "phrase_memo.miss",
            "quarantine.docs",
            "quarantine.rows",
            "vocab.words",
            "cluster.representatives",
            "index.rows",
        ] {
            assert!(snap.get(name).is_some(), "missing metric `{name}`");
        }
        assert_eq!(snap.count("docs"), 3);
        assert_eq!(snap.count("vocab.words"), 1234);
    }

    #[test]
    fn absorb_merges_checkpointed_prefix() {
        let before = PipelineMetrics::new();
        before.docs.add(5);
        before.quarantine_docs.add(2);
        before.vocab_words.set(100);
        before.segment.record(Duration::from_millis(8));
        let json = before.render_json();
        let snapshot = crate::registry::MetricsSnapshot::from_json_str(&json).unwrap();

        let resumed = PipelineMetrics::new();
        resumed.docs.add(3);
        resumed.absorb(&snapshot);
        let snap = resumed.snapshot();
        assert_eq!(snap.count("docs"), 8);
        assert_eq!(snap.count("quarantine.docs"), 2);
        assert_eq!(snap.count("vocab.words"), 100);
        match snap.get("stage.segment") {
            Some(crate::registry::MetricValue::Timer { total, spans }) => {
                assert_eq!(*spans, 1);
                assert_eq!(*total, Duration::from_millis(8));
            }
            other => panic!("{other:?}"),
        }
    }

    /// The serve-layer robustness metrics (hot reload, supervision,
    /// deadline budgets) survive the JSON round trip `/metrics` relies
    /// on — counters and the health gauge keep exact values.
    #[test]
    fn serve_robustness_metrics_round_trip() {
        let metrics = PipelineMetrics::new();
        let registry = metrics.registry();
        registry.counter("reload.ok").add(7);
        registry.counter("reload.rejected").add(2);
        registry.counter("worker.restarts").add(3);
        registry.counter("deadline.exceeded").add(11);
        registry.gauge("serve.health").set(2); // degraded

        let json = metrics.render_json();
        let parsed = crate::registry::MetricsSnapshot::from_json_str(&json).expect("valid json");
        assert_eq!(parsed.count("reload.ok"), 7);
        assert_eq!(parsed.count("reload.rejected"), 2);
        assert_eq!(parsed.count("worker.restarts"), 3);
        assert_eq!(parsed.count("deadline.exceeded"), 11);
        match parsed.get("serve.health") {
            Some(crate::registry::MetricValue::Gauge(2)) => {}
            other => panic!("serve.health round-tripped as {other:?}"),
        }
        // And they merge (the resume/absorb path) like any other metric.
        let resumed = PipelineMetrics::new();
        resumed.registry().counter("reload.ok").add(1);
        resumed.absorb(&parsed);
        assert_eq!(resumed.snapshot().count("reload.ok"), 8);
        assert_eq!(resumed.snapshot().count("serve.health"), 2);
    }

    /// The incremental-engine metrics (delta application, chain
    /// compaction, chain depth) behave like the rest of the registry:
    /// exact values through the JSON round trip and through absorb.
    #[test]
    fn delta_metrics_round_trip() {
        let metrics = PipelineMetrics::new();
        let registry = metrics.registry();
        registry.counter("delta.applied").add(4);
        registry.counter("delta.rejected").add(1);
        registry.counter("compact.runs").add(2);
        registry.gauge("engine.chain_depth").set(3);

        let json = metrics.render_json();
        let parsed = crate::registry::MetricsSnapshot::from_json_str(&json).expect("valid json");
        assert_eq!(parsed.count("delta.applied"), 4);
        assert_eq!(parsed.count("delta.rejected"), 1);
        assert_eq!(parsed.count("compact.runs"), 2);
        match parsed.get("engine.chain_depth") {
            Some(crate::registry::MetricValue::Gauge(3)) => {}
            other => panic!("engine.chain_depth round-tripped as {other:?}"),
        }

        let resumed = PipelineMetrics::new();
        resumed.registry().counter("delta.applied").add(1);
        resumed.absorb(&parsed);
        let snap = resumed.snapshot();
        assert_eq!(snap.count("delta.applied"), 5);
        assert_eq!(snap.count("engine.chain_depth"), 3);
    }

    /// The prune-effectiveness counters of sub-linear candidate
    /// generation round-trip through JSON and merge through absorb
    /// exactly, so `--metrics` and `/metrics` report true totals even
    /// across checkpoint resumes.
    #[test]
    fn prune_metrics_round_trip() {
        let metrics = PipelineMetrics::new();
        metrics.pruned_concepts.add(120);
        metrics.pruned_clusters.add(45);
        metrics.pruned_rows.add(9_000);

        let json = metrics.render_json();
        let parsed = crate::registry::MetricsSnapshot::from_json_str(&json).expect("valid json");
        assert_eq!(parsed.count("index.pruned.concepts"), 120);
        assert_eq!(parsed.count("index.pruned.clusters"), 45);
        assert_eq!(parsed.count("index.pruned.rows"), 9_000);

        let resumed = PipelineMetrics::new();
        resumed.pruned_rows.add(1_000);
        resumed.absorb(&parsed);
        let snap = resumed.snapshot();
        assert_eq!(snap.count("index.pruned.rows"), 10_000);
        assert_eq!(snap.count("index.pruned.concepts"), 120);
    }

    #[test]
    fn renders_both_formats() {
        let metrics = PipelineMetrics::new();
        metrics.entities.add(9);
        assert!(metrics.render_table().contains("entities"));
        let json = metrics.render_json();
        let parsed = crate::registry::MetricsSnapshot::from_json_str(&json).expect("valid json");
        assert_eq!(parsed.count("entities"), 9);
    }
}
