//! Incremental engine evolution: apply additive deltas to a
//! [`PreparedEngine`] without rebuilding it, persist the change as a
//! **delta artifact** stacking on a parent engine file, and fold a
//! chain back into a single base.
//!
//! A delta is *additive*: new seed instances for existing concepts, new
//! subject rows, or a new (empty) concept column appended to the
//! schema. Additivity is what makes incrementality exact — the frozen
//! τ-expansion candidates are untruncated and sorted, so new seeds can
//! be merge-inserted ([`PreparedMatcher::with_additions`]) and the
//! vector index extended by block-copying untouched concepts, producing
//! an engine **bit-identical** to `Thor::prepare` on the final table:
//! same extraction output, same fingerprint, same saved bytes. That
//! invariant is also why [`PreparedEngine::save_delta`] can byte-diff
//! the evolved engine's sections against the parent chain and write
//! only what changed.
//!
//! On disk a delta artifact is an ordinary v2 sectioned container with
//! a `delta.meta` parent link (see `thor_fault::chain`); loading one
//! resolves the whole chain, and [`compact_chain`] rewrites it as the
//! single artifact a fresh build would have saved — byte-identical.
//!
//! [`PreparedMatcher::with_additions`]: thor_match::PreparedMatcher::with_additions

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use thor_data::Table;
use thor_fault::{
    atomic_write, fnv1a, DeltaMeta, MapMode, SectionChain, SectionWriter, ThorError, ThorResult,
    DELTA_META_SECTION, DELTA_META_VERSION, MAX_CHAIN_DEPTH,
};
use thor_index::VectorIndexBuilder;
use thor_obs::PipelineMetrics;

use crate::engine::{
    concept_instances, engine_fingerprint, meta_fingerprint, record_fine_tune, EngineInner,
    ENGINE_LAZY_SECTIONS, SEC_META,
};
use crate::extract::PhraseMemo;
use crate::segment::SubjectIndex;
use crate::PreparedEngine;

/// New seed instances (and, implicitly, new subject rows) to merge into
/// an engine's table: a small standalone table with the same subject
/// concept whose cells are replayed into the engine's table.
#[derive(Debug, Clone)]
pub struct SeedDelta {
    rows: Table,
}

impl SeedDelta {
    /// A seed delta from a table of additions.
    pub fn new(rows: Table) -> Self {
        Self { rows }
    }

    /// Parse a seed delta from CSV text (same dialect as the engine
    /// table: header row of concept names, subject first).
    pub fn from_csv(text: &str) -> ThorResult<Self> {
        let rows =
            thor_data::from_csv(text).map_err(|e| ThorError::parse(format!("seed delta: {e}")))?;
        Ok(Self { rows })
    }

    /// The additions, as a standalone table.
    pub fn rows(&self) -> &Table {
        &self.rows
    }
}

/// A new, initially empty concept column appended to the schema.
#[derive(Debug, Clone)]
pub struct ConceptDelta {
    name: String,
}

impl ConceptDelta {
    /// A concept delta adding the column `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into() }
    }

    /// The concept to append.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// An additive change to apply to a [`PreparedEngine`].
#[derive(Debug, Clone)]
pub enum EngineDelta {
    /// New seed instances / subject rows for existing concepts.
    Seeds(SeedDelta),
    /// A new concept column appended to the schema.
    Concept(ConceptDelta),
}

impl PreparedEngine {
    /// Evolve the engine by an additive delta **without rebuilding**:
    /// the table is extended, new candidates are merge-inserted into
    /// the frozen τ-expansion lists, untouched concepts of the vector
    /// index are block-copied, the seed syntax and the dictionary
    /// automaton are extended in place. The result is bit-identical to
    /// `Thor::prepare` on the evolved table — same extraction output,
    /// same fingerprint, same saved artifact bytes — at a fraction of
    /// the cost (no vocabulary re-scan for untouched concepts).
    ///
    /// Non-additive changes (removing instances, renaming or reordering
    /// concepts) are rejected with a named [`ThorError`]; counters
    /// `delta.applied` / `delta.rejected` and the `engine.chain_depth`
    /// gauge are recorded on the engine's metrics handle.
    pub fn apply_delta(&self, delta: &EngineDelta) -> ThorResult<PreparedEngine> {
        let run = self.run_metrics();
        let (result, elapsed) = run.prepare.time(|| self.apply_delta_inner(delta));
        match result {
            Ok(mut inner) => {
                inner.prepare_time = elapsed;
                record_fine_tune(&run, &inner.matcher);
                run.registry().counter("delta.applied").inc();
                run.registry()
                    .gauge("engine.chain_depth")
                    .set(inner.chain_depth as u64);
                Ok(PreparedEngine {
                    inner: Arc::new(inner),
                })
            }
            Err(e) => {
                run.registry().counter("delta.rejected").inc();
                Err(e)
            }
        }
    }

    fn apply_delta_inner(&self, delta: &EngineDelta) -> ThorResult<EngineInner> {
        let inner = &*self.inner;

        // 1. The evolved table.
        let table = match delta {
            EngineDelta::Concept(c) => {
                if inner.table.schema().index_of(c.name()).is_some() {
                    return Err(ThorError::validation(format!(
                        "delta adds concept `{}` which the engine already has",
                        c.name()
                    )));
                }
                inner.table.with_concept(c.name())
            }
            EngineDelta::Seeds(s) => {
                let schema = inner.table.schema();
                let dschema = s.rows().schema();
                if dschema.subject() != schema.subject() {
                    return Err(ThorError::validation(format!(
                        "seed delta subject `{}` does not match engine subject `{}`",
                        dschema.subject().name(),
                        schema.subject().name()
                    )));
                }
                for (ci, concept) in dschema.concepts().iter().enumerate() {
                    if ci == dschema.subject_index() {
                        continue;
                    }
                    match schema.index_of(concept.name()) {
                        None => {
                            return Err(ThorError::validation(format!(
                                "seed delta column `{}` is not a concept of the engine schema; \
                                 add the column first with a concept delta",
                                concept.name()
                            )))
                        }
                        Some(i) if i == schema.subject_index() => {
                            return Err(ThorError::validation(format!(
                                "seed delta column `{}` duplicates the subject concept",
                                concept.name()
                            )))
                        }
                        Some(_) => {}
                    }
                }
                let mut table = (*inner.table).clone();
                for (ri, row) in s.rows().rows().iter().enumerate() {
                    let subject = s.rows().subject_of(ri);
                    table.row_for_subject(subject);
                    for (ci, concept) in dschema.concepts().iter().enumerate() {
                        if ci == dschema.subject_index() {
                            continue;
                        }
                        for value in row.cell(ci).values() {
                            table.fill_slot(subject, concept.name(), value);
                        }
                    }
                }
                table
            }
        };

        // 2. Merge-insert the new seeds into the frozen candidates.
        let concepts = concept_instances(&table);
        let (prep, touched) = inner
            .prep
            .with_additions(&concepts)
            .map_err(|m| ThorError::validation(format!("delta is not additive: {m}")))?;

        // 3. Extend the vector index: untouched concepts are
        // block-copied bit-for-bit from the current index; touched and
        // new ones are rebuilt from their (re-derived) clusters.
        let matcher_config = inner.config.matcher_config();
        let clusters = prep.clusters_at(&matcher_config);
        let old_index = inner.matcher.index();
        let touched: HashSet<usize> = touched.into_iter().collect();
        let mut builder = VectorIndexBuilder::new(inner.store.dim());
        for (ci, cluster) in clusters.iter().enumerate() {
            if ci < old_index.concept_count() && !touched.contains(&ci) {
                builder.add_concept_from(old_index, ci);
            } else {
                builder.add_concept(
                    &cluster.concept,
                    cluster.seed_count(),
                    cluster
                        .representative_vectors()
                        .map(|(w, v)| (w, v.as_slice())),
                );
            }
        }
        let index = builder.build();
        let matcher = prep
            .matcher_with_index(matcher_config, index, None)
            .map_err(|m| ThorError::validation(format!("delta index extension: {m}")))?;

        // 4. Extend the dictionary automaton with the merged patterns.
        let dictionary = inner
            .dictionary
            .extend(concepts.iter().map(|(n, i)| (n.clone(), i.iter().cloned())))
            .map_err(|m| ThorError::validation(format!("delta is not additive: {m}")))?;

        // 5. Re-fingerprint: the store is unchanged, the table is not.
        let table_digest = fnv1a(thor_data::to_csv(&table).as_bytes());
        Ok(EngineInner {
            fingerprint: engine_fingerprint(&inner.config, table_digest, inner.store_digest),
            config: inner.config.clone(),
            store: Arc::clone(&inner.store),
            subjects: Arc::new(SubjectIndex::new(table.subjects(), &inner.store)),
            table: Arc::new(table),
            prep: Arc::new(prep),
            matcher: Arc::new(matcher),
            memo: PhraseMemo::new(inner.config.cache_capacity),
            dictionary: Arc::new(dictionary),
            store_digest: inner.store_digest,
            table_digest,
            chain_depth: inner.chain_depth + 1,
            prepare_time: std::time::Duration::ZERO,
            metrics: inner.metrics.clone(),
        })
    }

    /// Persist this engine as a **delta artifact** on `parent` (a plain
    /// engine artifact or itself a delta): only the sections whose
    /// bytes differ from what the parent chain resolves are written,
    /// plus a `delta.meta` link recording the parent's path, directory
    /// checksum and engine fingerprint. Loading `out` resolves the
    /// whole chain and is indistinguishable from loading a full save
    /// of this engine.
    ///
    /// `note` is free-form provenance (e.g. the CLI invocation) echoed
    /// by `thor inspect`.
    pub fn save_delta(&self, parent: &Path, out: &Path, note: &str) -> ThorResult<()> {
        let chain = SectionChain::open(parent, MapMode::Mapped)?;
        chain.verify_except(ENGINE_LAZY_SECTIONS)?;
        let depth = chain.depth() + 1;
        if depth > MAX_CHAIN_DEPTH {
            return Err(ThorError::validation(format!(
                "stacking on {} would exceed {MAX_CHAIN_DEPTH} deltas; fold the chain with \
                 `thor compact` first",
                parent.display()
            )));
        }
        let parent_fingerprint = meta_fingerprint(chain.bytes(SEC_META)?)
            .map_err(|e| e.context(format!("{}: engine meta section", parent.display())))?;
        // Record the parent relative to the delta's own directory when
        // they live side by side, so the chain survives moving the
        // directory as a unit.
        let parent_path = match (parent.parent(), out.parent(), parent.file_name()) {
            (Some(a), Some(b), Some(name)) if a == b => name.to_string_lossy().into_owned(),
            _ => parent.display().to_string(),
        };
        let meta = DeltaMeta {
            parent: parent_path,
            parent_dir_checksum: chain.top().dir_checksum(),
            parent_fingerprint,
            depth: depth as u64,
            note: note.to_string(),
        };
        let mut w = SectionWriter::new();
        w.add(DELTA_META_SECTION, DELTA_META_VERSION, &meta.encode());
        for (name, version, bytes) in self.engine_sections() {
            if chain.bytes(name).ok() != Some(bytes.as_slice()) {
                w.add(name, version, &bytes);
            }
        }
        atomic_write(out, &w.finish())
    }
}

/// Fold the delta chain under `path` into the single artifact `out` —
/// byte-identical to what a fresh [`PreparedEngine::save`] of the
/// resolved state writes. The whole chain is fully verified first
/// (every checksum, every link), and the compacted artifact is loaded
/// back and its fingerprint compared before the function returns the
/// resulting engine. Records a `compact.runs` counter on `metrics`.
pub fn compact_chain(
    path: &Path,
    out: &Path,
    metrics: Option<&PipelineMetrics>,
) -> ThorResult<PreparedEngine> {
    let chain = SectionChain::open(path, MapMode::Owned)?;
    chain.verify_all()?;
    let expected = meta_fingerprint(chain.bytes(SEC_META)?)
        .map_err(|e| e.context(format!("{}: engine meta section", path.display())))?;
    let folded = chain.compact_bytes()?;
    drop(chain);
    atomic_write(out, &folded)?;
    let engine = PreparedEngine::load(out)?;
    if engine.fingerprint() != expected {
        return Err(ThorError::validation(format!(
            "{}: compacted engine fingerprint {} does not match the chain's {expected}",
            out.display(),
            engine.fingerprint()
        )));
    }
    if let Some(m) = metrics {
        m.registry().counter("compact.runs").inc();
        m.registry().gauge("engine.chain_depth").set(0);
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThorConfig;
    use crate::document::Document;
    use crate::pipeline::Thor;
    use thor_data::Schema;
    use thor_embed::SemanticSpaceBuilder;

    fn space() -> Arc<thor_embed::VectorStore> {
        Arc::new(
            SemanticSpaceBuilder::new(24, 5)
                .topic("anatomy")
                .words("anatomy", ["lungs", "brain", "skin", "nerve", "spine"])
                .topic("medicine")
                .words("medicine", ["aspirin", "insulin"])
                .generic_words(["damages", "grows", "treats"])
                .build()
                .into_store(),
        )
    }

    fn base_table() -> Table {
        let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        table.fill_slot("Tuberculosis", "Anatomy", "lungs");
        table.row_for_subject("Acne");
        table
    }

    fn docs() -> Vec<Document> {
        vec![
            Document::new("d0", "Tuberculosis damages the lungs and the brain."),
            Document::new("d1", "Acne grows on the skin."),
            Document::new("d2", "Aspirin treats the nerve and the spine."),
        ]
    }

    fn seed_delta(csv: &str) -> EngineDelta {
        EngineDelta::Seeds(SeedDelta::from_csv(csv).unwrap())
    }

    /// The tentpole invariant at the engine layer: a chain of deltas is
    /// bit-identical to a fresh build of the final state — fingerprint,
    /// extraction output, *and the saved artifact bytes*.
    #[test]
    fn delta_chain_matches_fresh_build_bit_for_bit() {
        let store = space();
        let thor = Thor::new(Arc::clone(&store), ThorConfig::with_tau(0.6));
        let engine = thor.prepare(&base_table());
        assert_eq!(engine.chain_depth(), 0);

        // Delta 1: new seeds (an existing word becomes a seed — the
        // shadow case — plus a brand-new subject row).
        let d1 = seed_delta("Disease,Anatomy\nTuberculosis,brain\nStroke,nerve\n");
        // Delta 2: a new concept column, then seeds for it.
        let d2 = EngineDelta::Concept(ConceptDelta::new("Treatment"));
        let d3 = seed_delta("Disease,Treatment\nStroke,aspirin\n");

        let evolved = engine
            .apply_delta(&d1)
            .unwrap()
            .apply_delta(&d2)
            .unwrap()
            .apply_delta(&d3)
            .unwrap();
        assert_eq!(evolved.chain_depth(), 3);

        // The same final table, built from scratch.
        let mut final_table = base_table();
        final_table.fill_slot("Tuberculosis", "Anatomy", "brain");
        final_table.fill_slot("Stroke", "Anatomy", "nerve");
        let mut final_table = final_table.with_concept("Treatment");
        final_table.fill_slot("Stroke", "Treatment", "aspirin");
        let fresh = thor.prepare(&final_table);

        assert_eq!(evolved.fingerprint(), fresh.fingerprint());
        assert_eq!(
            thor_data::to_csv(evolved.table()),
            thor_data::to_csv(fresh.table())
        );
        let a = evolved.enrich(&docs());
        let b = fresh.enrich(&docs());
        assert_eq!(a.entities, b.entities);
        assert_eq!(thor_data::to_csv(&a.table), thor_data::to_csv(&b.table));

        // Strongest form: the artifacts are byte-identical.
        let dir = std::env::temp_dir().join(format!("thor-delta-bits-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (pa, pb) = (dir.join("evolved.eng"), dir.join("fresh.eng"));
        evolved.save(&pa).unwrap();
        fresh.save(&pb).unwrap();
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_delta_writes_patches_and_loads_like_a_full_save() {
        let store = space();
        let thor = Thor::new(Arc::clone(&store), ThorConfig::with_tau(0.6));
        let engine = thor.prepare(&base_table());
        let dir = std::env::temp_dir().join(format!("thor-delta-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("base.eng");
        engine.save(&base_path).unwrap();

        let d1 = seed_delta("Disease,Anatomy\nStroke,nerve\n");
        let e1 = engine.apply_delta(&d1).unwrap();
        let d1_path = dir.join("d1.eng");
        e1.save_delta(&base_path, &d1_path, "test delta 1").unwrap();

        let d2 = EngineDelta::Concept(ConceptDelta::new("Treatment"));
        let e2 = e1.apply_delta(&d2).unwrap();
        let d2_path = dir.join("d2.eng");
        e2.save_delta(&d1_path, &d2_path, "test delta 2").unwrap();

        // A delta file is smaller than a full save (the vector store is
        // never repeated).
        let full = std::fs::metadata(&base_path).unwrap().len();
        let patch = std::fs::metadata(&d1_path).unwrap().len();
        assert!(
            patch < full,
            "delta ({patch} bytes) should be smaller than the base ({full} bytes)"
        );

        for mode in [MapMode::Owned, MapMode::Mapped] {
            let loaded = PreparedEngine::load_with(&d2_path, mode).unwrap();
            assert_eq!(loaded.fingerprint(), e2.fingerprint());
            assert_eq!(loaded.chain_depth(), 2);
            let a = loaded.enrich(&docs());
            let b = e2.enrich(&docs());
            assert_eq!(a.entities, b.entities);
            assert_eq!(thor_data::to_csv(&a.table), thor_data::to_csv(&b.table));
        }
        // The base still loads on its own, untouched by the stack.
        assert_eq!(
            PreparedEngine::load(&base_path).unwrap().fingerprint(),
            engine.fingerprint()
        );

        // Compaction folds the chain into the bytes a fresh save of the
        // evolved engine writes.
        let compact_path = dir.join("compact.eng");
        let compacted = compact_chain(&d2_path, &compact_path, None).unwrap();
        assert_eq!(compacted.fingerprint(), e2.fingerprint());
        assert_eq!(compacted.chain_depth(), 0);
        let fresh_path = dir.join("fresh.eng");
        e2.save(&fresh_path).unwrap();
        assert_eq!(
            std::fs::read(&compact_path).unwrap(),
            std::fs::read(&fresh_path).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_base_is_rejected_by_name() {
        let store = space();
        let thor = Thor::new(Arc::clone(&store), ThorConfig::with_tau(0.6));
        let engine = thor.prepare(&base_table());
        let dir = std::env::temp_dir().join(format!("thor-delta-mismatch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base_path = dir.join("base.eng");
        engine.save(&base_path).unwrap();
        let e1 = engine
            .apply_delta(&seed_delta("Disease,Anatomy\nStroke,nerve\n"))
            .unwrap();
        let d1_path = dir.join("d1.eng");
        e1.save_delta(&base_path, &d1_path, "").unwrap();

        // Swap the base for a different engine build after the delta
        // was cut: the load must fail with the named mismatch (which
        // points at `thor compact`), not a checksum panic.
        thor.prepare(&{
            let mut t = base_table();
            t.fill_slot("Acne", "Anatomy", "skin");
            t
        })
        .save(&base_path)
        .unwrap();
        let err = PreparedEngine::load(&d1_path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("delta base mismatch"), "{msg}");
        assert!(msg.contains("thor compact"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_additive_and_malformed_deltas_are_rejected() {
        let store = space();
        let thor = Thor::new(Arc::clone(&store), ThorConfig::with_tau(0.6));
        let engine = thor.prepare(&base_table());
        let metrics = PipelineMetrics::new();
        let engine = engine.with_metrics(metrics.clone());

        // Unknown column.
        let err = engine
            .apply_delta(&seed_delta("Disease,Treatment\nAcne,aspirin\n"))
            .unwrap_err();
        assert!(err.to_string().contains("not a concept"), "{err}");
        // Duplicate concept.
        let err = engine
            .apply_delta(&EngineDelta::Concept(ConceptDelta::new("Anatomy")))
            .unwrap_err();
        assert!(err.to_string().contains("already has"), "{err}");
        // Wrong subject.
        let err = engine
            .apply_delta(&seed_delta("Drug,Anatomy\naspirin,nerve\n"))
            .unwrap_err();
        assert!(err.to_string().contains("subject"), "{err}");

        // Rejections were counted; a success counts too.
        assert_eq!(metrics.snapshot().count("delta.rejected"), 3);
        engine
            .apply_delta(&seed_delta("Disease,Anatomy\nStroke,nerve\n"))
            .unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.count("delta.applied"), 1);
        assert_eq!(snap.count("engine.chain_depth"), 1);
    }

    /// The subject index is derived state, rebuilt wherever an engine
    /// is built: a subject a delta adds segments identically through
    /// every way of building or loading the evolved engine, and the
    /// cheap derivations share their parent's index.
    #[test]
    fn subject_index_follows_every_engine_lifecycle() {
        use crate::config::SegmentationMode;
        use crate::segment::segment;

        let store = space();
        let thor = Thor::new(Arc::clone(&store), ThorConfig::with_tau(0.6));
        let base = thor.prepare(&base_table());
        let evolved = base
            .apply_delta(&seed_delta("Disease,Anatomy\nStroke,nerve\n"))
            .unwrap();
        let doc = Document::new("d", "Stroke damages the nerve. It grows.");
        let segs = |e: &PreparedEngine| -> Vec<(String, usize)> {
            segment(
                &doc,
                e.subjects(),
                e.matcher(),
                SegmentationMode::MentionCarryForward,
            )
            .into_iter()
            .map(|s| (s.subject, s.index))
            .collect()
        };
        let expected = vec![("Stroke".to_string(), 0), ("Stroke".to_string(), 1)];
        assert_eq!(segs(&evolved), expected);
        assert!(segs(&base).is_empty(), "the base has no Stroke row");

        let dir = std::env::temp_dir().join(format!("thor-delta-subjects-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (base_path, delta_path) = (dir.join("base.eng"), dir.join("d1.eng"));
        let (full_path, compact_path) = (dir.join("full.eng"), dir.join("compact.eng"));
        base.save(&base_path).unwrap();
        evolved
            .save_delta(&base_path, &delta_path, "add Stroke")
            .unwrap();
        evolved.save(&full_path).unwrap();

        let mut engines = vec![("fresh prepare", thor.prepare(evolved.table()))];
        for mode in [MapMode::Owned, MapMode::Mapped] {
            engines.push(("load", PreparedEngine::load_with(&full_path, mode).unwrap()));
            engines.push((
                "chain load",
                PreparedEngine::load_with(&delta_path, mode).unwrap(),
            ));
        }
        engines.push((
            "compact_chain",
            compact_chain(&delta_path, &compact_path, None).unwrap(),
        ));
        for (how, engine) in &engines {
            assert_eq!(segs(engine), expected, "{how}");
        }
        std::fs::remove_dir_all(&dir).ok();

        for derived in [evolved.with_tau(0.8), evolved.with_threads(4)] {
            assert!(Arc::ptr_eq(
                &derived.inner.subjects,
                &evolved.inner.subjects
            ));
            assert_eq!(segs(&derived), expected);
        }
    }
}
