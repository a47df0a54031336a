//! Incremental engine evolution: apply additive deltas to a
//! [`PreparedEngine`] without rebuilding it, persist the change as a
//! **delta artifact** stacking on a parent engine file, and fold a
//! chain back into a single base.
//!
//! A delta is *additive*: new seed instances for existing concepts, new
//! subject rows, or a new (empty) concept column appended to the
//! schema. Additivity is what makes incrementality exact — the frozen
//! τ-expansion candidates are untruncated and sorted, so new seeds can
//! be merge-inserted ([`PreparedMatcher::with_additions`]) — and THOR
//! fine-tunes each concept on its own seeds and candidates, so an apply
//! works concept by concept. A concept the delta does not touch is
//! shared with the parent engine: its instances and seeds are the same
//! `Arc`s, its index block and pruning balls are copied, and its
//! seed-syntax entries are shared. Only touched concepts embed their
//! new instances and build their index block. A touched concept's
//! pruning ball covers all its rows, but k-means runs only on its
//! groups (seed prefix, expansion suffix) whose rows changed: an
//! unchanged group's clusters are copied from the parent with their
//! row ids rebased, since k-means reads only the group's rows and is
//! seeded per (concept, group).
//! The result is an engine **bit-identical** to `Thor::prepare` on the
//! final table: same extraction output, same fingerprint, same saved
//! bytes. That invariant is also why [`PreparedEngine::save_delta`] can
//! byte-diff the evolved engine's sections against the parent chain and
//! write only what changed.
//!
//! On disk a delta artifact is an ordinary sectioned container with
//! a `delta.meta` parent link (see `thor_fault::chain`); loading one
//! resolves the whole chain, and [`compact_chain`] rewrites it as the
//! single artifact a fresh build would have saved — byte-identical.
//!
//! [`PreparedMatcher::with_additions`]: thor_match::PreparedMatcher::with_additions

use std::borrow::Cow;
use std::path::Path;
use std::sync::Arc;

use thor_data::Table;
use thor_fault::{
    atomic_write, fnv1a, DeltaMeta, MapMode, SectionChain, SectionWriter, ThorError, ThorResult,
    DELTA_META_SECTION, DELTA_META_VERSION, MAX_CHAIN_DEPTH,
};
use thor_obs::PipelineMetrics;

use crate::engine::{
    engine_fingerprint, meta_fingerprint, record_fine_tune, EngineInner, ENGINE_LAZY_SECTIONS,
    SEC_META,
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
    /// Evolve the engine by an additive delta **without rebuilding**,
    /// concept by concept. The table is extended; each concept's
    /// instance list is its parent list merged with the values the
    /// delta added, and the new candidates are merge-inserted into the
    /// frozen τ-expansion lists
    /// ([`PreparedMatcher::with_additions`]). A concept the delta
    /// touches — it gained seeds, its candidate list changed, or it is
    /// new — gets its new instances embedded, its index block built and
    /// a fresh concept ball; of its two k-means groups (seed prefix,
    /// expansion suffix), only one whose rows changed is re-clustered,
    /// and an unchanged one is copied with its row ids rebased
    /// ([`PruneIndex::evolve`]). Every other concept is shared with
    /// this engine: its seeds are the same `Arc`s, its index block and
    /// pruning balls are copied (row ids rebased), and the seed syntax
    /// shares every entry. The
    /// subject index is shared unless the delta added subjects, and
    /// then rebuilt from the evolved table. The result is
    /// bit-identical to `Thor::prepare` on the evolved table — same
    /// extraction output, same fingerprint, same saved artifact bytes.
    ///
    /// Non-additive changes (removing instances, renaming or reordering
    /// concepts) are rejected with a named [`ThorError`]; counters
    /// `delta.applied` / `delta.rejected`, `delta.concepts_rebuilt`
    /// (the touched concepts) and the `engine.chain_depth` gauge are
    /// recorded on the engine's metrics handle, and `delta.seed_scans`
    /// counts the applies that first had to compute the seed words'
    /// competitive argmax (once per loaded engine; see
    /// [`PreparedMatcher::seed_argmax_ready`]).
    ///
    /// [`PreparedMatcher::with_additions`]: thor_match::PreparedMatcher::with_additions
    /// [`PruneIndex::evolve`]: thor_match::PruneIndex::evolve
    /// [`PreparedMatcher::seed_argmax_ready`]: thor_match::PreparedMatcher::seed_argmax_ready
    pub fn apply_delta(&self, delta: &EngineDelta) -> ThorResult<PreparedEngine> {
        let run = self.run_metrics();
        let pending = !self.inner.prep.seed_argmax_ready();
        let (result, elapsed) = run.prepare.time(|| self.apply_delta_inner(delta));
        match result {
            Ok((mut inner, rebuilt)) => {
                inner.prepare_time = elapsed;
                record_fine_tune(&run, &inner.matcher);
                run.registry().counter("delta.applied").inc();
                run.registry()
                    .counter("delta.concepts_rebuilt")
                    .add(rebuilt as u64);
                let scanned = pending && self.inner.prep.seed_argmax_ready();
                run.registry()
                    .counter("delta.seed_scans")
                    .add(u64::from(scanned));
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

    /// The evolved engine and the number of concepts it rebuilt.
    fn apply_delta_inner(&self, delta: &EngineDelta) -> ThorResult<(EngineInner, usize)> {
        let inner = &*self.inner;
        let schema = inner.table.schema();

        // 1. The evolved table, and per engine concept the values the
        // delta added to its column.
        let mut gained: Vec<Vec<&str>> = vec![Vec::new(); schema.concepts().len()];
        let table = match delta {
            EngineDelta::Concept(c) => {
                if schema.index_of(c.name()).is_some() {
                    return Err(ThorError::validation(format!(
                        "delta adds concept `{}` which the engine already has",
                        c.name()
                    )));
                }
                gained.push(Vec::new());
                inner.table.with_concept(c.name())
            }
            EngineDelta::Seeds(s) => {
                let dschema = s.rows().schema();
                if dschema.subject() != schema.subject() {
                    return Err(ThorError::validation(format!(
                        "seed delta subject `{}` does not match engine subject `{}`",
                        dschema.subject().name(),
                        schema.subject().name()
                    )));
                }
                // Delta column → engine concept, `None` for the subject.
                let mut columns = Vec::with_capacity(dschema.concepts().len());
                for (ci, concept) in dschema.concepts().iter().enumerate() {
                    if ci == dschema.subject_index() {
                        columns.push(None);
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
                        Some(i) => columns.push(Some(i)),
                    }
                }
                let mut table = (*inner.table).clone();
                let rows: Vec<usize> = (0..s.rows().len())
                    .map(|ri| table.row_for_subject(s.rows().subject_of(ri)))
                    .collect();
                let mut writer = table.slot_writer();
                for (row, ti) in s.rows().rows().iter().zip(rows) {
                    for (di, column) in columns.iter().enumerate() {
                        let Some(ci) = *column else { continue };
                        for value in row.cell(di).values() {
                            if writer.fill(ti, ci, value) {
                                gained[ci].push(value.trim());
                            }
                        }
                    }
                }
                table
            }
        };
        let new_subjects: Vec<&str> = (inner.table.len()..table.len())
            .map(|ri| table.subject_of(ri))
            .collect();
        gained[schema.subject_index()].extend(&new_subjects);

        // 2. Merge-insert the new seeds into the frozen candidates.
        let concepts: Vec<(String, Cow<'_, [String]>)> = table
            .schema()
            .concepts()
            .iter()
            .enumerate()
            .map(|(ci, concept)| {
                let parent: &[String] = if ci < inner.prep.concept_names().len() {
                    inner.prep.concept_seeds(ci).instances()
                } else {
                    &[]
                };
                (
                    concept.name().to_string(),
                    Table::merge_column_values(parent, &gained[ci]),
                )
            })
            .collect();
        let (prep, touched) = inner
            .prep
            .with_additions(&concepts)
            .map_err(|m| ThorError::validation(format!("delta is not additive: {m}")))?;

        // 3. Evolve the matcher: untouched concepts keep their index
        // block and pruning balls.
        let matcher = prep.evolve_matcher(&inner.matcher, &touched);

        // 4. The subject index is shared unless the delta added subjects.
        let subjects = if new_subjects.is_empty() {
            Arc::clone(&inner.subjects)
        } else {
            Arc::new(SubjectIndex::new(table.subjects(), &inner.store))
        };

        // 5. Re-fingerprint: the store is unchanged, the table is not.
        // This rendering is also the `table` section a save writes.
        let table_csv = thor_data::to_csv(&table);
        let table_digest = fnv1a(table_csv.as_bytes());
        let evolved = EngineInner {
            fingerprint: engine_fingerprint(&inner.config, table_digest, inner.store_digest),
            config: inner.config.clone(),
            store: Arc::clone(&inner.store),
            subjects,
            table: Arc::new(table),
            table_csv: table_csv.into(),
            prep: Arc::new(prep),
            matcher: Arc::new(matcher),
            memo: PhraseMemo::new(inner.config.cache_capacity),
            store_digest: inner.store_digest,
            table_digest,
            chain_depth: inner.chain_depth + 1,
            prepare_time: std::time::Duration::ZERO,
            metrics: inner.metrics.clone(),
        };
        Ok((evolved, touched.len()))
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
        // A delta never changes the vector store: check it against the
        // parent's copy in place, and encode it only if that differs.
        let store_kept = self.store_image_in(&chain);
        let mut w = SectionWriter::new();
        w.add(DELTA_META_SECTION, DELTA_META_VERSION, &meta.encode());
        for (name, version, bytes) in self.engine_sections(!store_kept) {
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
        // The merged instance lists are the ones a rescan of the table
        // gives.
        let rescanned = crate::engine::concept_instances(evolved.table());
        for (ci, (_, instances)) in rescanned.iter().enumerate() {
            let merged = evolved.prepared_matcher().concept_seeds(ci).instances();
            assert_eq!(merged, instances.as_slice());
        }
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

    /// A base with two seeded concepts, `Anatomy` and `Treatment`, and
    /// the engine evolved from it by one new `Anatomy` seed, with the
    /// metrics handle the apply recorded into.
    fn one_concept_delta() -> (PreparedEngine, PreparedEngine, PipelineMetrics) {
        let thor = Thor::new(space(), ThorConfig::with_tau(0.6));
        let mut table = Table::new(Schema::new(["Disease", "Anatomy", "Treatment"], "Disease"));
        table.fill_slot("Tuberculosis", "Anatomy", "lungs");
        table.fill_slot("Tuberculosis", "Treatment", "aspirin");
        let metrics = PipelineMetrics::new();
        let base = thor.prepare(&table).with_metrics(metrics.clone());
        let evolved = base
            .apply_delta(&seed_delta("Disease,Anatomy\nTuberculosis,brain\n"))
            .unwrap();
        (base, evolved, metrics)
    }

    /// Concept `ci`'s block of `ix`: its seed-row count, row words, row
    /// bits and row-sum bits.
    fn index_block(
        ix: &thor_index::VectorIndex,
        ci: usize,
    ) -> (usize, Vec<&str>, Vec<u32>, Vec<u32>) {
        let (_, start, rows, seed_rows) = ix.concept_layout().nth(ci).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            seed_rows,
            (start..start + rows).map(|r| ix.row_word(r)).collect(),
            (start..start + rows)
                .flat_map(|r| bits(ix.row(r)))
                .collect(),
            bits(ix.rep_sum(ci)),
        )
    }

    /// The sharing mechanism: after a delta, every concept it did not
    /// touch holds its parent's very seeds and seed-syntax entries and
    /// its parent's index block; the touched concept holds new ones.
    #[test]
    fn untouched_concepts_share_their_parents_state() {
        let (base, evolved, _) = one_concept_delta();
        let (subject, anatomy, treatment) = (0, 1, 2);
        let (bp, ep) = (base.prepared_matcher(), evolved.prepared_matcher());
        let (bi, ei) = (base.matcher().index(), evolved.matcher().index());
        for ci in [subject, treatment] {
            assert!(Arc::ptr_eq(bp.concept_seeds(ci), ep.concept_seeds(ci)));
            assert_eq!(index_block(bi, ci), index_block(ei, ci));
        }
        assert!(!Arc::ptr_eq(
            bp.concept_seeds(anatomy),
            ep.concept_seeds(anatomy)
        ));
        assert_ne!(index_block(bi, anatomy), index_block(ei, anatomy));

        // Seed syntax is keyed by instance: every entry the parent has
        // is shared, and only the new seed's entry is new.
        let (bs, es) = (bp.seed_syntax(), ep.seed_syntax());
        for instance in bs.instances() {
            assert!(std::ptr::eq(
                bs.get(instance).unwrap(),
                es.get(instance).unwrap()
            ));
        }
        assert!(bs.get("brain").is_none() && es.get("brain").is_some());

        // No subject was added: the subject index is the parent's.
        assert!(Arc::ptr_eq(&base.inner.subjects, &evolved.inner.subjects));
    }

    /// `delta.concepts_rebuilt` counts the touched concepts: a seed
    /// delta for one concept that moves no other concept's candidate
    /// rebuilds exactly that concept.
    #[test]
    fn a_one_concept_delta_rebuilds_one_concept() {
        let (base, evolved, metrics) = one_concept_delta();
        let (before, after) = (
            base.prepared_matcher().candidates(),
            evolved.prepared_matcher().candidates(),
        );
        assert_eq!(before[0], after[0], "no subject candidate moved");
        assert_eq!(before[2], after[2], "no Treatment candidate moved");
        let snap = metrics.snapshot();
        assert_eq!(snap.count("delta.applied"), 1);
        assert_eq!(snap.count("delta.concepts_rebuilt"), 1);
    }

    /// The seed words' argmax is computed once per loaded engine, on
    /// its first delta, and never on an engine `Thor::prepare` built.
    #[test]
    fn seed_scans_count_only_a_loaded_engines_first_delta() {
        let store = space();
        let thor = Thor::new(Arc::clone(&store), ThorConfig::with_tau(0.6));
        let d1 = seed_delta("Disease,Anatomy\nTuberculosis,brain\nStroke,nerve\n");
        let d2 = seed_delta("Disease,Anatomy\nAcne,skin\n");
        let scans = |engine: PreparedEngine| -> Vec<u64> {
            let metrics = PipelineMetrics::new();
            let mut engine = engine.with_metrics(metrics.clone());
            [&d1, &d2]
                .into_iter()
                .map(|d| {
                    engine = engine.apply_delta(d).unwrap();
                    metrics.snapshot().count("delta.seed_scans")
                })
                .collect()
        };
        assert_eq!(scans(thor.prepare(&base_table())), [0, 0]);

        let dir = std::env::temp_dir().join(format!("thor-delta-scans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.eng");
        thor.prepare(&base_table()).save(&path).unwrap();
        for mode in [MapMode::Owned, MapMode::Mapped] {
            let loaded = PreparedEngine::load_with(&path, mode).unwrap();
            assert_eq!(scans(loaded), [1, 1], "{mode:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
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
