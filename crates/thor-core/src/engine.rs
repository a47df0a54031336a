//! The build/serve split: a frozen, persistable, `Arc`-shared
//! [`PreparedEngine`].
//!
//! THOR's Preparation phase (seed collection + τ-expansion + index
//! build) depends only on the integrated table, the vector store and
//! the configuration — not on the documents being served. The engine
//! freezes that output once, behind [`Thor::prepare`]:
//!
//! * the fine-tuned [`SimilarityMatcher`] (concept clusters + expanded
//!   `VectorIndex` + interning phrase cache),
//! * the [`PreparedMatcher`] it was derived from (the untruncated
//!   τ-expansion candidates, so any τ′ ≥ the build τ derives in
//!   microseconds instead of re-scanning the vocabulary),
//! * the [`SubjectIndex`] segmentation looks subjects up in, the
//!   table, and the `Arc<VectorStore>`.
//!
//! Nothing else: the Aho–Corasick dictionary belongs to the paper's
//! comparison Baseline (`thor_baselines::DictionaryBaseline`, which
//! builds its own from the table), not to THOR.
//!
//! Every serve entry point — [`PreparedEngine::extract`],
//! [`PreparedEngine::enrich`], [`PreparedEngine::enrich_resilient`],
//! [`PreparedEngine::enrich_resilient_stream`] — borrows this immutable
//! bundle and drives its documents through the one execution core in
//! [`crate::resilient`]; none re-runs `fine_tune` or deep-copies the
//! store. [`Thor`] only builds: serving and metrics attach here.
//!
//! The engine also persists: [`PreparedEngine::save`] writes a
//! sectioned artifact (`thor_fault::SectionWriter`: magic, container
//! version, a checksummed directory and one FNV-1a checksum per
//! section, written atomically) and [`PreparedEngine::load`] rebuilds an
//! engine that produces **byte-identical** output. The hot arrays
//! (store, candidates, index, pruning) are borrowed from their
//! sections; the seeds, clusters and subject index are re-derived
//! through the exact constructor path the in-memory build uses; and a
//! semantic fingerprint of store/table/config is verified on load.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use thor_data::Table;
use thor_embed::VectorStore;
use thor_fault::{
    atomic_write, fnv1a, ByteReader, ByteWriter, MapMode, SectionChain, SectionWriter, ThorError,
    ThorResult,
};
use thor_match::{MatcherConfig, PreparedMatcher, SimilarityMatcher, TAU_RANGE};
use thor_obs::PipelineMetrics;

use crate::config::{ScoreWeights, SegmentationMode, ThorConfig};
use crate::document::Document;
use crate::entity::ExtractedEntity;
use crate::extract::PhraseMemo;
use crate::pipeline::{EnrichmentResult, Thor};
use crate::segment::SubjectIndex;

/// Magic bytes opening an engine artifact file (shared with the
/// sectioned container in `thor_fault::section`).
pub const ENGINE_MAGIC: &[u8; 8] = b"THORENG\0";
/// On-disk format version of the engine artifact: the version of the
/// sectioned container it is stored in, which the loader checks. v4
/// carries exactly the sections THOR's pipeline reads (v3 also carried
/// the dictionary Baseline's `automaton`); v1 (pre-sectioned), v2 and
/// v3 files are rejected by name with a rebuild hint.
pub use thor_fault::CONTAINER_VERSION as ENGINE_FORMAT_VERSION;

// Section names of the v4 engine artifact. Hot arrays are stored in
// their exact in-memory layout (little-endian, 64-byte aligned) so a
// mapped load borrows them in place.
pub(crate) const SEC_META: &str = "meta";
pub(crate) const SEC_TABLE: &str = "table";
const SEC_STORE_OFFS: &str = "store.offsets";
const SEC_STORE_WORDS: &str = "store.words";
const SEC_STORE_ROWS: &str = "store.rows";
const SEC_CAND_STARTS: &str = "cand.starts";
const SEC_CAND_SIMS: &str = "cand.sims";
const SEC_CAND_WORD_OFFS: &str = "cand.word_offs";
const SEC_CAND_WORDS: &str = "cand.words";
const SEC_IDX_META: &str = "idx.meta";
const SEC_IDX_DATA: &str = "idx.data";
const SEC_IDX_NORMS: &str = "idx.norms";
const SEC_IDX_REPSUMS: &str = "idx.repsums";
const SEC_SYNTAX: &str = "syntax.seeds";
// Candidate-pruning structures (clustered bound pruning). Pure
// deterministic functions of the VectorIndex, persisted so cold loads
// skip the k-means pass. Every artifact carries all six.
const SEC_PRUNE_META: &str = "prune.meta";
const SEC_PRUNE_MEMBERS: &str = "prune.members";
const SEC_PRUNE_CENTROIDS: &str = "prune.centroids";
const SEC_PRUNE_RADII: &str = "prune.radii";
const SEC_PRUNE_CONCEPT_CENTROIDS: &str = "prune.concept_centroids";
const SEC_PRUNE_CONCEPT_RADII: &str = "prune.concept_radii";

/// The O(vocabulary) sections a mapped load does **not** checksum, so
/// cold-start stays flat in artifact size. Everything else — header,
/// directory, and every other section — is verified on every load;
/// `thor inspect` verifies these too.
pub const ENGINE_LAZY_SECTIONS: &[&str] = &[
    SEC_STORE_OFFS,
    SEC_STORE_WORDS,
    SEC_STORE_ROWS,
    SEC_CAND_WORD_OFFS,
    SEC_CAND_WORDS,
    SEC_CAND_SIMS,
];

#[derive(Clone)]
pub(crate) struct EngineInner {
    pub(crate) config: ThorConfig,
    pub(crate) store: Arc<VectorStore>,
    pub(crate) table: Arc<Table>,
    /// Derived from the table and the store; never persisted.
    pub(crate) subjects: Arc<SubjectIndex>,
    pub(crate) prep: Arc<PreparedMatcher>,
    pub(crate) matcher: Arc<SimilarityMatcher>,
    /// Refined winners per noun phrase, for this matcher and config;
    /// never persisted. See [`PreparedEngine::phrase_memo`].
    pub(crate) memo: PhraseMemo,
    /// FNV-1a digests of the store text and table CSV, computed once at
    /// build time and reused by cheap derivations (`with_tau`).
    pub(crate) store_digest: u64,
    pub(crate) table_digest: u64,
    pub(crate) fingerprint: String,
    /// How many deltas separate this engine from a from-scratch build:
    /// 0 for `Thor::prepare` and plain loads, `parent + 1` after
    /// [`PreparedEngine::apply_delta`], the chain depth after loading a
    /// delta chain. Runtime provenance only — never part of the
    /// fingerprint (a delta-evolved engine is bit-identical to the
    /// fresh build of the same state).
    pub(crate) chain_depth: usize,
    pub(crate) prepare_time: Duration,
    pub(crate) metrics: Option<PipelineMetrics>,
}

impl EngineInner {
    /// Give this engine an empty phrase memo of its own — for a
    /// derivation whose matcher or configuration differs from its
    /// source's, so no outcome memoized under one serves the other.
    pub(crate) fn restart_memo(&mut self) {
        self.memo = PhraseMemo::new(self.config.cache_capacity);
    }
}

impl std::fmt::Debug for EngineInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedEngine")
            .field("tau", &self.config.tau)
            .field("concepts", &self.prep.concept_names().len())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

/// An immutable, `Arc`-shared bundle of everything the serve path
/// needs. Cloning is a refcount bump; the engine can be shared across
/// threads, calls, and (via [`PreparedEngine::with_tau`]) τ values.
#[derive(Clone, Debug)]
pub struct PreparedEngine {
    pub(crate) inner: Arc<EngineInner>,
}

/// The `(concept, instances)` pairs fine-tuning runs on, in schema
/// order.
pub(crate) fn concept_instances(table: &Table) -> Vec<(String, Vec<String>)> {
    table
        .schema()
        .concepts()
        .iter()
        .map(|c| (c.name().to_string(), table.column_values(c.name())))
        .collect()
}

/// Record what fine-tuning `matcher` produced into `metrics`: the
/// `expansion.words` count, the `vocab.words`, `cluster.representatives`
/// and `index.rows` gauges, and one `index.build` span when the matcher
/// froze its own index. Every path that builds or attaches a matcher
/// records through here.
pub(crate) fn record_fine_tune(metrics: &PipelineMetrics, matcher: &SimilarityMatcher) {
    let stats = matcher.fine_tune_stats();
    metrics.expansion_words.add(stats.expansion_words);
    metrics.vocab_words.set(stats.vocab_words);
    metrics
        .cluster_representatives
        .set(stats.cluster_representatives);
    metrics.index_rows.set(stats.index_rows);
    if let Some(built) = stats.index_build {
        metrics.index_build.record(built);
    }
}

/// Semantic fingerprint of an engine: every configuration field that
/// can change serve output ([`ThorConfig::fingerprint_parts`]) plus
/// digests of the table and the vector store.
pub(crate) fn engine_fingerprint(
    config: &ThorConfig,
    table_digest: u64,
    store_digest: u64,
) -> String {
    let mut parts = config.fingerprint_parts();
    parts.push(format!("table={table_digest:016x}"));
    parts.push(format!("store={store_digest:016x}"));
    thor_fault::fingerprint(parts)
}

impl Thor {
    /// **Build** the prepared engine for `table`: run Preparation once
    /// (fine-tune the semantic matcher and freeze the expansion
    /// candidates) and return the immutable bundle every serve call
    /// borrows.
    ///
    /// The engine records nothing until a handle is attached with
    /// [`PreparedEngine::with_metrics`], which replays this build as one
    /// `pipeline.prepare` span plus the fine-tune statistics.
    pub fn prepare(&self, table: &Table) -> PreparedEngine {
        let start = Instant::now();
        let concepts = concept_instances(table);
        let matcher_config = self.config().matcher_config();
        let prep = PreparedMatcher::prepare(
            &concepts,
            Arc::clone(self.store_arc()),
            matcher_config.clone(),
        );
        let matcher = prep.matcher_at(matcher_config);
        let table_csv = thor_data::to_csv(table);
        let store_digest = self.store().text_digest();
        let table_digest = fnv1a(table_csv.as_bytes());
        // Fields initialize in the order written, so the clock stops
        // after the subject index and the table copy are built.
        let inner = EngineInner {
            fingerprint: engine_fingerprint(self.config(), table_digest, store_digest),
            config: self.config().clone(),
            store: Arc::clone(self.store_arc()),
            table: Arc::new(table.clone()),
            subjects: Arc::new(SubjectIndex::new(table.subjects(), self.store())),
            prep: Arc::new(prep),
            matcher: Arc::new(matcher),
            memo: PhraseMemo::new(self.config().cache_capacity),
            store_digest,
            table_digest,
            chain_depth: 0,
            prepare_time: start.elapsed(),
            metrics: None,
        };
        PreparedEngine {
            inner: Arc::new(inner),
        }
    }
}

impl PreparedEngine {
    /// The metrics handle serve calls record into: the attached one, or
    /// an ephemeral throwaway so stage timing always has somewhere to
    /// go.
    pub(crate) fn run_metrics(&self) -> PipelineMetrics {
        self.inner.metrics.clone().unwrap_or_default()
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &ThorConfig {
        &self.inner.config
    }

    /// The fine-tuned semantic matcher (clusters + index + cache).
    pub fn matcher(&self) -> &SimilarityMatcher {
        &self.inner.matcher
    }

    /// The memo of refined winners per noun phrase that extraction
    /// consults before matching and refining. Shared with
    /// [`PreparedEngine::with_threads`] siblings; every other
    /// derivation changes the matcher or the configuration and starts
    /// an empty one.
    pub fn phrase_memo(&self) -> &PhraseMemo {
        &self.inner.memo
    }

    /// The frozen Preparation output the matcher was derived from.
    pub fn prepared_matcher(&self) -> &PreparedMatcher {
        &self.inner.prep
    }

    /// The integrated table the engine was built from.
    pub fn table(&self) -> &Table {
        &self.inner.table
    }

    /// The table's subject instances, in row order, frozen for
    /// segmentation.
    pub fn subjects(&self) -> &SubjectIndex {
        &self.inner.subjects
    }

    /// The shared vector store.
    pub fn store(&self) -> &Arc<VectorStore> {
        &self.inner.store
    }

    /// Semantic fingerprint of (config, table, store) — what
    /// [`PreparedEngine::load`] verifies.
    pub fn fingerprint(&self) -> &str {
        &self.inner.fingerprint
    }

    /// Wall-clock time of the Preparation (or derivation / load) that
    /// produced this engine.
    pub fn prepare_time(&self) -> Duration {
        self.inner.prepare_time
    }

    /// The τ the engine currently serves at.
    pub fn tau(&self) -> f64 {
        self.inner.config.tau
    }

    /// How many deltas separate this engine from a from-scratch build:
    /// 0 for [`Thor::prepare`] and plain artifact loads, one more than
    /// the source engine after every [`PreparedEngine::apply_delta`],
    /// and the chain depth after loading a delta chain. Provenance
    /// only — output and fingerprint are independent of it.
    pub fn chain_depth(&self) -> usize {
        self.inner.chain_depth
    }

    /// Derive an engine at a different τ.
    ///
    /// For τ ≥ the τ the Preparation ran at, this is the cheap path the
    /// sweep harness exploits: the frozen candidate lists are filtered
    /// (τ-monotonicity — no vocabulary re-scan, no store copy) and the
    /// result is bit-identical to a full rebuild at τ. For τ *below*
    /// the base, candidates were never collected, so Preparation re-runs
    /// at the lower τ. Either way `prepare_time` reflects what this
    /// derivation actually cost.
    pub fn with_tau(&self, tau: f64) -> PreparedEngine {
        assert!(
            TAU_RANGE.contains(&tau),
            "tau must be in [0, 1] (TAU_RANGE)"
        );
        let mut config = self.inner.config.clone();
        config.tau = tau;
        if tau < self.inner.prep.base().tau {
            // Below the prepared base: the expansion must be re-scanned.
            let engine =
                Thor::new(Arc::clone(&self.inner.store), config).prepare(&self.inner.table);
            return match &self.inner.metrics {
                Some(m) => engine.with_metrics(m.clone()),
                None => engine,
            };
        }
        let run = self.run_metrics();
        let (matcher, prepare_time) = run
            .prepare
            .time(|| self.inner.prep.matcher_at(config.matcher_config()));
        record_fine_tune(&run, &matcher);
        self.derive(|e| {
            e.fingerprint = engine_fingerprint(&config, e.table_digest, e.store_digest);
            e.config = config;
            e.matcher = Arc::new(matcher);
            e.restart_memo();
            e.prepare_time = prepare_time;
        })
    }

    /// A sibling engine: this one's parts (refcount bumps for every
    /// frozen structure, the phrase memo shared) with `edit` applied —
    /// the one place the derivations below build an [`EngineInner`].
    /// An `edit` that changes the matcher or the configuration calls
    /// [`EngineInner::restart_memo`].
    fn derive(&self, edit: impl FnOnce(&mut EngineInner)) -> PreparedEngine {
        let mut inner = (*self.inner).clone();
        edit(&mut inner);
        PreparedEngine {
            inner: Arc::new(inner),
        }
    }

    /// The same engine with a different worker-thread count. Threads
    /// are an execution knob, not a model parameter: output and
    /// fingerprint are unchanged.
    pub fn with_threads(&self, threads: usize) -> PreparedEngine {
        self.derive(|e| e.config.threads = threads)
    }

    /// Attach an observability handle. Nothing is rebuilt: the frozen
    /// index and pruning structures (zero-copy views after a mapped
    /// load) are shared. The handle receives the engine's
    /// `prepare_time` as its one `pipeline.prepare` span and the
    /// matcher's fine-tune statistics, exactly as an in-memory build
    /// records them, so a loaded engine's metrics match the in-memory
    /// path. The phrase memo and the subphrase cache start empty, so
    /// the handle's cache and prune counters see every miss. Output is
    /// unaffected.
    pub fn with_metrics(&self, metrics: PipelineMetrics) -> PreparedEngine {
        metrics.prepare.record(self.inner.prepare_time);
        record_fine_tune(&metrics, &self.inner.matcher);
        self.derive(|e| {
            e.matcher = Arc::new(e.matcher.with_fresh_cache());
            e.restart_memo();
            e.metrics = Some(metrics);
        })
    }

    /// Extract entities from `docs`, deduplicated per (document,
    /// concept, phrase). Returns the entities and the inference time.
    /// Document-parallel for `config.threads > 1` via the shared
    /// [`crate::WorkerPool`]; output is identical for any thread count.
    pub fn extract(&self, docs: &[Document]) -> (Vec<ExtractedEntity>, Duration) {
        let docs: Vec<&Document> = docs.iter().collect();
        let out = self.run_plain(&docs, &self.run_metrics(), None);
        (out.entities, out.inference_time)
    }

    /// Run the serve side of the full pipeline: Entity Extraction and
    /// Slot Filling over the engine's table. One `Table` clone, filled
    /// in place.
    pub fn enrich(&self, docs: &[Document]) -> EnrichmentResult {
        let docs: Vec<&Document> = docs.iter().collect();
        let mut table = (*self.inner.table).clone();
        let out = self.run_plain(&docs, &self.run_metrics(), Some(&mut table));
        EnrichmentResult {
            table,
            entities: out.entities,
            slot_stats: out.slot_stats,
            prepare_time: self.inner.prepare_time,
            inference_time: out.inference_time,
        }
    }

    /// Persist the engine to `path` as a sectioned artifact (atomic
    /// write; one checksummed section per stored structure).
    ///
    /// The artifact stores the *inputs plus the expensive
    /// intermediates*: configuration, vector store (exact `f32` bit
    /// patterns), table CSV, the untruncated τ-expansion candidate
    /// lists (exact `f64` bit patterns), the fine-tuned vector index and
    /// its pruning structures, and the seed-syntax instances the load
    /// cross-checks. Seeds, clusters, the subject index and the caches
    /// are rebuilt at load through the same constructors, which is what
    /// makes the loaded engine byte-identical.
    pub fn save(&self, path: &Path) -> ThorResult<()> {
        let mut sections = SectionWriter::new();
        for (name, version, bytes) in self.engine_sections() {
            sections.add(name, version, &bytes);
        }
        atomic_write(path, &sections.finish())
    }

    /// The engine's artifact payload as `(section, version, bytes)`
    /// triples in canonical save order — what [`PreparedEngine::save`]
    /// writes and what [`PreparedEngine::save_delta`] byte-diffs
    /// against a parent chain. Deterministic: two engines in the same
    /// state produce identical triples.
    pub(crate) fn engine_sections(&self) -> Vec<(&'static str, u32, Vec<u8>)> {
        let inner = &*self.inner;
        let mut sections: Vec<(&'static str, u32, Vec<u8>)> = Vec::with_capacity(20);

        // meta: config + preparation base + shape + digests + fingerprint.
        let mut w = ByteWriter::new();
        write_config(&mut w, &inner.config);
        let base = inner.prep.base();
        w.put_f64(base.tau);
        w.put_u64(base.max_subphrase_words as u64);
        w.put_u64(base.max_expansion as u64);
        w.put_u64(base.cache_capacity as u64);
        w.put_u64(inner.store.dim() as u64);
        w.put_u64(inner.store.len() as u64);
        w.put_u64(inner.prep.concept_names().len() as u64);
        w.put_u64(inner.store_digest);
        w.put_u64(inner.table_digest);
        w.put_str(&inner.fingerprint);
        sections.push((SEC_META, 1, w.into_bytes()));

        sections.push((SEC_TABLE, 1, thor_data::to_csv(&inner.table).into_bytes()));

        // Vector store: sorted word pool + raw f32 rows, the exact
        // layout `VectorStore::from_frozen` borrows in place.
        let mut word_offs: Vec<u64> = vec![0];
        let mut word_bytes: Vec<u8> = Vec::new();
        let mut row_bytes: Vec<u8> = Vec::new();
        inner.store.for_each_sorted(|word, row| {
            word_bytes.extend_from_slice(word.as_bytes());
            word_offs.push(word_bytes.len() as u64);
            for &x in row {
                row_bytes.extend_from_slice(&x.to_le_bytes());
            }
        });
        sections.push((SEC_STORE_OFFS, 1, le_bytes_u64(&word_offs)));
        sections.push((SEC_STORE_WORDS, 1, word_bytes));
        sections.push((SEC_STORE_ROWS, 1, row_bytes));

        // Untruncated τ-expansion candidates, CSR across concepts.
        let (starts, sims, pool) = inner.prep.candidate_parts();
        sections.push((SEC_CAND_STARTS, 1, le_bytes_u64(&starts)));
        sections.push((SEC_CAND_SIMS, 1, le_bytes_f64(&sims)));
        sections.push((SEC_CAND_WORD_OFFS, 1, le_bytes_u64(pool.offsets())));
        sections.push((SEC_CAND_WORDS, 1, pool.bytes().to_vec()));

        // The fine-tuned VectorIndex at the engine's τ: row labels and
        // concept layout in a small meta blob, the hot arrays raw.
        let ix = inner.matcher.index();
        let mut w = ByteWriter::new();
        w.put_u64(ix.dim() as u64);
        w.put_u64(ix.row_count() as u64);
        for r in 0..ix.row_count() {
            w.put_str(ix.row_word(r));
        }
        w.put_u64(ix.concept_count() as u64);
        for (name, start, rows, seed_rows) in ix.concept_layout() {
            w.put_str(name);
            w.put_u64(start as u64);
            w.put_u64(rows as u64);
            w.put_u64(seed_rows as u64);
        }
        sections.push((SEC_IDX_META, 1, w.into_bytes()));
        sections.push((SEC_IDX_DATA, 1, le_bytes_f32(ix.data())));
        sections.push((SEC_IDX_NORMS, 1, le_bytes_f64(ix.norms())));
        sections.push((SEC_IDX_REPSUMS, 1, le_bytes_f32(ix.rep_sums())));

        // Seed-syntax instances (sorted): the table is derived, this
        // section lets the load cross-check the derivation.
        let mut w = ByteWriter::new();
        let instances = inner.prep.seed_syntax().instances();
        w.put_u64(instances.len() as u64);
        for inst in instances {
            w.put_str(inst);
        }
        sections.push((SEC_SYNTAX, 1, w.into_bytes()));

        // Pruning index. Deterministic given the VectorIndex (fixed
        // k-means seed and iteration count), so a delta-rebuilt engine
        // serializes the same bytes as a fresh build of the same state.
        let prune = inner.matcher.prune_index();
        sections.push((SEC_PRUNE_META, 1, prune.meta_bytes()));
        sections.push((SEC_PRUNE_MEMBERS, 1, le_bytes_u32(prune.members())));
        sections.push((SEC_PRUNE_CENTROIDS, 1, le_bytes_f32(prune.centroids())));
        sections.push((SEC_PRUNE_RADII, 1, le_bytes_f64(prune.radii())));
        sections.push((
            SEC_PRUNE_CONCEPT_CENTROIDS,
            1,
            le_bytes_f32(prune.concept_centroids()),
        ));
        sections.push((
            SEC_PRUNE_CONCEPT_RADII,
            1,
            le_bytes_f64(prune.concept_radii()),
        ));

        sections
    }

    /// Load an engine artifact written by [`PreparedEngine::save`],
    /// fully verified ([`MapMode::Owned`]): every section checksum is
    /// checked, and the store digest is recomputed.
    ///
    /// Rejects corrupt, truncated or version-mismatched files with
    /// named [`ThorError`]s before any state is built. The loaded
    /// engine has no metrics handle; attach one with
    /// [`PreparedEngine::with_metrics`].
    pub fn load(path: &Path) -> ThorResult<PreparedEngine> {
        Self::load_with(path, MapMode::Owned)
    }

    /// [`PreparedEngine::load`] with an explicit backing mode.
    ///
    /// [`MapMode::Mapped`] maps the artifact read-only and borrows the
    /// hot arrays (store rows/words, candidate lists, index buffers) in
    /// place: startup cost is independent of vocabulary size and N
    /// processes share one physical copy of the file. The structural
    /// layer (header, directory, bounds, alignment) and every small
    /// section are still verified; only the O(vocabulary) sections in
    /// [`ENGINE_LAZY_SECTIONS`] skip checksumming — corruption there is
    /// caught by `thor inspect` (which always verifies everything) and
    /// is memory-safe but garbage-in/garbage-out at serve time.
    /// Extraction output is bit-identical between the two modes.
    ///
    /// `path` may name a plain engine artifact **or a delta artifact**
    /// written by [`PreparedEngine::save_delta`]: the loader opens the
    /// whole parent chain, link-checks every delta (directory checksum
    /// at the container layer, engine fingerprint here — a stale or
    /// swapped base is a named `delta base mismatch`, never a checksum
    /// panic), and resolves each section against its topmost provider.
    /// The result is indistinguishable from loading the compacted
    /// artifact; [`PreparedEngine::chain_depth`] records how many
    /// deltas were stacked.
    pub fn load_with(path: &Path, mode: MapMode) -> ThorResult<PreparedEngine> {
        let t0 = std::time::Instant::now();
        let file = SectionChain::open(path, mode)?;
        match mode {
            MapMode::Owned => file.verify_all()?,
            MapMode::Mapped => file.verify_except(ENGINE_LAZY_SECTIONS)?,
        }
        // Link-check the semantic identity of every delta: its recorded
        // parent engine fingerprint must equal the fingerprint the
        // chain *prefix below it* resolves to. (`metas()[i]` is carried
        // by file i + 1 and links to the prefix ending at file i.)
        for (i, meta) in file.metas().iter().enumerate() {
            let prefix_meta = file
                .bytes_upto(SEC_META, i)
                .map_err(|e| e.context(format!("{}: engine meta section", path.display())))?;
            let found = meta_fingerprint(prefix_meta)
                .map_err(|e| e.context(format!("{}: engine meta section", path.display())))?;
            if meta.parent_fingerprint != found {
                return Err(ThorError::delta_base_mismatch(
                    file.paths()[i].display(),
                    format!("engine fingerprint {}", meta.parent_fingerprint),
                    format!("engine fingerprint {found}"),
                ));
            }
        }
        let total_len: usize = file.files().iter().map(|f| f.total_len()).sum();
        let ctx = |what: &str| {
            let what = what.to_string();
            let path = path.display().to_string();
            move |e: ThorError| e.context(format!("{path}: engine {what}"))
        };
        let invalid = |msg: String| ThorError::validation(format!("{}: {msg}", path.display()));

        // meta
        let mut r = ByteReader::new(file.bytes(SEC_META)?);
        let config = read_config(&mut r).map_err(ctx("meta section"))?;
        let meta = (|| -> ThorResult<_> {
            let base = MatcherConfig {
                tau: r.get_f64()?,
                max_subphrase_words: r.get_u64()? as usize,
                max_expansion: r.get_u64()? as usize,
                cache_capacity: r.get_u64()? as usize,
            };
            let dim = r.get_u64()? as usize;
            let word_count = r.get_u64()? as usize;
            let concept_count = r.get_u64()? as usize;
            let store_digest = r.get_u64()?;
            let table_digest = r.get_u64()?;
            let fingerprint = r.get_str()?;
            r.finish("engine meta section")?;
            Ok((
                base,
                dim,
                word_count,
                concept_count,
                store_digest,
                table_digest,
                fingerprint,
            ))
        })()
        .map_err(ctx("meta section"))?;
        let (base, dim, word_count, concept_count, store_digest, table_digest, stored_fingerprint) =
            meta;
        if !TAU_RANGE.contains(&base.tau) {
            return Err(invalid(format!(
                "stored base tau {} outside [0, 1]",
                base.tau
            )));
        }

        // table (always verified against its digest — it is small).
        let table_csv = std::str::from_utf8(file.bytes(SEC_TABLE)?)
            .map_err(|e| invalid(format!("table section is not UTF-8: {e}")))?;
        if fnv1a(table_csv.as_bytes()) != table_digest {
            return Err(invalid(
                "table digest mismatch; artifact does not describe its own contents".to_string(),
            ));
        }
        let table = thor_data::from_csv(table_csv)
            .map_err(|e| ThorError::parse(format!("{}: embedded table: {e}", path.display())))?;
        let concepts = concept_instances(&table);
        if concepts.len() != concept_count {
            return Err(invalid(format!(
                "artifact stores {concept_count} candidate lists for {} table concepts",
                concepts.len()
            )));
        }
        let fingerprint = engine_fingerprint(&config, table_digest, store_digest);
        if fingerprint != stored_fingerprint {
            return Err(invalid(format!(
                "engine fingerprint mismatch (stored {stored_fingerprint}, rebuilt \
                 {fingerprint}); artifact does not describe its own contents"
            )));
        }

        // Vector store: borrowed (mapped) or owned views over the
        // sorted word pool + raw rows.
        let store_words = file.pool(SEC_STORE_OFFS, SEC_STORE_WORDS)?;
        if store_words.len() != word_count {
            return Err(invalid(format!(
                "store word pool has {} words, meta declares {word_count}",
                store_words.len()
            )));
        }
        let store_rows = file.frozen_slice::<f32>(SEC_STORE_ROWS)?;
        let store = Arc::new(
            VectorStore::from_frozen(dim, store_words, store_rows)
                .map_err(ctx("store sections"))?,
        );
        if matches!(mode, MapMode::Owned) {
            // Owned loads pay the O(vocabulary) pass anyway; recompute
            // the digest as defense in depth. Mapped loads trust the
            // meta section's digest (itself checksummed) to stay flat.
            let recomputed = store.text_digest();
            if recomputed != store_digest {
                return Err(invalid(format!(
                    "store digest mismatch (stored {store_digest:016x}, recomputed \
                     {recomputed:016x})"
                )));
            }
        }

        // Candidate lists.
        let prep = PreparedMatcher::from_frozen_candidates(
            &concepts,
            Arc::clone(&store),
            base,
            file.frozen_slice::<u64>(SEC_CAND_STARTS)?,
            file.pool(SEC_CAND_WORD_OFFS, SEC_CAND_WORDS)?,
            file.frozen_slice::<f64>(SEC_CAND_SIMS)?,
        )
        .map_err(|m| invalid(format!("candidate sections: {m}")))?;

        // VectorIndex: labels + layout from the meta blob, hot arrays
        // borrowed from their sections.
        let mut r = ByteReader::new(file.bytes(SEC_IDX_META)?);
        let idx_meta = (|| -> ThorResult<_> {
            let idx_dim = r.get_u64()? as usize;
            let rows = r.get_u64()? as usize;
            let mut words = Vec::with_capacity(rows.min(total_len));
            for _ in 0..rows {
                words.push(r.get_str()?);
            }
            let n = r.get_u64()? as usize;
            let mut layout = Vec::with_capacity(n.min(total_len));
            for _ in 0..n {
                let name = r.get_str()?;
                let start = r.get_u64()? as usize;
                let crows = r.get_u64()? as usize;
                let seed_rows = r.get_u64()? as usize;
                layout.push((name, start, crows, seed_rows));
            }
            r.finish("engine index meta section")?;
            Ok((idx_dim, words, layout))
        })()
        .map_err(ctx("index meta section"))?;
        let (idx_dim, idx_words, idx_layout) = idx_meta;
        let index = thor_index::VectorIndex::from_parts(
            idx_dim,
            file.frozen_slice::<f32>(SEC_IDX_DATA)?,
            file.frozen_slice::<f64>(SEC_IDX_NORMS)?,
            file.frozen_slice::<f32>(SEC_IDX_REPSUMS)?,
            idx_words,
            idx_layout,
        )
        .map_err(|m| invalid(format!("index sections: {m}")))?;
        // Pruning sections: validated against the index and borrowed in
        // place.
        let prune = thor_index::PruneIndex::from_parts(
            &index,
            file.bytes(SEC_PRUNE_META)?,
            file.frozen_slice::<u32>(SEC_PRUNE_MEMBERS)?,
            file.frozen_slice::<f32>(SEC_PRUNE_CENTROIDS)?,
            file.frozen_slice::<f64>(SEC_PRUNE_RADII)?,
            file.frozen_slice::<f32>(SEC_PRUNE_CONCEPT_CENTROIDS)?,
            file.frozen_slice::<f64>(SEC_PRUNE_CONCEPT_RADII)?,
        )
        .map_err(|m| invalid(format!("prune sections: {m}")))?;
        let matcher = prep
            .matcher_with_index(config.matcher_config(), index, Arc::new(prune))
            .map_err(|m| invalid(format!("index sections: {m}")))?;

        // Seed-syntax cross-check: the table is derived from the seeds;
        // the stored instance list pins the derivation.
        let mut r = ByteReader::new(file.bytes(SEC_SYNTAX)?);
        let stored_instances = (|| -> ThorResult<_> {
            let n = r.get_u64()? as usize;
            let mut out = Vec::with_capacity(n.min(total_len));
            for _ in 0..n {
                out.push(r.get_str()?);
            }
            r.finish("engine seed-syntax section")?;
            Ok(out)
        })()
        .map_err(ctx("seed-syntax section"))?;
        let derived_instances: Vec<String> = prep
            .seed_syntax()
            .instances()
            .into_iter()
            .map(str::to_string)
            .collect();
        if stored_instances != derived_instances {
            return Err(invalid(format!(
                "seed-syntax section lists {} instances but the derivation produced {}; \
                 artifact does not describe its own contents",
                stored_instances.len(),
                derived_instances.len()
            )));
        }

        Ok(PreparedEngine {
            inner: Arc::new(EngineInner {
                memo: PhraseMemo::new(config.cache_capacity),
                config,
                subjects: Arc::new(SubjectIndex::new(table.subjects(), &store)),
                table: Arc::new(table),
                store,
                prep: Arc::new(prep),
                matcher: Arc::new(matcher),
                store_digest,
                table_digest,
                fingerprint,
                chain_depth: file.depth(),
                prepare_time: t0.elapsed(),
                metrics: None,
            }),
        })
    }
}

/// The engine fingerprint stored in a `meta` section payload, without
/// building anything — what the chain loader and
/// [`PreparedEngine::save_delta`] link deltas by.
pub(crate) fn meta_fingerprint(bytes: &[u8]) -> ThorResult<String> {
    let mut r = ByteReader::new(bytes);
    read_config(&mut r)?;
    r.get_f64()?; // preparation base tau
    for _ in 0..3 {
        r.get_u64()?; // base subphrase / expansion / cache caps
    }
    for _ in 0..5 {
        r.get_u64()?; // dim, word count, concept count, two digests
    }
    let fingerprint = r.get_str()?;
    r.finish("engine meta section")?;
    Ok(fingerprint)
}

/// Little-endian byte images of numeric arrays — the exact layout the
/// frozen views reinterpret in place (the loader rejects big-endian
/// hosts up front).
fn le_bytes_u64(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_f64(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_f32(v: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn le_bytes_u32(v: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 4);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

fn write_config(w: &mut ByteWriter, c: &ThorConfig) {
    w.put_f64(c.tau);
    w.put_f64(c.weights.semantic);
    w.put_f64(c.weights.word);
    w.put_f64(c.weights.char);
    w.put_u64(c.max_subphrase_words as u64);
    w.put_u64(c.max_expansion as u64);
    w.put_u64(c.cache_capacity as u64);
    w.put_u8(match c.segmentation {
        SegmentationMode::MentionCarryForward => 0,
        SegmentationMode::SemanticOnly => 1,
        SegmentationMode::MentionOnly => 2,
    });
    w.put_u8(u8::from(c.np_chunking));
    match c.context_gate {
        Some(gate) => {
            w.put_u8(1);
            w.put_f64(gate);
        }
        None => w.put_u8(0),
    }
    w.put_u64(c.threads as u64);
}

fn read_config(r: &mut ByteReader<'_>) -> ThorResult<ThorConfig> {
    let tau = r.get_f64()?;
    let weights = ScoreWeights {
        semantic: r.get_f64()?,
        word: r.get_f64()?,
        char: r.get_f64()?,
    };
    let max_subphrase_words = r.get_u64()? as usize;
    let max_expansion = r.get_u64()? as usize;
    let cache_capacity = r.get_u64()? as usize;
    let segmentation = match r.get_u8()? {
        0 => SegmentationMode::MentionCarryForward,
        1 => SegmentationMode::SemanticOnly,
        2 => SegmentationMode::MentionOnly,
        other => {
            return Err(ThorError::parse(format!(
                "unknown segmentation mode tag {other}"
            )))
        }
    };
    let np_chunking = match r.get_u8()? {
        0 => false,
        1 => true,
        other => return Err(ThorError::parse(format!("bad np_chunking flag {other}"))),
    };
    let context_gate = match r.get_u8()? {
        0 => None,
        1 => Some(r.get_f64()?),
        other => return Err(ThorError::parse(format!("bad context_gate tag {other}"))),
    };
    let threads = r.get_u64()? as usize;
    if !TAU_RANGE.contains(&tau) {
        return Err(ThorError::validation(format!(
            "stored tau {tau} outside [0, 1]"
        )));
    }
    if let Some(gate) = context_gate.filter(|g| !g.is_finite()) {
        return Err(ThorError::validation(format!(
            "stored context_gate {gate} is not finite"
        )));
    }
    Ok(ThorConfig {
        tau,
        weights,
        max_subphrase_words,
        max_expansion,
        cache_capacity,
        segmentation,
        np_chunking,
        context_gate,
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_data::Schema;
    use thor_embed::SemanticSpaceBuilder;

    fn setup() -> (Thor, Table, Vec<Document>) {
        let store = SemanticSpaceBuilder::new(24, 5)
            .topic("anatomy")
            .words("anatomy", ["lungs", "brain", "skin", "nerve"])
            .generic_words(["damages", "grows"])
            .build()
            .into_store();
        let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        table.fill_slot("Tuberculosis", "Anatomy", "lungs");
        table.row_for_subject("Acne");
        let docs = vec![
            Document::new("d0", "Tuberculosis damages the lungs and the brain."),
            Document::new("d1", "Acne grows on the skin."),
        ];
        (Thor::new(store, ThorConfig::with_tau(0.6)), table, docs)
    }

    #[test]
    fn prepared_engine_matches_one_shot_enrich() {
        let (thor, table, docs) = setup();
        let one_shot = thor.prepare(&table).enrich(&docs);
        let engine = thor.prepare(&table);
        let served = engine.enrich(&docs);
        assert_eq!(served.entities, one_shot.entities);
        assert_eq!(
            thor_data::to_csv(&served.table),
            thor_data::to_csv(&one_shot.table)
        );
        // Reuse: a second serve call off the same engine is identical.
        let again = engine.enrich(&docs);
        assert_eq!(again.entities, one_shot.entities);
    }

    #[test]
    fn with_tau_derivation_matches_fresh_build() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        for tau in [0.6, 0.7, 0.85, 1.0] {
            let derived = engine.with_tau(tau);
            let fresh = Thor::new(Arc::clone(engine.store()), ThorConfig::with_tau(tau));
            let expected = fresh.prepare(&table).enrich(&docs);
            let got = derived.enrich(&docs);
            assert_eq!(got.entities, expected.entities, "tau {tau}");
            assert_eq!(
                thor_data::to_csv(&got.table),
                thor_data::to_csv(&expected.table),
                "tau {tau}"
            );
        }
    }

    #[test]
    fn with_tau_below_base_re_prepares() {
        let (thor, table, docs) = setup();
        let high = Thor::new(Arc::clone(thor.store_arc()), ThorConfig::with_tau(0.9));
        let engine = high.prepare(&table);
        let lowered = engine.with_tau(0.6);
        let expected = thor.prepare(&table).enrich(&docs);
        assert_eq!(lowered.enrich(&docs).entities, expected.entities);
    }

    #[test]
    fn save_load_round_trip_is_byte_identical() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let dir = std::env::temp_dir().join(format!("thor-engine-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.thor");
        engine.save(&path).unwrap();
        let loaded = PreparedEngine::load(&path).unwrap();
        assert_eq!(loaded.fingerprint(), engine.fingerprint());
        assert_eq!(loaded.tau(), engine.tau());
        let a = engine.enrich(&docs);
        let b = loaded.enrich(&docs);
        assert_eq!(a.entities, b.entities);
        assert_eq!(thor_data::to_csv(&a.table), thor_data::to_csv(&b.table));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn separator_values_survive_save_and_load() {
        let (thor, mut table, _) = setup();
        table.fill_slot("Tuberculosis", "Anatomy", "lungs|brain");
        table.fill_slot("Acne", "Anatomy", "skin\\|nerve\\");
        let engine = thor.prepare(&table);
        let dir = std::env::temp_dir().join(format!("thor-engine-sep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.thor");
        engine.save(&path).unwrap();
        for mode in [MapMode::Owned, MapMode::Mapped] {
            let loaded = PreparedEngine::load_with(&path, mode).unwrap();
            assert_eq!(
                thor_data::to_csv(loaded.table()),
                thor_data::to_csv(engine.table()),
                "{mode:?}"
            );
            assert_eq!(loaded.fingerprint(), engine.fingerprint(), "{mode:?}");
            let values = loaded.table().column_values("Anatomy");
            assert!(values.iter().any(|v| v == "lungs|brain"), "{values:?}");
            assert!(values.iter().any(|v| v == "skin\\|nerve\\"), "{values:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_ignores_threads_but_not_tau() {
        let (thor, table, _) = setup();
        let engine = thor.prepare(&table);
        assert_eq!(
            engine.with_threads(8).fingerprint(),
            engine.fingerprint(),
            "threads are output-neutral"
        );
        assert_ne!(engine.with_tau(0.9).fingerprint(), engine.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned() {
        // Golden values: engine artifacts and run checkpoints written by
        // earlier builds must keep verifying, so neither fingerprint may
        // drift for a fixed config, table and id list.
        let plain = ThorConfig::with_tau(0.7);
        let mut exotic = ThorConfig::with_tau(0.55);
        exotic.context_gate = Some(0.25);
        exotic.segmentation = SegmentationMode::SemanticOnly;
        exotic.np_chunking = false;
        exotic.max_subphrase_words = 3;
        exotic.max_expansion = 17;
        exotic.weights = ScoreWeights {
            semantic: 0.5,
            word: 0.25,
            char: 0.25,
        };
        let mut table = Table::new(Schema::new(["Disease", "Anatomy"], "Disease"));
        table.fill_slot("Tuberculosis", "Anatomy", "lungs");
        table.fill_slot("Acne", "Anatomy", "skin");
        let ids = ["d0", "d1", "d2"];
        let got = [
            engine_fingerprint(&plain, 0x1234_5678, 0x9abc_def0),
            engine_fingerprint(&exotic, 0x1234_5678, 0x9abc_def0),
            crate::resilient::run_fingerprint(&plain, &table, ids),
            crate::resilient::run_fingerprint(&exotic, &table, ids),
        ];
        assert_eq!(
            got,
            [
                "ccda5068c3313956",
                "e03a8f24fec99d14",
                "1e407eaffc9c3d94",
                "ad854185e517e066",
            ]
        );
    }

    #[test]
    fn engine_sections_are_pinned() {
        // The v4 section set, in save order: a section silently added
        // to or dropped from the artifact fails here first.
        let (thor, table, _) = setup();
        let names: Vec<&str> = thor
            .prepare(&table)
            .engine_sections()
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        assert_eq!(
            names,
            [
                "meta",
                "table",
                "store.offsets",
                "store.words",
                "store.rows",
                "cand.starts",
                "cand.sims",
                "cand.word_offs",
                "cand.words",
                "idx.meta",
                "idx.data",
                "idx.norms",
                "idx.repsums",
                "syntax.seeds",
                "prune.meta",
                "prune.members",
                "prune.centroids",
                "prune.radii",
                "prune.concept_centroids",
                "prune.concept_radii",
            ]
        );
    }

    #[test]
    fn non_finite_stored_context_gate_is_rejected() {
        for gate in [f64::NAN, f64::INFINITY] {
            let mut config = ThorConfig::with_tau(0.7);
            config.context_gate = Some(gate);
            let mut w = ByteWriter::new();
            write_config(&mut w, &config);
            let bytes = w.into_bytes();
            let err = read_config(&mut ByteReader::new(&bytes)).unwrap_err();
            assert!(err.to_string().contains("context_gate"), "{err}");
        }
        let mut config = ThorConfig::with_tau(0.7);
        config.context_gate = Some(0.25);
        let mut w = ByteWriter::new();
        write_config(&mut w, &config);
        let bytes = w.into_bytes();
        let back = read_config(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.context_gate, Some(0.25));
    }
}
