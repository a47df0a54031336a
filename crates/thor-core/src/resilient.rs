//! The one document-execution core: per-document isolation,
//! quarantine, and checkpointed, resumable enrichment.
//!
//! Every entry point runs documents through this module: the plain
//! [`PreparedEngine::extract`] / [`PreparedEngine::enrich`], the
//! resilient batch and streaming entry points, and (through them) the
//! CLI and `thor-serve`. The two resilient entry points share one run
//! loop: a batch run is the streaming run over documents already in
//! memory, as a single chunk of borrowed bodies.
//! One document is one call of `process_doc` — admission control, then
//! Algorithm 1's SEGMENT and EXTRACT under `catch_unwind` — scheduled by
//! `process_pending` on the shared [`crate::WorkerPool`]; `finalize_run`
//! then deduplicates and slot-fills. Stage metering (spans and counters)
//! lives here too, around the plain layer functions
//! ([`crate::segment::segment`], [`crate::slotfill::slot_fill`]): each
//! worker tallies a document's metrics locally, and the recorder commits
//! them to the run handle when it marks the document processed.
//!
//! [`PreparedEngine::enrich_resilient`] is the production entry point
//! for messy corpora: every document passes admission control
//! ([`thor_fault::validate_text`]), so a malformed or even
//! panic-inducing document costs *one document*, not the run. Failures
//! land in a [`QuarantineReport`] (doc id, stage, error, byte offset) and
//! bump the `quarantine.docs` counter; [`RunMode::Strict`] instead aborts
//! on the first failure (after a best-effort checkpoint save).
//!
//! The plain entry points keep their infallible contract by running the core
//! in strict mode with an admit-everything policy: every document is
//! processed, duplicate ids are allowed, and the only possible failure —
//! a panic caught inside a stage — is raised again as a panic.
//!
//! With a checkpoint directory configured, the processed-document set,
//! all partial slot-fills (extracted entities, scores as exact bit
//! patterns), the quarantine ledger, and a metrics snapshot are
//! persisted atomically every `checkpoint_interval` documents. A killed
//! run resumed with [`ResilientOptions::resume`] skips completed
//! documents and — because final deduplication imposes a total order —
//! produces **byte-identical** output to an uninterrupted run, for any
//! thread count and cache configuration.
//!
//! Fault-injection seams (`validate`, `segment`, `extract`, `slot_fill`,
//! plus `checkpoint_save`/`atomic_write` inside thor-fault) are compiled
//! in via [`thor_fault::fail_point`]; see `thor_fault::failpoint::SITES`.

use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use thor_data::Table;
use thor_fault::{
    fail_point, fingerprint, validate_text, CancelToken, Checkpoint, DocumentPolicy, EntityRecord,
    QuarantineEntry, QuarantineReport, ThorError, ThorResult,
};
use thor_match::PruneStats;
use thor_obs::{PipelineMetrics, StageTimer};
use thor_text::ScoreScratch;

use crate::config::ThorConfig;
use crate::document::Document;
use crate::engine::PreparedEngine;
use crate::entity::ExtractedEntity;
use crate::extract::extract_tallied;
use crate::pipeline::{dedup_entities, EnrichmentResult};
use crate::pool::WorkerPool;
use crate::segment::segment;
use crate::slotfill::{slot_fill, SlotFillStats};

/// Failure policy of a resilient run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunMode {
    /// Abort on the first failed document (after a best-effort
    /// checkpoint save). The safe default: nothing is silently dropped.
    #[default]
    Strict,
    /// Quarantine failed documents and keep going — one bad document
    /// costs one document.
    Lenient,
}

/// Options for [`PreparedEngine::enrich_resilient`].
#[derive(Debug, Clone)]
pub struct ResilientOptions {
    /// Strict (fail fast) or lenient (quarantine and continue).
    pub mode: RunMode,
    /// Directory for checkpoint state; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Completed documents between checkpoint saves.
    pub checkpoint_interval: usize,
    /// Resume from the checkpoint in `checkpoint_dir` if one exists
    /// (refused when its fingerprint does not match this run's inputs).
    pub resume: bool,
    /// Admission-control policy applied to every document.
    pub policy: DocumentPolicy,
    /// Cooperative cancellation, checked between pipeline stages. An
    /// expired token aborts the run with
    /// [`thor_fault::ErrorKind::Deadline`] in *both* modes — a dead
    /// request's remaining documents are not quarantined as malformed.
    /// The default token never fires.
    pub cancel: CancelToken,
}

impl Default for ResilientOptions {
    fn default() -> Self {
        Self {
            mode: RunMode::Strict,
            checkpoint_dir: None,
            checkpoint_interval: 4,
            resume: false,
            policy: DocumentPolicy::default(),
            cancel: CancelToken::none(),
        }
    }
}

/// The plain entry points' admission policy: no size cap, no emptiness or
/// garbage check — every document is processed.
const ADMIT_ALL: DocumentPolicy = DocumentPolicy {
    max_bytes: usize::MAX,
    min_chars: 0,
    max_garbage_ratio: f64::INFINITY,
};

/// Outcome of a resilient run.
#[derive(Debug, Clone)]
pub struct ResilientOutcome {
    /// The ordinary enrichment result (enriched table, deduplicated
    /// entities, slot stats, timings).
    pub result: EnrichmentResult,
    /// Everything that was quarantined, in processing order.
    pub quarantine: QuarantineReport,
    /// Documents skipped because a resumed checkpoint had already
    /// completed them.
    pub resumed_docs: usize,
    /// Documents processed (or quarantined) by *this* invocation.
    pub processed_docs: usize,
    /// Checkpoint saves skipped after non-fatal save failures (lenient
    /// mode only).
    pub checkpoints_skipped: usize,
}

/// What happened to one document.
enum DocStatus {
    Done(Vec<ExtractedEntity>),
    Quarantined(QuarantineEntry),
    /// The run's cancellation token fired before or between this
    /// document's stages — a run-level abort, not a document failure.
    Cancelled(ThorError),
}

/// One stage's spans, timed by the worker running a document.
#[derive(Debug, Default)]
pub(crate) struct SpanTally {
    total: Duration,
    spans: u64,
}

impl SpanTally {
    /// Add one span of `d`.
    pub(crate) fn record(&mut self, d: Duration) {
        self.total += d;
        self.spans += 1;
    }

    fn commit(&self, timer: &StageTimer) {
        timer.record_accumulated(self.total, self.spans);
    }
}

/// One document's metrics, accumulated by the worker that runs it and
/// committed to the run handle by the recorder when it marks the
/// document processed. A checkpoint therefore never counts a document
/// that a resumed run will process again: a strict-mode failure, a
/// cancelled document, or another worker's document still in flight.
/// The matcher's counts (`subphrases`, `candidates`, `cache.*`,
/// `index.pruned.*`) are tallied here too: the matcher returns them and
/// records nothing itself.
#[derive(Debug, Default)]
pub(crate) struct DocTally {
    pub(crate) segments: u64,
    pub(crate) sentences: u64,
    pub(crate) noun_phrases: u64,
    pub(crate) subphrases: u64,
    pub(crate) candidates: u64,
    pub(crate) entities: u64,
    pub(crate) refine_scored: u64,
    pub(crate) refine_pruned: u64,
    pub(crate) memo_hits: u64,
    pub(crate) memo_misses: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) prune: PruneStats,
    /// `stage.segment`: one span per segmented document.
    pub(crate) segment: SpanTally,
    /// `stage.chunk`: one span per non-empty sentence.
    pub(crate) chunk: SpanTally,
    /// `stage.match`: one span per phrase matched afresh.
    pub(crate) match_phrase: SpanTally,
    /// `stage.refine`: one span per phrase refined afresh.
    pub(crate) refine: SpanTally,
}

impl DocTally {
    /// Add this document's counts and spans to `run`.
    pub(crate) fn commit(&self, run: &PipelineMetrics) {
        run.segments.add(self.segments);
        run.sentences.add(self.sentences);
        run.noun_phrases.add(self.noun_phrases);
        run.subphrases.add(self.subphrases);
        run.candidates.add(self.candidates);
        run.entities.add(self.entities);
        run.refine_scored.add(self.refine_scored);
        run.refine_pruned.add(self.refine_pruned);
        run.phrase_memo_hits.add(self.memo_hits);
        run.phrase_memo_misses.add(self.memo_misses);
        run.cache_hits.add(self.cache_hits);
        run.cache_misses.add(self.cache_misses);
        run.pruned_concepts.add(self.prune.concepts);
        run.pruned_clusters.add(self.prune.clusters);
        run.pruned_rows.add(self.prune.rows);
        self.segment.commit(&run.segment);
        self.chunk.commit(&run.chunk);
        self.match_phrase.commit(&run.match_phrase);
        self.refine.commit(&run.refine);
    }
}

/// What a finished run hands its caller.
pub(crate) struct RunOutput {
    /// Deduplicated entities (see `dedup_entities`).
    pub(crate) entities: Vec<ExtractedEntity>,
    /// Slot-fill counts; zero when the run filled no table.
    pub(crate) slot_stats: SlotFillStats,
    /// Processing + slot-fill wall-clock, the `pipeline.inference` span.
    pub(crate) inference_time: Duration,
}

fn to_record(e: &ExtractedEntity) -> EntityRecord {
    EntityRecord {
        doc_id: e.doc_id.clone(),
        subject: e.subject.clone(),
        concept: e.concept.clone(),
        phrase: e.phrase.clone(),
        score_bits: e.score.to_bits(),
        matched_instance: e.matched_instance.clone(),
        sentence_index: e.sentence_index,
    }
}

fn from_record(r: &EntityRecord) -> ExtractedEntity {
    ExtractedEntity {
        subject: r.subject.clone(),
        concept: r.concept.clone(),
        phrase: r.phrase.clone(),
        score: f64::from_bits(r.score_bits),
        matched_instance: r.matched_instance.clone(),
        doc_id: r.doc_id.clone(),
        sentence_index: r.sentence_index,
    }
}

/// Mutable run bookkeeping: the live checkpoint (processed set and
/// quarantine), the entities extracted so far, plus save cadence.
struct RunState {
    checkpoint: Checkpoint,
    /// Entities of every completed document, one batch per document,
    /// resumed ones first. Batches are kept as the workers produced
    /// them — no shared vector regrows across threads — flattened once
    /// at finalize, and converted to checkpoint records only on save.
    entities: Vec<Vec<ExtractedEntity>>,
    dir: Option<PathBuf>,
    interval: usize,
    since_save: usize,
    checkpoints_skipped: usize,
    mode: RunMode,
}

impl RunState {
    /// Record one finished document, committing its `tally` to `run`
    /// when it is marked processed. A quarantined document in strict
    /// mode becomes the run's error — it is deliberately *not* marked
    /// processed (strict drops nothing), so a resumed run retries it
    /// after a best-effort save of the completed prefix.
    fn record(
        &mut self,
        doc_id: String,
        status: DocStatus,
        tally: &DocTally,
        run: &PipelineMetrics,
    ) -> ThorResult<()> {
        match status {
            DocStatus::Done(entities) => {
                run.docs.inc();
                tally.commit(run);
                self.checkpoint.processed.insert(doc_id);
                self.entities.push(entities);
            }
            DocStatus::Quarantined(entry) if self.mode == RunMode::Strict => {
                let _ = self.save(run);
                return Err(ThorError::new(
                    entry.kind,
                    format!(
                        "document `{}` failed at {}: {}",
                        entry.doc_id, entry.stage, entry.error
                    ),
                ));
            }
            DocStatus::Quarantined(entry) => {
                run.quarantine_docs.inc();
                tally.commit(run);
                self.checkpoint.processed.insert(doc_id);
                self.checkpoint.quarantine.push(entry);
            }
            DocStatus::Cancelled(err) => {
                // Deadline aborts regardless of mode, after a
                // best-effort save so a checkpointed run resumes from
                // the completed prefix. The cancelled document is not
                // marked processed — it was never attempted.
                let _ = self.save(run);
                return Err(err);
            }
        }
        self.since_save += 1;
        if self.since_save >= self.interval {
            self.maybe_save(run)?;
        }
        Ok(())
    }

    /// Unconditional save (no-op without a checkpoint dir).
    fn save(&mut self, run: &PipelineMetrics) -> ThorResult<()> {
        let Some(dir) = &self.dir else {
            self.since_save = 0;
            return Ok(());
        };
        self.checkpoint.entities = self.entities.iter().flatten().map(to_record).collect();
        self.checkpoint.metrics_json = Some(run.render_json());
        let result = self.checkpoint.save(dir);
        if result.is_ok() {
            self.since_save = 0;
        }
        result
    }

    /// Save, downgrading failures to a skip in lenient mode.
    fn maybe_save(&mut self, run: &PipelineMetrics) -> ThorResult<()> {
        match self.save(run) {
            Ok(()) => Ok(()),
            Err(e) => match self.mode {
                RunMode::Strict => Err(e.context("checkpoint save")),
                RunMode::Lenient => {
                    self.checkpoints_skipped += 1;
                    // Try again a full interval from now.
                    self.since_save = 0;
                    Ok(())
                }
            },
        }
    }
}

/// Process one document through admission control, segmentation, and
/// extraction, isolating panics to the document. This is the only
/// place a document meets the pipeline stages. The document's metrics
/// come back in its [`DocTally`], for the recorder to commit.
fn process_doc(
    engine: &PreparedEngine,
    doc: &Document,
    opts: &ResilientOptions,
    scratch: &mut ScoreScratch,
) -> (DocStatus, DocTally) {
    let mut tally = DocTally::default();
    let quarantined = |stage: &str, err: ThorError| {
        DocStatus::Quarantined(QuarantineEntry::from_error(&doc.id, stage, &err))
    };
    let config = engine.config();

    if let Err(e) = opts.cancel.check("validate") {
        return (DocStatus::Cancelled(e), tally);
    }
    if let Err(e) =
        fail_point("validate").and_then(|()| validate_text(&doc.id, &doc.text, &opts.policy))
    {
        return (quarantined("validate", e), tally);
    }

    if let Err(e) = opts.cancel.check("segment") {
        return (DocStatus::Cancelled(e), tally);
    }
    let segments = match catch_unwind(AssertUnwindSafe(|| {
        fail_point("segment")?;
        let t0 = Instant::now();
        let segments = segment(
            doc,
            engine.subjects(),
            engine.matcher(),
            config.segmentation,
        );
        tally.segment.record(t0.elapsed());
        tally.segments += segments.len() as u64;
        Ok(segments)
    })) {
        Ok(Ok(segments)) => segments,
        Ok(Err(e)) => return (quarantined("segment", e), tally),
        Err(payload) => {
            let err = ThorError::panic("segment", payload.as_ref());
            return (quarantined("segment", err), tally);
        }
    };

    if let Err(e) = opts.cancel.check("extract") {
        return (DocStatus::Cancelled(e), tally);
    }
    let status = match catch_unwind(AssertUnwindSafe(|| {
        fail_point("extract")?;
        Ok(extract_tallied(
            &segments,
            engine.matcher(),
            engine.phrase_memo(),
            config,
            &doc.id,
            &mut tally,
            scratch,
        ))
    })) {
        Ok(Ok(entities)) => DocStatus::Done(entities),
        Ok(Err(e)) => quarantined("extract", e),
        Err(payload) => quarantined("extract", ThorError::panic("extract", payload.as_ref())),
    };
    (status, tally)
}

/// Fingerprint tying a checkpoint to the inputs and configuration that
/// produced it: any difference that could change extraction output
/// makes resume refuse the stale state. (Distinct from the engine
/// artifact's fingerprint, which covers the store but not the corpus.)
pub(crate) fn run_fingerprint<'a>(
    config: &ThorConfig,
    table: &Table,
    doc_ids: impl IntoIterator<Item = &'a str>,
) -> String {
    let mut parts = config.fingerprint_parts();
    for concept in table.schema().concepts() {
        parts.push(format!("concept={}", concept.name()));
        for value in table.column_values(concept.name()) {
            parts.push(value);
        }
    }
    for id in doc_ids {
        parts.push(format!("doc={id}"));
    }
    fingerprint(parts)
}

/// Refuse duplicate document ids: resume correctness keys the
/// processed set on them.
fn require_unique_ids<'a>(ids: impl IntoIterator<Item = &'a str>) -> ThorResult<()> {
    let mut seen = std::collections::HashSet::new();
    for id in ids {
        if !seen.insert(id) {
            return Err(ThorError::config(format!(
                "duplicate document id `{id}` (resilient runs require unique ids)"
            )));
        }
    }
    Ok(())
}

impl PreparedEngine {
    /// Run the serve side of the pipeline with per-document fault
    /// isolation: admission control, per-document panic isolation,
    /// quarantine, checkpoint/resume — without re-running Preparation.
    /// See the module docs for semantics; [`PreparedEngine::enrich`]
    /// remains the fast path for trusted input. Workers come from the
    /// shared [`WorkerPool`].
    ///
    /// This is the streaming run over documents already in memory, as
    /// one chunk of borrowed bodies: nothing is cloned.
    pub fn enrich_resilient(
        &self,
        docs: &[Document],
        opts: &ResilientOptions,
    ) -> ThorResult<ResilientOutcome> {
        let ids: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
        let items = docs.iter().map(|d| (d.id.as_str(), Ok(d)));
        self.run_resilient(&ids, items, opts, docs.len())
    }

    /// Out-of-core resilient enrichment: documents arrive from a lazy
    /// reader, at most `chunk_size` bodies are resident at a time, and
    /// each chunk runs through the same [`WorkerPool`] scheduling as the
    /// batch path. Output is **byte-identical** to
    /// [`enrich_resilient`](Self::enrich_resilient) over the same
    /// corpus, for any chunk size, thread count, and cache setting:
    /// entities accumulate in completion order and final deduplication
    /// imposes a total order, so the chunk boundaries are unobservable.
    ///
    /// `doc_ids` is the complete, ordered id list (known before any
    /// body is read — e.g. file stems from
    /// `thor_data::CorpusDir::discover`); the checkpoint fingerprint is
    /// computed from it, so a streaming run resumes a batch run's
    /// checkpoint and vice versa. `docs` must yield one `(id, body)`
    /// pair per entry of `doc_ids`, in order — a mismatch aborts the
    /// run. A body is an owned [`Document`] or a borrowed one. A failed
    /// read (`Err` body) is a strict-mode error; in lenient mode it is
    /// quarantined at stage `read_doc` and the run continues.
    pub fn enrich_resilient_stream<I, D>(
        &self,
        doc_ids: &[String],
        docs: I,
        opts: &ResilientOptions,
        chunk_size: usize,
    ) -> ThorResult<ResilientOutcome>
    where
        I: IntoIterator<Item = (String, ThorResult<D>)>,
        D: Borrow<Document>,
    {
        self.run_resilient(doc_ids, docs, opts, chunk_size)
    }

    /// The one resilient run loop behind both entry points: check ids,
    /// open (or resume) the run state, then fill bounded chunks from
    /// `docs` — skipping checkpoint-completed ids without touching
    /// their bodies — and run each chunk through `process_pending`;
    /// finally dedup and slot-fill a copy of the engine's table.
    fn run_resilient<S, K, D>(
        &self,
        doc_ids: &[S],
        docs: impl IntoIterator<Item = (K, ThorResult<D>)>,
        opts: &ResilientOptions,
        chunk_size: usize,
    ) -> ThorResult<ResilientOutcome>
    where
        S: AsRef<str>,
        K: AsRef<str>,
        D: Borrow<Document>,
    {
        require_unique_ids(doc_ids.iter().map(AsRef::as_ref))?;
        let run = self.run_metrics();
        let run_fp = self.checkpoint_fingerprint(opts, doc_ids.iter().map(AsRef::as_ref));
        let mut state = self.open_run_state(opts, run_fp, &run)?;

        let chunk_size = chunk_size.clamp(1, doc_ids.len().max(1));
        let mut resumed_docs = 0usize;
        let mut processed_docs = 0usize;
        let inference_t0 = Instant::now();
        let mut expected = doc_ids.iter();
        let mut docs = docs.into_iter();
        let mut stream_len = 0usize;
        loop {
            let mut chunk: Vec<D> = Vec::with_capacity(chunk_size);
            for (id, body) in docs.by_ref() {
                let id = id.as_ref();
                stream_len += 1;
                match expected.next().map(AsRef::as_ref) {
                    Some(want) if want == id => {}
                    Some(want) => {
                        return Err(ThorError::config(format!(
                            "document stream out of order: got `{id}`, expected `{want}`"
                        )))
                    }
                    None => {
                        return Err(ThorError::config(format!(
                            "document stream yielded `{id}` beyond the {} declared ids",
                            doc_ids.len()
                        )))
                    }
                }
                if state.checkpoint.processed.contains(id) {
                    resumed_docs += 1;
                    continue;
                }
                match body {
                    Ok(doc) => {
                        if doc.borrow().id != id {
                            return Err(ThorError::config(format!(
                                "document stream yielded body `{}` under id `{id}`",
                                doc.borrow().id
                            )));
                        }
                        chunk.push(doc);
                        if chunk.len() == chunk_size {
                            break;
                        }
                    }
                    Err(e) if state.mode == RunMode::Strict => {
                        // Same contract as a quarantined document in
                        // strict mode: save the completed prefix, fail.
                        let _ = state.save(&run);
                        return Err(e.context(format!("reading document `{id}`")));
                    }
                    Err(e) => {
                        processed_docs += 1;
                        state.record(
                            id.to_string(),
                            DocStatus::Quarantined(QuarantineEntry::from_error(id, "read_doc", &e)),
                            &DocTally::default(),
                            &run,
                        )?;
                    }
                }
            }
            if chunk.is_empty() {
                break;
            }
            processed_docs += chunk.len();
            let pending: Vec<&Document> = chunk.iter().map(Borrow::borrow).collect();
            self.process_pending(&pending, opts, &run, &mut state)?;
        }
        if stream_len != doc_ids.len() {
            return Err(ThorError::config(format!(
                "document stream ended after {stream_len} of {} declared ids",
                doc_ids.len()
            )));
        }

        let mut enriched = self.table().clone();
        let out = self.finalize_run(
            &mut state,
            &opts.cancel,
            &run,
            Some(&mut enriched),
            inference_t0,
        )?;
        Ok(ResilientOutcome {
            result: EnrichmentResult {
                table: enriched,
                entities: out.entities,
                slot_stats: out.slot_stats,
                prepare_time: self.prepare_time(),
                inference_time: out.inference_time,
            },
            quarantine: state.checkpoint.quarantine,
            resumed_docs,
            processed_docs,
            checkpoints_skipped: state.checkpoints_skipped,
        })
    }

    /// The plain entry points' run — [`PreparedEngine::extract`] and
    /// [`PreparedEngine::enrich`]: the core in strict mode under
    /// [`ADMIT_ALL`], with no checkpoint and no uniqueness check.
    /// Slot-fills `table` when one is given. A strict run admitting
    /// everything can only fail on a panic caught inside a stage; it
    /// reaches the caller as a panic.
    pub(crate) fn run_plain(
        &self,
        docs: &[&Document],
        run: &PipelineMetrics,
        table: Option<&mut Table>,
    ) -> RunOutput {
        let opts = ResilientOptions {
            policy: ADMIT_ALL,
            ..ResilientOptions::default()
        };
        let output = self
            .open_run_state(&opts, String::new(), run)
            .and_then(|mut state| {
                let t0 = Instant::now();
                self.process_pending(docs, &opts, run, &mut state)?;
                self.finalize_run(&mut state, &opts.cancel, run, table, t0)
            });
        output.unwrap_or_else(|e| panic!("{e}"))
    }

    /// The run fingerprint when `opts` names a checkpoint directory, the
    /// only place it is read; otherwise empty, so a run without one
    /// pays nothing that grows with the table.
    fn checkpoint_fingerprint<'a>(
        &self,
        opts: &ResilientOptions,
        doc_ids: impl IntoIterator<Item = &'a str>,
    ) -> String {
        if opts.checkpoint_dir.is_some() {
            run_fingerprint(self.config(), self.table(), doc_ids)
        } else {
            String::new()
        }
    }

    /// Build this run's [`RunState`], absorbing a resumable checkpoint
    /// (and its metrics snapshot) when `opts.resume` asks for it.
    fn open_run_state(
        &self,
        opts: &ResilientOptions,
        run_fp: String,
        run: &PipelineMetrics,
    ) -> ThorResult<RunState> {
        let mut state = RunState {
            checkpoint: Checkpoint::new(run_fp.clone()),
            entities: Vec::new(),
            dir: opts.checkpoint_dir.clone(),
            interval: opts.checkpoint_interval.max(1),
            since_save: 0,
            checkpoints_skipped: 0,
            mode: opts.mode,
        };
        if opts.resume {
            let dir = opts
                .checkpoint_dir
                .as_deref()
                .ok_or_else(|| ThorError::config("--resume requires a checkpoint directory"))?;
            if let Some(previous) = Checkpoint::load(dir)? {
                if previous.fingerprint != run_fp {
                    return Err(ThorError::checkpoint(format!(
                        "checkpoint in {} was written by a different run \
                         (fingerprint {} != {run_fp}); refusing to resume",
                        dir.display(),
                        previous.fingerprint
                    )));
                }
                if let Some(json) = &previous.metrics_json {
                    match thor_obs::MetricsSnapshot::from_json_str(json) {
                        Ok(snapshot) => run.absorb(&snapshot),
                        Err(e) => {
                            return Err(ThorError::checkpoint(format!(
                                "checkpoint metrics snapshot unreadable: {e}"
                            )))
                        }
                    }
                }
                state.entities = vec![previous.entities.iter().map(from_record).collect()];
                state.checkpoint = previous;
                state.checkpoint.fingerprint = run_fp;
                state.checkpoint.metrics_json = None;
            }
        }
        Ok(state)
    }

    /// Run `pending` through `process_doc` on the shared
    /// [`WorkerPool`], recording every outcome into `state`. Used once
    /// by the plain entry points and once per chunk by the resilient run.
    fn process_pending(
        &self,
        pending: &[&Document],
        opts: &ResilientOptions,
        run: &PipelineMetrics,
        state: &mut RunState,
    ) -> ThorResult<()> {
        let workers = self.config().threads.min(pending.len().max(1));
        if workers <= 1 {
            let mut scratch = ScoreScratch::new();
            for doc in pending.iter().copied() {
                let (status, tally) = process_doc(self, doc, opts, &mut scratch);
                state.record(doc.id.clone(), status, &tally, run)?;
            }
            Ok(())
        } else {
            // Workers record each outcome themselves under one lock,
            // so no thread has to be woken per document. The first
            // error stops every worker at its next document.
            let next = AtomicUsize::new(0);
            let stop = AtomicBool::new(false);
            let shared = Mutex::new((state, None));
            WorkerPool::global().scope(workers, |scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        // One scratch per worker: refinement's DP
                        // buffers are reused across every document the
                        // worker drains.
                        let mut scratch = ScoreScratch::new();
                        while !stop.load(Ordering::Relaxed) && !opts.cancel.is_cancelled() {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(doc) = pending.get(i).copied() else {
                                break;
                            };
                            let (status, tally) = process_doc(self, doc, opts, &mut scratch);
                            let mut guard = shared
                                .lock()
                                .expect("run state lock poisoned by a panicking recorder");
                            let (state, first_err) = &mut *guard;
                            if let Err(e) = state.record(doc.id.clone(), status, &tally, run) {
                                stop.store(true, Ordering::Relaxed);
                                first_err.get_or_insert(e);
                            }
                        }
                    });
                }
            });
            let (_, first_err) = shared
                .into_inner()
                .expect("run state lock poisoned by a panicking recorder");
            match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            }
        }
    }

    /// Final checkpoint save, deduplication, and — given a table — slot
    /// fill: the tail every entry point shares, so their outputs are
    /// identical by construction. Records the run's one
    /// `pipeline.inference` span, measured from `t0`.
    fn finalize_run(
        &self,
        state: &mut RunState,
        cancel: &CancelToken,
        run: &PipelineMetrics,
        table: Option<&mut Table>,
        t0: Instant,
    ) -> ThorResult<RunOutput> {
        // Final checkpoint so a crash after this point resumes instantly.
        state.maybe_save(run)?;

        // Workers wind down quietly when the token fires mid-run; this
        // seam turns that into the run-level deadline error (and stops
        // an expired request from paying for slot fill).
        cancel.check("slot_fill")?;
        let batches = std::mem::take(&mut state.entities);
        let mut entities = Vec::with_capacity(batches.iter().map(Vec::len).sum());
        for batch in batches {
            entities.extend(batch);
        }
        dedup_entities(&mut entities);
        let mut slot_stats = SlotFillStats::default();
        if let Some(table) = table {
            fail_point("slot_fill")?;
            (slot_stats, _) = run.slot_fill.time(|| slot_fill(table, &entities));
            run.slots_inserted.add(slot_stats.inserted as u64);
            run.slots_duplicate.add(slot_stats.duplicates as u64);
        }
        let inference_time = t0.elapsed();
        run.inference.record(inference_time);
        Ok(RunOutput {
            entities,
            slot_stats,
            inference_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThorConfig;
    use crate::pipeline::Thor;
    use thor_data::{Schema, Table};
    use thor_embed::SemanticSpaceBuilder;

    fn setup() -> (Thor, Table, Vec<Document>) {
        let store = SemanticSpaceBuilder::new(16, 7)
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
            Document::new("d2", "Tuberculosis damages the nerve."),
        ];
        (Thor::new(store, ThorConfig::with_tau(0.6)), table, docs)
    }

    #[test]
    fn clean_resilient_run_matches_enrich() {
        let (thor, table, docs) = setup();
        let plain = thor.prepare(&table).enrich(&docs);
        let resilient = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        assert!(resilient.quarantine.is_empty());
        assert_eq!(resilient.resumed_docs, 0);
        assert_eq!(resilient.processed_docs, 3);
        assert_eq!(resilient.result.entities, plain.entities);
        assert_eq!(
            thor_data::to_csv(&resilient.result.table),
            thor_data::to_csv(&plain.table)
        );
    }

    #[test]
    fn invalid_documents_are_quarantined_in_lenient_mode() {
        let (thor, table, mut docs) = setup();
        docs.push(Document::new("empty", "   "));
        let opts = ResilientOptions {
            mode: RunMode::Lenient,
            ..Default::default()
        };
        let outcome = thor.prepare(&table).enrich_resilient(&docs, &opts).unwrap();
        assert_eq!(outcome.quarantine.len(), 1);
        assert_eq!(outcome.quarantine.entries()[0].doc_id, "empty");
        assert_eq!(outcome.quarantine.entries()[0].stage, "validate");
        // The clean docs still enriched the table.
        let clean = thor.prepare(&table).enrich(&docs[..3]);
        assert_eq!(outcome.result.entities, clean.entities);
    }

    #[test]
    fn strict_mode_fails_fast_on_invalid_document() {
        let (thor, table, mut docs) = setup();
        docs.insert(0, Document::new("empty", ""));
        let err = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
    }

    #[test]
    fn duplicate_doc_ids_rejected() {
        let (thor, table, mut docs) = setup();
        docs.push(docs[0].clone());
        let err = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap_err();
        assert!(err.to_string().contains("duplicate document id"), "{err}");
    }

    #[test]
    fn quarantine_counter_tracks_report() {
        let (thor, table, mut docs) = setup();
        docs.push(Document::new("junk", "\u{FFFD}\u{1}\u{FFFD}\u{2}"));
        docs.push(Document::new("blank", "\n\n"));
        let metrics = PipelineMetrics::new();
        let opts = ResilientOptions {
            mode: RunMode::Lenient,
            ..Default::default()
        };
        let outcome = thor
            .prepare(&table)
            .with_metrics(metrics.clone())
            .enrich_resilient(&docs, &opts)
            .unwrap();
        assert_eq!(outcome.quarantine.len(), 2);
        assert_eq!(metrics.snapshot().count("quarantine.docs"), 2);
        assert_eq!(metrics.snapshot().count("docs"), 3);
    }

    fn stream_of(docs: &[Document]) -> Vec<(String, ThorResult<Document>)> {
        docs.iter().map(|d| (d.id.clone(), Ok(d.clone()))).collect()
    }

    #[test]
    fn streaming_matches_batch_byte_identically() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let opts = ResilientOptions::default();
        let batch = engine.enrich_resilient(&docs, &opts).unwrap();
        let batch_csv = thor_data::to_csv(&batch.result.table);
        for chunk in [1usize, 2, 64] {
            for threads in [1usize, 4] {
                let engine = engine.with_threads(threads);
                let streamed = engine
                    .enrich_resilient_stream(&ids, stream_of(&docs), &opts, chunk)
                    .unwrap();
                assert_eq!(
                    streamed.result.entities, batch.result.entities,
                    "chunk={chunk}, threads={threads}"
                );
                assert_eq!(
                    thor_data::to_csv(&streamed.result.table),
                    batch_csv,
                    "chunk={chunk}, threads={threads}"
                );
                assert_eq!(streamed.processed_docs, docs.len());
                assert_eq!(streamed.resumed_docs, 0);
            }
        }
    }

    #[test]
    fn a_chunk_size_beyond_the_corpus_reserves_only_the_corpus() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let opts = ResilientOptions::default();
        let batch = engine.enrich_resilient(&docs, &opts).unwrap();
        let streamed = engine
            .enrich_resilient_stream(&ids, stream_of(&docs), &opts, usize::MAX)
            .unwrap();
        assert_eq!(streamed.result.entities, batch.result.entities);
    }

    #[test]
    fn streaming_resumes_a_batch_checkpoint_and_vice_versa() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let dir = std::env::temp_dir().join(format!("thor-stream-resume-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opts = ResilientOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_interval: 1,
            ..Default::default()
        };
        let reference = engine.enrich_resilient(&docs, &opts).unwrap();

        // Batch checkpoint → streaming resume: the fingerprint is keyed
        // on ids only, so every already-completed document is skipped
        // without its body ever being materialized.
        let resume = ResilientOptions {
            resume: true,
            ..opts.clone()
        };
        let streamed = engine
            .enrich_resilient_stream(&ids, stream_of(&docs), &resume, 2)
            .unwrap();
        assert_eq!(streamed.resumed_docs, docs.len());
        assert_eq!(streamed.processed_docs, 0);
        assert_eq!(streamed.result.entities, reference.result.entities);

        // Streaming checkpoint → batch resume.
        std::fs::remove_dir_all(&dir).ok();
        engine
            .enrich_resilient_stream(&ids, stream_of(&docs), &opts, 1)
            .unwrap();
        let resumed = engine.enrich_resilient(&docs, &resume).unwrap();
        assert_eq!(resumed.resumed_docs, docs.len());
        assert_eq!(resumed.result.entities, reference.result.entities);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streaming_read_failures_follow_run_mode() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let mut ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        ids.push("dead".to_string());
        let items = || {
            let mut v = stream_of(&docs);
            v.push((
                "dead".to_string(),
                Err(ThorError::io("dead.txt", std::io::Error::other("gone"))),
            ));
            v
        };

        let strict = engine.enrich_resilient_stream(&ids, items(), &ResilientOptions::default(), 2);
        let err = strict.unwrap_err();
        assert!(err.to_string().contains("dead"), "{err}");

        let lenient = ResilientOptions {
            mode: RunMode::Lenient,
            ..Default::default()
        };
        let outcome = engine
            .enrich_resilient_stream(&ids, items(), &lenient, 2)
            .unwrap();
        assert_eq!(outcome.quarantine.len(), 1);
        assert_eq!(outcome.quarantine.entries()[0].doc_id, "dead");
        assert_eq!(outcome.quarantine.entries()[0].stage, "read_doc");
        let clean = engine.enrich_resilient(&docs, &lenient).unwrap();
        assert_eq!(outcome.result.entities, clean.result.entities);
    }

    #[test]
    fn streaming_rejects_id_mismatch_and_short_streams() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let ids: Vec<String> = docs.iter().map(|d| d.id.clone()).collect();
        let opts = ResilientOptions::default();

        let mut reversed = stream_of(&docs);
        reversed.reverse();
        let err = engine
            .enrich_resilient_stream(&ids, reversed, &opts, 2)
            .unwrap_err();
        assert!(err.to_string().contains("out of order"), "{err}");

        let short = stream_of(&docs[..2]);
        let err = engine
            .enrich_resilient_stream(&ids, short, &opts, 2)
            .unwrap_err();
        assert!(err.to_string().contains("ended after 2"), "{err}");
    }

    #[test]
    fn expired_deadline_aborts_the_run_in_both_modes() {
        let (thor, table, docs) = setup();
        for mode in [RunMode::Strict, RunMode::Lenient] {
            let opts = ResilientOptions {
                mode,
                cancel: thor_fault::CancelToken::with_deadline(std::time::Duration::ZERO),
                ..Default::default()
            };
            let err = thor
                .prepare(&table)
                .enrich_resilient(&docs, &opts)
                .unwrap_err();
            assert_eq!(err.kind(), thor_fault::ErrorKind::Deadline, "{mode:?}");
            assert!(err.to_string().contains("deadline exceeded"), "{err}");
        }
    }

    #[test]
    fn expired_deadline_aborts_multithreaded_runs() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table).with_threads(4);
        let opts = ResilientOptions {
            mode: RunMode::Lenient,
            cancel: thor_fault::CancelToken::with_deadline(std::time::Duration::ZERO),
            ..Default::default()
        };
        let err = engine.enrich_resilient(&docs, &opts).unwrap_err();
        assert_eq!(err.kind(), thor_fault::ErrorKind::Deadline);
    }

    #[test]
    fn unexpired_deadline_changes_nothing() {
        let (thor, table, docs) = setup();
        let plain = thor
            .prepare(&table)
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        let opts = ResilientOptions {
            cancel: thor_fault::CancelToken::with_deadline(std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let budgeted = thor.prepare(&table).enrich_resilient(&docs, &opts).unwrap();
        assert_eq!(budgeted.result.entities, plain.result.entities);
        assert_eq!(
            thor_data::to_csv(&budgeted.result.table),
            thor_data::to_csv(&plain.result.table)
        );
    }

    #[test]
    fn engine_resilient_run_reuses_preparation() {
        let (thor, table, docs) = setup();
        let engine = thor.prepare(&table);
        let a = engine
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        let b = engine
            .enrich_resilient(&docs, &ResilientOptions::default())
            .unwrap();
        assert_eq!(a.result.entities, b.result.entities);
        assert_eq!(
            thor_data::to_csv(&a.result.table),
            thor_data::to_csv(&b.result.table)
        );
    }
}
