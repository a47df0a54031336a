//! One workload in the measured process: set-up, correctness gates, then
//! either the timed run (end-to-end metrics, tracing off) or the traced
//! run (per-layer metrics). serve-mixed lives in `serve.rs`.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use thor_bench::harness::{disease_dataset, run_system, System};
use thor_core::{
    compact_chain, entities_tsv, Document, EngineDelta, ExtractedEntity, MapMode, PipelineMetrics,
    PreparedEngine, SeedDelta, Thor, ThorConfig,
};
use thor_data::to_csv;
use thor_embed::VectorStore;
use thor_fault::fnv1a;
use thor_text::split_sentences;

use crate::decompose::Decomposed;
use crate::inputs::{Inputs, Workload, EVOLVE_DELTAS};
use crate::report::{Metric, Outcome};
use crate::speed::{Cpus, Series, Speed, Timed};
use crate::stats::summarize;
use crate::trace::{per, Tracer};

/// What the measured process was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// The workload.
    pub workload: Workload,
    /// Seed of the inputs and of every random choice.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Tiny inputs and no generator checks.
    pub smoke: bool,
}

/// Set-ups timed for `setup_s`: some before the measured phase and the
/// rest after it, so one slow stretch of a shared machine cannot cover
/// them all.
pub const SETUPS_BEFORE: usize = 10;
pub const SETUPS_AFTER: usize = 10;

impl Run {
    /// The end of a phase that starts now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Repetitions every measured loop makes, however short the budget.
const MIN_REPS: usize = 2;

/// Whether a measured loop should start another repetition: it has not
/// made [`MIN_REPS`] yet, or one more of the last one's length still
/// ends before `deadline`.
pub fn another(done: usize, last: Duration, deadline: Instant) -> bool {
    done < MIN_REPS || Instant::now() + last <= deadline
}

/// Why the measured process stopped without numbers.
#[derive(Debug)]
pub enum Failure {
    /// A correctness gate failed: the check, and what differed.
    Gate(&'static str, String),
    /// An operation failed.
    Error(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

/// Wrap any displayable error.
pub fn err(e: impl std::fmt::Display) -> Failure {
    Failure::Error(e.to_string())
}

/// Fail gate `name` with `detail` unless `ok`.
pub fn gate(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure::Gate(name, detail()))
    }
}

/// The bytes a run produces: the enriched table as CSV and the entities
/// as TSV — what `thor enrich --out --entities` writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Enriched table CSV.
    pub csv: String,
    /// Entity TSV.
    pub tsv: String,
}

impl Output {
    /// FNV-1a over the CSV, a separator, and the TSV.
    pub fn digest(&self) -> u64 {
        fnv1a(&[self.csv.as_bytes(), b"\0", self.tsv.as_bytes()].concat())
    }
}

/// One set-up: read the table CSV and the vectors, `Thor::prepare`, and
/// save the artifact.
pub fn build_engine(
    t: &mut Tracer,
    inputs: &Inputs,
    workload: Workload,
    artifact: &Path,
) -> Result<PreparedEngine, Failure> {
    let table = t.span("data.read_table", || inputs.read_table("table.csv"))?;
    let vectors = inputs.path("vectors.txt");
    let store = t.span("embed.read_vectors", || {
        fs::read_to_string(&vectors)
            .map_err(|e| format!("{}: {e}", vectors.display()))
            .and_then(|text| VectorStore::from_text(&text).map_err(|e| e.to_string()))
    })?;
    let mut config = ThorConfig::with_tau(workload.tau());
    config.threads = workload.threads();
    let engine = t.span("engine.prepare", || {
        Thor::new(store, config).prepare(&table)
    });
    t.span("engine.save", || engine.save(artifact))
        .map_err(err)?;
    Ok(engine)
}

/// The CPUs a calibrated operation of the workload runs on: one, unless
/// its engine runs several threads.
fn cpus_of(workload: Workload) -> Cpus {
    if workload.threads() == 1 {
        Cpus::Next
    } else {
        Cpus::All
    }
}

/// `n` untraced, calibrated set-ups, their times added to `setup_s`;
/// returns the last engine.
fn timed_setups(
    run: &Run,
    inputs: &Inputs,
    artifact: &Path,
    n: usize,
    speed: &mut Speed,
    setup_s: &mut Series,
) -> Result<PreparedEngine, Failure> {
    let mut engine = None;
    for _ in 0..n {
        let (built, t) = speed.time(cpus_of(run.workload), || {
            build_engine(&mut Tracer::off(), inputs, run.workload, artifact)
        });
        setup_s.time(t, 1.0);
        engine = Some(built?);
    }
    Ok(engine.expect("at least one set-up"))
}

/// Enrich `docs` and render the output. Untraced, this is
/// `PreparedEngine::enrich`; traced, the decomposed layers run instead.
fn enrich_render(
    t: &mut Tracer,
    traced: Option<&mut Decomposed>,
    engine: &PreparedEngine,
    docs: &[Document],
) -> (Output, Vec<ExtractedEntity>) {
    let (table, entities) = match traced {
        None => {
            let result = engine.enrich(docs);
            (result.table, result.entities)
        }
        Some(dec) => {
            let entities = dec.extract(t, engine, docs);
            let table = dec.slot_fill(t, engine, &entities);
            (table, entities)
        }
    };
    let csv = t.span("data.write_csv", || to_csv(&table));
    let tsv = t.span("entity.tsv", || entities_tsv(&entities));
    t.span("data.drop_table", || drop(table));
    (Output { csv, tsv }, entities)
}

/// Threads 1 and 2 must produce byte-identical CSV and TSV. Returns the
/// output of the threads-1 run.
pub fn threads_gate(engine: &PreparedEngine, docs: &[Document]) -> Result<Output, Failure> {
    let run = |threads| {
        let r = engine.with_threads(threads).enrich(docs);
        Output {
            csv: to_csv(&r.table),
            tsv: entities_tsv(&r.entities),
        }
    };
    let (one, two) = (run(1), run(2));
    gate("threads-identical", one == two, || {
        format!(
            "threads 1 and 2 differ: csv {} vs {} bytes, tsv {} vs {} bytes",
            one.csv.len(),
            two.csv.len(),
            one.tsv.len(),
            two.tsv.len()
        )
    })?;
    Ok(one)
}

/// Dataset seed of the corpus `f1` is measured on, whatever the run's
/// `--seed`: accuracy is compared on one fixed test set, so a change of
/// `f1` is a change of the system rather than of the corpus.
pub const F1_SEED: u64 = 7;

/// F1 of THOR at the workload's scale and τ on the test split of the
/// Disease A–Z corpus generated from [`F1_SEED`].
pub fn reference_f1(run: &Run) -> f64 {
    let dataset = disease_dataset(F1_SEED, run.workload.scale(run.smoke));
    run_system(&System::Thor(run.workload.tau()), &dataset)
        .report
        .f1
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn rss_peak_mb() -> Result<f64, Failure> {
    let status = fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Failure::Error("no VmHWM in /proc/self/status".into()))
}

/// The end-to-end metrics every workload's timed run reports, in the
/// order of [`crate::report::END_TO_END`], with the timings at the
/// reference speed; and beside them the timings as measured (`raw.*`)
/// and the kernel times they were rescaled by (`speed.kernel_ms`).
/// Called when the measured phase is over: the peak RSS is read before
/// the `f1` corpus is generated and run.
pub fn end_to_end(
    run: &Run,
    speed: &Speed,
    docs_per_s: &Series,
    latency_ms: &Series,
    setup_s: &Series,
) -> Result<(Vec<Metric>, Vec<Metric>), Failure> {
    let rss = rss_peak_mb()?;
    let metrics = vec![
        Metric::defined("docs_per_s", &docs_per_s.scaled),
        Metric::defined("latency_ms", &latency_ms.scaled),
        Metric::defined("setup_s", &setup_s.scaled),
        Metric::single("rss_peak_mb", "MiB", rss),
        Metric::single("f1", "ratio", reference_f1(run)),
    ];
    let raw = vec![
        Metric::of("raw.docs_per_s", "docs/s", &docs_per_s.raw),
        Metric::of("raw.latency_ms", "ms", &latency_ms.raw),
        Metric::of("raw.setup_s", "s", &setup_s.raw),
        Metric::of("speed.kernel_ms", "ms", &speed.kernel_ms()),
    ];
    Ok((metrics, raw))
}

/// Measurements taken beside the traced run: sentence splitting timed
/// alone (`segment` splits internally, out of the trace's sight), and
/// the `index.pruned.rows` and `cache.miss` counters of one metered
/// extraction — the traced repetitions keep metrics detached, as the
/// stable entry points do.
pub struct Probe {
    docs: u64,
    sentences: u64,
    split_ns: u64,
    pruned_rows: u64,
    misses: u64,
}

impl Probe {
    /// Split every document once, then extract them with `engine`
    /// metered.
    pub fn run(engine: &PreparedEngine, docs: &[Document]) -> Probe {
        let mut probe = Probe {
            docs: docs.len() as u64,
            sentences: 0,
            split_ns: 0,
            pruned_rows: 0,
            misses: 0,
        };
        for d in docs {
            let t0 = Instant::now();
            let sentences = split_sentences(&d.text);
            probe.split_ns += t0.elapsed().as_nanos() as u64;
            probe.sentences += sentences.len() as u64;
        }
        let metrics = PipelineMetrics::new();
        engine.with_metrics(metrics.clone()).extract(docs);
        probe.pruned_rows = metrics.pruned_rows.get();
        probe.misses = metrics.cache_misses.get();
        probe
    }
}

/// Per-layer metrics from a traced run: the tracer's spans, the
/// decomposed layers' counts, the probe, the artifact size, and
/// the wall-clock of each untraced and traced repetition.
pub fn layer_metrics(
    t: &Tracer,
    dec: &Decomposed,
    probe: &Probe,
    artifact: &Path,
    untraced_s: &[f64],
    traced_s: &[f64],
) -> Result<Vec<Metric>, Failure> {
    let times = t.self_times();
    let time = |name: &str| times.get(name).copied().unwrap_or_default();
    let wall = t.wall_ns() as f64;
    let share = |name: &str| per(time(name).ns as f64, wall);
    let c = &dec.counts;
    let f = |x: u64| x as f64;
    let artifact_kb = fs::metadata(artifact).map_err(err)?.len() as f64 / 1024.0;
    let sentences_per_doc = per(f(probe.sentences), f(probe.docs));
    let overhead = summarize(traced_s).median / summarize(untraced_s).median - 1.0;
    let values = [
        ("data.read_table_ms", time("data.read_table").ms_per_call()),
        ("data.write_csv_ms", time("data.write_csv").ms_per_call()),
        (
            "embed.read_vectors_ms",
            time("embed.read_vectors").ms_per_call(),
        ),
        ("engine.prepare_ms", time("engine.prepare").ms_per_call()),
        ("engine.save_ms", time("engine.save").ms_per_call()),
        ("engine.load_ms", time("engine.load").ms_per_call()),
        ("engine.artifact_kb", artifact_kb),
        (
            "text.split_us_per_doc",
            per(f(probe.split_ns) / 1e3, f(probe.docs)),
        ),
        (
            "text.tokenize_us_per_sentence",
            time("text.tokenize").us_per_call(),
        ),
        ("segment.us_per_doc", time("segment").us_per_call()),
        (
            "segment.attributed_ratio",
            per(per(f(c.segments), f(c.docs)), sentences_per_doc),
        ),
        ("segment.self_share", share("segment")),
        ("chunk.us_per_sentence", time("chunk").us_per_call()),
        (
            "chunk.phrases_per_sentence",
            per(f(c.phrases), f(c.chunked)),
        ),
        ("chunk.self_share", share("chunk")),
        ("match.us_per_hit", per(f(c.hit_ns) / 1e3, f(c.hit_calls))),
        (
            "match.us_per_miss",
            per(f(c.miss_ns) / 1e3, f(c.miss_calls)),
        ),
        (
            "match.cache_hit_ratio",
            per(f(c.cache_hits), f(c.cache_hits + c.cache_misses)),
        ),
        (
            "match.candidates_per_phrase",
            per(f(c.candidates), f(c.phrases)),
        ),
        (
            "match.pruned_rows_per_miss",
            per(f(probe.pruned_rows), f(probe.misses)),
        ),
        ("match.self_share", share("match")),
        ("refine.us_per_phrase", time("refine").us_per_call()),
        (
            "refine.scored_ratio",
            per(f(c.scored), f(c.scored + c.pruned)),
        ),
        ("refine.self_share", share("refine")),
        ("slotfill.ms", time("slotfill").ms_per_call()),
        (
            "slotfill.inserted_ratio",
            per(f(c.slot_inserted), f(c.slot_entities)),
        ),
        ("dedup.ms", time("dedup").ms_per_call()),
        ("trace.coverage", t.coverage()),
        ("trace.overhead_ratio", overhead),
    ];
    Ok(values
        .iter()
        .map(|&(name, value)| Metric::defined(name, &[value]))
        .collect())
}

/// Write the trace file of a traced run.
pub fn write_trace(t: &Tracer, run: &Run, path: &Path) -> Result<(), Failure> {
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"unit\":\"ns\"",
        run.workload.name(),
        run.seed
    );
    t.write_json(path, &header).map_err(err)
}

// ---------------------------------------------------------------------
// batch-wide, batch-narrow
// ---------------------------------------------------------------------

/// Warm-up repetitions before timing: the narrow workload's repetitions
/// are short, so it warms up over more of them.
fn batch_warmups(workload: Workload) -> usize {
    match workload {
        Workload::BatchNarrow => 5,
        _ => 1,
    }
}

/// One repetition of `thor enrich --engine`: mapped engine load, read
/// the corpus files, enrich, render CSV and TSV.
fn batch_rep(
    t: &mut Tracer,
    traced: Option<&mut Decomposed>,
    inputs: &Inputs,
    artifact: &Path,
    threads: usize,
) -> Result<(Output, Vec<ExtractedEntity>, usize), Failure> {
    t.enter("op.rep");
    let engine = t
        .span("engine.load", || {
            PreparedEngine::load_with(artifact, MapMode::Mapped).map(|e| e.with_threads(threads))
        })
        .map_err(err)?;
    let docs = t.span("data.read_docs", || inputs.read_docs())?;
    let (output, entities) = enrich_render(t, traced, &engine, &docs);
    t.exit();
    Ok((output, entities, docs.len()))
}

/// The timed run of a batch workload.
pub fn batch_timed(run: &Run, inputs: &Inputs) -> Result<Outcome, Failure> {
    let artifact = inputs.path("engine.thor");
    let mut speed = Speed::new();
    let mut setup_s = Series::default();
    timed_setups(
        run,
        inputs,
        &artifact,
        SETUPS_BEFORE,
        &mut speed,
        &mut setup_s,
    )?;
    let docs = inputs.read_docs()?;
    let engine = PreparedEngine::load_with(&artifact, MapMode::Mapped).map_err(err)?;
    let expected = threads_gate(&engine, &docs)?.digest();
    drop(engine);

    let threads = run.workload.threads();
    let off = &mut Tracer::off();
    for _ in 0..batch_warmups(run.workload) {
        batch_rep(off, None, inputs, &artifact, threads)?;
    }
    let deadline = run.deadline();
    let (mut docs_per_s, mut latency_ms) = (Series::default(), Series::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = Duration::ZERO;
    while another(latency_ms.raw.len(), last, deadline) {
        let t0 = Instant::now();
        let (rep, t) = speed.time(cpus_of(run.workload), || {
            batch_rep(off, None, inputs, &artifact, threads)
        });
        let (output, _, n) = rep?;
        last = t0.elapsed();
        docs_per_s.rate(n as f64, t);
        latency_ms.time(t, 1e3);
        attempted += n as u64;
        if output.digest() != expected {
            failed += n as u64;
        }
    }
    timed_setups(
        run,
        inputs,
        &artifact,
        SETUPS_AFTER,
        &mut speed,
        &mut setup_s,
    )?;
    let (metrics, extra) = end_to_end(run, &speed, &docs_per_s, &latency_ms, &setup_s)?;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        digest: expected,
        metrics,
        extra,
    })
}

/// The traced run of a batch workload, single-threaded: untraced and
/// traced repetitions alternate until the budget is spent.
pub fn batch_traced(run: &Run, inputs: &Inputs, trace_path: &Path) -> Result<Outcome, Failure> {
    let artifact = inputs.path("engine.thor");
    let mut t = Tracer::new();
    t.enter("op.setup");
    build_engine(&mut t, inputs, run.workload, &artifact)?;
    t.exit();
    let mut dec = Decomposed::new();
    let deadline = run.deadline();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reference: Option<(Output, Vec<ExtractedEntity>)> = None;
    let mut last = Duration::ZERO;
    while another(traced_s.len(), last, deadline) {
        let t0 = Instant::now();
        let (output, entities, _) = batch_rep(&mut Tracer::off(), None, inputs, &artifact, 1)?;
        let untraced = t0.elapsed();
        untraced_s.push(untraced.as_secs_f64());
        let want = reference.get_or_insert((output, entities));

        let before = t.wall_ns();
        let (output, entities, _) = batch_rep(&mut t, Some(&mut dec), inputs, &artifact, 1)?;
        let traced = Duration::from_nanos(t.wall_ns() - before);
        traced_s.push(traced.as_secs_f64());
        decomposition_gate(&want.1, &entities)?;
        gate("traced-output", output == want.0, || {
            "traced repetition rendered different bytes".into()
        })?;
        last = untraced + traced;
    }
    let docs = inputs.read_docs()?;
    let engine = PreparedEngine::load_with(&artifact, MapMode::Mapped).map_err(err)?;
    let probe = Probe::run(&engine, &docs);
    write_trace(&t, run, trace_path)?;
    let digest = reference.expect("at least one repetition").0.digest();
    Ok(Outcome {
        correct: true,
        attempted: (untraced_s.len() + traced_s.len()) as u64,
        failed: 0,
        digest,
        metrics: layer_metrics(&t, &dec, &probe, &artifact, &untraced_s, &traced_s)?,
        extra: Vec::new(),
    })
}

/// The decomposed layers must extract exactly what
/// `PreparedEngine::extract` extracts, entity for entity.
pub fn decomposition_gate(
    expected: &[ExtractedEntity],
    traced: &[ExtractedEntity],
) -> Result<(), Failure> {
    let first_diff = expected
        .iter()
        .zip(traced)
        .position(|(a, b)| a != b)
        .unwrap_or(expected.len().min(traced.len()));
    gate("decomposition-equals-extract", expected == traced, || {
        format!(
            "{} vs {} entities, first difference at {first_diff}: {:?} vs {:?}",
            expected.len(),
            traced.len(),
            expected.get(first_diff),
            traced.get(first_diff)
        )
    })
}

// ---------------------------------------------------------------------
// evolve-chain
// ---------------------------------------------------------------------

/// One delta of a chain and the read after it.
struct Step {
    /// Mean kernel time around the step, when calibrated.
    kernel_s: Option<f64>,
    /// `apply_delta` + `save_delta`, seconds.
    write_s: f64,
    /// `apply_delta` alone.
    apply_s: f64,
    /// Mapped chain load.
    load_s: f64,
    /// Chain load + enrich + render.
    read_s: f64,
    /// Digest of the read's output.
    digest: u64,
}

/// One whole chain: every step, the compaction, and the final read.
struct Chain {
    steps: Vec<Step>,
    compact_s: f64,
    fingerprint: String,
    last: Output,
    last_entities: Vec<ExtractedEntity>,
}

fn read_deltas(inputs: &Inputs) -> Result<Vec<EngineDelta>, Failure> {
    (0..EVOLVE_DELTAS)
        .map(|i| {
            let table = inputs.read_table(&format!("delta_{i}.csv"))?;
            Ok(EngineDelta::Seeds(SeedDelta::new(table)))
        })
        .collect()
}

/// Apply every delta onto a chain rooted at `engine.thor` (the saved
/// `base`), reading the test documents through a mapped chain load
/// after each, then fold the chain with `compact_chain`. With `speed`,
/// each step is pinned to the next CPU and calibrated.
fn run_chain(
    t: &mut Tracer,
    mut speed: Option<&mut Speed>,
    mut traced: Option<&mut Decomposed>,
    inputs: &Inputs,
    base: &PreparedEngine,
    deltas: &[EngineDelta],
    docs: &[Document],
) -> Result<Chain, Failure> {
    t.enter("op.chain");
    let mut engine = base.clone();
    let mut parent = inputs.path("engine.thor");
    let mut steps = Vec::new();
    let mut last = None;
    let mut fingerprint = String::new();
    for (i, delta) in deltas.iter().enumerate() {
        let around = speed.as_mut().map(|s| s.begin(Cpus::Next));
        t.enter("op.delta");
        let out = inputs.path(&format!("chain_{i}.thor"));
        let t0 = Instant::now();
        engine = t
            .span("delta.apply", || engine.apply_delta(delta))
            .map_err(err)?;
        let apply_s = t0.elapsed().as_secs_f64();
        t.span("delta.save", || {
            engine.save_delta(&parent, &out, "bench_thor")
        })
        .map_err(err)?;
        let write_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let loaded = t
            .span("engine.load", || {
                PreparedEngine::load_with(&out, MapMode::Mapped)
            })
            .map_err(err)?;
        let load_s = t1.elapsed().as_secs_f64();
        fingerprint = loaded.fingerprint().to_string();
        let (output, entities) = enrich_render(t, traced.as_deref_mut(), &loaded, docs);
        let read_s = t1.elapsed().as_secs_f64();
        t.exit();
        let kernel_s = around.map(|a| speed.as_mut().expect("began a step").end(a));
        steps.push(Step {
            kernel_s,
            write_s,
            apply_s,
            load_s,
            read_s,
            digest: output.digest(),
        });
        last = Some((output, entities));
        parent = out;
    }
    let t0 = Instant::now();
    t.span("compact", || {
        compact_chain(&parent, &inputs.path("compact.thor"), None)
    })
    .map_err(err)?;
    let compact_s = t0.elapsed().as_secs_f64();
    t.exit();
    let (last, last_entities) = last.expect("a chain has deltas");
    Ok(Chain {
        steps,
        compact_s,
        fingerprint,
        last,
        last_entities,
    })
}

/// The timed run of evolve-chain.
pub fn evolve_timed(run: &Run, inputs: &Inputs) -> Result<Outcome, Failure> {
    let artifact = inputs.path("engine.thor");
    let mut speed = Speed::new();
    let mut setup_s = Series::default();
    let base = timed_setups(
        run,
        inputs,
        &artifact,
        SETUPS_BEFORE,
        &mut speed,
        &mut setup_s,
    )?;
    let deltas = read_deltas(inputs)?;
    let docs = inputs.read_docs()?;
    let off = &mut Tracer::off();

    // Gates on a warm-up chain: it must end where a fresh build of the
    // full table starts, and its compaction must equal a fresh save.
    let warm = run_chain(off, None, None, inputs, &base, &deltas, &docs)?;
    let full = inputs.read_table("full_table.csv")?;
    let fresh = Thor::new(base.store().clone(), base.config().clone()).prepare(&full);
    let fresh_out = threads_gate(&fresh, &docs)?;
    gate(
        "chain-equals-fresh",
        warm.fingerprint == fresh.fingerprint() && warm.last == fresh_out,
        || {
            format!(
                "chain fingerprint {} vs fresh {}; output equal: {}",
                warm.fingerprint,
                fresh.fingerprint(),
                warm.last == fresh_out
            )
        },
    )?;
    let fresh_path = inputs.path("fresh.thor");
    fresh.save(&fresh_path).map_err(err)?;
    let compacted = fs::read(inputs.path("compact.thor")).map_err(err)?;
    let saved = fs::read(&fresh_path).map_err(err)?;
    gate("compact-equals-save", compacted == saved, || {
        format!(
            "compacted artifact {} bytes, fresh save {} bytes",
            compacted.len(),
            saved.len()
        )
    })?;
    let expected: Vec<u64> = warm.steps.iter().map(|s| s.digest).collect();

    let deadline = run.deadline();
    let (mut write_ms, mut read_docs_per_s) = (Series::default(), Series::default());
    let (mut apply_ms, mut save_ms) = (Vec::new(), Vec::new());
    let (mut load_ms, mut compact_ms) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last = Duration::ZERO;
    while another(compact_ms.len(), last, deadline) {
        let t0 = Instant::now();
        let chain = run_chain(off, Some(&mut speed), None, inputs, &base, &deltas, &docs)?;
        last = t0.elapsed();
        for (step, want) in chain.steps.iter().zip(&expected) {
            let kernel_s = step.kernel_s.expect("timed chains are calibrated");
            let timed = |wall_s| Timed { wall_s, kernel_s };
            write_ms.time(timed(step.write_s), 1e3);
            read_docs_per_s.rate(docs.len() as f64, timed(step.read_s));
            apply_ms.push(step.apply_s * 1e3);
            save_ms.push((step.write_s - step.apply_s) * 1e3);
            load_ms.push(step.load_s * 1e3);
            attempted += 1 + docs.len() as u64;
            if step.digest != *want {
                failed += 1 + docs.len() as u64;
            }
        }
        compact_ms.push(chain.compact_s * 1e3);
    }
    timed_setups(
        run,
        inputs,
        &artifact,
        SETUPS_AFTER,
        &mut speed,
        &mut setup_s,
    )?;
    let (metrics, mut extra) = end_to_end(run, &speed, &read_docs_per_s, &write_ms, &setup_s)?;
    extra.extend([
        Metric::of("delta.apply_ms", "ms", &apply_ms),
        Metric::of("delta.save_ms", "ms", &save_ms),
        Metric::of("chain.load_ms", "ms", &load_ms),
        Metric::of("compact.ms", "ms", &compact_ms),
    ]);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        digest: warm.last.digest(),
        metrics,
        extra,
    })
}

/// The traced run of evolve-chain: untraced and traced chains alternate
/// until the budget is spent.
pub fn evolve_traced(run: &Run, inputs: &Inputs, trace_path: &Path) -> Result<Outcome, Failure> {
    let mut t = Tracer::new();
    t.enter("op.setup");
    let base = build_engine(&mut t, inputs, run.workload, &inputs.path("engine.thor"))?;
    t.exit();
    let deltas = read_deltas(inputs)?;
    let docs = inputs.read_docs()?;
    let mut dec = Decomposed::new();
    let deadline = run.deadline();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut digest = 0;
    let mut last = Duration::ZERO;
    while another(traced_s.len(), last, deadline) {
        let t0 = Instant::now();
        let plain = run_chain(
            &mut Tracer::off(),
            None,
            None,
            inputs,
            &base,
            &deltas,
            &docs,
        )?;
        let untraced = t0.elapsed();
        untraced_s.push(untraced.as_secs_f64());

        let before = t.wall_ns();
        let chain = run_chain(&mut t, None, Some(&mut dec), inputs, &base, &deltas, &docs)?;
        let traced = Duration::from_nanos(t.wall_ns() - before);
        traced_s.push(traced.as_secs_f64());
        decomposition_gate(&plain.last_entities, &chain.last_entities)?;
        let plain_digests: Vec<u64> = plain.steps.iter().map(|s| s.digest).collect();
        let traced_digests: Vec<u64> = chain.steps.iter().map(|s| s.digest).collect();
        gate("traced-output", plain_digests == traced_digests, || {
            "a traced chain read rendered different bytes".into()
        })?;
        digest = plain.last.digest();
        last = untraced + traced;
    }
    let full = inputs.read_table("full_table.csv")?;
    let t0 = Instant::now();
    let rebuilt = Thor::new(base.store().clone(), base.config().clone()).prepare(&full);
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
    let probe = Probe::run(&rebuilt, &docs);
    write_trace(&t, run, trace_path)?;
    Ok(Outcome {
        correct: true,
        attempted: (untraced_s.len() + traced_s.len()) as u64,
        failed: 0,
        digest,
        metrics: layer_metrics(
            &t,
            &dec,
            &probe,
            &inputs.path("engine.thor"),
            &untraced_s,
            &traced_s,
        )?,
        extra: vec![Metric::single("delta.rebuild_ms", "ms", rebuild_ms)],
    })
}
