//! `thor` — command-line front end for the THOR reproduction.
//!
//! ```text
//! thor integrate <src.csv>... [--out R.csv]          full disjunction of sources
//! thor sparsity <table.csv>                          sparsity report
//! thor build --table R.csv --vectors v.txt --engine e.thor
//!            [--tau 0.7] [--context-gate G] [--threads N]
//!                                                    prepare + persist an engine
//! thor enrich --table R.csv [--tau 0.7] [--vectors v.txt]
//!             [--context-gate G] [--threads N] [--metrics[=json]] [--cache-stats]
//!             [--strict | --lenient] [--quarantine q.tsv]
//!             [--checkpoint DIR [--resume]] [--stream [--chunk N]]
//!             [--out enriched.csv] [--entities e.tsv]
//!             <doc.txt | corpus-dir>...              run the pipeline
//! thor enrich --engine e.thor [--engine-mmap on|off] [--threads N] ...
//!             <doc.txt | corpus-dir>...              serve from a built engine
//! thor serve --engine e.thor [--engine-mmap on|off] [--addr HOST:PORT]
//!            [--addr-file PATH] [--threads N] [--queue N] [--read-timeout-ms MS]
//!            [--metrics[=json]]
//!                                                    HTTP front end (see thor-serve)
//! thor delta --engine base.eng [--add-concept NAME] [--add-seeds rows.csv]
//!            --out d1.eng [--note TEXT] [--engine-mmap on|off]
//!                                                    apply an additive delta
//! thor compact --engine dN.eng --out folded.eng      fold a delta chain
//! thor inspect --engine e.thor                       section directory + checksums
//! thor evaluate --gold gold.tsv --pred pred.tsv      SemEval partial-match scores
//! thor generate --dataset disease|resume [--scale S] [--seed N] --out DIR
//!                                                    write dataset artifacts
//! ```
//!
//! `thor --help` prints every command's usage, `thor <cmd> --help` (or
//! `-h`) one command's; both go to stdout and exit 0. A reader that
//! closes stdout early (`thor evaluate … | head -1`) ends any printing
//! command quietly, with exit status 141 (128 + SIGPIPE), as a writer
//! stopped by the signal would.
//!
//! Build/serve split: `thor build` runs the Preparation phase once and
//! persists the result as a versioned, checksummed binary artifact
//! (written atomically); `thor enrich --engine` serves from it without
//! re-running fine-tuning and produces byte-identical output to the
//! equivalent direct run. The artifact freezes the table, vectors, τ and
//! model parameters — `--threads` stays adjustable at serve time.
//! By default the artifact is memory-mapped (`--engine-mmap on`): the
//! hot arrays are borrowed from the file in place, startup cost is
//! independent of vocabulary size, and concurrent processes share one
//! physical copy; `--engine-mmap off` loads into owned memory with
//! every checksum verified up front. `thor inspect --engine` verifies
//! everything offline. `--stream` reads the corpus out-of-core in
//! `--chunk`-sized batches (positional directories expand to their
//! sorted `.txt` files), byte-identical to the batch run.
//! Engines evolve without rebuilds: `thor delta` applies an additive
//! change (new seed rows, a new concept column) to a built engine and
//! writes a **delta artifact** — only the sections that changed, plus a
//! checksummed link to the parent — that loads exactly like a full
//! artifact and extracts bit-identically to a fresh build of the final
//! state. Deltas stack; `thor compact` folds a chain back into the
//! single artifact a fresh build would have written, byte-identical.
//! `thor inspect` recognizes delta artifacts and prints the chain.
//! Checkpoint/resume composes with engines: the resume fingerprint
//! covers configuration + table + corpus, so a checkpoint taken with an
//! engine resumes under the same engine (or an identically-built one).
//!
//! Annotation TSV format: `doc_id<TAB>concept<TAB>phrase`, one per line;
//! further columns are ignored, so `enrich --entities` output scores
//! as `--pred` directly. Repeated gold lines count once.
//! Vector file format: word2vec-style text (`thor generate` writes one).
//! When `enrich` gets no `--vectors`, vectors are trained on the input
//! documents with the built-in SGNS trainer.
//!
//! Fault tolerance: `--strict` (the default) fails fast on the first bad
//! input; `--lenient` quarantines bad rows and documents (reported to
//! stderr, and to `--quarantine PATH` as TSV) and finishes the run.
//! `--checkpoint DIR` persists resumable state; a killed run restarted
//! with `--resume` reproduces the uninterrupted output byte-for-byte.
//! All artifact writes are atomic (temp file + fsync + rename). The
//! `THOR_FAILPOINTS` environment variable arms deterministic fault
//! injection (see thor-fault).

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use thor_repro::core::{
    compact_chain, entities_tsv, ConceptDelta, Document, EngineDelta, PipelineMetrics,
    PreparedEngine, ResilientOptions, RunMode, SeedDelta, Thor, ThorConfig, ENGINE_FORMAT_VERSION,
};
use thor_repro::data::csv::{from_csv, from_csv_lenient, to_csv, SkippedRow};
use thor_repro::data::CorpusDir;
use thor_repro::data::{full_disjunction, sparsity, Table};
use thor_repro::datagen::{corpus_stats, generate, DatasetSpec, Split};
use thor_repro::embed::{SgnsConfig, SgnsTrainer, VectorStore};
use thor_repro::eval::{dedup_annotations, evaluate, schema_scores, Annotation};
use thor_repro::fault::{
    atomic_write, decode_document, fail_point, install_from_env, read_bytes, read_to_string,
    DocumentPolicy, MapMode, QuarantineEntry, QuarantineReport, SectionChain, SectionEntry,
    SectionFile, ThorError, ThorResult,
};
use thor_repro::serve::signal as serve_signal;
use thor_repro::serve::{ReloadConfig, ServeOptions, Server};
use thor_repro::text::{levenshtein, normalize_phrase, split_sentences};

/// Write to stdout, returning a failed write instead of panicking as
/// `print!` does. A reader that closed the pipe early (`thor evaluate …
/// | head -1`) then ends the command quietly through `main`, with exit
/// status 141.
fn write_stdout(text: std::fmt::Arguments) -> ThorResult<()> {
    std::io::stdout()
        .lock()
        .write_fmt(text)
        .map_err(|e| ThorError::io("stdout", e))
}

/// `println!` over [`write_stdout`]: evaluates to a `ThorResult<()>`.
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Whether `e` is a write into a pipe whose reader has gone.
fn is_broken_pipe(e: &ThorError) -> bool {
    std::error::Error::source(e)
        .and_then(|s| s.downcast_ref::<std::io::Error>())
        .is_some_and(|io| io.kind() == std::io::ErrorKind::BrokenPipe)
}

/// Parsed command line: positional args plus `--key value` / `--key=value`
/// options. Keys listed in `flags` are boolean switches: they never
/// consume the following argument (`--lenient doc.txt` leaves `doc.txt`
/// positional) and store an empty string.
#[derive(Debug, Default, PartialEq)]
struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

fn parse_args(argv: &[String], flags: &[&str]) -> Args {
    let mut args = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        if let Some(key) = a.strip_prefix("--") {
            if let Some((key, value)) = key.split_once('=') {
                args.options.insert(key.to_string(), value.to_string());
            } else if flags.contains(&key) {
                args.options.insert(key.to_string(), String::new());
            } else {
                let value = argv
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .unwrap_or_default();
                if !value.is_empty() {
                    i += 1;
                }
                args.options.insert(key.to_string(), value);
            }
        } else {
            args.positional.push(a.clone());
        }
        i += 1;
    }
    args
}

/// The options a command understands: value-taking keys plus boolean
/// flags. Anything else on the command line is rejected with a
/// "did you mean" hint instead of being silently ignored.
struct CommandSpec {
    options: &'static [&'static str],
    flags: &'static [&'static str],
}

const INTEGRATE: CommandSpec = CommandSpec {
    options: &["out"],
    flags: &[],
};
const SPARSITY: CommandSpec = CommandSpec {
    options: &[],
    flags: &[],
};
const BUILD: CommandSpec = CommandSpec {
    options: &[
        "table",
        "vectors",
        "tau",
        "context-gate",
        "threads",
        "engine",
    ],
    flags: &[],
};
const ENRICH: CommandSpec = CommandSpec {
    options: &[
        "table",
        "tau",
        "vectors",
        "engine",
        "engine-mmap",
        "context-gate",
        "threads",
        "out",
        "entities",
        "quarantine",
        "checkpoint",
        "chunk",
    ],
    flags: &[
        "metrics",
        "cache-stats",
        "strict",
        "lenient",
        "resume",
        "stream",
    ],
};
const SERVE: CommandSpec = CommandSpec {
    options: &[
        "engine",
        "engine-mmap",
        "addr",
        "addr-file",
        "threads",
        "queue",
        "read-timeout-ms",
        "watch-engine",
        "deadline-ms",
    ],
    flags: &["metrics"],
};
const DELTA: CommandSpec = CommandSpec {
    options: &[
        "engine",
        "engine-mmap",
        "add-seeds",
        "add-concept",
        "out",
        "note",
    ],
    flags: &[],
};
const COMPACT: CommandSpec = CommandSpec {
    options: &["engine", "out"],
    flags: &[],
};
const INSPECT: CommandSpec = CommandSpec {
    options: &["engine"],
    flags: &[],
};
const EVALUATE: CommandSpec = CommandSpec {
    options: &["gold", "pred"],
    flags: &[],
};
const GENERATE: CommandSpec = CommandSpec {
    options: &["dataset", "scale", "seed", "out"],
    flags: &[],
};

/// Reject options the command does not understand, suggesting the
/// closest known one when the typo is near enough.
fn check_options(command: &str, args: &Args, spec: &CommandSpec) -> ThorResult<()> {
    for key in args.options.keys() {
        let known = |k: &&str| *k == key.as_str();
        if spec.options.iter().any(known) || spec.flags.iter().any(known) {
            continue;
        }
        let nearest = spec
            .options
            .iter()
            .chain(spec.flags)
            .map(|cand| (levenshtein(key, cand), *cand))
            .min();
        let hint = match nearest {
            Some((distance, cand)) if distance <= 2 || distance * 2 <= key.len() => {
                format!(" (did you mean `--{cand}`?)")
            }
            _ => String::new(),
        };
        return Err(ThorError::config(format!(
            "unknown option `--{key}` for `thor {command}`{hint}"
        )));
    }
    Ok(())
}

/// One `thor` subcommand: the options it understands, its handler, and
/// its usage line(s) for `--help`.
struct Command {
    name: &'static str,
    spec: &'static CommandSpec,
    run: fn(&Args) -> ThorResult<()>,
    usage: &'static str,
}

/// Every subcommand, in `thor --help` order — the single table that
/// dispatch, option checking and help text are read from.
const COMMANDS: &[Command] = &[
    Command {
        name: "integrate",
        spec: &INTEGRATE,
        run: cmd_integrate,
        usage: "thor integrate <src.csv>... [--out R.csv]",
    },
    Command {
        name: "sparsity",
        spec: &SPARSITY,
        run: cmd_sparsity,
        usage: "thor sparsity <table.csv>",
    },
    Command {
        name: "build",
        spec: &BUILD,
        run: cmd_build,
        usage: "thor build --table R.csv --vectors v.txt --engine e.thor [--tau 0.7] \
                [--context-gate G] [--threads N]",
    },
    Command {
        name: "enrich",
        spec: &ENRICH,
        run: cmd_enrich,
        usage: "thor enrich --table R.csv [--tau 0.7] [--vectors v.txt] [--context-gate G] \
                [--threads N] [--metrics[=json]] [--cache-stats] \
                [--strict | --lenient] [--quarantine q.tsv] [--checkpoint DIR [--resume]] \
                [--stream [--chunk N]] [--out enriched.csv] [--entities e.tsv] \
                <doc.txt | corpus-dir>...\n  \
                thor enrich --engine e.thor [--engine-mmap on|off] [--threads N] \
                ... <doc.txt | corpus-dir>...",
    },
    Command {
        name: "serve",
        spec: &SERVE,
        run: cmd_serve,
        usage: "thor serve --engine e.thor [--engine-mmap on|off] [--addr HOST:PORT] \
                [--addr-file PATH] [--threads N] [--queue N] [--read-timeout-ms MS] \
                [--watch-engine [MS]] [--deadline-ms MS] [--metrics[=json]]",
    },
    Command {
        name: "delta",
        spec: &DELTA,
        run: cmd_delta,
        usage: "thor delta --engine base.eng [--add-concept NAME] [--add-seeds rows.csv] \
                --out d1.eng [--note TEXT] [--engine-mmap on|off]",
    },
    Command {
        name: "compact",
        spec: &COMPACT,
        run: cmd_compact,
        usage: "thor compact --engine dN.eng --out folded.eng",
    },
    Command {
        name: "inspect",
        spec: &INSPECT,
        run: cmd_inspect,
        usage: "thor inspect --engine e.thor",
    },
    Command {
        name: "evaluate",
        spec: &EVALUATE,
        run: cmd_evaluate,
        usage: "thor evaluate --gold gold.tsv --pred pred.tsv",
    },
    Command {
        name: "generate",
        spec: &GENERATE,
        run: cmd_generate,
        usage: "thor generate --dataset disease|resume [--scale S] [--seed N] --out DIR",
    },
];

/// Usage of every command, one block per command.
fn usage_text() -> String {
    let mut text = String::from("usage:\n");
    for command in COMMANDS {
        text.push_str(&format!("  {}\n", command.usage));
    }
    text
}

/// The usage text `--help` / `-h` asks for, if it does: every command's
/// after a bare `thor --help`, one command's after `thor <cmd> --help`.
fn help_request(argv: &[String]) -> Option<String> {
    let is_help = |a: &String| a == "--help" || a == "-h";
    let (first, rest) = argv.split_first()?;
    if is_help(first) {
        return Some(usage_text());
    }
    let command = COMMANDS.iter().find(|c| c.name == first)?;
    rest.iter()
        .any(is_help)
        .then(|| format!("usage:\n  {}\n", command.usage))
}

fn read_table(path: &str) -> ThorResult<Table> {
    fail_point("read_table").map_err(|e| e.context(format!("reading table {path}")))?;
    let text = read_to_string(Path::new(path))?;
    from_csv(&text).map_err(|e| ThorError::parse(format!("{path}: {e}")))
}

/// Lenient table read: malformed body rows are returned for quarantine
/// accounting instead of failing the parse (stream-level problems — no
/// header, unterminated quote — stay fatal).
fn read_table_lenient(path: &str) -> ThorResult<(Table, Vec<SkippedRow>)> {
    fail_point("read_table").map_err(|e| e.context(format!("reading table {path}")))?;
    let text = read_to_string(Path::new(path))?;
    let lenient = from_csv_lenient(&text).map_err(|e| ThorError::parse(format!("{path}: {e}")))?;
    Ok((lenient.table, lenient.skipped))
}

/// Read an annotation TSV: the first three columns of each line, so
/// the five-column `enrich --entities` file (subject and score follow
/// the phrase) reads as predictions unchanged.
fn read_annotations(path: &str) -> ThorResult<Vec<Annotation>> {
    let text = read_to_string(Path::new(path))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let (Some(doc), Some(concept), Some(phrase)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(ThorError::parse(format!(
                "{path}:{}: expected doc<TAB>concept<TAB>phrase",
                i + 1
            )));
        };
        out.push(Annotation::new(doc, concept, phrase));
    }
    Ok(out)
}

fn cmd_integrate(args: &Args) -> ThorResult<()> {
    if args.positional.is_empty() {
        return Err(ThorError::config("integrate needs at least one source CSV"));
    }
    let sources: ThorResult<Vec<Table>> = args.positional.iter().map(|p| read_table(p)).collect();
    let sources = sources?;
    let refs: Vec<&Table> = sources.iter().collect();
    let integrated = full_disjunction(&refs);
    let report = sparsity(&integrated);
    eprintln!(
        "integrated {} sources -> {} rows, {} instances, sparsity {:.1}%",
        sources.len(),
        integrated.len(),
        integrated.instance_count(),
        report.ratio * 100.0
    );
    let csv = to_csv(&integrated);
    match args.options.get("out") {
        Some(path) => atomic_write(Path::new(path), csv.as_bytes())?,
        None => write_stdout(format_args!("{csv}"))?,
    }
    Ok(())
}

fn cmd_sparsity(args: &Args) -> ThorResult<()> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| ThorError::config("sparsity needs a table CSV"))?;
    let table = read_table(path)?;
    let report = sparsity(&table);
    outln!(
        "rows: {}  instances: {}  slots: {}  missing: {} ({:.1}%)",
        table.len(),
        table.instance_count(),
        report.total_slots,
        report.missing_slots,
        report.ratio * 100.0
    )?;
    for (concept, missing, total) in &report.per_concept {
        outln!("  {concept:<24} {missing:>5} / {total} missing")?;
    }
    Ok(())
}

/// How `--metrics` asked for the per-stage breakdown, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Table,
    Json,
}

/// Parse `--metrics` / `--metrics=json` (`table` is the explicit form
/// of the default). Metrics go to stderr, leaving stdout to the
/// enriched table; the JSON document is a single line, so it stays
/// trivially extractable from the stream.
fn metrics_mode(args: &Args) -> ThorResult<Option<MetricsMode>> {
    match args.options.get("metrics").map(String::as_str) {
        None => Ok(None),
        Some("" | "table") => Ok(Some(MetricsMode::Table)),
        Some("json") => Ok(Some(MetricsMode::Json)),
        Some(other) => Err(ThorError::config(format!(
            "bad --metrics value `{other}` (expected `table` or `json`)"
        ))),
    }
}

/// `--engine-mmap on|off`: `on` (the default) maps the artifact
/// read-only and borrows the hot arrays in place — O(1) startup,
/// N processes share one physical copy; `off` reads it into owned
/// memory with every section checksum verified up front.
fn engine_map_mode(args: &Args) -> ThorResult<MapMode> {
    match args.options.get("engine-mmap").map(String::as_str) {
        None | Some("on") => Ok(MapMode::Mapped),
        Some("off") => Ok(MapMode::Owned),
        Some(other) => Err(ThorError::config(format!(
            "bad --engine-mmap value `{other}` (expected `on` or `off`)"
        ))),
    }
}

/// `--context-gate G`, which must be finite: a NaN gate would pass
/// every candidate (no comparison with NaN holds) and an infinite one
/// would pass none or all, while the fingerprint still records a gate.
fn context_gate(args: &Args) -> ThorResult<Option<f64>> {
    let gate: Option<f64> = parse_option(args, "context-gate")?;
    match gate {
        Some(g) if !g.is_finite() => Err(ThorError::config(format!(
            "--context-gate must be finite, got `{}`",
            args.options["context-gate"]
        ))),
        gate => Ok(gate),
    }
}

/// Parse a value-taking option through `parse`, naming the flag and the
/// offending value on failure.
fn parse_option<T: std::str::FromStr>(args: &Args, key: &str) -> ThorResult<Option<T>> {
    match args.options.get(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| ThorError::config(format!("bad --{key} value `{raw}`"))),
    }
}

/// Expand positional corpus arguments into `(id, path)` pairs: plain
/// files keep command-line order (ids are file stems); a directory is
/// expanded through [`CorpusDir::discover`] — its `.txt` files, sorted
/// by id — so huge corpora can be named without shell globbing and
/// without the argv order mattering.
fn expand_corpus(positional: &[String]) -> ThorResult<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for arg in positional {
        let path = Path::new(arg);
        if path.is_dir() {
            let corpus = CorpusDir::discover(path)
                .map_err(|e| ThorError::io(format!("corpus directory {arg}"), e))?;
            out.extend(corpus);
        } else {
            let id = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| arg.clone());
            out.push((id, path.to_path_buf()));
        }
    }
    Ok(out)
}

/// Read one corpus document leniently: the `read_doc` failpoint, file
/// read, and admission control, with the path as context.
fn read_corpus_document(id: &str, path: &Path, policy: &DocumentPolicy) -> ThorResult<Document> {
    fail_point("read_doc")
        .and_then(|()| read_bytes(path))
        .map_err(|e| e.context(format!("reading document {}", path.display())))
        .and_then(|bytes| decode_document(id, &bytes, policy))
        .map(|text| Document::new(id, text))
}

/// `thor build`: run the Preparation phase once (fine-tune the matcher
/// and freeze the τ-expansion) and persist the resulting engine as a
/// versioned, checksummed binary artifact for `thor enrich --engine`.
fn cmd_build(args: &Args) -> ThorResult<()> {
    let table_path = args
        .options
        .get("table")
        .ok_or_else(|| ThorError::config("build needs --table R.csv"))?;
    let vectors_path = args
        .options
        .get("vectors")
        .ok_or_else(|| ThorError::config("build needs --vectors v.txt"))?;
    let engine_path = args
        .options
        .get("engine")
        .ok_or_else(|| ThorError::config("build needs --engine PATH"))?;

    let context_gate = context_gate(args)?;
    let table = read_table(table_path)?;
    let store = VectorStore::load_path(Path::new(vectors_path))?;
    let tau: f64 = parse_option(args, "tau")?.unwrap_or(0.7);
    if !thor_repro::matcher::TAU_RANGE.contains(&tau) {
        return Err(ThorError::config(format!(
            "--tau {tau} out of range [0, 1]"
        )));
    }
    let mut config = ThorConfig::with_tau(tau);
    config.context_gate = context_gate;
    if let Some(threads) = parse_option(args, "threads")? {
        if threads == 0 {
            return Err(ThorError::config("--threads must be at least 1"));
        }
        config.threads = threads;
    }

    let thor = Thor::new(store, config);
    let engine = thor.prepare(&table);
    engine.save(Path::new(engine_path))?;
    eprintln!(
        "engine built in {:?}: {} concepts, tau {tau}, fingerprint {}\nwritten to {engine_path}",
        engine.prepare_time(),
        engine.prepared_matcher().concept_names().len(),
        engine.fingerprint()
    );
    Ok(())
}

fn cmd_enrich(args: &Args) -> ThorResult<()> {
    let strict = args.options.contains_key("strict");
    let lenient = args.options.contains_key("lenient");
    if strict && lenient {
        return Err(ThorError::config(
            "--strict and --lenient are mutually exclusive",
        ));
    }
    let mode = if lenient {
        RunMode::Lenient
    } else {
        RunMode::Strict
    };
    let checkpoint_dir = args.options.get("checkpoint").map(PathBuf::from);
    if matches!(&checkpoint_dir, Some(d) if d.as_os_str().is_empty()) {
        return Err(ThorError::config("--checkpoint needs a directory"));
    }
    let resume = args.options.contains_key("resume");
    if resume && checkpoint_dir.is_none() {
        return Err(ThorError::config("--resume requires --checkpoint DIR"));
    }

    // `--engine` serves from a persisted artifact: the table, vectors,
    // τ and model parameters are frozen inside it (only execution knobs
    // like --threads remain adjustable), so options that would
    // contradict the artifact are rejected outright.
    let engine_path = args.options.get("engine").cloned();
    if engine_path.is_some() {
        for key in ["table", "vectors", "tau", "context-gate"] {
            if args.options.contains_key(key) {
                return Err(ThorError::config(format!(
                    "--{key} conflicts with --engine (the artifact freezes it; \
                     rebuild with `thor build`)"
                )));
            }
        }
    }

    let context_gate = context_gate(args)?;

    if args.positional.is_empty() {
        return Err(ThorError::config(
            "enrich needs at least one document file or corpus directory",
        ));
    }
    let stream = args.options.contains_key("stream");
    let chunk: usize = parse_option(args, "chunk")?.unwrap_or(64);
    if chunk == 0 {
        return Err(ThorError::config("--chunk must be at least 1"));
    }
    if args.options.contains_key("chunk") && !stream {
        return Err(ThorError::config("--chunk requires --stream"));
    }
    if args.options.contains_key("engine-mmap") && engine_path.is_none() {
        return Err(ThorError::config("--engine-mmap requires --engine"));
    }
    if stream && engine_path.is_none() && !args.options.contains_key("vectors") {
        return Err(ThorError::config(
            "--stream needs --vectors or --engine (the built-in SGNS \
             trainer would read the whole corpus into memory)",
        ));
    }
    let map_mode = engine_map_mode(args)?;

    let policy = DocumentPolicy::default();
    let corpus = expand_corpus(&args.positional)?;
    if corpus.is_empty() {
        return Err(ThorError::config(
            "enrich found no documents (empty corpus directory?)",
        ));
    }
    let stream_ids: Vec<String> = corpus.iter().map(|(id, _)| id.clone()).collect();
    // Batch mode materializes the whole corpus up front (read errors
    // land in the CLI quarantine); --stream defers every read into the
    // chunked run, where the core applies the same read_doc policy.
    let mut cli_quarantine = QuarantineReport::new();
    let mut docs = Vec::new();
    if !stream {
        for (id, path) in &corpus {
            match read_corpus_document(id, path, &policy) {
                Ok(doc) => docs.push(doc),
                Err(e) if mode == RunMode::Strict => return Err(e),
                Err(e) => cli_quarantine.push(QuarantineEntry::from_error(id, "read_doc", &e)),
            }
        }
    }

    let threads: Option<usize> = parse_option(args, "threads")?;
    if threads == Some(0) {
        return Err(ThorError::config("--threads must be at least 1"));
    }
    let metrics_mode = metrics_mode(args)?;
    // `--cache-stats`: two-line summary of the candidate engine (phrase
    // memo traffic, then subphrase cache traffic + vector index
    // size/build time), read from the metrics handle every run carries.
    let cache_stats = args.options.contains_key("cache-stats");
    let metrics = PipelineMetrics::new();
    let opts = ResilientOptions {
        mode,
        checkpoint_dir,
        resume,
        policy,
        ..ResilientOptions::default()
    };

    // The two sources differ only in how they produce the engine; the
    // execution knobs, the metrics and the stream-or-batch choice below
    // are shared.
    let mut skipped_rows: Vec<SkippedRow> = Vec::new();
    let engine = if let Some(engine_path) = &engine_path {
        let engine = PreparedEngine::load_with(Path::new(engine_path), map_mode)?;
        eprintln!(
            "engine {engine_path}: {} concepts, tau {}, loaded in {:?} ({})",
            engine.prepared_matcher().concept_names().len(),
            engine.tau(),
            engine.prepare_time(),
            match map_mode {
                MapMode::Mapped => "mapped",
                MapMode::Owned => "owned",
            }
        );
        engine
    } else {
        let table_path = args
            .options
            .get("table")
            .ok_or_else(|| ThorError::config("enrich needs --table (or --engine)"))?;
        let table = match mode {
            RunMode::Strict => read_table(table_path)?,
            RunMode::Lenient => {
                let (table, skipped) = read_table_lenient(table_path)?;
                for row in &skipped {
                    eprintln!("[quarantine] {table_path}:{}: {}", row.line, row.error);
                }
                skipped_rows = skipped;
                table
            }
        };

        let tau: f64 = parse_option(args, "tau")?.unwrap_or(0.7);
        if !thor_repro::matcher::TAU_RANGE.contains(&tau) {
            return Err(ThorError::config(format!(
                "--tau {tau} out of range [0, 1]"
            )));
        }

        let store = match args.options.get("vectors") {
            Some(path) => VectorStore::load_path(Path::new(path))?,
            // `--stream` without vectors was rejected up front.
            None => {
                eprintln!("no --vectors given; training SGNS on the input documents...");
                let mut corpus = Vec::new();
                for d in &docs {
                    for s in split_sentences(&d.text) {
                        let words: Vec<String> = normalize_phrase(&s.text)
                            .split_whitespace()
                            .map(str::to_string)
                            .collect();
                        if words.len() > 2 {
                            corpus.push(words);
                        }
                    }
                }
                SgnsTrainer::new(SgnsConfig::default()).train(&corpus)
            }
        };

        let mut config = ThorConfig::with_tau(tau);
        config.context_gate = context_gate;
        Thor::new(store, config).prepare(&table)
    };
    let engine = match threads {
        Some(threads) => engine.with_threads(threads),
        None => engine,
    };
    let engine = engine.with_metrics(metrics.clone());
    let outcome = if stream {
        let reader = corpus
            .iter()
            .map(|(id, path)| (id.clone(), read_corpus_document(id, path, &policy)));
        engine.enrich_resilient_stream(&stream_ids, reader, &opts, chunk)?
    } else {
        engine.enrich_resilient(&docs, &opts)?
    };
    let result = &outcome.result;

    // CLI-level quarantine counts land on the metrics handle only after
    // the core run (and its final checkpoint save): they are re-derived
    // deterministically by every invocation, so a resumed run absorbing
    // the checkpoint's metrics snapshot must not double-count them.
    metrics.quarantine_docs.add(cli_quarantine.len() as u64);
    metrics.quarantine_rows.add(skipped_rows.len() as u64);
    let mut quarantine = cli_quarantine;
    quarantine.extend(outcome.quarantine.clone());

    if outcome.resumed_docs > 0 {
        eprintln!(
            "resumed from checkpoint: {} document(s) already complete, {} processed now",
            outcome.resumed_docs, outcome.processed_docs
        );
    }
    eprintln!(
        "extracted {} entities, filled {} slots ({} duplicates) in {:?}",
        result.entities.len(),
        result.slot_stats.inserted,
        result.slot_stats.duplicates,
        result.total_time()
    );
    if !quarantine.is_empty() || !skipped_rows.is_empty() {
        eprintln!(
            "{} + {} malformed row(s)",
            quarantine.summary(),
            skipped_rows.len()
        );
    }
    match metrics_mode {
        Some(MetricsMode::Table) => eprint!("{}", metrics.render_table()),
        Some(MetricsMode::Json) => eprintln!("{}", metrics.render_json()),
        None => {}
    }
    if cache_stats {
        let rate = |hits: u64, misses: u64| match hits + misses {
            0 => 0.0,
            total => hits as f64 / total as f64 * 100.0,
        };
        // The memo answers repeated noun phrases whole, so the subphrase
        // cache below it only sees the phrases the memo missed.
        let (hits, misses) = (
            metrics.phrase_memo_hits.get(),
            metrics.phrase_memo_misses.get(),
        );
        eprintln!(
            "[memo] hits {hits}  misses {misses}  hit rate {:.1}%  of {} noun phrases",
            rate(hits, misses),
            metrics.noun_phrases.get()
        );
        let (hits, misses) = (metrics.cache_hits.get(), metrics.cache_misses.get());
        eprintln!(
            "[cache] hits {hits}  misses {misses}  hit rate {:.1}%  \
             index {} rows built in {:.2}ms",
            rate(hits, misses),
            metrics.index_rows.get(),
            metrics.index_build.total().as_secs_f64() * 1e3
        );
    }

    if let Some(path) = args.options.get("quarantine") {
        atomic_write(Path::new(path), quarantine.to_tsv().as_bytes())?;
    }
    if let Some(path) = args.options.get("entities") {
        atomic_write(Path::new(path), entities_tsv(&result.entities).as_bytes())?;
    }
    let csv = to_csv(&result.table);
    match args.options.get("out") {
        Some(path) => atomic_write(Path::new(path), csv.as_bytes())?,
        None => write_stdout(format_args!("{csv}"))?,
    }
    Ok(())
}

/// `thor serve`: the long-running HTTP front end over a built engine.
/// `POST /enrich` and `POST /extract` answer with exactly the bytes the
/// batch CLI writes; `GET /healthz` and `GET /metrics` expose liveness
/// and the thor-obs document (including per-request latency
/// histograms). SIGTERM/ctrl-c drains: stop accepting, finish in-flight
/// requests, flush metrics to stderr.
fn cmd_serve(args: &Args) -> ThorResult<()> {
    let engine_path = args
        .options
        .get("engine")
        .ok_or_else(|| ThorError::config("serve needs --engine e.thor (see `thor build`)"))?;
    let addr = args
        .options
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7427".to_string());
    let threads: Option<usize> = parse_option(args, "threads")?;
    if threads == Some(0) {
        return Err(ThorError::config("--threads must be at least 1"));
    }
    let queue: usize = parse_option(args, "queue")?.unwrap_or(32);
    if queue == 0 {
        return Err(ThorError::config("--queue must be at least 1"));
    }
    let read_timeout_ms: u64 = parse_option(args, "read-timeout-ms")?.unwrap_or(10_000);
    if read_timeout_ms == 0 {
        return Err(ThorError::config("--read-timeout-ms must be at least 1"));
    }
    let metrics_mode = metrics_mode(args)?;
    // Bare `--watch-engine` (no value) means "poll at the default
    // cadence"; a value is the poll interval in milliseconds. Without
    // the flag, reloads still happen on SIGHUP — polling is just off.
    let watch_engine = match args.options.get("watch-engine").map(String::as_str) {
        None => None,
        Some("") => Some(std::time::Duration::from_millis(500)),
        Some(ms) => {
            let ms: u64 = ms.parse().map_err(|_| {
                ThorError::config(format!("--watch-engine wants milliseconds, got `{ms}`"))
            })?;
            if ms == 0 {
                return Err(ThorError::config("--watch-engine must be at least 1ms"));
            }
            Some(std::time::Duration::from_millis(ms))
        }
    };
    let deadline_ms: Option<u64> = parse_option(args, "deadline-ms")?;
    if deadline_ms == Some(0) {
        return Err(ThorError::config("--deadline-ms must be at least 1"));
    }

    let map_mode = engine_map_mode(args)?;
    let mut engine = PreparedEngine::load_with(Path::new(engine_path), map_mode)?;
    eprintln!(
        "engine {engine_path}: {} concepts, tau {}, loaded in {:?} ({})",
        engine.prepared_matcher().concept_names().len(),
        engine.tau(),
        engine.prepare_time(),
        match map_mode {
            MapMode::Mapped => "mapped",
            MapMode::Owned => "owned",
        }
    );
    if let Some(threads) = threads {
        engine = engine.with_threads(threads);
    }

    let opts = ServeOptions {
        queue,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms),
        watch_signals: true,
        deadline: deadline_ms.map(std::time::Duration::from_millis),
        ..ServeOptions::default()
    };
    let reload = ReloadConfig {
        path: PathBuf::from(engine_path),
        mode: map_mode,
        threads,
        poll: watch_engine,
    };
    serve_signal::install_handlers();
    serve_signal::install_reload_handler();
    let server = Server::bind_with(engine, &addr, opts, Some(reload))?;
    let bound = server.local_addr();
    if let Some(path) = args.options.get("addr-file") {
        atomic_write(Path::new(path), format!("{bound}\n").as_bytes())?;
    }
    let metrics = server.metrics().clone();
    eprintln!(
        "serving on http://{bound} (queue {queue}, SIGHUP reloads{}, SIGTERM/ctrl-c drains)",
        match watch_engine {
            Some(every) => format!(", watching engine every {every:?}"),
            None => String::new(),
        }
    );
    server.run()?;

    // Drained: flush the final metrics snapshot so a supervised process
    // leaves its request/latency/quarantine story in the log.
    let snapshot = metrics.snapshot();
    eprintln!(
        "drained: {} request(s) served, {} rejected (429), {} protocol error(s), {} quarantined doc(s)",
        snapshot.count("serve.requests"),
        snapshot.count("serve.rejected"),
        snapshot.count("serve.http_errors"),
        snapshot.count("quarantine.docs"),
    );
    match metrics_mode {
        Some(MetricsMode::Json) => eprintln!("{}", metrics.render_json()),
        _ => eprint!("{}", metrics.render_table()),
    }
    Ok(())
}

/// `thor delta`: evolve a built engine by an additive change — a new
/// concept column (`--add-concept`, applied first) and/or new seed rows
/// (`--add-seeds`) — and persist the result as a **delta artifact**
/// stacking on the base: only the sections whose bytes changed, plus a
/// checksummed parent link. Loading the delta resolves the whole chain
/// and extracts bit-identically to a fresh `thor build` of the final
/// table.
fn cmd_delta(args: &Args) -> ThorResult<()> {
    let engine_path = args
        .options
        .get("engine")
        .ok_or_else(|| ThorError::config("delta needs --engine base.eng (see `thor build`)"))?;
    let out = args
        .options
        .get("out")
        .ok_or_else(|| ThorError::config("delta needs --out d1.eng"))?;
    let concept = args.options.get("add-concept");
    let seeds = args.options.get("add-seeds");
    if concept.is_none() && seeds.is_none() {
        return Err(ThorError::config(
            "delta needs --add-seeds rows.csv and/or --add-concept NAME",
        ));
    }
    if matches!(concept, Some(name) if name.is_empty()) {
        return Err(ThorError::config("--add-concept needs a concept name"));
    }
    if matches!(seeds, Some(path) if path.is_empty()) {
        return Err(ThorError::config("--add-seeds needs a CSV path"));
    }

    let map_mode = engine_map_mode(args)?;
    let metrics = PipelineMetrics::new();
    let mut engine =
        PreparedEngine::load_with(Path::new(engine_path), map_mode)?.with_metrics(metrics.clone());
    let base_fingerprint = engine.fingerprint().to_string();
    let mut applied = Vec::new();
    // The column first, then the rows: `--add-concept Treatment
    // --add-seeds rows.csv` can fill the fresh column in one invocation.
    if let Some(name) = concept {
        engine = engine.apply_delta(&EngineDelta::Concept(ConceptDelta::new(name.as_str())))?;
        applied.push(format!("--add-concept {name}"));
    }
    if let Some(path) = seeds {
        let text = read_to_string(Path::new(path))?;
        let delta = SeedDelta::from_csv(&text).map_err(|e| e.context(path.clone()))?;
        engine = engine.apply_delta(&EngineDelta::Seeds(delta))?;
        applied.push(format!("--add-seeds {path}"));
    }
    let note = match args.options.get("note") {
        Some(n) => n.clone(),
        None => format!("thor delta {}", applied.join(" ")),
    };
    engine.save_delta(Path::new(engine_path), Path::new(out), &note)?;
    // Summed over the applied deltas: a concept both rebuild counts twice.
    let rebuilt = metrics.snapshot().count("delta.concepts_rebuilt");
    eprintln!(
        "delta applied in {:?}: fingerprint {base_fingerprint} -> {}\n\
         {rebuilt} of {} concepts rebuilt\nwritten to {out} (on {engine_path})",
        engine.prepare_time(),
        engine.fingerprint(),
        engine.prepared_matcher().concept_names().len()
    );
    Ok(())
}

/// `thor compact`: fold the delta chain under `--engine` into the
/// single artifact `--out` — byte-identical to what a fresh
/// `thor build` of the resolved state writes. Every checksum and parent
/// link is verified first, and the folded artifact is loaded back and
/// fingerprint-checked before the command succeeds.
fn cmd_compact(args: &Args) -> ThorResult<()> {
    let path = args
        .options
        .get("engine")
        .ok_or_else(|| ThorError::config("compact needs --engine dN.eng (the chain's top)"))?;
    let out = args
        .options
        .get("out")
        .ok_or_else(|| ThorError::config("compact needs --out folded.eng"))?;
    let depth = SectionChain::open(Path::new(path), MapMode::Mapped)?.depth();
    let engine = compact_chain(Path::new(path), Path::new(out), None)?;
    eprintln!(
        "folded {} chain file(s) (depth {depth}) into {out}: fingerprint {}",
        depth + 1,
        engine.fingerprint()
    );
    Ok(())
}

/// One artifact's section directory (name, offset, length, alignment,
/// format version, checksum) as an aligned table.
fn print_section_table(file: &SectionFile) -> ThorResult<()> {
    for line in section_table(file.entries()) {
        outln!("{line}")?;
    }
    Ok(())
}

/// The lines of [`print_section_table`]: a header, then one row per
/// section, the name column as wide as the longest name.
fn section_table(entries: &[SectionEntry]) -> Vec<String> {
    let width = entries
        .iter()
        .map(|e| e.name.len())
        .chain(["section".len()])
        .max()
        .unwrap_or_default();
    let mut lines = vec![format!(
        "{:<width$} {:>10} {:>10} {:>6} {:>4}  {:<18}",
        "section", "offset", "length", "align", "ver", "checksum"
    )];
    lines.extend(entries.iter().map(|e| {
        format!(
            "{:<width$} {:>10} {:>10} {:>6} {:>4}  {:#018x}",
            e.name, e.offset, e.len, e.align, e.version, e.checksum
        )
    }));
    lines
}

/// One line summarizing the cluster shape of the candidate-pruning
/// sections the resolved chain serves.
fn print_prune_summary(chain: &SectionChain) -> ThorResult<()> {
    let s = thor_repro::matcher::PruneIndex::summarize_meta(chain.bytes("prune.meta")?)
        .map_err(ThorError::validation)?;
    outln!(
        "candidate pruning: {} cluster(s) over {} concept(s), {} row(s) \
         (dim {}, max {} rows/cluster)",
        s.clusters,
        s.concepts,
        s.rows,
        s.dim,
        s.max_cluster_rows
    )?;
    Ok(())
}

/// `thor inspect`: print an engine artifact's section directory and
/// verify **every** checksum — including the big vocabulary sections a
/// mapped load defers — exiting non-zero on the first mismatch. This is
/// the offline integrity check backing `--engine-mmap on`'s lazy
/// verification policy. A delta artifact is inspected as its whole
/// chain: base fingerprint, delta depth, and each file's patched
/// sections (with the provenance note recorded at `thor delta` time).
fn cmd_inspect(args: &Args) -> ThorResult<()> {
    let path = args
        .options
        .get("engine")
        .ok_or_else(|| ThorError::config("inspect needs --engine e.thor"))?;
    let chain = SectionChain::open(Path::new(path), MapMode::Mapped)?;
    if chain.depth() == 0 {
        let file = chain.base();
        outln!(
            "{path}: THORENG v{ENGINE_FORMAT_VERSION}, {} bytes, {} sections{}",
            file.total_len(),
            file.entries().len(),
            if file.is_mapped() { " (mapped)" } else { "" }
        )?;
        print_section_table(file)?;
        print_prune_summary(&chain)?;
        chain.verify_all()?;
        outln!("all {} section checksums verified", file.entries().len())?;
        return Ok(());
    }
    outln!(
        "{path}: THORENG v{ENGINE_FORMAT_VERSION} delta chain, {} file(s), depth {}, \
         base fingerprint {}",
        chain.files().len(),
        chain.depth(),
        chain.metas()[0].parent_fingerprint
    )?;
    for (i, file) in chain.files().iter().enumerate() {
        let fpath = &chain.paths()[i];
        if i == 0 {
            outln!(
                "\n[base] {}: {} bytes, {} sections{}",
                fpath.display(),
                file.total_len(),
                file.entries().len(),
                if file.is_mapped() { " (mapped)" } else { "" }
            )?;
        } else {
            let meta = &chain.metas()[i - 1];
            outln!(
                "\n[delta {}] {}: {} bytes, {} patched section(s) on fingerprint {}{}",
                meta.depth,
                fpath.display(),
                file.total_len(),
                file.entries().len() - 1, // minus delta.meta itself
                meta.parent_fingerprint,
                if meta.note.is_empty() {
                    String::new()
                } else {
                    format!("\n        note: {}", meta.note)
                }
            )?;
        }
        print_section_table(file)?;
    }
    outln!()?;
    print_prune_summary(&chain)?;
    chain.verify_all()?;
    outln!(
        "\nall section checksums verified across {} chain file(s)",
        chain.files().len()
    )?;
    Ok(())
}

fn cmd_evaluate(args: &Args) -> ThorResult<()> {
    let gold = dedup_annotations(read_annotations(
        args.options
            .get("gold")
            .ok_or_else(|| ThorError::config("evaluate needs --gold"))?,
    )?);
    let pred = read_annotations(
        args.options
            .get("pred")
            .ok_or_else(|| ThorError::config("evaluate needs --pred"))?,
    )?;
    let r = evaluate(&pred, &gold);
    outln!(
        "gold: {}  predicted: {}\ncorrect: {}  partial: {}  incorrect: {}  spurious: {}  missing: {}",
        r.gold_total, r.predicted_total, r.correct, r.partial, r.incorrect, r.spurious, r.missing
    )?;
    outln!(
        "P: {:.3}  R: {:.3}  F1: {:.3}  sensitivity: {:.3}",
        r.precision,
        r.recall,
        r.f1,
        r.sensitivity
    )?;
    let s = schema_scores(&pred, &gold);
    outln!(
        "schemas  strict {:.3}  exact {:.3}  partial {:.3}  ent_type {:.3}  (F1)",
        s.strict.f1,
        s.exact.f1,
        s.partial.f1,
        s.ent_type.f1
    )?;
    for c in &r.per_concept {
        outln!(
            "  {:<24} gold {:>4}  pred {:>4}  tp {:>4}  F1 {:.3}",
            c.concept,
            c.gold,
            c.predicted,
            c.tp,
            c.f1
        )?;
    }
    Ok(())
}

fn write_split(
    dir: &Path,
    name: &str,
    docs: &[thor_repro::datagen::AnnotatedDoc],
) -> ThorResult<()> {
    let doc_dir = dir.join("docs").join(name);
    fs::create_dir_all(&doc_dir).map_err(|e| ThorError::io(doc_dir.display(), e))?;
    let mut gold = String::new();
    for d in docs {
        atomic_write(
            &doc_dir.join(format!("{}.txt", d.doc.id)),
            d.doc.text.as_bytes(),
        )?;
        for g in &d.gold {
            gold.push_str(&format!("{}\t{}\t{}\n", d.doc.id, g.concept, g.phrase));
        }
    }
    let gold_dir = dir.join("gold");
    fs::create_dir_all(&gold_dir).map_err(|e| ThorError::io(gold_dir.display(), e))?;
    atomic_write(&gold_dir.join(format!("{name}.tsv")), gold.as_bytes())?;
    Ok(())
}

fn cmd_generate(args: &Args) -> ThorResult<()> {
    let dataset_name = args
        .options
        .get("dataset")
        .map(String::as_str)
        .unwrap_or("disease");
    let scale: f64 = parse_option(args, "scale")?.unwrap_or(0.25);
    if !scale.is_finite() || scale <= 0.0 {
        return Err(ThorError::config(format!(
            "--scale must be a finite value > 0, got `{scale}`"
        )));
    }
    let seed: u64 = parse_option(args, "seed")?.unwrap_or(42);
    let out = PathBuf::from(
        args.options
            .get("out")
            .ok_or_else(|| ThorError::config("generate needs --out DIR"))?,
    );

    let spec = match dataset_name {
        "disease" => DatasetSpec::disease_az(seed, scale),
        "resume" => DatasetSpec::resume(seed, scale),
        other => {
            return Err(ThorError::config(format!(
                "unknown dataset `{other}` (disease|resume)"
            )))
        }
    };
    spec.validate()
        .map_err(|e| ThorError::config(format!("--scale {scale}: {e}")))?;
    let dataset = generate(&spec);

    fs::create_dir_all(&out).map_err(|e| ThorError::io(out.display(), e))?;
    atomic_write(&out.join("table.csv"), to_csv(&dataset.table).as_bytes())?;
    atomic_write(
        &out.join("enrichment_table.csv"),
        to_csv(&dataset.enrichment_table()).as_bytes(),
    )?;
    atomic_write(
        &out.join("gold_test_table.csv"),
        to_csv(&dataset.gold_test_table()).as_bytes(),
    )?;
    atomic_write(&out.join("vectors.txt"), dataset.store.to_text().as_bytes())?;
    let src_dir = out.join("sources");
    fs::create_dir_all(&src_dir).map_err(|e| ThorError::io(src_dir.display(), e))?;
    for (i, s) in dataset.sources.iter().enumerate() {
        atomic_write(
            &src_dir.join(format!("source_{i:02}.csv")),
            to_csv(s).as_bytes(),
        )?;
    }
    write_split(&out, "train", &dataset.train)?;
    write_split(&out, "validation", &dataset.validation)?;
    write_split(&out, "test", &dataset.test)?;

    for (name, docs) in [
        ("train", &dataset.train),
        ("validation", &dataset.validation),
        ("test", &dataset.test),
    ] {
        let s = corpus_stats(docs);
        eprintln!(
            "{name:<11} subjects {:>4}  docs {:>5}  entities {:>6}  words {:>7}",
            s.subjects, s.documents, s.entities, s.words
        );
    }
    let _ = Split::Test; // re-exported for users of the artifacts
    eprintln!("artifacts written to {}", out.display());
    Ok(())
}

fn main() -> ExitCode {
    if let Err(e) = install_from_env() {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match help_request(&argv) {
        Some(text) => write_stdout(format_args!("{text}")),
        None => {
            let command = argv
                .split_first()
                .and_then(|(name, rest)| Some((COMMANDS.iter().find(|c| c.name == name)?, rest)));
            let Some((command, rest)) = command else {
                eprint!("{}", usage_text());
                return ExitCode::FAILURE;
            };
            let args = parse_args(rest, command.spec.flags);
            check_options(command.name, &args, command.spec).and_then(|()| (command.run)(&args))
        }
    };
    let outcome = outcome.and_then(|()| {
        std::io::stdout()
            .flush()
            .map_err(|e| ThorError::io("stdout", e))
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        // The reader of stdout has gone (`thor … | head`): nothing is
        // left to tell it, so stop quietly, with the status of a writer
        // a SIGPIPE ended (128 + 13) — the command did not finish, and
        // `thor inspect` in particular did not verify every checksum.
        Err(e) if is_broken_pipe(&e) => ExitCode::from(141),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thor_repro::fault::ErrorKind;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_positional_and_options() {
        let a = parse_args(&argv(&["a.csv", "--out", "r.csv", "b.csv", "--flag"]), &[]);
        assert_eq!(a.positional, ["a.csv", "b.csv"]);
        assert_eq!(a.options.get("out").unwrap(), "r.csv");
        assert_eq!(a.options.get("flag").unwrap(), "");
    }

    #[test]
    fn option_followed_by_option_takes_no_value() {
        let a = parse_args(&argv(&["--gate", "--out", "x"]), &[]);
        assert_eq!(a.options.get("gate").unwrap(), "");
        assert_eq!(a.options.get("out").unwrap(), "x");
    }

    #[test]
    fn section_table_aligns_names_longer_than_sixteen_characters() {
        let entry = |name: &str, offset: u64| SectionEntry {
            name: name.to_string(),
            offset,
            len: 1234,
            align: 64,
            version: 1,
            checksum: 0xdead_beef,
        };
        let lines = section_table(&[
            entry("meta", 64),
            entry("prune.concept_centroids", 128),
            entry("prune.concept_radii", 4096),
        ]);
        assert_eq!(lines.len(), 4);
        // Every column after the name starts at the same offset, so
        // every line is as long as the header ...
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "{lines:#?}");
        let at = lines[0].find("offset").unwrap() + "offset".len();
        assert!(lines[1..].iter().all(|l| l.as_bytes()[at - 1] != b' '));
        // ... and whitespace-splitting readers still see six fields.
        for line in &lines {
            assert_eq!(line.split_whitespace().count(), 6, "{line}");
        }
        assert!(lines[2].starts_with("prune.concept_centroids "));
    }

    #[test]
    fn empty_args() {
        let a = parse_args(&[], &[]);
        assert!(a.positional.is_empty());
        assert!(a.options.is_empty());
    }

    #[test]
    fn equals_form_splits_key_and_value() {
        let a = parse_args(&argv(&["--metrics=json", "--tau=0.6", "doc.txt"]), &[]);
        assert_eq!(a.options.get("metrics").unwrap(), "json");
        assert_eq!(a.options.get("tau").unwrap(), "0.6");
        assert_eq!(a.positional, ["doc.txt"]);
    }

    #[test]
    fn equals_form_does_not_consume_next_arg() {
        let a = parse_args(&argv(&["--metrics=json", "next"]), &[]);
        assert_eq!(a.options.get("metrics").unwrap(), "json");
        assert_eq!(a.positional, ["next"]);
    }

    #[test]
    fn boolean_flags_never_consume_documents() {
        let a = parse_args(
            &argv(&["--lenient", "doc.txt", "--cache-stats", "more.txt"]),
            ENRICH.flags,
        );
        assert_eq!(a.options.get("lenient").unwrap(), "");
        assert_eq!(a.options.get("cache-stats").unwrap(), "");
        assert_eq!(a.positional, ["doc.txt", "more.txt"]);
    }

    #[test]
    fn metrics_mode_parses_all_forms() {
        let mode = |items: &[&str]| metrics_mode(&parse_args(&argv(items), ENRICH.flags));
        assert_eq!(mode(&[]).unwrap(), None);
        assert_eq!(mode(&["--metrics"]).unwrap(), Some(MetricsMode::Table));
        assert_eq!(
            mode(&["--metrics=table"]).unwrap(),
            Some(MetricsMode::Table)
        );
        assert_eq!(mode(&["--metrics=json"]).unwrap(), Some(MetricsMode::Json));
        assert!(mode(&["--metrics=xml"]).is_err());
    }

    #[test]
    fn help_prints_usage_for_every_command() {
        let full = help_request(&argv(&["--help"])).unwrap();
        assert_eq!(help_request(&argv(&["-h"])).unwrap(), full);
        for command in COMMANDS {
            let prefix = format!("thor {} ", command.name);
            assert!(full.contains(&prefix), "{full}");
            for flag in ["--help", "-h"] {
                for args in [
                    vec![command.name, flag],
                    vec![command.name, "--out", "x", flag],
                ] {
                    let text = help_request(&argv(&args))
                        .unwrap_or_else(|| panic!("{args:?} asks for help"));
                    assert_eq!(text, format!("usage:\n  {}\n", command.usage));
                    assert!(text.contains(&prefix), "{args:?}: {text}");
                }
            }
            // Every option the command accepts is in its usage line.
            for key in command.spec.options.iter().chain(command.spec.flags) {
                assert!(
                    command.usage.contains(&format!("--{key}")),
                    "`thor {}` usage lacks --{key}",
                    command.name
                );
            }
            assert!(help_request(&argv(&[command.name, "--out", "x"])).is_none());
        }
        assert!(help_request(&[]).is_none());
        assert!(help_request(&argv(&["frobnicate", "--help"])).is_none());
    }

    #[test]
    fn unknown_option_rejected_with_hint() {
        let a = parse_args(&argv(&["--tabel", "x.csv"]), ENRICH.flags);
        let err = check_options("enrich", &a, &ENRICH).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown option `--tabel`"), "{msg}");
        assert!(msg.contains("did you mean `--table`?"), "{msg}");

        let a = parse_args(&argv(&["--lenint"]), ENRICH.flags);
        let msg = check_options("enrich", &a, &ENRICH)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("did you mean `--lenient`?"), "{msg}");
    }

    #[test]
    fn unknown_option_far_from_everything_has_no_hint() {
        let a = parse_args(&argv(&["--zzzzqqqq"]), ENRICH.flags);
        let msg = check_options("enrich", &a, &ENRICH)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("unknown option `--zzzzqqqq`"), "{msg}");
        assert!(!msg.contains("did you mean"), "{msg}");
    }

    #[test]
    fn known_options_pass_every_command() {
        for (cmd, spec, line) in [
            ("integrate", &INTEGRATE, vec!["--out", "r.csv"]),
            ("enrich", &ENRICH, vec!["--table", "r.csv", "--lenient"]),
            ("evaluate", &EVALUATE, vec!["--gold", "g", "--pred", "p"]),
            ("generate", &GENERATE, vec!["--dataset", "disease"]),
        ] {
            let a = parse_args(&argv(&line), spec.flags);
            assert!(check_options(cmd, &a, spec).is_ok(), "{cmd}");
        }
    }

    #[test]
    fn strict_and_lenient_conflict() {
        let a = parse_args(&argv(&["--strict", "--lenient"]), ENRICH.flags);
        let msg = cmd_enrich(&a).unwrap_err().to_string();
        assert!(msg.contains("mutually exclusive"), "{msg}");
    }

    #[test]
    fn resume_requires_checkpoint() {
        let a = parse_args(&argv(&["--resume", "--table", "t.csv"]), ENRICH.flags);
        let msg = cmd_enrich(&a).unwrap_err().to_string();
        assert!(msg.contains("--resume requires --checkpoint"), "{msg}");
    }

    #[test]
    fn engine_conflicts_with_frozen_options() {
        for frozen in ["table", "vectors", "tau", "context-gate"] {
            let a = parse_args(
                &argv(&["--engine", "e.thor", &format!("--{frozen}"), "x", "d.txt"]),
                ENRICH.flags,
            );
            let msg = cmd_enrich(&a).unwrap_err().to_string();
            assert!(
                msg.contains(&format!("--{frozen} conflicts with --engine")),
                "{msg}"
            );
        }
        // --threads stays adjustable: the error must come later (here,
        // from the nonexistent engine file, not a conflict).
        let a = parse_args(
            &argv(&["--engine", "/nonexistent/e.thor", "--threads", "2", "d.txt"]),
            ENRICH.flags,
        );
        let msg = cmd_enrich(&a).unwrap_err().to_string();
        assert!(!msg.contains("conflicts"), "{msg}");
    }

    #[test]
    fn refine_option_is_unknown() {
        // Refinement has one implementation; there is nothing to pick.
        for (cmd, spec) in [("enrich", &ENRICH), ("serve", &SERVE)] {
            let a = parse_args(&argv(&["--refine", "reference", "d.txt"]), spec.flags);
            let msg = check_options(cmd, &a, spec).unwrap_err().to_string();
            assert!(msg.contains("unknown option `--refine`"), "{cmd}: {msg}");
        }
    }

    #[test]
    fn prune_option_is_unknown() {
        // The bound-pruned scan is the only candidate scan; there is
        // nothing to pick.
        for (cmd, spec) in [("enrich", &ENRICH), ("serve", &SERVE)] {
            let a = parse_args(&argv(&["--prune", "exact", "d.txt"]), spec.flags);
            let msg = check_options(cmd, &a, spec).unwrap_err().to_string();
            assert!(msg.contains("unknown option `--prune`"), "{cmd}: {msg}");
        }
    }

    #[test]
    fn context_gate_rejects_non_finite_values_by_name() {
        // Each value is rejected before any input is read, so the
        // nonexistent paths are never reached.
        for gate in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let build = parse_args(
                &argv(&[
                    "--table",
                    "/nonexistent/t.csv",
                    "--vectors",
                    "/nonexistent/v.txt",
                    "--engine",
                    "/nonexistent/e.thor",
                    "--context-gate",
                    gate,
                ]),
                BUILD.flags,
            );
            let enrich = parse_args(
                &argv(&[
                    "--table",
                    "/nonexistent/t.csv",
                    "--context-gate",
                    gate,
                    "d.txt",
                ]),
                ENRICH.flags,
            );
            for err in [cmd_build(&build), cmd_enrich(&enrich)].map(Result::unwrap_err) {
                assert_eq!(err.kind(), ErrorKind::Config, "{gate}: {err}");
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("--context-gate must be finite, got `{gate}`")),
                    "{msg}"
                );
            }
        }
        // A finite gate passes the check and fails later, on the input.
        let a = parse_args(
            &argv(&[
                "--table",
                "/nonexistent/t.csv",
                "--context-gate",
                "0.2",
                "d.txt",
            ]),
            ENRICH.flags,
        );
        let msg = cmd_enrich(&a).unwrap_err().to_string();
        assert!(!msg.contains("--context-gate"), "{msg}");
    }

    #[test]
    fn build_requires_table_vectors_and_engine() {
        let msg = cmd_build(&parse_args(&[], BUILD.flags))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("--table"), "{msg}");
        let a = parse_args(&argv(&["--table", "t.csv"]), BUILD.flags);
        let msg = cmd_build(&a).unwrap_err().to_string();
        assert!(msg.contains("--vectors"), "{msg}");
        let a = parse_args(
            &argv(&["--table", "t.csv", "--vectors", "v.txt"]),
            BUILD.flags,
        );
        let msg = cmd_build(&a).unwrap_err().to_string();
        assert!(msg.contains("--engine"), "{msg}");
    }

    #[test]
    fn build_rejects_unknown_options() {
        let a = parse_args(&argv(&["--engin", "e.thor"]), BUILD.flags);
        let msg = check_options("build", &a, &BUILD).unwrap_err().to_string();
        assert!(msg.contains("did you mean `--engine`?"), "{msg}");
    }

    #[test]
    fn engine_mmap_parses_on_off_and_rejects_junk() {
        let mode = |items: &[&str]| engine_map_mode(&parse_args(&argv(items), ENRICH.flags));
        assert!(matches!(mode(&[]).unwrap(), MapMode::Mapped));
        assert!(matches!(
            mode(&["--engine-mmap", "on"]).unwrap(),
            MapMode::Mapped
        ));
        assert!(matches!(
            mode(&["--engine-mmap", "off"]).unwrap(),
            MapMode::Owned
        ));
        let msg = mode(&["--engine-mmap", "maybe"]).unwrap_err().to_string();
        assert!(msg.contains("expected `on` or `off`"), "{msg}");
    }

    #[test]
    fn streaming_flag_dependencies() {
        let a = parse_args(
            &argv(&["--chunk", "8", "--table", "t.csv", "d.txt"]),
            ENRICH.flags,
        );
        let msg = cmd_enrich(&a).unwrap_err().to_string();
        assert!(msg.contains("--chunk requires --stream"), "{msg}");

        let a = parse_args(
            &argv(&["--engine-mmap", "on", "--table", "t.csv", "d.txt"]),
            ENRICH.flags,
        );
        let msg = cmd_enrich(&a).unwrap_err().to_string();
        assert!(msg.contains("--engine-mmap requires --engine"), "{msg}");

        // Streaming never holds the whole corpus, so it cannot feed the
        // built-in SGNS trainer: a frozen model must come from somewhere.
        let a = parse_args(
            &argv(&["--stream", "--table", "t.csv", "d.txt"]),
            ENRICH.flags,
        );
        let msg = cmd_enrich(&a).unwrap_err().to_string();
        assert!(
            msg.contains("--stream needs --vectors or --engine"),
            "{msg}"
        );
    }

    #[test]
    fn delta_requires_engine_out_and_a_change() {
        let msg = cmd_delta(&parse_args(&[], DELTA.flags))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("--engine"), "{msg}");
        let a = parse_args(&argv(&["--engine", "base.eng"]), DELTA.flags);
        let msg = cmd_delta(&a).unwrap_err().to_string();
        assert!(msg.contains("--out"), "{msg}");
        let a = parse_args(
            &argv(&["--engine", "base.eng", "--out", "d1.eng"]),
            DELTA.flags,
        );
        let msg = cmd_delta(&a).unwrap_err().to_string();
        assert!(
            msg.contains("--add-seeds") && msg.contains("--add-concept"),
            "{msg}"
        );
        // `--add-concept` immediately followed by another option has an
        // empty value: rejected up front, not applied as a "" concept.
        let a = parse_args(
            &argv(&["--engine", "b.eng", "--add-concept", "--out", "d1.eng"]),
            DELTA.flags,
        );
        let msg = cmd_delta(&a).unwrap_err().to_string();
        assert!(msg.contains("--add-concept needs a concept name"), "{msg}");

        let a = parse_args(&argv(&["--add-seed", "x.csv"]), DELTA.flags);
        let msg = check_options("delta", &a, &DELTA).unwrap_err().to_string();
        assert!(msg.contains("did you mean `--add-seeds`?"), "{msg}");
    }

    #[test]
    fn compact_requires_engine_and_out() {
        let msg = cmd_compact(&parse_args(&[], COMPACT.flags))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("--engine"), "{msg}");
        let a = parse_args(&argv(&["--engine", "d2.eng"]), COMPACT.flags);
        let msg = cmd_compact(&a).unwrap_err().to_string();
        assert!(msg.contains("--out"), "{msg}");
        let a = parse_args(&argv(&["--uot", "folded.eng"]), COMPACT.flags);
        let msg = check_options("compact", &a, &COMPACT)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("did you mean `--out`?"), "{msg}");
    }

    #[test]
    fn generate_rejects_bad_scales_by_name() {
        let out = std::env::temp_dir().join(format!("thor-gen-reject-{}", std::process::id()));
        let out = out.to_string_lossy().into_owned();
        let generate = |dataset: &str, scale: &str| {
            let a = parse_args(
                &argv(&["--dataset", dataset, "--scale", scale, "--out", &out]),
                GENERATE.flags,
            );
            cmd_generate(&a).unwrap_err()
        };
        for scale in ["0", "-1", "nan", "inf", "-inf"] {
            let err = generate("disease", scale);
            assert_eq!(err.kind(), ErrorKind::Config, "{scale}: {err}");
            assert!(err.to_string().contains("--scale must be"), "{err}");
        }
        // A scale past the subject universe fails by name, not by the
        // generator's assertion.
        for (dataset, scale) in [("disease", "1.5"), ("resume", "2")] {
            let err = generate(dataset, scale);
            assert_eq!(err.kind(), ErrorKind::Config, "{err}");
            assert!(
                err.to_string().contains("subject concept universe"),
                "{err}"
            );
        }
        assert!(!Path::new(&out).exists(), "nothing written");
    }

    #[test]
    fn inspect_requires_engine_and_catches_typos() {
        let msg = cmd_inspect(&parse_args(&[], INSPECT.flags))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("--engine"), "{msg}");
        let a = parse_args(&argv(&["--enigne", "e.thor"]), INSPECT.flags);
        let msg = check_options("inspect", &a, &INSPECT)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("did you mean `--engine`?"), "{msg}");
    }
}
