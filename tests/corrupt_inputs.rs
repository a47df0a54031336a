//! Property tests feeding corrupt inputs through the ingestion layer:
//! truncated/garbage CSV, malformed vector files, and invalid-UTF-8 /
//! garbage documents. The contract under test: parsers never panic,
//! errors name the offending line or byte, lenient mode finishes, and
//! quarantine accounting is *exact* — every injected corruption is
//! counted once and clean inputs are untouched.

use proptest::prelude::*;
use thor_repro::core::{Document, PreparedEngine, ResilientOptions, RunMode, Thor, ThorConfig};
use thor_repro::data::{from_csv, from_csv_lenient};
use thor_repro::embed::{SemanticSpaceBuilder, VectorStore};
use thor_repro::fault::{decode_document, DocumentPolicy, ErrorKind, SectionFile};

/// Serialized engine artifact for the corruption properties, built once.
fn engine_artifact_bytes() -> &'static Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let (thor, table, _) = fixture();
        let engine = thor.prepare(&table);
        let path = scratch_path("seed");
        engine.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    })
}

fn scratch_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "thor-corrupt-{tag}-{}.thorengine",
        std::process::id()
    ))
}

fn clamp_to_char_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// A small enrichment fixture shared by the document properties.
fn fixture() -> (Thor, thor_repro::data::Table, Vec<Document>) {
    let store = SemanticSpaceBuilder::new(16, 7)
        .topic("anatomy")
        .words("anatomy", ["lungs", "brain", "skin", "nerve"])
        .generic_words(["damages", "grows"])
        .build()
        .into_store();
    let mut table = thor_repro::data::Table::new(thor_repro::data::Schema::new(
        ["Disease", "Anatomy"],
        "Disease",
    ));
    table.fill_slot("Tuberculosis", "Anatomy", "lungs");
    table.row_for_subject("Acne");
    let docs = vec![
        Document::new("c0", "Tuberculosis damages the lungs and the brain."),
        Document::new("c1", "Acne grows on the skin."),
        Document::new("c2", "Tuberculosis damages the nerve."),
    ];
    (Thor::new(store, ThorConfig::with_tau(0.6)), table, docs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary text never panics either CSV parser.
    #[test]
    fn arbitrary_text_never_panics_csv(text in "\\PC{0,300}") {
        let _ = from_csv(&text);
        let _ = from_csv_lenient(&text);
    }

    /// Truncating a valid CSV mid-stream (plus trailing junk) never
    /// panics, and lenient parsing accepts everything strict parsing
    /// accepts.
    #[test]
    fn truncated_csv_never_panics(cut in 0usize..110, junk in "\\PC{0,40}") {
        let base = "Disease,Anatomy,Complication\n\
                    Tuberculosis,lungs,empyema\n\
                    Acne,skin,scarring\n\
                    Neuroma,nerve,deafness\n";
        let cut = clamp_to_char_boundary(base, cut);
        let text = format!("{}{junk}", &base[..cut]);
        let strict = from_csv(&text);
        let lenient = from_csv_lenient(&text);
        if strict.is_ok() {
            prop_assert!(lenient.is_ok());
        }
    }

    /// Lenient CSV skips exactly the malformed rows, with their 1-based
    /// line numbers, and keeps every well-formed one.
    #[test]
    fn lenient_csv_skips_exactly_injected_rows(bad_rows in 0usize..6, word in "[a-z]{1,8}") {
        let mut text = String::from("Disease,Anatomy\nTuberculosis,lungs\nAcne,skin\n");
        for i in 0..bad_rows {
            // Arity 4 against a 2-column header.
            text.push_str(&format!("{word}{i},x,y,z\n"));
        }
        let lenient = from_csv_lenient(&text).unwrap();
        prop_assert_eq!(lenient.skipped.len(), bad_rows);
        prop_assert_eq!(lenient.table.len(), 2);
        for (i, row) in lenient.skipped.iter().enumerate() {
            prop_assert_eq!(row.line, 4 + i);
        }
    }

    /// Arbitrary text never panics the vector-file parser.
    #[test]
    fn arbitrary_text_never_panics_vectors(text in "\\PC{0,300}") {
        let _ = VectorStore::from_text(&text);
    }

    /// A corrupted vector row is reported with its 1-based line number.
    #[test]
    fn corrupt_vector_line_is_named(victim in 0usize..4, junk in "[a-z]{2,6}") {
        let mut store = VectorStore::new(3);
        for (i, w) in ["brain", "nerve", "skin", "lungs"].iter().enumerate() {
            store.insert(w, thor_repro::embed::Vector(vec![i as f32, 1.0, 0.0]));
        }
        let mut lines: Vec<String> = store.to_text().lines().map(str::to_string).collect();
        let line_no = victim + 2; // 1-based, after the header
        lines[line_no - 1] = format!("badword\t{junk} {junk}");
        let err = VectorStore::from_text(&lines.join("\n")).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::Parse);
        prop_assert!(
            err.to_string().contains(&format!("line {line_no}")),
            "error `{}` should name line {}", err, line_no
        );
    }

    /// Flipping any single byte of a saved engine artifact makes the
    /// fully-verified load fail with a named error — never a panic,
    /// never a silent success. (Header flips hit the magic/version/
    /// length checks; directory flips hit the directory checksum;
    /// padding flips hit the zero-padding check; payload flips hit the
    /// per-section FNV-1a checksum.)
    #[test]
    fn corrupt_engine_artifact_rejected(pos in 0usize..8192, xor in 1u8..=255) {
        let bytes = engine_artifact_bytes();
        let pos = pos % bytes.len();
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= xor;
        let path = scratch_path("flip");
        std::fs::write(&path, &corrupted).unwrap();
        let err = PreparedEngine::load(&path).unwrap_err();
        let msg = err.to_string();
        prop_assert!(
            msg.contains("artifact") || msg.contains("checksum")
                || msg.contains("truncated") || msg.contains("version")
                || msg.contains("fingerprint") || msg.contains("payload")
                || msg.contains("magic") || msg.contains("padding")
                || msg.contains("section") || msg.contains("digest"),
            "byte {pos}: unnamed error `{msg}`"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Stamping any stale or future container version into the header
    /// is rejected by name — versions 1, 2 and 3 get an explicit
    /// rebuild message, everything else the "unsupported container
    /// version" one. Never a checksum error: version is checked
    /// *before* the header checksum, so the message survives
    /// cross-version header layout changes.
    #[test]
    fn stale_engine_version_rejected_by_name(version in 0u32..1024) {
        let bytes = engine_artifact_bytes();
        if version == thor_repro::core::ENGINE_FORMAT_VERSION {
            // The one version the loader accepts; nothing to reject.
            return;
        }
        let mut stamped = bytes.clone();
        stamped[8..12].copy_from_slice(&version.to_le_bytes());
        let path = scratch_path("stale");
        std::fs::write(&path, &stamped).unwrap();
        let err = PreparedEngine::load(&path).unwrap_err();
        let msg = err.to_string();
        if version == 1 {
            prop_assert!(msg.contains("pre-sectioned"), "v1: `{msg}`");
            prop_assert!(msg.contains("thor build --engine"), "v1: `{msg}`");
        } else if version == 2 {
            prop_assert!(msg.contains("format version 2"), "v2: `{msg}`");
            prop_assert!(msg.contains("thor build --engine"), "v2: `{msg}`");
        } else if version == 3 {
            prop_assert!(msg.contains("format version 3"), "v3: `{msg}`");
            prop_assert!(msg.contains("thor build --engine"), "v3: `{msg}`");
        } else {
            prop_assert!(
                msg.contains(&format!("unsupported container version {version}")),
                "v{version}: `{msg}`"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Knocking any section's recorded offset off its 64-byte alignment
    /// (or out of bounds) in the directory is rejected by name before
    /// any payload is interpreted. The directory checksum is patched to
    /// match, so this exercises the bounds/alignment layer itself.
    #[test]
    fn misaligned_section_rejected_by_name(victim in 0usize..16, nudge in 1u64..64) {
        let bytes = engine_artifact_bytes();
        let file = SectionFile::from_bytes(bytes.clone()).unwrap();
        let entries = file.entries();
        let victim = victim % entries.len();
        // Locate the victim's offset field inside the directory: each
        // entry is `name (u64 len + bytes), offset u64, len u64,
        // align u32, version u32, checksum u64`.
        let dir_off = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        let mut cursor = dir_off;
        for e in entries.iter().take(victim) {
            cursor += 8 + e.name.len() + 8 + 8 + 4 + 4 + 8;
        }
        let field = cursor + 8 + entries[victim].name.len();
        let mut tampered = bytes.clone();
        let bad = entries[victim].offset + nudge;
        tampered[field..field + 8].copy_from_slice(&bad.to_le_bytes());
        // Re-stamp the directory checksum so only the alignment check fires.
        let dir_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        let sum = thor_repro::fault::fnv1a(&tampered[dir_off..dir_off + dir_len]);
        tampered[32..40].copy_from_slice(&sum.to_le_bytes());
        let hsum = thor_repro::fault::fnv1a(&tampered[..48]);
        tampered[48..56].copy_from_slice(&hsum.to_le_bytes());

        let path = scratch_path("misalign");
        std::fs::write(&path, &tampered).unwrap();
        let err = PreparedEngine::load(&path).unwrap_err();
        let msg = err.to_string();
        prop_assert!(
            msg.contains("align") || msg.contains("bounds") || msg.contains("overlap")
                || msg.contains("order") || msg.contains("padding"),
            "section {victim} nudged by {nudge}: `{msg}`"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Truncating a saved engine artifact anywhere is rejected (short
    /// header or short payload), never a panic.
    #[test]
    fn truncated_engine_artifact_rejected(cut in 0usize..4096) {
        let bytes = engine_artifact_bytes();
        let cut = cut % bytes.len(); // strictly shorter than the file
        let path = scratch_path("cut");
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = PreparedEngine::load(&path).unwrap_err();
        prop_assert!(
            err.to_string().contains("truncated"),
            "cut {cut}: `{}` should say truncated", err
        );
        std::fs::remove_file(&path).ok();
    }

    /// Invalid UTF-8 is rejected by admission control with the exact
    /// byte offset of the first bad sequence.
    #[test]
    fn invalid_utf8_rejected_with_offset(prefix in "[a-z ]{0,40}", suffix in "[a-z ]{0,20}") {
        let mut bytes = prefix.clone().into_bytes();
        let offset = bytes.len();
        bytes.push(0xFF);
        bytes.extend_from_slice(suffix.as_bytes());
        let err = decode_document("doc", &bytes, &DocumentPolicy::default()).unwrap_err();
        prop_assert_eq!(err.kind(), ErrorKind::Validation);
        prop_assert_eq!(err.offset(), Some(offset));
    }

    /// A lenient enrichment run over a corpus with injected garbage
    /// documents finishes, quarantines exactly the garbage, and produces
    /// the same entities as a run over only the clean documents.
    #[test]
    fn lenient_enrich_quarantines_exactly_the_garbage(n_bad in 0usize..4) {
        let (thor, table, clean_docs) = fixture();
        let mut docs = clean_docs.clone();
        for i in 0..n_bad {
            // Control-character soup: parses as UTF-8, rejected by the
            // garbage-ratio admission check.
            docs.push(Document::new(
                format!("gb{i}"),
                "\u{FFFD}\u{0001}\u{FFFD}\u{0002}".to_string(),
            ));
        }
        let opts = ResilientOptions {
            mode: RunMode::Lenient,
            ..ResilientOptions::default()
        };
        let outcome = thor.prepare(&table).enrich_resilient(&docs, &opts).unwrap();
        prop_assert_eq!(outcome.quarantine.len(), n_bad);
        prop_assert_eq!(outcome.processed_docs, docs.len());
        for (i, entry) in outcome.quarantine.entries().iter().enumerate() {
            prop_assert_eq!(entry.doc_id.clone(), format!("gb{i}"));
            prop_assert_eq!(entry.stage.as_str(), "validate");
        }
        let clean = thor.prepare(&table).enrich(&clean_docs);
        prop_assert_eq!(outcome.result.entities, clean.entities);
    }
}

/// A vector file holding `NaN` or an infinity fails `thor build` and
/// `thor enrich` with a parse error naming the line, the word and the
/// value — exit 1, never a panic (101), and no engine or output file.
#[test]
fn non_finite_vectors_fail_the_cli_by_name() {
    let dir = std::env::temp_dir().join(format!("thor-corrupt-nonfinite-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table = dir.join("table.csv");
    std::fs::write(&table, "Disease,Anatomy\nTuberculosis,lungs\n").unwrap();
    let doc = dir.join("d0.txt");
    std::fs::write(&doc, "Tuberculosis damages the lungs.").unwrap();
    for (value, word) in [("NaN", "lungs"), ("inf", "brain"), ("-inf", "damages")] {
        let mut store = VectorStore::new(3);
        for w in ["brain", "damages", "lungs"] {
            store.insert(w, thor_repro::embed::Vector(vec![0.5, 1.0, -0.25]));
        }
        let text = store.to_text().replacen(
            &format!("{word}\t0.5 1 -0.25"),
            &format!("{word}\t0.5 {value} -0.25"),
            1,
        );
        assert!(text.contains(value), "fixture did not inject {value}");
        let line = 1 + text.lines().position(|l| l.starts_with(word)).unwrap();
        let vectors = dir.join("vectors.txt");
        std::fs::write(&vectors, &text).unwrap();

        let engine = dir.join("e.thor");
        let out = dir.join("out.csv");
        let runs = [
            vec![
                "build",
                "--table",
                table.to_str().unwrap(),
                "--vectors",
                vectors.to_str().unwrap(),
                "--tau",
                "0.7",
                "--engine",
                engine.to_str().unwrap(),
            ],
            vec![
                "enrich",
                "--table",
                table.to_str().unwrap(),
                "--vectors",
                vectors.to_str().unwrap(),
                "--tau",
                "0.7",
                "--out",
                out.to_str().unwrap(),
                doc.to_str().unwrap(),
            ],
        ];
        for args in runs {
            let run = std::process::Command::new(env!("CARGO_BIN_EXE_thor"))
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "`thor {}`: {stderr}", args[0]);
            for needle in [
                "error:".to_string(),
                format!("line {line}"),
                format!("`{word}`"),
                format!("non-finite value {value}"),
            ] {
                assert!(
                    stderr.contains(&needle),
                    "`thor {}` stderr lacks {needle:?}: {stderr}",
                    args[0]
                );
            }
            assert!(
                !engine.exists() && !out.exists(),
                "`thor {}` wrote output",
                args[0]
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A table whose header names one concept twice (names compare
/// case-insensitively), or whose subject is only punctuation (an empty
/// row key), fails `thor sparsity`, `thor build` and `thor delta
/// --add-seeds` by name — exit 1, never a panic (101) — and writes
/// nothing.
#[test]
fn malformed_tables_fail_the_cli_by_name() {
    let dir = std::env::temp_dir().join(format!("thor-corrupt-table-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let table = dir.join("table.csv");
    std::fs::write(&table, "Disease,Anatomy\nTuberculosis,lungs\n").unwrap();
    let mut store = VectorStore::new(3);
    for (i, w) in ["brain", "lungs", "nose"].into_iter().enumerate() {
        store.insert(w, thor_repro::embed::Vector(vec![0.5, 1.0, i as f32]));
    }
    let vectors = dir.join("vectors.txt");
    std::fs::write(&vectors, store.to_text()).unwrap();
    let base = dir.join("base.thor");
    let built = std::process::Command::new(env!("CARGO_BIN_EXE_thor"))
        .args(["build", "--table", table.to_str().unwrap()])
        .args(["--vectors", vectors.to_str().unwrap()])
        .args(["--engine", base.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(built.status.success(), "{built:?}");

    let engine = dir.join("e.thor");
    let cases = [
        (
            "dup.csv",
            "Disease,Anatomy,anatomy\nflu,lungs,nose\n",
            ["header columns 2 and 3", "`anatomy`"],
        ),
        (
            "dots.csv",
            "Disease,Anatomy\nflu,lungs\n...,nose\n",
            ["record 3", "empty subject"],
        ),
    ];
    for (name, text, needles) in cases {
        let bad = dir.join(name);
        std::fs::write(&bad, text).unwrap();
        let bad = bad.to_str().unwrap();
        let runs = [
            vec!["sparsity", bad],
            vec![
                "build",
                "--table",
                bad,
                "--vectors",
                vectors.to_str().unwrap(),
                "--engine",
                engine.to_str().unwrap(),
            ],
            vec![
                "delta",
                "--engine",
                base.to_str().unwrap(),
                "--add-seeds",
                bad,
                "--out",
                engine.to_str().unwrap(),
            ],
        ];
        for args in runs {
            let run = std::process::Command::new(env!("CARGO_BIN_EXE_thor"))
                .args(&args)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            let what = format!("`thor {}` on {name}", args[0]);
            assert_eq!(run.status.code(), Some(1), "{what}: {stderr}");
            let prefix = format!("error: {bad}");
            for needle in std::iter::once(prefix.as_str()).chain(needles) {
                assert!(
                    stderr.contains(needle),
                    "{what}: stderr lacks {needle:?}: {stderr}"
                );
            }
            assert!(run.stdout.is_empty(), "{what} wrote to stdout");
            assert!(!engine.exists(), "{what} wrote an engine");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
