//! The byte-scanning table reader against the reader it replaced.
//!
//! `from_csv` and `from_csv_lenient` split records by scanning bytes
//! into borrowed fields and fill cells through indices resolved once
//! per record. The oracle below is the earlier reader: a char-by-char
//! splitter that copies every field, and an insert that resolves
//! subject and concept by name for every value. On any input the two
//! must agree on the table's `to_csv` bytes, on the error (variant and
//! record number) and on the lenient parser's skipped-row ledger.
//!
//! The oracle carries the reader's two intended differences, each
//! where the earlier reader panicked: a header naming one concept twice
//! is `CsvError::DuplicateConcept`, and a subject whose normalized key
//! is empty (only punctuation) is `CsvError::EmptySubject`. Neither
//! reader may panic on any input here.

use proptest::prelude::*;

use thor_data::csv::{from_csv, from_csv_lenient, to_csv, CsvError, SkippedRow, VALUE_SEPARATOR};
use thor_data::{Schema, Table};
use thor_text::normalize_phrase;

/// The char-by-char record splitter the byte scanner replaced.
fn oracle_records(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => record.push(std::mem::take(&mut field)),
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote);
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !any {
        return Err(CsvError::MissingHeader);
    }
    Ok(records)
}

/// The per-value insert: `fill_slot` by subject and concept name.
fn oracle_insert(
    table: &mut Table,
    header: &[String],
    record: &[String],
    line: usize,
) -> Result<(), CsvError> {
    if record.len() != header.len() {
        return Err(CsvError::ArityMismatch {
            line,
            expected: header.len(),
            got: record.len(),
        });
    }
    let subject = record[0].trim();
    if subject.is_empty() {
        return Err(CsvError::EmptySubject { line });
    }
    // Intended difference: `row_for_subject` panics on an empty key.
    if normalize_phrase(subject).is_empty() {
        return Err(CsvError::EmptySubject { line });
    }
    table.row_for_subject(subject);
    for (ci, field) in record.iter().enumerate().skip(1) {
        for value in field.split(VALUE_SEPARATOR) {
            let v = value.trim();
            if !v.is_empty() {
                table.fill_slot(subject, &header[ci], v);
            }
        }
    }
    Ok(())
}

/// The header and an empty table over its schema.
fn oracle_header(
    records: &mut std::vec::IntoIter<Vec<String>>,
) -> Result<(Vec<String>, Table), CsvError> {
    let header = records.next().ok_or(CsvError::MissingHeader)?;
    if header.is_empty() || header.iter().all(String::is_empty) {
        return Err(CsvError::MissingHeader);
    }
    // Intended difference: `Schema::new` panics on a duplicate concept
    // (names equal after `to_lowercase`).
    let keys: Vec<String> = header.iter().map(|n| n.to_lowercase()).collect();
    for (second, key) in keys.iter().enumerate() {
        if let Some(first) = keys[..second].iter().position(|k| k == key) {
            return Err(CsvError::DuplicateConcept {
                first: first + 1,
                second: second + 1,
                name: header[second].clone(),
            });
        }
    }
    let table = Table::new(Schema::new(header.clone(), &header[0]));
    Ok((header, table))
}

fn oracle_from_csv(text: &str) -> Result<Table, CsvError> {
    let mut records = oracle_records(text)?.into_iter();
    let (header, mut table) = oracle_header(&mut records)?;
    for (i, record) in records.enumerate() {
        oracle_insert(&mut table, &header, &record, i + 2)?;
    }
    Ok(table)
}

fn oracle_from_csv_lenient(text: &str) -> Result<(Table, Vec<SkippedRow>), CsvError> {
    let mut records = oracle_records(text)?.into_iter();
    let (header, mut table) = oracle_header(&mut records)?;
    let mut skipped = Vec::new();
    for (i, record) in records.enumerate() {
        let line = i + 2;
        if let Err(error) = oracle_insert(&mut table, &header, &record, line) {
            skipped.push(SkippedRow { line, error });
        }
    }
    Ok((table, skipped))
}

/// Parse `text` with both readers, strict and lenient, and require the
/// same bytes, errors and ledger.
fn assert_readers_agree(text: &str) {
    let strict = from_csv(text).map(|t| to_csv(&t));
    let oracle = oracle_from_csv(text).map(|t| to_csv(&t));
    assert_eq!(strict, oracle, "from_csv on {text:?}");

    let lenient = from_csv_lenient(text).map(|l| (to_csv(&l.table), l.skipped));
    let oracle = oracle_from_csv_lenient(text).map(|(t, s)| (to_csv(&t), s));
    assert_eq!(lenient, oracle, "from_csv_lenient on {text:?}");
}

/// `cow_table.rs`'s awkward lowercasing pieces and bytes CSV must
/// quote, plus the separator, quoted empties and blank lines.
const PIECES: &[&str] = &[
    "a", "A", "k", "K", "i", "ss", "SS", " ", "\t", ".", ",", "-", "ΟΔΟΣ", "οδος", "İ", "i\u{307}",
    "ß", "\u{212A}", "\"", "\n", "\r", "\r\n", "x\"y", "|", "\"\"", "\n\n", "\r\n\r\n", "é",
    "Ärzte", "肺",
];

fn pieces(idx: &[usize]) -> String {
    idx.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

/// One field of a structured record, several values joined by the
/// separator: quoted (mode 0), raw (mode 1), or quoted only when it
/// holds a byte CSV must quote (otherwise).
fn field(values: &[Vec<usize>], mode: usize) -> String {
    let joined: Vec<String> = values.iter().map(|v| pieces(v)).collect();
    let joined = joined.join(&VALUE_SEPARATOR.to_string());
    match mode {
        0 => format!("\"{}\"", joined.replace('"', "\"\"")),
        1 => joined,
        _ => quote_if_needed(&joined),
    }
}

/// A header row, records and line ends: mostly well-formed, with wrong
/// arities, blank lines, CRLF ends and a last record that may lack its
/// newline or end on a quoted empty field.
type Shape = (
    Vec<Vec<usize>>,
    Vec<(Vec<(Vec<Vec<usize>>, usize)>, usize)>,
    usize,
);

fn arb_shape() -> impl Strategy<Value = Shape> {
    let piece = prop::collection::vec(0usize..64, 0..3);
    let value = prop::collection::vec(0usize..64, 0..3);
    let cell = (prop::collection::vec(value, 1..3), 0usize..6);
    (
        prop::collection::vec(piece, 1..5),
        prop::collection::vec((prop::collection::vec(cell, 1..5), 0usize..10), 0..6),
        0usize..4,
    )
}

fn render(shape: &Shape) -> String {
    let (header, rows, tail) = shape;
    let names: Vec<String> = header
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // Mostly distinct ASCII names, sometimes raw pieces that
            // may alias under case folding.
            if p.first().is_some_and(|&x| x % 4 == 0) {
                pieces(p)
            } else {
                format!("C{i}{}", pieces(p))
            }
        })
        .collect();
    let mut text = names
        .iter()
        .map(|n| quote_if_needed(n))
        .collect::<Vec<_>>()
        .join(",");
    text.push('\n');
    for (cells, kind) in rows {
        let mut fields: Vec<String> = cells.iter().map(|(v, mode)| field(v, *mode)).collect();
        // Kind 1 keeps the generated arity; the rest pad or trim to
        // the header's.
        if *kind != 1 {
            fields.resize(names.len(), String::new());
        }
        // A fixed prefix keeps the subject's key non-empty, except for
        // kind 0.
        if *kind != 0 {
            fields[0] = format!("s{}", fields[0]);
        }
        text.push_str(&fields.join(","));
        text.push_str(match kind {
            2 => "\n\n",
            3 => "\r\n\n",
            4 | 5 => "\r\n",
            _ => "\n",
        });
    }
    match tail {
        0 => {}
        1 => {
            // The last record loses its line end.
            while text.ends_with(['\n', '\r']) {
                text.pop();
            }
        }
        2 => text.push_str("s,\"\""),
        _ => text.push_str("\"\""),
    }
    text
}

fn quote_if_needed(name: &str) -> String {
    if name.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", name.replace('"', "\"\""))
    } else {
        name.to_string()
    }
}

#[test]
fn edge_cases_agree() {
    for text in [
        "",
        "\n",
        "\r\n",
        ",",
        "\"\"",
        "A",
        "A\n",
        "A,B",
        "A,B\nx,\"\"",
        "A,B\nx,y",
        "A,B\nx,y\n\n",
        "A,B\n\nx,y\n",
        "A,B\r\nx,y\r\n",
        "A,B\nx,\"a\rb\"\n",
        "A,B\nx,a\rb\n",
        "A,B\nx,\"a\"\"b\"\n",
        "A,B\nx,a\"b,c\"d\n",
        "A,B\nx,\"oops\n",
        "A,B\nx,a|b| |c\n",
        "A,B\nx,\"a|b\"\n",
        "A,B\n\"\",y\n",
        "A,B\n.,y\n",
        "A,a\nx,y\n",
        "A,,\nx,y,z\n",
        "Ärzte,肺\nΟΔΟΣ,οδος\nοδος,ΟΔΟΣ\n",
        "K,\u{212A}\nx,y\n",
        "A,B\nx,y\nx,z\nX,y\n",
        "A,B\nx\ny,1,2\n,v\nz,w\n",
    ] {
        assert_readers_agree(text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Arbitrary runs of pieces: mostly malformed, so this exercises
    /// the splitter, the errors and the ledger.
    #[test]
    fn arbitrary_piece_runs_agree(idx in prop::collection::vec(0usize..64, 0..40)) {
        assert_readers_agree(&pieces(&idx));
    }

    /// Header-and-records texts: mostly tables that parse, with quoted
    /// and multi-valued fields, wrong arities, blank lines and CRLF.
    #[test]
    fn structured_tables_agree(shape in arb_shape()) {
        assert_readers_agree(&render(&shape));
    }
}
