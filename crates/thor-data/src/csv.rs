//! CSV serialization for tables.
//!
//! Artifacts (generated tables, enriched outputs) are written as RFC-4180
//! CSV: the header row is the schema, each body row is one subject, and
//! multi-valued cells join their values with `|`. A `|` or `\` inside a
//! value is written `\|` or `\\`, so every value reads back whole; a
//! table whose values hold neither renders as plain joined values. A
//! labeled null ⊥ is an empty field. A field holding a comma, quote,
//! `\n` or `\r` is quoted, and the parser reads such quoted fields back
//! verbatim.

use std::borrow::Cow;

use thor_text::normalize_phrase;

use crate::schema::{Concept, Schema};
use crate::table::Table;

/// Multi-value separator inside one CSV field.
pub const VALUE_SEPARATOR: char = '|';

/// Escape inside a value: it precedes a [`VALUE_SEPARATOR`] or a
/// `VALUE_ESCAPE` that belongs to the value. Before any other character
/// it is read as itself.
pub const VALUE_ESCAPE: char = '\\';

/// Render one CSV record, newline-terminated. Each field is a list of
/// values joined with [`VALUE_SEPARATOR`], each separator or escape
/// inside a value preceded by [`VALUE_ESCAPE`]; a field holding a comma,
/// quote, `\n` or `\r` is quoted, with its quotes doubled.
pub(crate) fn render_row<'a, V>(fields: impl Iterator<Item = V>) -> String
where
    V: Iterator<Item = &'a str> + Clone,
{
    let mut line = String::new();
    for (i, values) in fields.enumerate() {
        if i > 0 {
            line.push(',');
        }
        let quoted = values.clone().any(|v| v.contains([',', '"', '\n', '\r']));
        if quoted {
            line.push('"');
        }
        for (j, value) in values.enumerate() {
            if j > 0 {
                line.push(VALUE_SEPARATOR);
            }
            if !value.contains([VALUE_SEPARATOR, VALUE_ESCAPE, '"']) {
                line.push_str(value);
                continue;
            }
            for c in value.chars() {
                match c {
                    VALUE_SEPARATOR | VALUE_ESCAPE => line.push(VALUE_ESCAPE),
                    '"' if quoted => line.push('"'),
                    _ => {}
                }
                line.push(c);
            }
        }
        if quoted {
            line.push('"');
        }
    }
    line.push('\n');
    line
}

/// Serialize a table to CSV text: the header, then each row's memoized
/// line (rows shared with an already-rendered table are not re-rendered).
pub fn to_csv(table: &Table) -> String {
    let header = render_row(
        table
            .schema()
            .concepts()
            .iter()
            .map(|c| std::iter::once(c.name())),
    );
    let rows = table.rows();
    let len = header.len() + rows.iter().map(|r| r.csv_line().len()).sum::<usize>();
    let mut out = String::with_capacity(len);
    out.push_str(&header);
    for row in rows {
        out.push_str(row.csv_line());
    }
    out
}

/// Error produced when parsing CSV into a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input had no header row.
    MissingHeader,
    /// A row had a different number of fields than the header.
    ArityMismatch {
        /// 1-based line number of the offending record.
        line: usize,
        /// Expected field count (header arity).
        expected: usize,
        /// Actual field count.
        got: usize,
    },
    /// A record's subject field was empty, or held only punctuation and
    /// whitespace (its normalized key, which rows are indexed by, is
    /// empty).
    EmptySubject {
        /// 1-based line number of the offending record.
        line: usize,
    },
    /// Unterminated quoted field.
    UnterminatedQuote,
    /// Two header columns name the same concept (names compare
    /// case-insensitively).
    DuplicateConcept {
        /// 1-based position of the earlier column.
        first: usize,
        /// 1-based position of the later column.
        second: usize,
        /// The later column's name.
        name: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::MissingHeader => write!(f, "missing header row"),
            CsvError::ArityMismatch {
                line,
                expected,
                got,
            } => {
                write!(f, "record {line}: expected {expected} fields, got {got}")
            }
            CsvError::EmptySubject { line } => write!(f, "record {line}: empty subject"),
            CsvError::UnterminatedQuote => write!(f, "unterminated quoted field"),
            CsvError::DuplicateConcept {
                first,
                second,
                name,
            } => write!(
                f,
                "header columns {first} and {second} name the same concept `{name}`"
            ),
        }
    }
}

impl std::error::Error for CsvError {}

/// One field being assembled: nothing yet, a span of the input, or an
/// owned copy once quoting or a dropped `\r` breaks the span.
enum Field {
    Empty,
    Span(usize, usize),
    Owned(String),
}

impl Field {
    /// Append `text[start..end]`.
    fn push(&mut self, text: &str, start: usize, end: usize) {
        if start == end {
            return;
        }
        *self = match std::mem::replace(self, Field::Empty) {
            Field::Empty => Field::Span(start, end),
            Field::Span(a, b) if b == start => Field::Span(a, end),
            Field::Span(a, b) => Field::Owned([&text[a..b], &text[start..end]].concat()),
            Field::Owned(mut s) => {
                s.push_str(&text[start..end]);
                Field::Owned(s)
            }
        };
    }

    fn is_empty(&self) -> bool {
        matches!(self, Field::Empty)
    }

    fn take<'a>(&mut self, text: &'a str) -> Cow<'a, str> {
        match std::mem::replace(self, Field::Empty) {
            Field::Empty => Cow::Borrowed(""),
            Field::Span(a, b) => Cow::Borrowed(&text[a..b]),
            Field::Owned(s) => Cow::Owned(s),
        }
    }
}

/// Split CSV text into records of fields (RFC-4180 quoting), handing
/// each record to `visit` as it ends, in one reused buffer. A field
/// borrows `text` unless quoting or a dropped `\r` changed it. An
/// unterminated quote is an error once every record before it has been
/// visited.
///
/// Outside quotes, `"` opens a quoted run, `,` ends the field, `\n`
/// ends the record and `\r` is dropped; inside, `""` is one quote and
/// `"` closes the run. Every special byte is ASCII, so each span ends
/// on a character boundary.
fn for_each_record<'a>(
    text: &'a str,
    mut visit: impl FnMut(&[Cow<'a, str>]),
) -> Result<(), CsvError> {
    if text.is_empty() {
        return Err(CsvError::MissingHeader);
    }
    let bytes = text.as_bytes();
    let mut record = Vec::new();
    let mut field = Field::Empty;
    let special = |b: &u8| matches!(b, b'"' | b',' | b'\r' | b'\n');
    let mut i = 0;
    while i < bytes.len() {
        let end = bytes[i..]
            .iter()
            .position(special)
            .map_or(bytes.len(), |k| i + k);
        field.push(text, i, end);
        let Some(&b) = bytes.get(end) else { break };
        i = end + 1;
        match b {
            b'"' => loop {
                let Some(k) = bytes[i..].iter().position(|&b| b == b'"') else {
                    return Err(CsvError::UnterminatedQuote);
                };
                let quote = i + k;
                field.push(text, i, quote);
                if bytes.get(quote + 1) == Some(&b'"') {
                    field.push(text, quote, quote + 1);
                    i = quote + 2;
                } else {
                    i = quote + 1;
                    break;
                }
            },
            b',' => record.push(field.take(text)),
            b'\n' => {
                record.push(field.take(text));
                visit(&record);
                record.clear();
            }
            _ => {} // `\r` outside quotes
        }
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field.take(text));
        visit(&record);
    }
    Ok(())
}

/// One value with its escapes resolved: `\|` and `\\` stand for the
/// second character, any other `\` for itself. A value without an
/// escape is borrowed.
fn unescape(value: &str) -> Cow<'_, str> {
    if !value.contains(VALUE_ESCAPE) {
        return Cow::Borrowed(value);
    }
    let mut out = String::with_capacity(value.len());
    let mut chars = value.chars().peekable();
    while let Some(c) = chars.next() {
        if c == VALUE_ESCAPE {
            if let Some(&next @ (VALUE_SEPARATOR | VALUE_ESCAPE)) = chars.peek() {
                chars.next();
                out.push(next);
                continue;
            }
        }
        out.push(c);
    }
    Cow::Owned(out)
}

/// The values of one multi-valued field: split at each
/// [`VALUE_SEPARATOR`] that no [`VALUE_ESCAPE`] precedes, escapes
/// resolved.
fn split_values(field: &str) -> impl Iterator<Item = Cow<'_, str>> {
    let mut rest = Some(field);
    std::iter::from_fn(move || {
        let text = rest?;
        // Both marks are ASCII, so no byte of a multi-byte character
        // matches either.
        let mut escaped = false;
        let end = text.bytes().position(|b| {
            let separator = b == VALUE_SEPARATOR as u8 && !escaped;
            escaped = b == VALUE_ESCAPE as u8 && !escaped;
            separator
        });
        rest = end.map(|end| &text[end + 1..]);
        Some(unescape(&text[..end.unwrap_or(text.len())]))
    })
}

/// Validate one body record against the header and insert it into the
/// table. Shared by the strict and lenient parsers.
fn insert_record(table: &mut Table, record: &[Cow<'_, str>], line: usize) -> Result<(), CsvError> {
    let arity = table.schema().arity();
    if record.len() != arity {
        return Err(CsvError::ArityMismatch {
            line,
            expected: arity,
            got: record.len(),
        });
    }
    let subject = unescape(&record[0]);
    let subject_value = subject.trim();
    let key = normalize_phrase(subject_value);
    if key.is_empty() {
        return Err(CsvError::EmptySubject { line });
    }
    let ri = table.row_for_key(subject_value, key);
    // Header column `ci` is schema concept `ci`: `parse_header` keeps
    // the column order and rejects names that would alias. Each value
    // goes in as `Table::fill_slot` would put it; the parsed table
    // shares no row, so the row is borrowed once per record.
    let row = table.row_mut(ri);
    for (ci, field) in record.iter().enumerate().skip(1) {
        let cell = row.cell_mut(ci);
        for value in split_values(field) {
            let v = value.trim();
            if !v.is_empty() && !cell.contains(v) {
                cell.insert_new(v);
            }
        }
    }
    Ok(())
}

/// Reject duplicate concepts in the header record and return the empty
/// table its schema describes (the first column is the subject).
fn parse_header(names: &[Cow<'_, str>]) -> Result<Table, CsvError> {
    if names.iter().all(|n| n.is_empty()) {
        return Err(CsvError::MissingHeader);
    }
    let names: Vec<Cow<'_, str>> = names.iter().map(|n| unescape(n)).collect();
    let concepts: Vec<Concept> = names.iter().map(|n| Concept::new(n.as_ref())).collect();
    for (second, c) in concepts.iter().enumerate() {
        if let Some(first) = concepts[..second].iter().position(|p| p == c) {
            return Err(CsvError::DuplicateConcept {
                first: first + 1,
                second: second + 1,
                name: c.name().to_string(),
            });
        }
    }
    Ok(Table::new(Schema::new(concepts, &names[0])))
}

/// Build the table `text` describes, record by record: the header
/// record makes the table and each body record goes in as it is split
/// off. A malformed body row goes to `rejected` with its 1-based record
/// number, which ends the parse by returning an error or lets it carry
/// on. Stream-level errors (no header, an unterminated quote) win over
/// any row's, as they did when the records were split before any was
/// inserted.
fn parse_table(
    text: &str,
    mut rejected: impl FnMut(usize, CsvError) -> Result<(), CsvError>,
) -> Result<Table, CsvError> {
    let mut table: Result<Option<Table>, CsvError> = Ok(None);
    let mut line = 0;
    for_each_record(text, |record| {
        line += 1;
        match &mut table {
            Err(_) => {}
            Ok(None) => table = parse_header(record).map(Some),
            Ok(Some(t)) => {
                if let Err(e) = insert_record(t, record, line).or_else(|e| rejected(line, e)) {
                    table = Err(e);
                }
            }
        }
    })?;
    table?.ok_or(CsvError::MissingHeader)
}

/// Parse CSV text into a table. The first header column is taken as the
/// subject concept.
pub fn from_csv(text: &str) -> Result<Table, CsvError> {
    parse_table(text, |_, error| Err(error))
}

/// A body row the lenient parser skipped, with its reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedRow {
    /// 1-based record number of the offending row.
    pub line: usize,
    /// Why it was rejected.
    pub error: CsvError,
}

/// Result of a lenient parse: the table built from the well-formed rows
/// plus the ledger of skipped ones.
#[derive(Debug, Clone)]
pub struct LenientCsv {
    /// The table assembled from every valid row.
    pub table: Table,
    /// The malformed rows, in input order.
    pub skipped: Vec<SkippedRow>,
}

/// Parse CSV text, quarantining malformed body rows instead of failing
/// the whole parse: a row with the wrong arity or an empty subject is
/// recorded in [`LenientCsv::skipped`] and the parse carries on.
/// Stream-level problems (no header, unterminated quote — which makes
/// the rest of the input one indivisible field) remain hard errors.
pub fn from_csv_lenient(text: &str) -> Result<LenientCsv, CsvError> {
    let mut skipped = Vec::new();
    let table = parse_table(text, |line, error| {
        skipped.push(SkippedRow { line, error });
        Ok(())
    })?;
    Ok(LenientCsv { table, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> Table {
        let mut t = Table::new(Schema::new(
            ["Disease", "Anatomy", "Complication"],
            "Disease",
        ));
        t.fill_slot("Tuberculosis", "Anatomy", "lungs");
        t.fill_slot("Tuberculosis", "Complication", "empyema");
        t.fill_slot("Tuberculosis", "Complication", "meningitis");
        t.row_for_subject("Acne");
        t
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let csv = to_csv(&t);
        let back = from_csv(&csv).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(
            back.column_values("Complication"),
            t.column_values("Complication")
        );
        assert!(back.get_row("Acne").unwrap().cell(1).is_null());
    }

    #[test]
    fn quoting_round_trip() {
        let mut t = Table::new(Schema::new(["Name", "Skills"], "Name"));
        t.fill_slot("Smith, John", "Skills", "C++ \"expert\"");
        let csv = to_csv(&t);
        let back = from_csv(&csv).unwrap();
        assert!(back.get_row("Smith, John").is_some());
        assert_eq!(back.column_values("Skills"), ["C++ \"expert\""]);
    }

    #[test]
    fn multivalue_field_format() {
        let csv = to_csv(&sample());
        assert!(csv.contains("empyema|meningitis"), "{csv}");
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(from_csv("").unwrap_err(), CsvError::MissingHeader);
    }

    #[test]
    fn arity_mismatch_detected() {
        let err = from_csv("A,B\nx\n").unwrap_err();
        assert!(matches!(
            err,
            CsvError::ArityMismatch {
                line: 2,
                expected: 2,
                got: 1
            }
        ));
    }

    #[test]
    fn empty_subject_detected() {
        let err = from_csv("A,B\n,v\n").unwrap_err();
        assert!(matches!(err, CsvError::EmptySubject { line: 2 }));
        // A subject of punctuation normalizes to an empty key.
        let err = from_csv("A,B\nx,v\n... ,v\n").unwrap_err();
        assert!(matches!(err, CsvError::EmptySubject { line: 3 }));
    }

    #[test]
    fn unterminated_quote_detected() {
        assert_eq!(
            from_csv("A,B\n\"oops,v\n").unwrap_err(),
            CsvError::UnterminatedQuote
        );
    }

    #[test]
    fn lenient_parse_quarantines_bad_rows() {
        let text = "A,B\nx,1\nbadrow\n,empty\ny,2\n";
        let lenient = from_csv_lenient(text).unwrap();
        assert_eq!(lenient.table.len(), 2, "good rows survive");
        assert_eq!(lenient.table.column_values("B"), ["1", "2"]);
        assert_eq!(lenient.skipped.len(), 2);
        assert_eq!(lenient.skipped[0].line, 3);
        assert!(matches!(
            lenient.skipped[0].error,
            CsvError::ArityMismatch { got: 1, .. }
        ));
        assert!(matches!(
            lenient.skipped[1].error,
            CsvError::EmptySubject { line: 4 }
        ));
    }

    #[test]
    fn lenient_parse_matches_strict_on_clean_input() {
        let csv = to_csv(&sample());
        let strict = from_csv(&csv).unwrap();
        let lenient = from_csv_lenient(&csv).unwrap();
        assert!(lenient.skipped.is_empty());
        assert_eq!(to_csv(&lenient.table), to_csv(&strict));
    }

    #[test]
    fn lenient_parse_keeps_stream_errors_fatal() {
        assert_eq!(from_csv_lenient("").unwrap_err(), CsvError::MissingHeader);
        assert_eq!(
            from_csv_lenient("A,B\n\"oops,v\n").unwrap_err(),
            CsvError::UnterminatedQuote
        );
    }

    #[test]
    fn carriage_return_in_a_value_round_trips() {
        let t = from_csv("S,A\nx,\"a\rb\"\n").unwrap();
        assert_eq!(t.column_values("A"), ["a\rb"]);
        let csv = to_csv(&t);
        assert_eq!(csv, "S,A\nx,\"a\rb\"\n");
        assert_eq!(to_csv(&from_csv(&csv).unwrap()), csv);
    }

    #[test]
    fn separator_and_escape_in_values_round_trip() {
        let mut t = Table::new(Schema::new(["S|x", "A\\"], "S|x"));
        for value in ["foo|bar", "a\\", "\\|x", "c:\\dir", "\"q|\"", "plain"] {
            t.fill_slot("s|1\\", "A\\", value);
        }
        let csv = to_csv(&t);
        assert_eq!(
            csv,
            concat!(
                r#"S\|x,A\\"#,
                "\n",
                r#"s\|1\\,"""q\|""|\\\|x|a\\|c:\\dir|foo\|bar|plain""#,
                "\n"
            )
        );
        let back = from_csv(&csv).unwrap();
        assert_eq!(to_csv(&back), csv);
        assert_eq!(back.schema().concepts()[0].name(), "S|x");
        let cell = |ci: usize| back.rows()[0].cell(ci).values().collect::<Vec<_>>();
        assert_eq!(cell(0), ["s|1\\"]);
        assert_eq!(
            cell(1),
            ["\"q|\"", "\\|x", "a\\", "c:\\dir", "foo|bar", "plain"]
        );
    }

    #[test]
    fn unescaped_separators_split_and_a_lone_escape_is_literal() {
        let t = from_csv(concat!("S,A\n", r"x,a|b\c|\|d\\|e\", "\n")).unwrap();
        let values: Vec<&str> = t.rows()[0].cell(1).values().collect();
        assert_eq!(values, ["a", "b\\c", "e\\", "|d\\"]);
    }

    #[test]
    fn duplicate_header_concepts_are_a_named_error() {
        let dup = CsvError::DuplicateConcept {
            first: 2,
            second: 3,
            name: "anatomy".to_string(),
        };
        let text = "Disease,Anatomy,anatomy\nflu,lungs,nose\n";
        assert_eq!(from_csv(text).unwrap_err(), dup);
        assert_eq!(from_csv_lenient(text).unwrap_err(), dup);
        assert_eq!(
            dup.to_string(),
            "header columns 2 and 3 name the same concept `anatomy`"
        );
        // The subject column counts too, and so do empty names.
        assert!(matches!(
            from_csv("S,A,s\n").unwrap_err(),
            CsvError::DuplicateConcept {
                first: 1,
                second: 3,
                ..
            }
        ));
        assert!(matches!(
            from_csv("S,,\n").unwrap_err(),
            CsvError::DuplicateConcept {
                first: 2,
                second: 3,
                ..
            }
        ));
    }

    #[test]
    fn crlf_accepted() {
        let t = from_csv("A,B\r\nx,y\r\n").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.column_values("B"), ["y"]);
    }
}
