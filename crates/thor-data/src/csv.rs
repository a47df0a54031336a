//! CSV serialization for tables.
//!
//! Artifacts (generated tables, enriched outputs) are written as RFC-4180
//! CSV: the header row is the schema, each body row is one subject, and
//! multi-valued cells join their values with `|`. A labeled null ⊥ is an
//! empty field. A field holding a comma, quote, `\n` or `\r` is quoted,
//! and the parser reads such quoted fields back verbatim.

use crate::schema::Schema;
use crate::table::Table;

/// Multi-value separator inside one CSV field.
pub const VALUE_SEPARATOR: char = '|';

/// Render one CSV record, newline-terminated. Each field is a list of
/// values joined with [`VALUE_SEPARATOR`]; a field holding a comma,
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
            if quoted {
                line.push_str(&value.replace('"', "\"\""));
            } else {
                line.push_str(value);
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
    /// A record's subject field was empty.
    EmptySubject {
        /// 1-based line number of the offending record.
        line: usize,
    },
    /// Unterminated quoted field.
    UnterminatedQuote,
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
        }
    }
}

impl std::error::Error for CsvError {}

/// Split CSV text into records of fields (RFC-4180 quoting).
fn parse_records(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
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
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
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

/// Validate one body record against the header and insert it into the
/// table. Shared by the strict and lenient parsers.
fn insert_record(
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
    let subject_value = record[0].trim();
    if subject_value.is_empty() {
        return Err(CsvError::EmptySubject { line });
    }
    table.row_for_subject(subject_value);
    for (ci, field) in record.iter().enumerate().skip(1) {
        for value in field.split(VALUE_SEPARATOR) {
            let v = value.trim();
            if !v.is_empty() {
                table.fill_slot(subject_value, header[ci].as_str(), v);
            }
        }
    }
    Ok(())
}

fn parse_header(records: &mut std::vec::IntoIter<Vec<String>>) -> Result<Vec<String>, CsvError> {
    let header = records.next().ok_or(CsvError::MissingHeader)?;
    if header.is_empty() || header.iter().all(String::is_empty) {
        return Err(CsvError::MissingHeader);
    }
    Ok(header)
}

/// Parse CSV text into a table. The first header column is taken as the
/// subject concept.
pub fn from_csv(text: &str) -> Result<Table, CsvError> {
    let mut iter = parse_records(text)?.into_iter();
    let header = parse_header(&mut iter)?;
    let schema = Schema::new(header.clone(), &header[0]);
    let mut table = Table::new(schema);
    for (i, record) in iter.enumerate() {
        insert_record(&mut table, &header, &record, i + 2)?;
    }
    Ok(table)
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
    let mut iter = parse_records(text)?.into_iter();
    let header = parse_header(&mut iter)?;
    let schema = Schema::new(header.clone(), &header[0]);
    let mut table = Table::new(schema);
    let mut skipped = Vec::new();
    for (i, record) in iter.enumerate() {
        let line = i + 2;
        if let Err(error) = insert_record(&mut table, &header, &record, line) {
            skipped.push(SkippedRow { line, error });
        }
    }
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
    fn crlf_accepted() {
        let t = from_csv("A,B\r\nx,y\r\n").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.column_values("B"), ["y"]);
    }
}
