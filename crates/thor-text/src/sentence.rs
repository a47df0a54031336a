//! Sentence segmentation.
//!
//! Phase ① of the THOR pipeline segments each document into sentences
//! before associating them with subject instances. We use a rule-based
//! segmenter: sentences end at `.`, `!`, `?` or newlines, except when the
//! period belongs to a known abbreviation, an initial (`J. Smith`), or a
//! decimal number. This is the same class of segmenter spaCy's
//! `sentencizer` implements and is sufficient for the generated corpora,
//! which follow natural-prose conventions.

use std::ops::Range;

/// A sentence with its byte span in the source document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence {
    /// The sentence text (trimmed of surrounding whitespace).
    pub text: String,
    /// Byte offset of the sentence start in the document.
    pub start: usize,
    /// Byte offset one past the sentence end in the document.
    pub end: usize,
}

/// Abbreviations after which a period does not end a sentence.
const ABBREVIATIONS: &[&str] = &[
    "dr", "mr", "mrs", "ms", "prof", "sr", "jr", "st", "vs", "etc", "e.g", "i.e", "fig", "al",
    "inc", "ltd", "co", "dept", "univ", "approx", "no",
];

/// Whether the word before a period makes it a non-boundary: a listed
/// abbreviation in any ASCII case, or a single letter (an initial).
fn is_abbreviation(word: &str) -> bool {
    let w = word.trim_end_matches('.');
    ABBREVIATIONS.iter().any(|a| a.eq_ignore_ascii_case(w))
        || (w.len() == 1 && w.chars().all(|c| c.is_alphabetic()))
}

/// The closing punctuation a terminator absorbs: the length in bytes
/// of the closing mark `rest` starts with, if it starts with one.
fn closing_mark(rest: &str) -> Option<usize> {
    match rest.as_bytes().first()? {
        b')' | b'"' | b'\'' | b']' => Some(1),
        _ => rest
            .starts_with('\u{201D}')
            .then_some('\u{201D}'.len_utf8()),
    }
}

/// The byte ranges of the sentences of `doc`, in order, each trimmed of
/// surrounding whitespace and never empty — the one splitting rule.
/// [`split_sentences`] builds owned [`Sentence`]s from it; a caller
/// that only reads the sentences slices `&doc[range]` and allocates
/// nothing per sentence.
///
/// A sentence ends at `!`, `?`, a newline, or a `.` that does not
/// follow an abbreviation or an initial and is not a decimal point.
/// The terminator absorbs a run of closing marks after it: `)`, `"`,
/// `'`, `]` and the right double quotation mark `”`.
///
/// ```
/// use thor_text::sentence_spans;
/// let doc = "Tuberculosis damages the lungs.  It can be fatal.";
/// let spans: Vec<&str> = sentence_spans(doc).map(|r| &doc[r]).collect();
/// assert_eq!(spans, ["Tuberculosis damages the lungs.", "It can be fatal."]);
/// ```
pub fn sentence_spans(doc: &str) -> SentenceSpans<'_> {
    SentenceSpans { doc, pos: 0 }
}

/// Iterator returned by [`sentence_spans`].
#[derive(Debug, Clone)]
pub struct SentenceSpans<'a> {
    doc: &'a str,
    /// Start of the next sentence, untrimmed.
    pos: usize,
}

impl SentenceSpans<'_> {
    /// Whether the terminator candidate at byte `i` ends a sentence.
    fn is_boundary(&self, i: usize) -> bool {
        let (doc, bytes) = (self.doc, self.doc.as_bytes());
        match bytes[i] {
            // Blank line or single newline both end a sentence (the
            // generated corpora are one-sentence-per-line friendly).
            b'!' | b'?' | b'\n' => true,
            b'.' => {
                // Look back at the word containing the period. The
                // preceding whitespace may be multi-byte (NBSP etc.), so
                // advance by its UTF-8 length, not by 1.
                let word_start = doc[..i]
                    .rfind(|ch: char| ch.is_whitespace())
                    .map(|p| {
                        p + doc[p..]
                            .chars()
                            .next()
                            .expect("rfind hit a char")
                            .len_utf8()
                    })
                    .unwrap_or(0);
                let next_is_digit = bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                let prev_is_digit = i > 0 && bytes[i - 1].is_ascii_digit();
                // A decimal like `12.5`: digit on both sides.
                let decimal = prev_is_digit && next_is_digit;
                !(is_abbreviation(&doc[word_start..i]) || decimal)
            }
            _ => false,
        }
    }
}

impl Iterator for SentenceSpans<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let doc = self.doc;
        while self.pos < doc.len() {
            let start = self.pos;
            let rest = &doc.as_bytes()[start..];
            // Terminators are ASCII, so every candidate is a char
            // boundary.
            let mut end = rest
                .iter()
                .enumerate()
                .filter(|&(_, b)| matches!(b, b'!' | b'?' | b'\n' | b'.'))
                .map(|(at, _)| start + at)
                .find(|&i| self.is_boundary(i))
                .map_or(doc.len(), |i| i + 1);
            // Absorb any run of closing punctuation after the terminator.
            while let Some(len) = closing_mark(&doc[end..]) {
                end += len;
            }
            self.pos = end;
            let raw = &doc[start..end];
            let trimmed = raw.trim_start();
            let lead = raw.len() - trimmed.len();
            let trimmed = trimmed.trim_end();
            if !trimmed.is_empty() {
                return Some(start + lead..start + lead + trimmed.len());
            }
        }
        None
    }
}

/// Split `doc` into owned [`Sentence`]s: [`sentence_spans`] with each
/// span's text copied out.
///
/// ```
/// use thor_text::split_sentences;
/// let s = split_sentences("Tuberculosis damages the lungs. It can be fatal.");
/// assert_eq!(s.len(), 2);
/// assert_eq!(s[0].text, "Tuberculosis damages the lungs.");
/// ```
pub fn split_sentences(doc: &str) -> Vec<Sentence> {
    sentence_spans(doc)
        .map(|r| Sentence {
            text: doc[r.clone()].to_string(),
            start: r.start,
            end: r.end,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_doc() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   \n\n  ").is_empty());
    }

    #[test]
    fn single_sentence_no_terminator() {
        let s = split_sentences("Tuberculosis damages the lungs");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].text, "Tuberculosis damages the lungs");
    }

    #[test]
    fn multiple_sentences() {
        let doc = "Acoustic neuroma is a tumor. It grows slowly. Treatment exists!";
        let s = split_sentences(doc);
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].text, "It grows slowly.");
        assert_eq!(s[2].text, "Treatment exists!");
    }

    #[test]
    fn abbreviation_not_a_boundary() {
        let s = split_sentences("Dr. Smith treated the patient. The patient recovered.");
        assert_eq!(s.len(), 2);
        assert!(s[0].text.starts_with("Dr. Smith"));
    }

    #[test]
    fn decimal_not_a_boundary() {
        let s = split_sentences("The dose is 12.5 mg per day. Take it twice.");
        assert_eq!(s.len(), 2);
        assert!(s[0].text.contains("12.5"));
    }

    #[test]
    fn newline_is_a_boundary() {
        let s = split_sentences("First line\nSecond line");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].text, "First line");
        assert_eq!(s[1].text, "Second line");
    }

    #[test]
    fn spans_point_into_document() {
        let doc = "One sentence here. Another one follows? Yes.";
        for s in split_sentences(doc) {
            assert_eq!(&doc[s.start..s.end], s.text);
        }
    }

    #[test]
    fn closing_quote_absorbed() {
        let s = split_sentences("He said \"stop.\" Then he left.");
        assert_eq!(s.len(), 2);
        assert!(s[0].text.ends_with('"'));
    }

    #[test]
    fn closing_curly_quote_absorbed() {
        let s = split_sentences("He said \u{201C}stop.\u{201D} Then he left.");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].text, "He said \u{201C}stop.\u{201D}");
        assert_eq!(s[1].text, "Then he left.");
        // A run of closing marks, curly and straight, goes with it.
        let s = split_sentences("(He said \u{201C}stop!\u{201D}) Then.");
        assert_eq!(s[0].text, "(He said \u{201C}stop!\u{201D})");
    }

    #[test]
    fn abbreviations_match_in_any_ascii_case() {
        for doc in [
            "Dr. Smith came. Then.",
            "DR. Smith came. Then.",
            "E.G. this. Then.",
        ] {
            assert_eq!(split_sentences(doc).len(), 2, "{doc:?}");
        }
    }

    #[test]
    fn multibyte_whitespace_before_period() {
        // U+00A0 no-break space directly before a period-terminated word
        // used to slice mid-character.
        let s = split_sentences("One\u{a0}word. Two.");
        assert_eq!(s.len(), 2);
        for sent in &s {
            assert!(!sent.text.is_empty());
        }
        // Single letters after NBSP read as initials (no boundary) but
        // must not panic either.
        let s = split_sentences("One\u{a0}b. Two.");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn question_and_exclamation() {
        let s = split_sentences("Is it serious? Yes! See a doctor.");
        assert_eq!(s.len(), 3);
    }
}
