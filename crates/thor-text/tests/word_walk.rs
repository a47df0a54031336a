//! The one-pass front end against the functions it replaced.
//!
//! [`sentence_spans`] is checked against [`split_sentences`] and
//! against a test-local copy of the splitter loop the spans came from.
//! A [`WordWalk`] over each sentence must give [`token_spans`]'s
//! tokens, each token's [`with_lowercase`] form, and normalized words
//! that join to [`normalize_phrase`] of the sentence.
//!
//! The one intended difference: the old loop compared a single byte
//! with the right double quotation mark `”`, three bytes in UTF-8, so it
//! never absorbed one after a terminator. The oracle below absorbs it,
//! as [`sentence_spans`] now does; `the_old_rule_left_curly_quotes_behind`
//! shows the old behaviour.
//!
//! Inputs mix ASCII case, the Unicode lowercasing edge cases (`ΟΔΟΣ`'s
//! final sigma, `İ`, `ẞ`, the titlecase `ǅ`, the Kelvin sign that
//! lowercases to ASCII `k`), NBSP, vertical tab and U+0085 whitespace,
//! `_`, `-` and `'` at chunk edges (the token and normalizer trims
//! differ on `_` and control characters), control characters, non-ASCII
//! punctuation, words around the 32-byte stack-lowercase limit, and the
//! splitter's terminators, abbreviations, decimals and closing marks.

use proptest::prelude::*;
use thor_text::{
    normalize_phrase, sentence_spans, split_sentences, token_spans, with_lowercase, WordWalk,
};

/// The splitter loop [`sentence_spans`] came from, with the closing
/// `”` absorbed: `(text, start, end)` per sentence.
fn reference_sentences(doc: &str, absorb_curly: bool) -> Vec<(String, usize, usize)> {
    const ABBREVIATIONS: &[&str] = &[
        "dr", "mr", "mrs", "ms", "prof", "sr", "jr", "st", "vs", "etc", "e.g", "i.e", "fig", "al",
        "inc", "ltd", "co", "dept", "univ", "approx", "no",
    ];
    let is_abbreviation = |word: &str| {
        let w = word.trim_end_matches('.').to_ascii_lowercase();
        ABBREVIATIONS.contains(&w.as_str())
            || (w.len() == 1 && w.chars().all(|c| c.is_alphabetic()))
    };
    let mut sentences = Vec::new();
    let bytes = doc.as_bytes();
    let mut sent_start = 0usize;
    let push = |sentences: &mut Vec<(String, usize, usize)>, start: usize, end: usize| {
        let raw = &doc[start..end];
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return;
        }
        let lead = raw.len() - raw.trim_start().len();
        let trail = raw.len() - raw.trim_end().len();
        sentences.push((trimmed.to_string(), start + lead, end - trail));
    };
    let mut i = 0usize;
    while i < bytes.len() {
        let boundary = match bytes[i] as char {
            '!' | '?' | '\n' => true,
            '.' => {
                let word_start = doc[..i]
                    .rfind(|ch: char| ch.is_whitespace())
                    .map(|p| p + doc[p..].chars().next().unwrap().len_utf8())
                    .unwrap_or(0);
                let word = &doc[word_start..i];
                let next_is_digit = bytes
                    .get(i + 1)
                    .is_some_and(|&b| (b as char).is_ascii_digit());
                let prev_is_digit = i > 0 && (bytes[i - 1] as char).is_ascii_digit();
                !(is_abbreviation(word) || (prev_is_digit && next_is_digit))
            }
            _ => false,
        };
        if boundary {
            let mut end = i + 1;
            loop {
                if end < bytes.len() && matches!(bytes[end] as char, ')' | '"' | '\'' | ']') {
                    end += 1;
                } else if absorb_curly && doc[end..].starts_with('”') {
                    end += '”'.len_utf8();
                } else {
                    break;
                }
            }
            push(&mut sentences, sent_start, end);
            sent_start = end;
            i = end;
            continue;
        }
        i += 1;
    }
    if sent_start < doc.len() {
        push(&mut sentences, sent_start, doc.len());
    }
    sentences
}

/// Every output of the split and the walk for `doc` equals its oracle.
fn assert_walk_matches(doc: &str) {
    let spans: Vec<(String, usize, usize)> = sentence_spans(doc)
        .map(|r| (doc[r.clone()].to_string(), r.start, r.end))
        .collect();
    let owned: Vec<(String, usize, usize)> = split_sentences(doc)
        .into_iter()
        .map(|s| (s.text, s.start, s.end))
        .collect();
    assert_eq!(spans, owned, "split_sentences({doc:?})");
    assert_eq!(
        spans,
        reference_sentences(doc, true),
        "sentence_spans({doc:?})"
    );

    // Each sentence in turn, then the whole text as one range, all in
    // one walk: what a walk records does not depend on what it walked
    // before.
    let mut walk = WordWalk::new();
    walk.start(doc);
    let ranges = sentence_spans(doc).chain(std::iter::once(0..doc.len()));
    for range in ranges {
        let text = &doc[range.clone()];
        let walked = walk.walk(doc, range.clone());
        let tokens: Vec<(usize, usize)> = walked
            .tokens
            .clone()
            .map(|t| (walk.span(t).start, walk.span(t).end))
            .collect();
        let expected: Vec<(usize, usize)> = token_spans(text)
            .map(|r| (range.start + r.start, range.start + r.end))
            .collect();
        assert_eq!(tokens, expected, "tokens of {text:?}");
        for t in walked.tokens.clone() {
            let token = &doc[walk.span(t)];
            with_lowercase(token, |lower| {
                assert_eq!(walk.lower(t), lower, "lowercase of {token:?}")
            });
        }
        let words: Vec<&str> = walked.words.clone().map(|w| walk.word(w)).collect();
        assert!(words.iter().all(|w| !w.is_empty()), "{words:?}");
        assert_eq!(
            words.join(" "),
            normalize_phrase(text),
            "normalized words of {text:?}"
        );
    }
}

/// Fragments a document is glued from.
fn fragments() -> Vec<String> {
    let mut out: Vec<String> = [
        // ASCII words and case
        "lungs",
        "Lungs",
        "LUNGS",
        "Acoustic Neuroma",
        "slow-growing",
        "Alzheimer's",
        "12.5",
        // edges the two trims treat differently, and their neighbours
        "_",
        "__",
        "_lungs_",
        "(_x_)",
        "-lungs-",
        "'lungs'",
        "--",
        "''",
        "-'_",
        "\u{1}lungs\u{7}",
        "\u{1f}",
        "(\u{1})",
        "a\u{7f}b",
        // Unicode lowercasing edge cases
        "ΟΔΟΣ",
        "ΣΟΦΟΣ.",
        "(ΟΔΟΣ)",
        "İ",
        "İstanbul",
        "STRAẞE",
        "ǅemal",
        "\u{212A}",
        "\u{212A}NOWS",
        "THE\u{212A}",
        "NAÏVE",
        // punctuation, ASCII and not
        ".",
        "!",
        "?",
        ",",
        "(lungs).",
        "end.)",
        "\"stop.\"",
        "“stop.”",
        "stop!”)",
        "”",
        "—",
        "«lungs»",
        "¿Qué?",
        "…",
        "’s",
        // the splitter's non-boundaries
        "Dr.",
        "DR.",
        "e.g.",
        "J.",
        "\u{a0}b.",
        "3.14",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Around the 32-byte stack buffer: lower, capitalized and upper
    // ASCII, and a non-ASCII word of the same lengths.
    for len in [31, 32, 33] {
        out.push("s".repeat(len));
        out.push(format!("S{}", "s".repeat(len - 1)));
        out.push("LY".repeat(len / 2 + 1)[..len].to_string());
        out.push(format!("Ä{}", "s".repeat(len - 2)));
    }
    out
}

/// Separators between fragments: the empty one glues two fragments
/// into one chunk; the rest are ASCII and non-ASCII whitespace.
const SEPARATORS: &[&str] = &[
    " ", " ", " ", "", "", "  ", "\t", "\n", "\u{0b}", "\u{0c}", "\r", "\u{85}", "\u{a0}",
    "\u{2003}", ". ", "! ",
];

/// Text glued from `fragments()` and `SEPARATORS`.
fn glued_text() -> impl Strategy<Value = String> {
    let pool = fragments();
    let n = pool.len();
    prop::collection::vec((0..n, 0..SEPARATORS.len()), 0..40).prop_map(move |picks| {
        let mut text = String::new();
        for (f, s) in picks {
            text.push_str(&pool[f]);
            text.push_str(SEPARATORS[s]);
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn glued_text_walks_like_the_functions_it_replaced(doc in glued_text()) {
        assert_walk_matches(&doc);
    }

    #[test]
    fn arbitrary_text_walks_like_the_functions_it_replaced(doc in "\\PC{0,200}") {
        assert_walk_matches(&doc);
    }

    #[test]
    fn control_and_whitespace_text_walks_like_the_functions_it_replaced(
        doc in "[a-zA-Z_.'\\-\u{0}-\u{20}\u{85}\u{a0}ΣΟΔİẞǅ\u{212A}”]{0,60}"
    ) {
        assert_walk_matches(&doc);
    }
}

/// Every fragment alone, inside a sentence and glued to its neighbours:
/// the cases the generators reach only by chance.
#[test]
fn every_fragment_walks_like_the_functions_it_replaced() {
    let pool = fragments();
    for (i, fragment) in pool.iter().enumerate() {
        assert_walk_matches(fragment);
        assert_walk_matches(&format!("The {fragment} damages the lungs. It grows."));
        let next = &pool[(i + 1) % pool.len()];
        for sep in SEPARATORS {
            assert_walk_matches(&format!("{fragment}{sep}{next}"));
        }
    }
}

/// The old loop left a closing `”` to start the next sentence; the
/// spans absorb it into the sentence it closes.
#[test]
fn the_old_rule_left_curly_quotes_behind() {
    let doc = "He said “stop.” Then he left.";
    let old: Vec<String> = reference_sentences(doc, false)
        .into_iter()
        .map(|s| s.0)
        .collect();
    assert_eq!(old, ["He said “stop.", "” Then he left."]);
    let new: Vec<&str> = sentence_spans(doc).map(|r| &doc[r]).collect();
    assert_eq!(new, ["He said “stop.”", "Then he left."]);
    // The straight quote was always absorbed.
    let doc = "He said \"stop.\" Then he left.";
    assert_eq!(
        reference_sentences(doc, false),
        reference_sentences(doc, true)
    );
    assert_walk_matches(doc);
}
