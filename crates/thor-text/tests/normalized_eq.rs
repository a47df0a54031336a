//! `normalized_eq` is `normalize_phrase(a) == normalize_phrase(b)`:
//! its in-place ASCII path and its allocating fallback must agree with
//! the allocating form on every input, including the non-ASCII
//! characters whose lowercase changes length or lands in ASCII.

use proptest::prelude::*;

use thor_text::{normalize_phrase, normalized_eq};

/// Building blocks: ASCII words in several cases, every whitespace and
/// punctuation class `fold_token` treats specially, and non-ASCII
/// letters with awkward lowercasing — final sigma (`ΟΔΟΣ`), dotted
/// capital I (`İ` → `i̇`), sharp s, the Kelvin sign (U+212A → `k`) and
/// a no-break space (Unicode whitespace, not ASCII).
const PIECES: &[&str] = &[
    "a", "A", "ab", "Ab", "AB", "b", "k", "K", "i", "ss", "SS", " ", "  ", "\t", "\n", "\u{0B}",
    "\u{0C}", ".", ",", "-", "'", "(", ")", "!?", "ΟΔΟΣ", "οδος", "İ", "i\u{307}", "ß", "\u{212A}",
    "\u{A0}", "é", "É",
];

fn phrase(idx: &[usize]) -> String {
    idx.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

/// A second phrase related to `a` by `mode`: independent, case-changed
/// or re-punctuated — so equal pairs are common, not accidents.
fn partner(a: &str, other: &str, mode: usize) -> String {
    match mode {
        0 => other.to_string(),
        1 => a.to_uppercase(),
        2 => a.to_lowercase(),
        _ => format!(" ({}) .", a.replace(' ', "\t ")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn agrees_with_the_allocating_form(
        a in prop::collection::vec(0usize..64, 0..8),
        b in prop::collection::vec(0usize..64, 0..8),
        mode in 0usize..4,
    ) {
        let a = phrase(&a);
        let b = partner(&a, &phrase(&b), mode);
        let expected = normalize_phrase(&a) == normalize_phrase(&b);
        prop_assert_eq!(normalized_eq(&a, &b), expected, "a={:?} b={:?}", a, b);
        prop_assert_eq!(normalized_eq(&b, &a), expected, "a={:?} b={:?}", b, a);
    }

    #[test]
    fn ascii_pairs_agree(
        a in prop::collection::vec(0usize..24, 0..10),
        b in prop::collection::vec(0usize..24, 0..10),
        mode in 0usize..4,
    ) {
        // Pieces 0..24 are ASCII: every case takes the in-place path.
        let a = phrase(&a);
        let b = partner(&a, &phrase(&b), mode);
        prop_assert_eq!(
            normalized_eq(&a, &b),
            normalize_phrase(&a) == normalize_phrase(&b),
            "a={:?} b={:?}", a, b
        );
    }
}

#[test]
fn non_ascii_case_folding_matches() {
    assert!(normalized_eq("ΟΔΟΣ", "οδος"));
    assert!(normalized_eq("\u{212A}", "k"));
    assert!(normalized_eq("\u{212A}idney", "KIDNEY"));
    assert!(normalized_eq("İ", "i\u{307}"));
    assert!(!normalized_eq("İ", "i"));
    assert!(!normalized_eq("ß", "ss"));
    assert!(normalized_eq("a\u{A0}b", "A B"));
    assert!(normalized_eq("a\u{0B}b", "a b"));
    assert!(normalized_eq(". , !?", ""));
}
