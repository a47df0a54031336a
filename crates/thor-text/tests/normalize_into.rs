//! `normalize_phrase_into` is `normalize_phrase` written into a reused
//! buffer: whatever the buffer held before, it ends up holding exactly
//! the per-token `fold_token` normalization, on ASCII and on the
//! non-ASCII characters whose lowercase depends on context, changes
//! length or lands in ASCII.

use proptest::prelude::*;

use thor_text::{fold_token, normalize_phrase, normalize_phrase_into};

/// Building blocks: ASCII words in several cases; whitespace, including
/// the vertical tab (Unicode whitespace, not ASCII whitespace) and a
/// no-break space; outer punctuation and the inner marks `fold_token`
/// keeps; tokens that fold to nothing (`...`, `!?`); final sigma
/// (`ΟΔΟΣ`), dotted capital I (`İ` → `i̇`), sharp s, the Kelvin sign
/// (U+212A → `k`) and accented letters.
const PIECES: &[&str] = &[
    "a", "A", "ab", "Ab", "AB", "Lungs", "k", "K", " ", "  ", "\t", "\n", "\u{0B}", "\u{0C}", ".",
    ",", "-", "'", "(", ")", "!?", "...", "ΟΔΟΣ", "οδος", "Σ", "İ", "i\u{307}", "ß", "\u{212A}",
    "\u{A0}", "é", "É",
];

fn phrase(idx: &[usize]) -> String {
    idx.iter().map(|&i| PIECES[i % PIECES.len()]).collect()
}

/// The per-token definition: fold every whitespace-separated token,
/// drop the empty ones, join with single spaces.
fn reference(phrase: &str) -> String {
    phrase
        .split_whitespace()
        .map(fold_token)
        .filter(|t| !t.is_empty())
        .collect::<Vec<_>>()
        .join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn into_a_dirty_buffer_equals_normalize_phrase(
        a in prop::collection::vec(0usize..64, 0..10),
        dirt in prop::collection::vec(0usize..64, 0..10),
    ) {
        let a = phrase(&a);
        let expected = reference(&a);
        prop_assert_eq!(normalize_phrase(&a), expected.clone(), "{:?}", a);
        // The buffer starts with unrelated text, and is reused for a
        // second, different phrase afterwards.
        let mut buf = phrase(&dirt);
        normalize_phrase_into(&a, &mut buf);
        prop_assert_eq!(&buf, &expected, "{:?}", a);
        let b = format!("{a} ({a}).");
        normalize_phrase_into(&b, &mut buf);
        prop_assert_eq!(&buf, &reference(&b), "{:?}", b);
    }
}

#[test]
fn awkward_cases_fold_per_token() {
    let mut buf = String::from("left over");
    for (input, want) in [
        ("ΟΔΟΣ", "οδος"),
        ("ΟΔΟΣ.", "οδος"),
        ("ΣΑΣ ΟΔΟΣ", "σας οδος"),
        ("İSTANBUL", "i\u{307}stanbul"),
        ("\u{212A}elvin", "kelvin"),
        ("a\u{0B}b", "a b"),
        ("(Lungs), ... !? Brain.", "lungs brain"),
        ("...", ""),
        ("", ""),
    ] {
        normalize_phrase_into(input, &mut buf);
        assert_eq!(buf, want, "{input:?}");
        assert_eq!(normalize_phrase(input), want, "{input:?}");
    }
}
