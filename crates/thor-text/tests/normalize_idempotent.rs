//! `normalize_phrase` is idempotent: its output is already in normal
//! form, so normalizing it again changes nothing. Seed instances and
//! subject names are embedded from their normalized key without a
//! second normalization, which relies on this.
//!
//! Unicode lowercasing is where it could fail: it depends on context
//! (a word-final `Σ` becomes `ς`), changes length (`İ` becomes
//! `i̇`), or lands in ASCII (the Kelvin sign becomes `k`). Whitespace
//! is split on Unicode's definition, which includes the no-break
//! space, U+0085 and the vertical tab.

use proptest::prelude::*;

use thor_text::normalize_phrase;

fn assert_idempotent(s: &str) {
    let once = normalize_phrase(s);
    assert_eq!(normalize_phrase(&once), once, "input {s:?}");
}

/// Building blocks around the awkward cases: cased and uncased Greek
/// with a final sigma, dotted capital I, capital sharp s, the titlecase
/// digraph ǅ, the Kelvin sign, Unicode-only whitespace, outer
/// punctuation, and the marks `fold_token` keeps or strips at a word's
/// edges (`_` is stripped, `-` and `'` are kept).
const PIECES: &[&str] = &[
    "a", "A", "Lungs", "ΟΔΟΣ", "Σ", "σ", "ς", "ΑΣ.", "İ", "i\u{307}", "ẞ", "ß", "ǅ", "ǆ", "ǈ",
    "\u{212A}", "K", " ", "\u{A0}", "\u{85}", "\u{0B}", "\t", "\n", "_", "-", "'", "__a_", "-b-",
    "'c'", ".", ",", "(", ")", "...", "é", "É", "\u{301}", "中",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn printable_strings_normalize_to_a_fixed_point(s in "\\PC*") {
        assert_idempotent(&s);
    }

    #[test]
    fn awkward_pieces_normalize_to_a_fixed_point(
        idx in prop::collection::vec(0usize..PIECES.len(), 0..12),
    ) {
        let s: String = idx.iter().map(|&i| PIECES[i]).collect();
        assert_idempotent(&s);
    }

    #[test]
    fn arbitrary_scalars_normalize_to_a_fixed_point(
        cps in prop::collection::vec(0u32..0x11_0000, 0..12),
        glue in prop::collection::vec(0usize..PIECES.len(), 12),
    ) {
        let mut s = String::new();
        for (cp, &g) in cps.iter().zip(&glue) {
            s.extend(char::from_u32(*cp));
            s.push_str(PIECES[g]);
        }
        assert_idempotent(&s);
    }
}

#[test]
fn every_scalar_value_normalizes_to_a_fixed_point() {
    for c in (0..0x11_0000u32).filter_map(char::from_u32) {
        for s in [
            format!("{c}"),
            format!("A{c}"),
            format!("{c}Σ"),
            format!("Σ{c}x"),
        ] {
            assert_idempotent(&s);
        }
    }
}

#[test]
fn awkward_fixed_cases_normalize_to_a_fixed_point() {
    for (input, want) in [
        ("ΟΔΟΣ", "οδος"),
        ("ΑΣ. ΣΑΣ", "ας σας"),
        ("İSTANBUL", "i\u{307}stanbul"),
        ("STRAẞE", "straße"),
        ("ǅemal", "ǆemal"),
        ("\u{212A}elvin", "kelvin"),
        ("a\u{A0}b", "a b"),
        ("a\u{85}b", "a b"),
        ("a\u{0B}b", "a b"),
        ("_lungs_", "lungs"),
        ("-lungs-", "-lungs-"),
        ("'lungs'", "'lungs'"),
        ("(_a-b'c_).", "a-b'c"),
    ] {
        assert_eq!(normalize_phrase(input), want, "{input:?}");
        assert_idempotent(input);
    }
}
