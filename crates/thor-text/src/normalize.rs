//! Normalization used before comparing phrases and looking up embeddings.
//!
//! THOR compares extracted subphrases against table instances both
//! semantically (via embeddings of normalized words) and syntactically.
//! Both sides must therefore share a canonical form: lowercase, no outer
//! punctuation, collapsed whitespace.

/// Case-fold a single token and strip outer punctuation.
///
/// Inner hyphens/apostrophes survive so that `Slow-Growing` folds to
/// `slow-growing` and `Alzheimer's` to `alzheimer's`.
pub fn fold_token(token: &str) -> String {
    trim_outer_punctuation(token).to_lowercase()
}

/// Whether [`fold_token`] strips `c` from a token's edges: ASCII
/// punctuation other than `-` and `'`.
pub(crate) fn is_outer_punctuation(c: char) -> bool {
    c.is_ascii_punctuation() && c != '-' && c != '\''
}

fn trim_outer_punctuation(token: &str) -> &str {
    token.trim_matches(is_outer_punctuation)
}

/// Longest ASCII word [`with_lowercase`] lowercases on the stack.
const LOWERCASE_BUF: usize = 32;

/// Call `f` with `word.to_lowercase()`, without allocating for short
/// ASCII words — the lowercase key of every case-insensitive word lookup
/// (lexicon, stop-words, HMM emissions).
///
/// An ASCII word without uppercase letters is passed through as is, and
/// one of at most 32 bytes is lowercased into a stack buffer. A longer
/// or non-ASCII word goes through `str::to_lowercase`, so Unicode rules
/// hold exactly: word-final `Σ` becomes `ς`, `İ` becomes `i̇`, and the
/// Kelvin sign `K` becomes the ASCII `k`.
///
/// ```
/// use thor_text::with_lowercase;
/// assert!(with_lowercase("The", |w| w == "the"));
/// assert!(with_lowercase("ΟΔΟΣ", |w| w == "οδος"));
/// ```
pub fn with_lowercase<R>(word: &str, f: impl FnOnce(&str) -> R) -> R {
    if word.is_ascii() {
        if !word.bytes().any(|b| b.is_ascii_uppercase()) {
            return f(word);
        }
        if word.len() <= LOWERCASE_BUF {
            let mut buf = [0u8; LOWERCASE_BUF];
            let lower = &mut buf[..word.len()];
            lower.copy_from_slice(word.as_bytes());
            lower.make_ascii_lowercase();
            return f(std::str::from_utf8(lower).expect("lowercased ASCII is UTF-8"));
        }
    }
    f(&word.to_lowercase())
}

/// The tokens of `s` that [`fold_token`] keeps, not yet lowercased.
/// Splits like [`normalize_phrase`], on Unicode whitespace: the
/// vertical tab is whitespace there but not to `split_ascii_whitespace`.
fn kept_tokens(s: &str) -> impl Iterator<Item = &str> {
    s.split_whitespace()
        .map(trim_outer_punctuation)
        .filter(|tok| !tok.is_empty())
}

/// Normalize a multi-word phrase: fold every token, drop empties, join
/// with single spaces.
///
/// ```
/// use thor_text::normalize_phrase;
/// assert_eq!(normalize_phrase("  The Nervous  SYSTEM. "), "the nervous system");
/// ```
pub fn normalize_phrase(phrase: &str) -> String {
    let mut out = String::with_capacity(phrase.len());
    normalize_phrase_into(phrase, &mut out);
    out
}

/// [`normalize_phrase`] into `out`, replacing its contents: the form a
/// hot loop uses with one buffer reused across calls.
///
/// Each token [`fold_token`] keeps is appended in place: an ASCII token
/// is lowercased where it lands, so no token allocates; a non-ASCII one
/// goes through `str::to_lowercase` for its exact Unicode rules (a
/// token-final `Σ` becomes `ς`).
///
/// ```
/// use thor_text::normalize_phrase_into;
/// let mut buf = String::from("stale");
/// normalize_phrase_into("  The Nervous  SYSTEM. ", &mut buf);
/// assert_eq!(buf, "the nervous system");
/// ```
pub fn normalize_phrase_into(phrase: &str, out: &mut String) {
    out.clear();
    for tok in kept_tokens(phrase) {
        if !out.is_empty() {
            out.push(' ');
        }
        if tok.is_ascii() {
            let start = out.len();
            out.push_str(tok);
            out[start..].make_ascii_lowercase();
        } else {
            out.push_str(&tok.to_lowercase());
        }
    }
}

/// `normalize_phrase(a) == normalize_phrase(b)`, without allocating
/// when both sides are ASCII.
///
/// On ASCII text [`fold_token`]'s lowercasing is ASCII case folding, so
/// the folded tokens of `a` and `b` are compared in place, skipping the
/// ones that fold to nothing. Any non-ASCII side falls back to the
/// allocating comparison, because Unicode lowercasing can change length
/// or turn a non-ASCII character into an ASCII one (the Kelvin sign
/// `K` lowercases to `k`).
///
/// ```
/// use thor_text::normalized_eq;
/// assert!(normalized_eq("The Nervous  SYSTEM.", "the nervous system"));
/// assert!(!normalized_eq("nervous system", "nervous systems"));
/// ```
pub fn normalized_eq(a: &str, b: &str) -> bool {
    if !(a.is_ascii() && b.is_ascii()) {
        return normalize_phrase(a) == normalize_phrase(b);
    }
    let (mut xs, mut ys) = (kept_tokens(a), kept_tokens(b));
    loop {
        match (xs.next(), ys.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if x.eq_ignore_ascii_case(y) => {}
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_basic() {
        assert_eq!(fold_token("Lungs"), "lungs");
        assert_eq!(fold_token("LUNGS,"), "lungs");
        assert_eq!(fold_token("(brain)"), "brain");
    }

    #[test]
    fn fold_keeps_inner_marks() {
        assert_eq!(fold_token("Non-Cancerous"), "non-cancerous");
        assert_eq!(fold_token("Alzheimer's"), "alzheimer's");
    }

    #[test]
    fn fold_pure_punct_to_empty() {
        assert_eq!(fold_token("..."), "");
        assert_eq!(fold_token("!?"), "");
    }

    #[test]
    fn phrase_collapses_whitespace() {
        assert_eq!(normalize_phrase("nervous   system"), "nervous system");
        assert_eq!(normalize_phrase(" a  b\tc "), "a b c");
    }

    #[test]
    fn phrase_drops_punct_only_tokens() {
        assert_eq!(
            normalize_phrase("the lungs , and heart ."),
            "the lungs and heart"
        );
    }

    #[test]
    fn with_lowercase_matches_str_to_lowercase() {
        let long = "A".repeat(LOWERCASE_BUF + 1);
        for word in [
            "",
            "lungs",
            "The",
            "MiXeD-Case's",
            &long[..LOWERCASE_BUF],
            &long,
            "ΟΔΟΣ",
            "İSTANBUL",
            "STRAẞE",
            "ǅemal",
            "\u{212A}NOWS",
        ] {
            with_lowercase(word, |lower| {
                assert_eq!(lower, word.to_lowercase(), "{word:?}")
            });
        }
    }

    #[test]
    fn idempotent() {
        let p = "slow-growing non-cancerous brain tumor";
        assert_eq!(normalize_phrase(&normalize_phrase(p)), normalize_phrase(p));
    }
}
